"""End-to-end acceptance checks for the whole pipeline.

Each test name carries the number of the check it implements
(``test_criterion_<n>_*``); the shared conftest prints one PASS/FAIL
summary line per number at the end of the run.

The named generator coordinates (-1, 1, 0, 1) for the field with
parameters (3, 2, 3) do not pass the exact determinant test (determinant
-6 against index 2).  Criterion 3 records that discrepancy as a passing
check that pins those values exactly, next to a verified generator of the
same field, which is free.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from hopfq.errors import ValidationError
from hopfq.fields import (
    CyclicQuarticParams,
    canonicalize_biquadratic,
    classify_biquadratic_type,
    classify_cyclic_case,
    integral_basis_biquadratic,
    integral_basis_cyclic,
    validate_cyclic,
)
from hopfq.freeness import (
    FREE,
    NOT_FREE,
    UNKNOWN,
    brute_force_generator,
    decide_biquadratic,
    decide_cyclic,
    summary,
)
from hopfq.hopf import (
    action_matrix,
    change_basis,
    generator_determinant,
    gram_classical,
    mult_table,
    multiply,
    reduction_report,
    structures_for,
)
from hopfq.hopf import test_generator as generator_passes
from helpers import closed_form_determinant, gram_nonclassical, solutions_within
from test_cli import POWER_GRAM_PATH, invoke_json

pytestmark = pytest.mark.acceptance


def mat(rows) -> list:
    return [[F(value) for value in row] for row in rows]


def unit(i: int) -> list:
    return [F(int(l == i)) for l in range(4)]


def full_action(p, structure) -> list:
    if isinstance(p, CyclicQuarticParams):
        descriptor = integral_basis_cyclic(p)
    else:
        descriptor = integral_basis_biquadratic(p)
    return action_matrix(change_basis(gram_nonclassical(p, structure), descriptor))


def cyclic_fields_by_case(limit: int) -> dict[int, list[CyclicQuarticParams]]:
    buckets: dict[int, list[CyclicQuarticParams]] = {case: [] for case in range(1, 6)}
    for a in (1, 3, 5, 7, -1, -3, -5, -7):
        for b in range(1, 13):
            for c in range(1, 13):
                try:
                    p = validate_cyclic(a, b, c)
                except ValidationError:
                    continue
                case = classify_cyclic_case(p)
                if len(buckets[case]) < limit:
                    buckets[case].append(p)
        if all(len(fields) == limit for fields in buckets.values()):
            break
    return buckets


CYCLIC_BY_CASE = cyclic_fields_by_case(5)

BIQUAD_PAIRS = [
    (2, 3), (-1, 2), (-2, -5), (-1, -6), (3, 2),          # first type
    (5, -2), (-3, 2), (13, -2), (29, -2), (-11, 6),       # second type
    (5, 13), (-3, -7), (13, 17), (-7, -11), (-3, 13),     # third type
]
BIQUADS = [canonicalize_biquadratic(m, n) for m, n in BIQUAD_PAIRS]
BIQUADS_BY_TYPE: dict[str, list] = {"first": [], "second": [], "third": []}
for _p in BIQUADS:
    BIQUADS_BY_TYPE[classify_biquadratic_type(_p)].append(_p)

CYCLIC_EXPECTED_INDEX = {1: 16, 2: 8, 3: 8, 4: 2, 5: 2}
BIQUAD_EXPECTED_INDEXES = {"first": [32, 8, 8], "second": [8, 2, 2], "third": [2, 2, 2]}

CASE_ONE_D = mat([[1, 1, 2, 0], [0, 2, 2, 0], [0, 0, 4, 0], [0, 0, 0, 2]])
CASE_TWO_THREE_D = mat([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
INDEX_TWO_D = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]])
CYCLIC_EXPECTED_D = {1: CASE_ONE_D, 2: CASE_TWO_THREE_D, 3: CASE_TWO_THREE_D,
                     4: INDEX_TWO_D, 5: INDEX_TWO_D}
BIQUAD_EXPECTED_D = {
    "first": [mat([[1, 1, 2, 0], [0, 2, 2, 2], [0, 0, 4, 0], [0, 0, 0, 4]]),
              mat([[1, 0, 3, 0], [0, 1, 3, 0], [0, 0, 4, 0], [0, 0, 0, 2]]),
              mat([[1, 0, 3, 0], [0, 1, 3, 0], [0, 0, 4, 0], [0, 0, 0, 2]])],
    "second": [CASE_TWO_THREE_D,
               mat([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 2, 0], [0, 0, 0, 1]]),
               mat([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 2, 0], [0, 0, 0, 1]])],
    "third": [INDEX_TWO_D, INDEX_TWO_D, INDEX_TWO_D],
}


# ---- 1: module indexes ----

def test_criterion_1_module_indexes():
    for case, fields in CYCLIC_BY_CASE.items():
        assert len(fields) >= 3
        for p in fields[:3]:
            (structure,) = structures_for(p)
            report = reduction_report(full_action(p, structure))
            assert report.index == CYCLIC_EXPECTED_INDEX[case], (p, case)
    for kind, fields in BIQUADS_BY_TYPE.items():
        assert len(fields) >= 3
        for p in fields[:3]:
            indexes = [reduction_report(full_action(p, s)).index for s in structures_for(p)]
            assert indexes == BIQUAD_EXPECTED_INDEXES[kind], (p.m, p.n, kind)


# ---- 2: reduced-matrix displays ----

def test_criterion_2_reduced_matrix_displays():
    for case, fields in CYCLIC_BY_CASE.items():
        for p in fields[:3]:
            (structure,) = structures_for(p)
            report = reduction_report(full_action(p, structure))
            assert report.hnf == CYCLIC_EXPECTED_D[case], (p, case)
    for kind, fields in BIQUADS_BY_TYPE.items():
        for p in fields[:3]:
            for structure, expected in zip(structures_for(p), BIQUAD_EXPECTED_D[kind]):
                report = reduction_report(full_action(p, structure))
                assert report.hnf == expected, (p.m, p.n, kind, structure.subfield_tag)


# ---- 3: named examples ----

def assert_verified_generator(p, report) -> None:
    action = full_action(p, report.structure)
    reduction = reduction_report(action)
    assert report.generator is not None
    assert generator_passes(reduction, action, report.generator)


def test_criterion_3_named_examples():
    # parameters (1, 9, 5): free, with the named coordinates
    report = decide_cyclic(validate_cyclic(1, 9, 5))
    assert report.decision == FREE
    assert report.generator == (1, 1, -17, 10)
    assert_verified_generator(validate_cyclic(1, 9, 5), report)

    # parameters (1, 3, 1) and (1, 15, 7): not free
    assert decide_cyclic(validate_cyclic(1, 3, 1)).decision == NOT_FREE
    assert decide_cyclic(validate_cyclic(1, 15, 7)).decision == NOT_FREE

    # parameters (1, 3, 2): free; the named coordinates (0, 1, 2, -1) verify
    p = validate_cyclic(1, 3, 2)
    report = decide_cyclic(p)
    assert report.decision == FREE
    assert_verified_generator(p, report)
    action = full_action(p, report.structure)
    assert generator_passes(reduction_report(action), action, (0, 1, 2, -1))

    # parameters (3, 2, 3): free; the named coordinates (-1, 1, 0, 1) are
    # checked in test_criterion_3_named_generator_for_39_plus_6_sqrt_13
    p = validate_cyclic(3, 2, 3)
    report = decide_cyclic(p)
    assert report.decision == FREE
    assert_verified_generator(p, report)
    action = full_action(p, report.structure)
    assert generator_passes(reduction_report(action), action, (0, -1, 2, -1))

    # parameters (3, 2, 1): free with generator exactly (0, 0, 0, 1)
    report = decide_cyclic(validate_cyclic(3, 2, 1))
    assert report.decision == FREE
    assert report.generator == (0, 0, 0, 1)

    # radicands (5, -2): not free in all three structures
    decisions = [r.decision for r in decide_biquadratic(canonicalize_biquadratic(5, -2))]
    assert decisions == [NOT_FREE, NOT_FREE, NOT_FREE]

    # radicands (-3, -7): free exactly in the structures of sqrt(-3) and sqrt(-7)
    p = canonicalize_biquadratic(-3, -7)
    by_subfield = {r.structure.subfield_tag: r.decision for r in decide_biquadratic(p)}
    assert by_subfield == {"sqrt(-3)": FREE, "sqrt(-7)": FREE, "sqrt(21)": NOT_FREE}
    for report in decide_biquadratic(p):
        if report.decision == FREE:
            assert_verified_generator(p, report)


def test_criterion_3_named_generator_for_39_plus_6_sqrt_13():
    """The named coordinates (-1, 1, 0, 1) do not generate for (3, 2, 3).

    The coordinates are named as a free generator of
    L = Q(sqrt(39 + 6*sqrt(13))), the field with parameters (3, 2, 3) in
    case 4, whose module index is 2.
    Exact arithmetic refutes the claim on every route:

    - the matrix route and the closed form both give determinant -6;
    - the quadratic factor c*b3^2 + 2*b*b3*b4 - c*b4^2 of the case-4 closed
      form is -3 at (b3, b4) = (0, 1), while a generator needs it to be +-1;
    - the determinant through the four real embeddings of L, computed from
      sigma: (sqrt(d), z, w) -> (-sqrt(d), w, -z) and no multiplication
      table, is also -6;
    - no signed permutation of the coordinates passes.

    The field itself is free: the decision returns a generator with
    determinant 2.  The same coordinates do generate for (3, 2, 1), that is
    L = Q(sqrt(15 + 6*sqrt(5))) in case 5, with determinant -2, which
    suggests that the published example names the wrong field.  The paper's
    text is not in this repository, so which field was meant stays open.
    Every value is pinned exactly, so a change of verdict on these
    coordinates fails here.
    """
    p = validate_cyclic(3, 2, 3)
    assert classify_cyclic_case(p) == 4
    (structure,) = structures_for(p)
    action = full_action(p, structure)
    reduction = reduction_report(action)
    named = (-1, 1, 0, 1)
    assert generator_determinant(action, named) == -6
    assert closed_form_determinant(p, structure, named) == -6
    assert reduction.index == 2
    assert generator_passes(reduction, action, named) is False

    report = decide_cyclic(p)
    assert report.decision == FREE
    assert report.generator == (-1, 2, -2, 1)
    assert generator_determinant(action, report.generator) == 2


# ---- 4: form cycle ----

def test_criterion_4_form_cycle():
    code, doc = invoke_json(["form-cycle", "15", "14", "-15"])
    assert code == 0
    assert doc["represents_one"] is False
    assert doc["cycle"][0] == [15, 14, -15]
    assert doc["cycle"][1:] == [
        [15, 16, -14], [14, 12, -17], [17, 22, -9], [9, 32, -2],
        [2, 32, -9], [9, 22, -17], [17, 12, -14], [14, 16, -15],
    ]


# ---- 5: power-basis rational check ----

def test_criterion_5_power_basis_rational_check():
    code, doc = invoke_json([
        "gram-file", "--gram", str(POWER_GRAM_PATH), "--beta", "1,1,1,0",
    ])
    assert code == 0
    assert doc["index"] == 16
    assert doc["beta"]["determinant"] == -176
    assert doc["beta"]["is_generator"] is False


# ---- 6: closed-form determinant identities ----

def test_criterion_6_closed_form_determinant_identities():
    rng = random.Random(1096)
    for fields in CYCLIC_BY_CASE.values():
        assert len(fields) == 5
        for p in fields:
            (structure,) = structures_for(p)
            action = full_action(p, structure)
            for _ in range(30):
                beta = tuple(rng.randint(-9, 9) for _ in range(4))
                assert generator_determinant(action, beta) == \
                    closed_form_determinant(p, structure, beta), (p, beta)
    for fields in BIQUADS_BY_TYPE.values():
        assert len(fields) == 5
        for p in fields:
            for structure in structures_for(p):
                action = full_action(p, structure)
                for _ in range(30):
                    beta = tuple(rng.randint(-9, 9) for _ in range(4))
                    assert generator_determinant(action, beta) == \
                        closed_form_determinant(p, structure, beta), (p.m, p.n, beta)


# ---- 7: Pell solver completeness ----

def test_criterion_7_pell_solver_completeness():
    box, limit = 1000, 50
    grid = np.arange(0, box + 1, dtype=np.int64)
    squares = grid * grid
    for d in range(-limit, limit + 1):
        if d == 0:
            continue
        values = squares[:, None] - d * squares[None, :]
        hits = (np.abs(values) <= limit) & (values != 0)
        brute: dict[int, set] = {}
        for x, y in np.argwhere(hits):
            n = int(values[x, y])
            x, y = int(x), int(y)
            brute.setdefault(n, set()).update({(x, y), (-x, y), (x, -y), (-x, -y)})
        for n in range(-limit, limit + 1):
            if n == 0:
                continue
            expanded = {(s.x, s.y) for s in solutions_within(d, n, box)}
            assert expanded == brute.get(n, set()), (d, n)


# ---- 8: decision-oracle equivalence ----

ORACLE_BOUND = 30


def oracle_corpus() -> list:
    fields: list = []
    for a in (1, 3, 5, 7, -1, -3, -5, -7):
        for b in range(1, 6):
            for c in range(1, 6):
                if len(fields) >= 38:
                    break
                try:
                    p = validate_cyclic(a, b, c)
                except ValidationError:
                    continue
                report = decide_cyclic(p)
                if report.generator is not None and \
                        max(abs(v) for v in report.generator) > ORACLE_BOUND:
                    continue
                fields.append(p)
    return fields + [canonicalize_biquadratic(m, n) for m, n in BIQUAD_PAIRS[:12]]


def test_criterion_8_decision_oracle_equivalence():
    corpus = oracle_corpus()
    assert len(corpus) == 50
    structures_checked = 0
    for p in corpus:
        for entry in summary(p).structures:
            action = action_matrix(entry.gram)
            report = reduction_report(action)
            decided_free = entry.report.decision == FREE
            # corpus precondition: every emitted generator fits in the search box,
            # so the search must succeed exactly on the free structures
            if entry.report.generator is not None:
                assert max(abs(v) for v in entry.report.generator) <= ORACLE_BOUND
            found = brute_force_generator(report, action, ORACLE_BOUND)
            assert (found is not None) == decided_free, (p, entry.structure.subfield_tag)
            if found is not None:
                assert generator_passes(report, action, found)
            if decided_free:
                assert generator_passes(report, action, entry.report.generator)
            if entry.prescreen.outcome != UNKNOWN:
                assert entry.prescreen.outcome == entry.report.decision, \
                    (p, entry.prescreen)
            structures_checked += 1
    assert structures_checked == 38 + 12 * 3


# ---- 9: automorphism group laws ----

def linear_image(coeffs, rows) -> list:
    return [sum(coeffs[l] * rows[l][i] for l in range(4)) for i in range(4)]


def test_criterion_9_automorphism_group_laws():
    corpus = oracle_corpus()
    for p in corpus:
        table = mult_table(p)
        gram = gram_classical(p)
        for i in range(4):
            # each row fixes the unit of the field
            assert gram[i][0] == unit(0), (p, i)
            # and is multiplicative on every basis pair
            for j in range(4):
                for k in range(4):
                    product = multiply(unit(j), unit(k), table)
                    assert multiply(gram[i][j], gram[i][k], table) == \
                        linear_image(product, gram[i]), (p, i, j, k)
        # composition law: row_i after row_j is again a row, with the
        # group structure of the family
        law = {}
        for i in range(4):
            for j in range(4):
                composed = [linear_image(gram[j][k], gram[i]) for k in range(4)]
                matches = [r for r in range(4) if gram[r] == composed]
                assert len(matches) == 1, (p, i, j)
                law[i, j] = matches[0]
        if isinstance(p, CyclicQuarticParams):
            assert all(law[i, j] == (i + j) % 4 for i in range(4) for j in range(4)), p
        else:
            assert all(law[i, j] == i ^ j for i in range(4) for j in range(4)), p
