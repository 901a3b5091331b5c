"""Tests for the freeness decision procedures.

Expected decisions for the named fields were derived by hand from the
norm-form criteria and double-checked against the exhaustive box scan;
structural properties (prescreen soundness, formula/determinant identities,
parameterization invariance) are exercised over generated corpora.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import random
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfq import cli, freeness, hopf, pell
from hopfq.errors import InternalInconsistencyError, ValidationError
from hopfq.fields import (
    BiquadraticParams,
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
    ORACLE_BOUND_LIMIT,
    UNDECIDED,
    UNKNOWN,
    FreenessReport,
    PrescreenVerdict,
    brute_force_generator,
    decide_biquadratic,
    decide_cyclic,
    prescreen_biquadratic,
    prescreen_cyclic,
    summary,
    _biquad_generator,
    _biquadratic_witness,
    _cyclic_generator,
    _cyclic_equation,
    _decide,
    _equation_table,
    _factor,
    _quartic_coefficients,
    _split,
)
from hopfq.hopf import (
    action_matrix,
    change_basis,
    generator_determinant,
    reduction_report,
    structures_for,
)
from hopfq.hopf import test_generator as generator_passes
from hopfq.pell import (
    QuadForm,
    divisible_solutions,
    find_with_divisibility,
    jacobi,
    represents_one,
    solve_all,
)

from hopfq.linalg import content_primitive

from helpers import (
    closed_form_determinant,
    expanded_quartic_coefficients,
    full_box_first_point,
    gram_nonclassical,
    identity,
    is_prime,
)


DATA_DIR = Path(__file__).parent / "data"


def _cyclic_setup(p: CyclicQuarticParams):
    case = classify_cyclic_case(p)
    structure = structures_for(p)[0]
    gram = change_basis(gram_nonclassical(p, structure), integral_basis_cyclic(p))
    action = action_matrix(gram)
    return case, structure, action, reduction_report(action)


def _biquad_setup(p: BiquadraticParams, idx: int):
    structure = structures_for(p)[idx]
    descriptor = integral_basis_biquadratic(p)
    gram = change_basis(gram_nonclassical(p, structure), descriptor)
    action = action_matrix(gram)
    return structure, action, reduction_report(action)


def _pell_only_cyclic(p: CyclicQuarticParams) -> FreenessReport:
    """The cyclic decision with the prescreen left out: Pell criterion only."""
    case, structure, action, red = _cyclic_setup(p)
    target, cross = (p.b, p.c) if case <= 2 else (p.c, p.b)
    hit = find_with_divisibility(p.d, target, cross)
    witness = None if hit is None else (hit.x, hit.y, target)
    return _decide(structure, action, red, UNDECIDED, witness,
                   partial(_cyclic_generator, case, target, cross))


def _pell_only_biquadratic(p: BiquadraticParams) -> list[FreenessReport]:
    """The three biquadratic decisions with the prescreen left out."""
    kind = classify_biquadratic_type(p)
    return [_decide(*_biquad_setup(p, idx), UNDECIDED,
                    None if equation is None else _biquadratic_witness(equation),
                    partial(_biquad_generator, kind, idx, p))
            for idx, equation in enumerate(_equation_table(p, kind))]


def _make_cyclic(a: int, b: int, c: int) -> CyclicQuarticParams | None:
    try:
        return validate_cyclic(a, b, c)
    except ValidationError:
        return None


def _make_biquad(m: int, n: int) -> BiquadraticParams | None:
    try:
        return canonicalize_biquadratic(m, n)
    except ValidationError:
        return None


CYCLIC_FIELDS = [
    p
    for a in (1, 3, 5, -1, -3, 7)
    for b in range(1, 13)
    for c in range(1, 13)
    if (p := _make_cyclic(a, b, c)) is not None
]

BIQUAD_FIELDS = []
_seen = set()
for _m in range(-13, 14):
    for _n in range(-13, 14):
        _p = _make_biquad(_m, _n)
        if _p is not None and (_p.m, _p.n) not in _seen:
            _seen.add((_p.m, _p.n))
            BIQUAD_FIELDS.append(_p)

SMALL_BETA = st.tuples(*[st.integers(-7, 7)] * 4)


# ---- named cyclic fields ----

def test_case1_free_field_with_pinned_generator():
    p = validate_cyclic(1, 9, 5)
    r = decide_cyclic(p)
    assert r.decision == FREE
    assert r.index == 16
    assert r.generator == (1, 1, -17, 10)
    assert r.witness == (-103, 10) and r.witness_target == 9
    assert r.method == "pell_criterion"
    _, _, action, red = _cyclic_setup(p)
    assert generator_passes(red, action, r.generator)


def test_case1_not_free_by_residue_prescreen():
    p = validate_cyclic(1, 3, 1)
    r = decide_cyclic(p)
    assert r.decision == NOT_FREE
    assert r.witness is None and r.generator is None
    assert r.method.startswith("prescreen:")
    assert _pell_only_cyclic(p).decision == NOT_FREE


def test_case1_not_free_beyond_prescreen():
    p = validate_cyclic(1, 15, 7)
    assert prescreen_cyclic(p).outcome == UNKNOWN
    r = decide_cyclic(p)
    assert r.decision == NOT_FREE
    assert r.method == "pell_criterion"


def test_case2_free_field():
    p = validate_cyclic(1, 3, 2)
    r = decide_cyclic(p)
    assert r.decision == FREE and r.index == 8
    _, _, action, red = _cyclic_setup(p)
    assert generator_passes(red, action, r.generator)
    assert generator_passes(red, action, (0, 1, 2, -1))


def test_case3_free_field():
    p = validate_cyclic(1, 2, 1)
    assert classify_cyclic_case(p) == 3
    r = decide_cyclic(p)
    assert r.decision == FREE and r.index == 8
    assert r.witness_target == p.c
    _, _, action, red = _cyclic_setup(p)
    assert generator_passes(red, action, r.generator)


def test_case4_free_field():
    p = validate_cyclic(3, 2, 3)
    assert classify_cyclic_case(p) == 4
    r = decide_cyclic(p)
    assert r.decision == FREE and r.index == 2
    _, _, action, red = _cyclic_setup(p)
    assert generator_passes(red, action, r.generator)
    assert generator_passes(red, action, (0, -1, 2, -1))


def test_case4_published_generator_coordinates():
    # the published coordinates have determinant -6, not the index 2
    p = validate_cyclic(3, 2, 3)
    _, _, action, red = _cyclic_setup(p)
    assert not generator_passes(red, action, (-1, 1, 0, 1))


def test_case4_published_generator_determinant_value():
    p = validate_cyclic(3, 2, 3)
    _, structure, action, _ = _cyclic_setup(p)
    assert generator_determinant(action, (-1, 1, 0, 1)) == -6
    assert closed_form_determinant(p, structure, (-1, 1, 0, 1)) == -6


def test_case5_free_field_with_unit_witness():
    p = validate_cyclic(3, 2, 1)
    assert classify_cyclic_case(p) == 5
    r = decide_cyclic(p)
    assert r.decision == FREE and r.index == 2
    assert r.generator == (0, 0, 0, 1)
    assert r.witness == (1, 0) and r.witness_target == 1
    assert r.method == "prescreen:target equals one"


def test_cyclic_case5_formula_handles_every_witness():
    # the corrected first coordinate makes the construction work for any
    # divisible solution, not just the smallest one
    p = validate_cyclic(3, 2, 1)
    case, _, action, red = _cyclic_setup(p)
    for x, y in [(1, 0), (9, 4), (161, 72), (-9, 4)]:
        assert x * x - 5 * y * y == 1
        beta = _cyclic_generator(case, p.c, p.b, x, y)
        assert generator_passes(red, action, beta), (x, y, beta)


# ---- named biquadratic fields ----

def _decisions_by_tag(p: BiquadraticParams) -> dict[str, str]:
    return {r.structure.subfield_tag: r.decision for r in decide_biquadratic(p)}


def test_second_type_all_blocked():
    p = canonicalize_biquadratic(5, -2)
    assert classify_biquadratic_type(p) == "second"
    reports = decide_biquadratic(p)
    assert [r.decision for r in reports] == [NOT_FREE] * 3
    assert reports[0].method.startswith("prescreen:")
    assert "multiple of four" in reports[1].method
    assert "multiple of four" in reports[2].method


def test_third_type_two_free_structures():
    p = canonicalize_biquadratic(-3, -7)
    assert classify_biquadratic_type(p) == "third"
    by_tag = _decisions_by_tag(p)
    assert by_tag == {"sqrt(-3)": FREE, "sqrt(-7)": FREE, "sqrt(21)": NOT_FREE}
    for idx, r in enumerate(decide_biquadratic(p)):
        if r.decision == FREE:
            _, action, red = _biquad_setup(p, idx)
            assert generator_passes(red, action, r.generator)


def test_first_type_coprime_positive_pair_all_free():
    p = canonicalize_biquadratic(3, 2)
    assert classify_biquadratic_type(p) == "first"
    assert set(_decisions_by_tag(p).values()) == {FREE}
    for idx, r in enumerate(decide_biquadratic(p)):
        _, action, red = _biquad_setup(p, idx)
        assert generator_passes(red, action, r.generator)
        assert r.index == (32 if idx == 0 else 8)


def test_first_type_mixed_signs():
    p = canonicalize_biquadratic(-1, -6)
    assert _decisions_by_tag(p) == {
        "sqrt(-1)": FREE, "sqrt(-6)": FREE, "sqrt(6)": NOT_FREE}


def test_third_type_real_prime_pair_never_free():
    for pair in [(5, 13), (13, 17), (5, 29)]:
        p = canonicalize_biquadratic(*pair)
        assert classify_biquadratic_type(p) == "third"
        assert set(_decisions_by_tag(p).values()) == {NOT_FREE}


def test_third_type_imaginary_prime_pairs_two_free():
    for pair in [(-3, -7), (-7, -11), (-3, -11), (-7, -23)]:
        p = canonicalize_biquadratic(*pair)
        assert classify_biquadratic_type(p) == "third"
        reports = decide_biquadratic(p)
        assert [r.decision for r in reports] == [FREE, FREE, NOT_FREE]


def test_second_type_imaginary_lead_free():
    p = canonicalize_biquadratic(-3, 2)
    assert classify_biquadratic_type(p) == "second"
    assert _decisions_by_tag(p) == {
        "sqrt(-3)": FREE, "sqrt(2)": NOT_FREE, "sqrt(-6)": NOT_FREE}


def test_mod8_rule_fixes_witness_sign():
    p = canonicalize_biquadratic(-3, 2)
    assert decide_biquadratic(p)[0].witness_target == -2
    p = canonicalize_biquadratic(-7, -11)
    reports = decide_biquadratic(p)
    assert reports[0].witness_target == 2    # 7 is 7 mod 8
    assert reports[1].witness_target == -2   # 11 is 3 mod 8


def test_mod8_rule_eliminates_exactly_one_sign():
    """x^2 + a*y^2 = +-target with a = 1 mod 4 and target twice an odd number
    has x, y odd, so only the sign with target = 1 + a mod 8 can solve:
    `pell._residue_obstructed` rules the other out, the last three where the
    target's odd part divides a, so that no odd prime of -a tests it."""
    for a, viable in ((-3, -2), (-7, 2), (-7, -14), (-3, 6), (-15, -6)):
        assert not pell._residue_obstructed(-a, viable)
        assert pell._residue_obstructed(-a, -viable)
        assert solve_all(-a, viable).kind == "indefinite"
        assert solve_all(-a, -viable).kind == "empty"
    # no elimination without the 1 mod 4 hypothesis: -a = 10 is 2 mod 4, and
    # 6 and -6 are squares modulo 5, so both signs solve.
    for target in (6, -6):
        assert not pell._residue_obstructed(10, target)
        assert solve_all(10, target).kind == "indefinite"


# ---- prescreens ----

def test_prescreen_cyclic_rules():
    assert prescreen_cyclic(validate_cyclic(3, 2, 1)).outcome == FREE
    assert prescreen_cyclic(validate_cyclic(1, 3, 1)).outcome == NOT_FREE
    assert prescreen_cyclic(validate_cyclic(1, 15, 7)).outcome == UNKNOWN
    verdict = prescreen_cyclic(validate_cyclic(1, 3, 2))
    assert verdict.outcome == FREE and "prime target" in verdict.reason


def test_prescreen_biquadratic_rules():
    first = prescreen_biquadratic(canonicalize_biquadratic(3, 2))
    assert [v.outcome for v in first] == [FREE, FREE, FREE]
    second = prescreen_biquadratic(canonicalize_biquadratic(5, -2))
    assert [v.outcome for v in second] == [NOT_FREE, NOT_FREE, NOT_FREE]
    third = prescreen_biquadratic(canonicalize_biquadratic(5, 13))
    assert [v.outcome for v in third] == [NOT_FREE, NOT_FREE, NOT_FREE]
    lenient = prescreen_biquadratic(canonicalize_biquadratic(-11, -19))
    assert [v.outcome for v in lenient] == [UNKNOWN, UNKNOWN, NOT_FREE]


@given(st.integers(1, 10**6), st.integers(1, 10**6))
@settings(max_examples=300, deadline=None)
def test_the_omitted_cyclic_rules_cannot_fire(b, c):
    """The prescreen checks residues modulo d/2 only and has no rule for a
    prime d; these are the facts that make the omitted rules dead."""
    p = _make_cyclic(1, b, c)
    assume(p is not None)
    target = _cyclic_equation(p, classify_cyclic_case(p))[0]
    assert p.d % 4 != 3
    if p.d % 2:
        assert jacobi(target % p.d, p.d) == 1
    for q in _factor(target):
        if q != 2:
            assert jacobi(p.d % q, q) == 1


def test_prescreen_cyclic_is_the_pipeline_verdict():
    for p in CYCLIC_FIELDS:
        assert prescreen_cyclic(p) == summary(p).structures[0].prescreen, p


@given(st.sampled_from(CYCLIC_FIELDS))
@settings(max_examples=120, deadline=None)
def test_prescreen_cyclic_never_contradicts_decision(p):
    verdict = prescreen_cyclic(p)
    if verdict.outcome != UNKNOWN:
        assert _pell_only_cyclic(p).decision == verdict.outcome


@given(st.sampled_from(BIQUAD_FIELDS))
@settings(max_examples=120, deadline=None)
def test_prescreen_biquadratic_never_contradicts_decision(p):
    verdicts = prescreen_biquadratic(p)
    reports = _pell_only_biquadratic(p)
    for verdict, report in zip(verdicts, reports):
        if verdict.outcome != UNKNOWN:
            assert report.decision == verdict.outcome


def test_decide_raises_on_a_free_verdict_without_a_witness():
    _, structure, action, red = _cyclic_setup(validate_cyclic(3, 2, 1))
    with pytest.raises(InternalInconsistencyError, match="has no solution"):
        _decide(structure, action, red, PrescreenVerdict(FREE, "forced"), None,
                lambda x, y: (1, 0, 0, 0))


def test_decide_raises_where_the_generator_formula_does_not_verify():
    _, structure, action, red = _cyclic_setup(validate_cyclic(3, 2, 1))
    with pytest.raises(InternalInconsistencyError, match="does not verify"):
        _decide(structure, action, red, UNDECIDED, (1, 0, 1), lambda x, y: (0, 0, 0, 0))


# ---- shared Gram matrices ----

def _typed(gram):
    return [[[(type(x), x) for x in entry] for entry in row] for row in gram]


def _check_pipeline_grams(p, descriptor) -> None:
    """Each structure's Gram equals the per-structure reference, type by type."""
    entries = summary(p).structures
    assert len(entries) == len(structures_for(p))
    for entry in entries:
        want = change_basis(gram_nonclassical(p, entry.structure), descriptor)
        assert _typed(entry.gram) == _typed(want), (p, entry.structure)


@given(st.sampled_from(CYCLIC_FIELDS))
@settings(max_examples=120, deadline=None)
def test_cyclic_pipeline_gram_matches_the_per_structure_reference(p):
    _check_pipeline_grams(p, integral_basis_cyclic(p))


@given(st.sampled_from(BIQUAD_FIELDS))
@settings(max_examples=120, deadline=None)
def test_biquadratic_pipeline_gram_matches_the_per_structure_reference(p):
    _check_pipeline_grams(p, integral_basis_biquadratic(p))


def test_pipeline_gram_matches_the_reference_in_every_case_and_type():
    """One field of each cyclic case and biquadratic type; the third type's
    descriptor carries m/(4d)."""
    cyclic = {classify_cyclic_case(p): p for p in reversed(CYCLIC_FIELDS)}
    biquad = {classify_biquadratic_type(p): p for p in reversed(BIQUAD_FIELDS)}
    assert sorted(cyclic) == [1, 2, 3, 4, 5]
    assert sorted(biquad) == ["first", "second", "third"]
    third = biquad["third"]
    assert integral_basis_biquadratic(third)[3][2] == Fraction(third.m, 4 * third.d)
    for p in cyclic.values():
        _check_pipeline_grams(p, integral_basis_cyclic(p))
    for p in biquad.values():
        _check_pipeline_grams(p, integral_basis_biquadratic(p))


def test_a_field_moves_each_row_it_reads_once(monkeypatch):
    """A cyclic field moves sigma^2, sigma + sigma^3 and its z row; a
    biquadratic field moves its three automorphisms, each some structure's mu,
    and three z rows."""
    moved = []

    def counted(gram, descriptor):
        moved.append(len(gram))
        return change_basis(gram, descriptor)

    monkeypatch.setattr(hopf, "change_basis", counted)
    cyclic, biquad = CYCLIC_FIELDS[0], BIQUAD_FIELDS[0]
    grams = hopf.structure_grams(cyclic, integral_basis_cyclic(cyclic))
    hopf.structure_grams(biquad, integral_basis_biquadratic(biquad))
    assert moved == [3, 6]
    classical = change_basis(hopf.gram_classical(cyclic), integral_basis_cyclic(cyclic))
    assert grams[0][1] == classical[2]
    assert grams[0][2] == [[x + y for x, y in zip(u, v)] for u, v in zip(classical[1], classical[3])]


# ---- report invariants ----

def _check_report_invariants(p, report: FreenessReport, action, red) -> None:
    assert report.index == red.index
    if report.decision == FREE:
        assert report.generator is not None
        assert generator_passes(red, action, report.generator)
    else:
        assert report.witness is None and report.generator is None


@given(st.sampled_from(CYCLIC_FIELDS))
@settings(max_examples=100, deadline=None)
def test_cyclic_report_invariants(p):
    case, _, action, red = _cyclic_setup(p)
    report = decide_cyclic(p)
    _check_report_invariants(p, report, action, red)
    if report.witness is not None:
        x, y = report.witness
        target, cross = (p.b, p.c) if case <= 2 else (p.c, p.b)
        assert report.witness_target == target
        assert x * x - p.d * y * y == target
        assert (x - cross * y) % target == 0


@given(st.sampled_from(BIQUAD_FIELDS))
@settings(max_examples=100, deadline=None)
def test_biquadratic_report_invariants(p):
    radicands = (p.m, p.n, p.k)
    for idx, report in enumerate(decide_biquadratic(p)):
        _, action, red = _biquad_setup(p, idx)
        _check_report_invariants(p, report, action, red)
        if report.witness is not None:
            x, y = report.witness
            assert x * x + radicands[idx] * y * y == report.witness_target


# ---- closed determinant formulas against the matrix construction ----

@given(st.sampled_from(CYCLIC_FIELDS), SMALL_BETA)
@settings(max_examples=150, deadline=None)
def test_cyclic_closed_form_matches_matrix(p, beta):
    _, structure, action, _ = _cyclic_setup(p)
    assert closed_form_determinant(p, structure, beta) == generator_determinant(action, beta)


@given(st.sampled_from(BIQUAD_FIELDS), st.integers(0, 2), SMALL_BETA)
@settings(max_examples=150, deadline=None)
def test_biquadratic_closed_form_matches_matrix(p, idx, beta):
    structure, action, _ = _biquad_setup(p, idx)
    assert closed_form_determinant(p, structure, beta) == generator_determinant(action, beta)


@given(st.sampled_from([p for p in BIQUAD_FIELDS
                        if classify_biquadratic_type(p) == "second"]), SMALL_BETA)
@settings(max_examples=80, deadline=None)
def test_second_type_determinant_multiple_of_four(p, beta):
    for idx in (1, 2):
        structure, _, red = _biquad_setup(p, idx)
        assert red.index == 2
        value = closed_form_determinant(p, structure, beta)
        assert value % 4 == 0


# ---- dual routes: norm equation with divisibility vs form cycle ----

@given(st.sampled_from(CYCLIC_FIELDS))
@settings(max_examples=120, deadline=None)
def test_cyclic_decision_matches_form_representation(p):
    case = classify_cyclic_case(p)
    target, cross = (p.b, p.c) if case <= 2 else (p.c, p.b)
    report = _pell_only_cyclic(p)
    expected = represents_one(QuadForm(target, 2 * cross, -target))
    assert (report.decision == FREE) == expected


# ---- the cyclic criterion reads only the class representatives ----

@given(st.sampled_from(CYCLIC_FIELDS))
@settings(max_examples=120, deadline=None)
def test_cyclic_divisibility_is_a_class_invariant(p):
    target, cross = _cyclic_equation(p, classify_cyclic_case(p))
    classes = solve_all(p.d, target)
    witness = summary(p).structures[0].report.witness
    walked = find_with_divisibility(p.d, target, cross)
    assert witness == (None if walked is None else tuple(walked))
    if classes.kind == "empty":
        return
    assert classes.kind == "indefinite"
    t, u = classes.unit
    assert (t - cross * u) * (t + cross * u) % target == 1 % target

    def qualifies(v):
        return (v.x - cross * v.y) % target == 0

    for rep in classes.solutions:
        assert rep.y > 0 or (rep.y == 0 and rep.x > 0), rep
        for k in range(-2, 3):
            v = pell._unit_power(t, u, p.d, rep, k)
            for w in (v, pell.PellSolution(-v.x, -v.y)):
                assert w.x**2 - p.d * w.y**2 == target
                assert qualifies(w) == qualifies(rep), (p, rep, k, w)
    # Only the class of the square root cross of d modulo target can qualify.
    assert sum(map(qualifies, classes.solutions)) <= 1


def _corpus_cyclic_fields() -> list[CyclicQuarticParams]:
    """The valid fields among the cyclic lines of the golden corpus."""
    fields = []
    for line in (DATA_DIR / "golden_corpus.txt").read_text(encoding="utf-8").splitlines():
        verb, *args = line.split() or [""]
        if verb == "cyclic" and len(args) == 3 and all(a.lstrip("-").isdigit() for a in args):
            if (p := _make_cyclic(*map(int, args))) is not None:
                fields.append(p)
    return fields


def test_the_cyclic_decision_reads_no_unit(monkeypatch):
    """The target and cross of the cyclic criterion are b and c of
    d = b^2 + c^2, in one order or the other, so d = cross^2 modulo the
    target: divisibility is the same all along a class, and the decision
    reads the class representatives alone, never the fundamental unit."""
    def unread(self):
        raise AssertionError("the cyclic decision read the fundamental unit")

    monkeypatch.setattr(pell.SolutionClassSet, "unit", property(unread))
    with pytest.raises(AssertionError):
        solve_all(2, 1).unit
    corpus = _corpus_cyclic_fields()
    assert len(corpus) == 76
    for p in CYCLIC_FIELDS + corpus:
        target, cross = _cyclic_equation(p, classify_cyclic_case(p))
        assert (p.d - cross * cross) % target == 0, p
        assert summary(p).structures[0].report.decision in (FREE, NOT_FREE), p


# ---- the formulas accept every witness ----

@given(st.sampled_from(CYCLIC_FIELDS))
@settings(max_examples=80, deadline=None)
def test_cyclic_formula_accepts_any_divisible_solution(p):
    case, _, action, red = _cyclic_setup(p)
    target, cross = (p.b, p.c) if case <= 2 else (p.c, p.b)
    for _, witness in zip(range(3), divisible_solutions(p.d, target, cross)):
        beta = _cyclic_generator(case, target, cross, witness.x, witness.y)
        assert generator_passes(red, action, beta), (p, witness)


@given(st.sampled_from(BIQUAD_FIELDS))
@settings(max_examples=80, deadline=None)
def test_biquadratic_formula_accepts_any_class_representative(p):
    kind = classify_biquadratic_type(p)
    radicands = (p.m, p.n, p.k)
    for idx, report in enumerate(decide_biquadratic(p)):
        if report.witness_target is None:
            continue
        _, action, red = _biquad_setup(p, idx)
        classes = solve_all(-radicands[idx], report.witness_target)
        assert classes.kind != "empty"
        for rep in classes.solutions:
            beta = _biquad_generator(kind, idx, p, rep.x, rep.y)
            assert generator_passes(red, action, beta), (p, idx, rep)


# ---- parameterization invariance ----

@pytest.mark.parametrize("pair", [(2, 6), (3, 2), (-1, -6), (5, -2), (-3, 2),
                                  (-3, -7), (-7, -11), (13, 17), (6, -15), (-5, -6)])
def test_decisions_agree_across_input_pairs(pair):
    base = canonicalize_biquadratic(*pair)
    radicands = {base.m, base.n, base.k}
    want = _decisions_by_tag(base)
    pairs = [(r, s) for r in radicands for s in radicands if r < s]
    for r, s in pairs:
        other = canonicalize_biquadratic(r, s)
        assert {other.m, other.n, other.k} == radicands
        assert _decisions_by_tag(other) == want, (pair, (r, s))


# ---- exhaustive oracle ----

def test_brute_force_examples():
    p = validate_cyclic(3, 2, 1)
    _, _, action, red = _cyclic_setup(p)
    assert brute_force_generator(red, action, 0) is None
    assert brute_force_generator(red, action, 1) == (-1, 1, 0, 1)
    found = brute_force_generator(red, action, 6)
    assert found is not None and generator_passes(red, action, found)

    p = validate_cyclic(1, 3, 1)
    _, _, action, red = _cyclic_setup(p)
    assert brute_force_generator(red, action, 15) is None


def test_brute_force_finds_nothing_for_an_all_zero_action():
    """The determinant polynomial of the zero action has no coefficient, so no
    point of the box can pass the test: None before any scan."""
    _, _, action, red = _cyclic_setup(validate_cyclic(3, 2, 1))
    assert brute_force_generator(red, [[0] * len(row) for row in action], 1) is None


def test_brute_force_raises_where_polynomial_and_matrix_determinants_disagree(monkeypatch):
    _, _, action, red = _cyclic_setup(validate_cyclic(3, 2, 1))
    monkeypatch.setattr(freeness, "test_generator", lambda *args: False)
    with pytest.raises(InternalInconsistencyError, match="disagree at"):
        brute_force_generator(red, action, 1)


@pytest.mark.parametrize("factor", [2, Fraction(1, 2)])
def test_brute_force_on_a_scaled_action(factor):
    _, _, action, _ = _cyclic_setup(validate_cyclic(3, 2, 1))
    scaled = [[factor * x for x in row] for row in action]
    assert brute_force_generator(reduction_report(scaled), scaled, 1) == (-1, 1, 0, 1)


@pytest.mark.parametrize("bound", [-1, ORACLE_BOUND_LIMIT + 1])
def test_brute_force_rejects_bound_outside_the_limit(bound):
    p = validate_cyclic(3, 2, 1)
    _, _, action, red = _cyclic_setup(p)
    with pytest.raises(ValidationError):
        brute_force_generator(red, action, bound)


def test_quartic_coefficients_match_the_256_determinant_expansion():
    count = 0
    for p in CYCLIC_FIELDS + BIQUAD_FIELDS:
        for entry in summary(p).structures:
            _, primitive = content_primitive(entry.action)
            assert _quartic_coefficients(primitive) == expanded_quartic_coefficients(primitive)
            count += 1
    assert count == len(CYCLIC_FIELDS) + 3 * len(BIQUAD_FIELDS)


def test_determinant_polynomial_is_even_in_beta():
    """The premise of the half scan: q is homogeneous of degree 4, so q(-beta) = q(beta)."""
    rng = random.Random(17)
    for p in CYCLIC_FIELDS + BIQUAD_FIELDS:
        for entry in summary(p).structures:
            _, primitive = content_primitive(entry.action)
            assert all(sum(key) == 4 for key in _quartic_coefficients(primitive))
            for _ in range(4):
                beta = [rng.randint(-9, 9) for _ in range(4)]
                assert (generator_determinant(entry.action, beta)
                        == generator_determinant(entry.action, [-b for b in beta]))


def _oracle_scan_input(action, index):
    """The arguments `brute_force_generator` hands `_first_point`, less the bound, or None."""
    content, primitive = content_primitive(action)
    coeffs = _quartic_coefficients(primitive)
    common = gcd(*coeffs.values())
    target = index // content**4
    if not coeffs or target % common:
        return None
    return _split({key: c // common for key, c in coeffs.items()}), target // common


def test_half_scan_matches_the_full_box_on_the_oracle_space():
    """`_first_point` scans the rows (beta_3, beta_4) >= (0, 0) and takes the
    smaller of each point and its mirror; the full-box scan gives the same point."""
    rng = random.Random(29)
    lines = (DATA_DIR / "oracle_space.txt").read_text().splitlines()
    fields = [validate_cyclic(*map(int, w[1:])) if w[0] == "cyclic"
              else canonicalize_biquadratic(*map(int, w[1:]))
              for w in map(str.split, rng.sample(lines, 110))]
    scans = [scan for p in fields for entry in summary(p).structures
             if (scan := _oracle_scan_input(entry.action, entry.reduction.index))]
    assert len(scans) >= 100
    mirrored = 0
    for i, (split, target) in enumerate(scans):
        for bound in (0, 1, 2, 5, 12) + ((30,) if i < 10 else ()):
            want = full_box_first_point(*split, bound, target)
            assert freeness._first_point(*split, bound, target) == want
            mirrored += want is not None and (want[2] < 0 or want[2] == 0 and want[3] < 0)
    assert mirrored >= 100


def _evaluate(poly, point):
    """Value at point of a polynomial keyed by its exponents."""
    return sum(c * math.prod(x**e for x, e in zip(point, key)) for key, c in poly.items())


def _times(g, cofactor):
    """G * cofactor keyed by the exponents of (beta_2, beta_3, beta_4), where G is
    the binary form sum_j g[j] * beta_3^(len(g) - 1 - j) * beta_4^j."""
    product = {}
    for j, c in enumerate(g):
        for (e2, e3, e4), d in cofactor.items():
            key = (e2, e3 + len(g) - 1 - j, e4 + j)
            product[key] = product.get(key, 0) + c * d
    return {key: r for key, r in product.items() if r}


@st.composite
def _synthetic_scans(draw):
    """(split, bound, target) whose R is G times a cofactor.

    G is a binary form in (beta_3, beta_4) of degree 0 to 3 whose coefficients,
    the leading one included, may be negative or zero (a zero coefficient of
    beta_4^degree makes G vanish at beta_3 = 0); the cofactor is a form in
    (beta_2, beta_3, beta_4) of the degree left.  Where q at a drawn point of
    the box lies in [1, 60], that is the target, so many scans find a point.
    """
    coefficient = st.integers(-2, 2)
    degree = draw(st.integers(0, 3))
    g = draw(st.lists(coefficient, min_size=degree + 1, max_size=degree + 1))
    monomials = [key for key in itertools.product(range(4 - degree), repeat=3)
                 if sum(key) == 3 - degree]
    cofactor = draw(st.lists(coefficient, min_size=len(monomials), max_size=len(monomials)))
    for form in (g, cofactor):  # neither may vanish
        form[0] = form[0] if any(form) else 1
    factor = _times(g, dict(zip(monomials, cofactor)))
    content = draw(st.integers(1, 3))
    linear = {key: draw(coefficient) for key in ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
    bound = draw(st.integers(0, 12))
    beta = draw(st.tuples(*[st.integers(-min(bound, 2), min(bound, 2))] * 4))
    value = abs((content * beta[0] + _evaluate(linear, beta[1:])) * _evaluate(factor, beta[1:]))
    target = value if 1 <= value <= 60 else draw(st.integers(1, 60))
    return (content, factor, linear), bound, target


@given(_synthetic_scans())
@settings(max_examples=400, deadline=None)
def test_row_content_scan_matches_the_full_box(scan):
    """`_first_point` visits only the rows where the gcd G of R's coefficients
    in beta_2 is +-t for a divisor t of the target; the full box agrees."""
    split, bound, target = scan
    assert freeness._first_point(*split, bound, target) == full_box_first_point(*split, bound, target)


def _forms(factor):
    """R's coefficients in beta_2 as `_first_point` lays them out."""
    forms = [[0] * (4 - e2) for e2 in range(4)]
    for (e2, _, e4), r in factor.items():
        forms[e2][e4] = r
    return forms


def test_candidate_rows_hold_every_row_the_gcd_test_accepts():
    """At the largest bound the candidate rows hold every row (beta_3, beta_4)
    >= (0, 0) whose coefficients in beta_2 have a gcd dividing the target, and
    number at most 2 * tau(target) * (K + 1): on oracle-space scans, and on R
    = G * cofactor with G of degree at most 1 in beta_4 and targets of many
    divisors, where G = beta_3^k takes whole rows at the beta_3 with beta_3^k
    dividing the target and none at beta_3 = 0."""
    bound = ORACLE_BOUND_LIMIT
    rng = random.Random(31)
    lines = (DATA_DIR / "oracle_space.txt").read_text().splitlines()
    fields = [validate_cyclic(*map(int, w[1:])) if w[0] == "cyclic"
              else canonicalize_biquadratic(*map(int, w[1:]))
              for w in map(str.split, rng.sample(lines, 8))]
    scans = [(split[1], target) for p in fields for entry in summary(p).structures
             if (scan := _oracle_scan_input(entry.action, entry.reduction.index))
             for split, target in [scan]]
    assert len(scans) >= 8
    quadratic = {(2, 0, 0): 1, (0, 1, 1): -1, (0, 0, 2): 3}
    linear = {(1, 0, 0): 1, (0, 0, 1): -2}
    for g in ([1, 0], [1, 2], [1, 0, 0], [3, -1, 0], [0, -2, 0]):
        factor = _times(g, quadratic if len(g) == 2 else linear)
        scans += [(factor, target) for target in (1, 12, 60)]
    for factor, target in scans:
        forms = _forms(factor)
        values = {v for t in range(1, target + 1) if not target % t for v in (t, -t)}
        candidates = {(b3, b4) for b3, b4s in freeness._candidate_rows(forms, bound, values)
                      for b4 in b4s}
        tau = len(values) // 2
        assert len(candidates) <= 2 * tau * (bound + 1)
        for b3 in range(bound + 1):
            for b4 in range(-bound if b3 else 0, bound + 1):
                row = gcd(*(sum(r * b3**(len(form) - 1 - j) * b4**j for j, r in enumerate(form))
                            for form in forms))
                if row and not target % row:
                    assert (b3, b4) in candidates


class _Watched:
    """A range that logs each time `_roots` iterates it, that is, scans it."""

    def __init__(self, xs, log):
        self.xs, self.log = xs, log

    def __contains__(self, x):
        return x in self.xs

    def __iter__(self):
        self.log.append(len(self.xs))
        return iter(self.xs)


def test_no_candidate_row_is_scanned_point_by_point_on_the_oracle_space(monkeypatch):
    """At the largest bound R has degree 1 or 2 in beta_2 on every candidate
    row of an oracle-space scan, so `_first_point` solves for beta_2 on each
    and scans none; the rows are the ones found from G by `_candidate_rows`."""
    bound = ORACLE_BOUND_LIMIT
    rng = random.Random(37)
    lines = (DATA_DIR / "oracle_space.txt").read_text().splitlines()
    fields = [validate_cyclic(*map(int, w[1:])) if w[0] == "cyclic"
              else canonicalize_biquadratic(*map(int, w[1:]))
              for w in map(str.split, rng.sample(lines, 40))]
    scans = [scan for p in fields for entry in summary(p).structures
             if (scan := _oracle_scan_input(entry.action, entry.reduction.index))]
    assert len(scans) >= 40
    roots, rows, scanned = freeness._roots, [], []

    def watched_roots(poly, values, xs):
        if sys._getframe(1).f_code.co_name == "_first_point":
            rows.append(poly)
            xs = _Watched(xs, scanned)
        return roots(poly, values, xs)

    monkeypatch.setattr(freeness, "_roots", watched_roots)
    found = sum(freeness._first_point(*split, bound, target) is not None
                for split, target in scans)
    assert found >= 10 and len(rows) >= 10 * len(scans)
    assert scanned == []


def test_brute_force_rejects_a_polynomial_of_degree_two_in_beta_1():
    # block_1 = diag(1, 1, 0, 0) and block_2 = diag(0, 0, 1, 1), so the
    # determinant is beta_1^2 * beta_2^2, which the scan cannot solve for beta_1.
    unit, zero = identity(4), [[0] * 4 for _ in range(4)]
    action = unit[:2] + zero[:2] + zero[:2] + unit[2:] + zero + zero
    with pytest.raises(InternalInconsistencyError, match="degree 2 in beta_1"):
        brute_force_generator(reduction_report(action), action, 1)


def _first_in_box(red, action, bound):
    """Reference for the oracle: a plain lexicographic scan of the box."""
    for beta in itertools.product(range(-bound, bound + 1), repeat=4):
        if generator_passes(red, action, beta):
            return beta
    return None


def test_brute_force_when_the_determinant_does_not_involve_beta_1():
    # block_2 is the identity and the other blocks vanish, so the determinant
    # is beta_2^4: every beta_1 qualifies wherever beta_2 = +-1, but no
    # determinant the pipeline builds looks like this, and the oracle says so.
    zero = [[0] * 4 for _ in range(4)]
    action = zero + identity(4) + zero + zero
    red = reduction_report(action)
    assert _first_in_box(red, action, 1) == (-1, -1, -1, -1)
    with pytest.raises(InternalInconsistencyError, match="does not involve beta_1"):
        brute_force_generator(red, action, 1)


def test_brute_force_when_the_determinant_has_no_beta_1_factor():
    # det = (beta_1 * (beta_3 + beta_4) - beta_2^2) * beta_4^2 with index 1:
    # A = (beta_3 + beta_4) * beta_4^2 does not divide B = -beta_2^2 * beta_4^2,
    # so the determinant has no factor linear in beta_1, though the first
    # point of the box passes the determinant test.
    def units(*cells):
        return [[int((r, t) in cells) for t in range(4)] for r in range(4)]

    blocks = [units((0, 0)), units((0, 1), (1, 0)), units((1, 1)), units((1, 1), (2, 2), (3, 3))]
    action = [row for block in blocks for row in block]
    red = reduction_report(action)
    assert red.index == 1
    assert _first_in_box(red, action, 1) == (-1, -1, -1, -1)
    assert _first_in_box(red, action, 2) == (-2, -1, -2, 1)
    with pytest.raises(InternalInconsistencyError, match="does not split"):
        _split(_quartic_coefficients(action))
    with pytest.raises(InternalInconsistencyError, match="does not split"):
        brute_force_generator(red, action, 1)


def test_split_divides_exactly_or_raises():
    # q = (2 * beta_1 + beta_2 - beta_4) * (3 * beta_2^3 + beta_3^2 * beta_4), keys
    # as exponents of (beta_1, ..., beta_4).
    q = {(1, 3, 0, 0): 6, (1, 0, 2, 1): 2, (0, 4, 0, 0): 3, (0, 1, 2, 1): 1,
         (0, 3, 0, 1): -3, (0, 0, 2, 2): -1}
    assert _split(q) == (2, {(3, 0, 0): 3, (0, 2, 1): 1}, {(1, 0, 0): 1, (0, 0, 1): -1})
    # beta_2^4 is not a multiple of 3 * beta_2^3 over the integers.
    with pytest.raises(InternalInconsistencyError, match="does not split"):
        _split({(1, 3, 0, 0): 6, (1, 0, 2, 1): 2, (0, 4, 0, 0): 1})


def _expand_split(content, factor, linear):
    """Monomial coefficients of (content * beta_1 + S) * R, keyed as q's."""
    coeffs = {(1, *key): content * r for key, r in factor.items()}
    for (s_key, s), (r_key, r) in itertools.product(linear.items(), factor.items()):
        key = (0, *(a + b for a, b in zip(s_key, r_key)))
        coeffs[key] = coeffs.get(key, 0) + s * r
    return {key: c for key, c in coeffs.items() if c}


def test_pipeline_determinants_split_off_a_beta_1_factor():
    rng = random.Random(23)
    setups = [_cyclic_setup(p)[2:] for p in rng.sample(CYCLIC_FIELDS, 6)]
    setups += [_biquad_setup(p, idx)[1:] for p in rng.sample(BIQUAD_FIELDS, 3)
               for idx in range(3)]
    action = setups[0][0]
    # The whole action scaled, and block 1 alone scaled (beta_1 -> 3 * beta_1),
    # which triples the content of A.
    for scaled in ([[2 * x for x in row] for row in action],
                   [[Fraction(x, 2) for x in row] for row in action],
                   [[3 * x for x in row] for row in action[:4]] + action[4:]):
        setups.append((scaled, reduction_report(scaled)))
    found = 0
    for action, red in setups:
        _, primitive = content_primitive(action)
        coeffs = _quartic_coefficients(primitive)
        assert _expand_split(*_split(coeffs)) == coeffs
        want = _first_in_box(red, action, 3)
        assert brute_force_generator(red, action, 3) == want
        found += want is not None
    assert found >= 3


def test_brute_force_returns_the_first_generator_in_the_box():
    rng = random.Random(11)
    setups = [_cyclic_setup(p)[2:] for p in rng.sample(CYCLIC_FIELDS, 10)]
    setups += [_biquad_setup(p, idx)[1:] for p in rng.sample(BIQUAD_FIELDS, 4)
               for idx in range(3)]
    found = 0
    for action, red in setups:
        want = _first_in_box(red, action, 2)
        assert brute_force_generator(red, action, 2) == want
        found += want is not None
    assert found >= 3


def test_brute_force_agrees_with_decision_on_sample():
    rng = random.Random(5)
    for p in rng.sample(CYCLIC_FIELDS, 12):
        _, _, action, red = _cyclic_setup(p)
        found = brute_force_generator(red, action, 7)
        decision = decide_cyclic(p).decision
        if found is not None:
            assert decision == FREE
        if decision == NOT_FREE:
            assert found is None
    for p in rng.sample(BIQUAD_FIELDS, 5):
        for idx, report in enumerate(decide_biquadratic(p)):
            _, action, red = _biquad_setup(p, idx)
            found = brute_force_generator(red, action, 7)
            if found is not None:
                assert report.decision == FREE
            if report.decision == NOT_FREE:
                assert found is None


# ---- aggregate summary ----

def test_summary_cyclic_shape():
    fs = summary(validate_cyclic(1, 9, 5))
    assert fs.family == "cyclic" and fs.classification == "case 1"
    (entry,) = fs.structures
    assert entry.origin is None
    assert entry.report.decision == FREE
    assert entry.reduction.index == 16
    assert entry.prescreen.outcome == UNKNOWN


def test_summary_biquadratic_orders_by_input_labels():
    # canonical order puts the 1 mod 4 radicand first; the summary restores
    # the caller's labelling
    p = canonicalize_biquadratic(2, -3)
    assert (p.m, p.n, p.k) == (-3, 2, -6)
    fs = summary(p)
    assert fs.family == "biquadratic" and fs.classification == "second"
    tags = [e.structure.subfield_tag for e in fs.structures]
    assert tags == ["sqrt(2)", "sqrt(-3)", "sqrt(-6)"]
    origins = [e.origin for e in fs.structures]
    assert origins == ["first input", "second input", "derived"]
    assert [e.report.decision for e in fs.structures] == [NOT_FREE, FREE, NOT_FREE]


def _legendre_primes(seed: int, per_class: int = 3) -> list[int]:
    """Seeded primes p in [10^5, 10^8), per_class of them = 3 mod 8 and as
    many = 7 mod 8."""
    rng, found = random.Random(seed), {3: [], 7: []}
    while min(len(primes) for primes in found.values()) < per_class:
        p = rng.randrange(10**5 + 3, 10**8, 4)  # p = 3 mod 4
        if is_prime(p) and len(found[p % 8]) < per_class:
            found[p % 8].append(p)
    return sorted(found[3] + found[7])


@pytest.mark.parametrize("n", [5, -3, 13, -7])
def test_summary_frees_h1_of_legendres_biquadratic_family(n):
    """Legendre: for a prime p = 3 mod 4, x^2 - p*y^2 = 2 is solvable when
    p = 7 mod 8, and -2 is when p = 3 mod 8.  With m = -p and n = 1 mod 4
    prime to p the field is of the third type, and its H1 structure (that of
    sqrt(-p), the first input) has the norm equation x^2 - p*y^2 = +-2, so H1
    is free with that target; the closed-form determinant, a route apart
    from the Pell solver and the matrices, checks the generator."""
    for p in _legendre_primes(2029):
        assert gcd(p, n) == 1
        field = canonicalize_biquadratic(-p, n)
        fs = summary(field)
        assert fs.classification == "third"
        entry = fs.structures[0]
        assert (entry.structure.subfield_tag, entry.origin) == (f"sqrt({-p})", "first input")
        report, target = entry.report, 2 if p % 8 == 7 else -2
        assert (report.decision, report.witness_target) == (FREE, target)
        x, y = report.witness
        assert x * x - p * y * y == target
        assert abs(closed_form_determinant(field, entry.structure, report.generator)) == report.index


def test_each_structure_is_analysed_once(monkeypatch):
    calls = {"reduction": 0, "prescreen": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    reduce = counted("reduction", freeness.reduction_report)
    monkeypatch.setattr(freeness, "reduction_report", reduce)
    monkeypatch.setattr(cli, "reduction_report", reduce)
    for name in ("_cyclic_prescreen", "prescreen_biquadratic"):
        monkeypatch.setattr(freeness, name, counted("prescreen", getattr(freeness, name)))

    summary(validate_cyclic(1, 9, 5))
    assert calls == {"reduction": 1, "prescreen": 1}
    summary(canonicalize_biquadratic(-3, -7))
    assert calls == {"reduction": 4, "prescreen": 2}

    for argv in (["cyclic", "-a", "1", "-b", "9", "-c", "5"],
                 ["biquadratic", "-m", "-3", "-n", "-7"]):
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--verify-oracle", "--oracle-bound", "2"]) == 0
    assert calls == {"reduction": 8, "prescreen": 4}


def test_the_norm_equation_is_solved_once_per_cyclic_field(monkeypatch):
    """The prime-target prescreen and the divisibility search share one solution."""
    p = validate_cyclic(1, 2, 3)
    want_verdict = prescreen_cyclic(p)
    target, cross = (p.b, p.c) if classify_cyclic_case(p) <= 2 else (p.c, p.b)
    want_witness = find_with_divisibility(p.d, target, cross)
    calls = []

    def counted(d, n):
        calls.append((d, n))
        return solve_all(d, n)

    monkeypatch.setattr(pell, "solve_all", counted)
    monkeypatch.setattr(freeness, "solve_all", counted)
    entry = summary(p).structures[0]
    assert entry.report.method == "prescreen:prime target with solvable norm equation"
    assert calls == [(p.d, target)]
    assert entry.prescreen == want_verdict
    assert entry.report.witness == tuple(want_witness)


@pytest.mark.parametrize("abc, method, digest", [
    ((1, 56724, 79619), "pell_criterion",
     "39b7639b50cf11ce8b59e48c2c20abd6eb18c5e5bac1a94e95c0ae59d6d73698"),
    ((1, 49757, 27520), "prescreen:prime target with solvable norm equation",
     "6d3b83a42c4ad2f3cc1fa8feaefe5ad03e61b4e755b8d573089f2a6515cd9d7b"),
], ids=["1-56724-79619", "1-49757-27520"])
def test_large_cyclic_decisions_are_pinned(abc, method, digest, unlimited_int_digits):
    """SHA-256 of repr((decision, method, index, witness, generator)); the
    generators run to tens of thousands of digits."""
    report = summary(validate_cyclic(*abc)).structures[0].report
    assert (report.decision, report.method) == (FREE, method)
    key = repr((report.decision, report.method, report.index, report.witness, report.generator))
    assert hashlib.sha256(key.encode()).hexdigest() == digest


# ---- deadlines at scale ----

# Generous against the ~1 s these take on one core.  A class search that
# scans every residue modulo the target takes about 2 s per 10^7 of d on a
# biquadratic field (hours at d near 10^11) and 7 s on (1, 999999, 4).
DEADLINE_S = 5.0


@pytest.mark.parametrize("m, n", [(-100000000003, -200000000006),
                                  (-299999999931, -499999999885)])
def test_biquadratic_near_1e11_is_decided_within_a_deadline(m, n):
    """d = gcd(m, n) is a prime near 10^11, so the norm equations have
    targets 2d and 4d.  Each free generator is checked by its closed-form
    determinant, a route independent of the Pell solver and of the matrices."""
    p = canonicalize_biquadratic(m, n)
    assert p.d > 9 * 10**10
    start = time.perf_counter()
    fs = summary(p)
    assert time.perf_counter() - start < DEADLINE_S
    reports = [entry.report for entry in fs.structures]
    assert "pell_criterion" in {r.method for r in reports}
    for entry, r in zip(fs.structures, reports):
        if r.decision == FREE:
            assert abs(closed_form_determinant(p, entry.structure, r.generator)) == r.index


def test_cyclic_1_999999_4_is_decided_within_a_deadline():
    """The target 999999 = 3^3 * 7 * 11 * 13 * 37 has many square roots of d."""
    start = time.perf_counter()
    report = summary(validate_cyclic(1, 999999, 4)).structures[0].report
    assert time.perf_counter() - start < DEADLINE_S
    assert (report.decision, report.method, report.index) == (NOT_FREE, "pell_criterion", 8)
    assert report.witness is None and report.generator is None


def test_cyclic_1_602827_647340_is_decided_within_a_deadline():
    """d = 602827^2 + 647340^2 is a prime near 7.8 * 10^11 whose minimal
    +-1 solution has millions of bits; the generator has about 1.4 million.
    The bound leaves room for slow machines; a walk of every class
    representative by the unit took 42 s here."""
    p = validate_cyclic(1, 602827, 647340)
    start = time.perf_counter()
    entry = summary(p).structures[0]
    assert time.perf_counter() - start < 20.0
    report = entry.report
    assert (report.decision, report.method, report.index) == (FREE, "pell_criterion", 8)
    assert 1_300_000 < max(abs(g) for g in report.generator).bit_length() < 1_400_000
    assert abs(closed_form_determinant(p, entry.structure, report.generator)) == report.index
