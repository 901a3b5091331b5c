"""Tests for Gram matrices, action matrices, and the associated-order reduction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hopfq.errors import (
    GramFormatError,
    RankDeficientError,
    SingularDescriptorError,
    ValidationError,
)
from hopfq.fields import (
    BiquadraticParams,
    CyclicQuarticParams,
    canonicalize_biquadratic,
    classify_cyclic_case,
    integral_basis_biquadratic,
    integral_basis_cyclic,
    validate_cyclic,
)
from hopfq.hopf import (
    BIQUAD_H1,
    BIQUAD_H2,
    BIQUAD_H3,
    CYCLIC_NONCLASSICAL,
    StructureId,
    action_matrix,
    change_basis,
    generator_determinant,
    gram_classical,
    mult_table,
    multiply,
    parse_gram_text,
    reduction_report,
    structures_for,
)
from hopfq.hopf import test_generator as generator_passes
from hopfq.linalg import det, mat_inv

from helpers import (
    classical_structure,
    format_gram_text,
    gram_nonclassical,
    mat,
    mat_mul,
    mat_vec,
    transpose,
)

F = Fraction


def unit(i: int) -> list:
    return [F(1 if t == i else 0) for t in range(4)]


def vec(*entries) -> list:
    return [F(x) for x in entries]


def combo(coeffs: dict) -> list:
    """Coordinate vector with entries given as {position: coefficient}."""
    return [F(coeffs.get(t, 0)) for t in range(4)]


def row_as_matrix(gram_row: list) -> list:
    """4x4 matrix of the linear map sending e_j to the row's j-th entry."""
    return [[gram_row[j][t] for j in range(4)] for t in range(4)]


CYCLIC_SAMPLES = [
    validate_cyclic(1, 9, 5),   # case 1, d = 106
    validate_cyclic(1, 3, 1),   # case 1, d = 10
    validate_cyclic(1, 3, 2),   # case 2, d = 13
    validate_cyclic(1, 2, 1),   # case 3, d = 5
    validate_cyclic(3, 2, 3),   # case 4, d = 13
    validate_cyclic(3, 2, 1),   # case 5, d = 5
]

BIQUAD_SAMPLES = [
    canonicalize_biquadratic(3, 2),     # first type
    canonicalize_biquadratic(-1, -6),   # first type, negative radicands
    canonicalize_biquadratic(5, -2),    # second type
    canonicalize_biquadratic(-3, 2),    # second type
    canonicalize_biquadratic(-3, -7),   # third type
    canonicalize_biquadratic(5, 13),    # third type
]

ALL_SAMPLES = CYCLIC_SAMPLES + BIQUAD_SAMPLES


def cyclic_case(p: CyclicQuarticParams) -> int:
    return classify_cyclic_case(p)


def nonclassical(p) -> StructureId:
    return structures_for(p)[0]


# ---- multiplication table ----

def test_mult_table_identity_and_pinned_cyclic_products():
    p = validate_cyclic(1, 3, 1)
    table = mult_table(p)
    for j in range(4):
        assert table[0][j] == unit(j)
        assert table[j][0] == unit(j)
    assert table[1][2] == vec(0, 0, 3, 1)      # sqrt(d) * z = b z + c w
    assert table[1][3] == vec(0, 0, 1, -3)     # sqrt(d) * w = c z - b w
    assert table[1][1] == vec(10, 0, 0, 0)
    assert table[2][2] == vec(10, 3, 0, 0)     # z^2 = a d + a b sqrt(d)
    assert table[3][3] == vec(10, -3, 0, 0)
    assert table[2][3] == vec(0, 1, 0, 0)      # z w = a c sqrt(d)


def test_mult_table_pinned_biquadratic_products():
    p = canonicalize_biquadratic(5, -2)
    table = mult_table(p)
    assert table[1][2] == vec(0, 0, 0, 1)      # sqrt(m) sqrt(n) = d sqrt(k)
    assert table[1][1] == vec(5, 0, 0, 0)
    assert table[2][2] == vec(-2, 0, 0, 0)
    assert table[3][3] == vec(-10, 0, 0, 0)
    assert table[1][3] == vec(0, 0, 5, 0)      # sqrt(m) sqrt(k) = (m/d) sqrt(n)
    assert table[2][3] == vec(0, -2, 0, 0)     # sqrt(n) sqrt(k) = (n/d) sqrt(m)


@pytest.mark.parametrize("p", ALL_SAMPLES)
def test_mult_table_is_commutative_and_associative(p):
    table = mult_table(p)
    for i in range(4):
        for j in range(4):
            assert table[i][j] == table[j][i]
    for i in range(4):
        for j in range(4):
            for l in range(4):
                left = multiply(table[i][j], unit(l), table)
                right = multiply(unit(i), table[j][l], table)
                assert left == right


# ---- classical Gram matrices ----

def test_gram_classical_cyclic_rows():
    g = gram_classical(validate_cyclic(1, 9, 5))
    assert g[0] == [unit(0), unit(1), unit(2), unit(3)]
    assert g[1] == [unit(0), combo({1: -1}), unit(3), combo({2: -1})]
    assert g[1][2] == unit(3)  # generator sends z to w
    assert g[2] == [unit(0), unit(1), combo({2: -1}), combo({3: -1})]
    assert g[3] == [unit(0), combo({1: -1}), combo({3: -1}), unit(2)]


def test_gram_classical_biquadratic_rows():
    g = gram_classical(canonicalize_biquadratic(5, -2))
    assert g[0] == [unit(0), unit(1), unit(2), unit(3)]
    assert g[1] == [unit(0), combo({1: -1}), unit(2), combo({3: -1})]
    assert g[2] == [unit(0), unit(1), combo({2: -1}), combo({3: -1})]
    assert g[3] == [unit(0), combo({1: -1}), combo({2: -1}), unit(3)]


@pytest.mark.parametrize("p", ALL_SAMPLES)
def test_classical_rows_are_ring_automorphisms(p):
    table = mult_table(p)
    gram = gram_classical(p)
    for row in gram:
        assert row[0] == unit(0)  # fixes the identity element
        matrix = row_as_matrix(row)
        for i in range(4):
            for j in range(4):
                image_of_product = [
                    sum(matrix[t][s] * table[i][j][s] for s in range(4))
                    for t in range(4)
                ]
                product_of_images = multiply(row[i], row[j], table)
                assert image_of_product == product_of_images


@pytest.mark.parametrize("p", CYCLIC_SAMPLES)
def test_classical_rows_satisfy_cyclic_group_law(p):
    ident, s1, s2, s3 = [row_as_matrix(r) for r in gram_classical(p)]
    assert mat_mul(s1, s1) == s2
    assert mat_mul(s1, s2) == s3
    assert mat_mul(s1, s3) == ident
    assert mat_mul(s2, s2) == ident


@pytest.mark.parametrize("p", BIQUAD_SAMPLES)
def test_classical_rows_satisfy_klein_group_law(p):
    ident, s, t, st = [row_as_matrix(r) for r in gram_classical(p)]
    assert mat_mul(s, s) == ident
    assert mat_mul(t, t) == ident
    assert mat_mul(st, st) == ident
    assert mat_mul(s, t) == st
    assert mat_mul(t, s) == st
    assert mat_mul(s, st) == t
    assert mat_mul(t, st) == s


# ---- non-classical Gram matrices over the reference basis ----

def test_gram_nonclassical_cyclic_rows():
    p = validate_cyclic(1, 9, 5)
    g = gram_nonclassical(p, nonclassical(p))
    assert g[0] == [unit(0), unit(1), unit(2), unit(3)]
    assert g[1] == [unit(0), unit(1), combo({2: -1}), combo({3: -1})]
    assert g[2] == [combo({0: 2}), combo({1: -2}), combo({}), combo({})]
    assert g[3][2] == combo({2: 10, 3: -18})  # 2c e3 - 2b e4
    assert g[3] == [
        combo({}),
        combo({}),
        combo({2: 10, 3: -18}),
        combo({2: -18, 3: -10}),
    ]


@pytest.mark.parametrize("p", BIQUAD_SAMPLES)
def test_gram_nonclassical_biquadratic_rows(p):
    m, n, k, d = p.m, p.n, p.k, p.d
    h1, h2, h3 = structures_for(p)
    g1 = gram_nonclassical(p, h1)
    assert g1[1] == gram_classical(p)[2]
    assert g1[2] == [combo({0: 2}), combo({1: -2}), combo({}), combo({})]
    assert g1[3] == [
        combo({}),
        combo({}),
        combo({3: 2 * d}),
        combo({2: -2 * m // d}),
    ]
    g2 = gram_nonclassical(p, h2)
    assert g2[1] == gram_classical(p)[1]
    assert g2[2] == [combo({0: 2}), combo({}), combo({2: -2}), combo({})]
    assert g2[3] == [
        combo({}),
        combo({3: 2 * d}),
        combo({}),
        combo({1: -2 * n // d}),
    ]
    g3 = gram_nonclassical(p, h3)
    assert g3[1] == gram_classical(p)[3]
    assert g3[2] == [combo({0: 2}), combo({}), combo({}), combo({3: -2})]
    assert g3[3] == [
        combo({}),
        combo({2: -2 * m // d}),
        combo({1: 2 * n // d}),
        combo({}),
    ]


def test_gram_nonclassical_rejects_mismatched_family():
    cyclic = validate_cyclic(1, 3, 1)
    biquad = canonicalize_biquadratic(5, -2)
    with pytest.raises(ValidationError):
        gram_nonclassical(cyclic, StructureId(BIQUAD_H1, "sqrt(5)"))
    with pytest.raises(ValidationError):
        gram_nonclassical(biquad, StructureId(CYCLIC_NONCLASSICAL, "sqrt(10)"))
    with pytest.raises(ValidationError):
        gram_nonclassical(cyclic, classical_structure(cyclic))


def test_structures_for_families_and_tags():
    p = validate_cyclic(1, 9, 5)
    assert [s.family for s in structures_for(p)] == [CYCLIC_NONCLASSICAL]
    assert structures_for(p)[0].subfield_tag == "sqrt(106)"
    q = canonicalize_biquadratic(-3, -7)
    assert [s.family for s in structures_for(q)] == [BIQUAD_H1, BIQUAD_H2, BIQUAD_H3]
    assert [s.subfield_tag for s in structures_for(q)] == [
        "sqrt(-3)",
        "sqrt(-7)",
        "sqrt(21)",
    ]


# ---- change of basis ----

def test_change_basis_identity_descriptor_is_noop():
    p = validate_cyclic(1, 9, 5)
    g = gram_nonclassical(p, nonclassical(p))
    assert change_basis(g, mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])) == g


def test_change_basis_rejects_singular_descriptor():
    p = validate_cyclic(1, 9, 5)
    g = gram_classical(p)
    desc = mat([[1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(SingularDescriptorError):
        change_basis(g, desc)
    with pytest.raises(SingularDescriptorError):  # no content to divide out
        change_basis(g, mat([[0] * 4 for _ in range(4)]))


def test_change_basis_case_two_galois_image_of_half_trace_element():
    p = validate_cyclic(1, 3, 2)  # case 2
    g = change_basis(gram_classical(p), integral_basis_cyclic(p))
    # sigma maps (1 + sqrt(d))/2 to gamma_1 - gamma_2
    assert g[1][1] == vec(1, -1, 0, 0)


def test_change_basis_biquadratic_first_type_pinned_entries():
    p = canonicalize_biquadratic(3, 2)  # first type, d = 1
    basis = integral_basis_biquadratic(p)
    h1, h2, _ = structures_for(p)
    g1 = change_basis(gram_nonclassical(p, h1), basis)
    d, m, n = p.d, p.m, p.n
    assert g1[3][2] == combo({2: -2 * d, 3: 4 * d})
    g2 = change_basis(gram_nonclassical(p, h2), basis)
    assert g2[3] == [
        combo({}),
        combo({2: -2 * d, 3: 4 * d}),
        combo({}),
        combo({1: F(-n, d)}),
    ]


small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
square4 = st.lists(st.lists(small_rational, min_size=4, max_size=4), min_size=4, max_size=4)
gram4 = st.lists(
    st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=4, max_size=4),
    min_size=4, max_size=4)


@given(square4, gram4)
@example(mat([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
         [[[1, 0, 0, 0]] * 4] * 4)  # output 1/2: an entry that is not an integer
@settings(max_examples=60, deadline=None)
def test_change_basis_rational_descriptor_expands_back(descriptor, gram):
    assume(det(descriptor) != 0)
    out = change_basis(gram, descriptor)
    for i in range(4):
        for j in range(4):
            expanded = [sum(out[i][j][t] * descriptor[t][s] for t in range(4)) for s in range(4)]
            direct = [sum(descriptor[j][l] * gram[i][l][s] for l in range(4)) for s in range(4)]
            assert expanded == direct


# ---- full Gram displays in the integral basis ----

def expected_cyclic_display(p: CyclicQuarticParams, case: int) -> list:
    """Gram matrix of the non-classical structure in the integral basis."""
    b, c = p.b, p.c
    identity = [unit(0), unit(1), unit(2), unit(3)]
    if case in (1, 2, 3):
        if case == 1:
            mu_row = [unit(0), unit(1), combo({2: -1}), combo({3: -1})]
            sum_row = [combo({0: 2}), combo({1: -2}), combo({}), combo({})]
        else:
            mu_row = [unit(0), unit(1), combo({2: -1}), combo({3: -1})]
            sum_row = [combo({0: 2}), combo({0: 2, 1: -2}), combo({}), combo({})]
        if case in (1, 2):
            diff_row = [
                combo({}),
                combo({}),
                combo({2: 2 * c, 3: -2 * b}),
                combo({2: -2 * b, 3: -2 * c}),
            ]
        else:
            diff_row = [
                combo({}),
                combo({}),
                combo({2: -2 * b, 3: 2 * c}),
                combo({2: 2 * c, 3: 2 * b}),
            ]
        return [identity, mu_row, sum_row, diff_row]
    mu_row = [
        unit(0),
        unit(1),
        combo({1: 1, 2: -1}),
        combo({0: 1, 1: -1, 3: -1}),
    ]
    sum_row = [
        combo({0: 2}),
        combo({0: 2, 1: -2}),
        combo({0: 1, 1: -1}),
        combo({1: 1}),
    ]
    if case == 4:
        h = combo({0: -c, 1: b + c, 2: -2 * b, 3: 2 * c})
        h_prime = combo({0: -b, 1: b - c, 2: 2 * c, 3: 2 * b})
    else:
        h = combo({0: -c, 1: c - b, 2: 2 * b, 3: 2 * c})
        h_prime = combo({0: b, 1: -(b + c), 2: 2 * c, 3: -2 * b})
    return [identity, mu_row, sum_row, [combo({}), combo({}), h, h_prime]]


@pytest.mark.parametrize("p", CYCLIC_SAMPLES)
def test_cyclic_gram_displays_in_integral_basis(p):
    case = cyclic_case(p)
    gram = change_basis(
        gram_nonclassical(p, nonclassical(p)), integral_basis_cyclic(p)
    )
    assert gram == expected_cyclic_display(p, case)


def expected_biquad_displays(p: BiquadraticParams, kind: str) -> list:
    """The three non-classical Gram matrices in the integral basis."""
    m, n, k, d = p.m, p.n, p.k, p.d
    identity = [unit(0), unit(1), unit(2), unit(3)]
    if kind == "first":
        g1 = [
            identity,
            [unit(0), unit(1), combo({2: -1}), combo({3: -1})],
            [combo({0: 2}), combo({1: -2}), combo({}), combo({})],
            [
                combo({}),
                combo({}),
                combo({2: -2 * d, 3: 4 * d}),
                combo({2: -m // d - d, 3: 2 * d}),
            ],
        ]
        g2 = [
            identity,
            [unit(0), combo({1: -1}), unit(2), combo({2: 1, 3: -1})],
            [combo({0: 2}), combo({}), combo({2: -2}), combo({2: -1})],
            [
                combo({}),
                combo({2: -2 * d, 3: 4 * d}),
                combo({}),
                combo({1: F(-n, d)}),
            ],
        ]
        g3 = [
            identity,
            [unit(0), combo({1: -1}), combo({2: -1}), combo({2: -1, 3: 1})],
            [combo({0: 2}), combo({}), combo({}), combo({2: 1, 3: -2})],
            [
                combo({}),
                combo({2: F(-2 * m, d)}),
                combo({1: F(2 * n, d)}),
                combo({1: F(n, d)}),
            ],
        ]
        return [g1, g2, g3]
    if kind == "second":
        g1 = [
            identity,
            [unit(0), unit(1), combo({2: -1}), combo({3: -1})],
            [combo({0: 2}), combo({0: 2, 1: -2}), combo({}), combo({})],
            [
                combo({}),
                combo({}),
                combo({2: -2 * d, 3: 4 * d}),
                combo({2: -m // d - d, 3: 2 * d}),
            ],
        ]
        g2 = [
            identity,
            [unit(0), combo({0: 1, 1: -1}), unit(2), combo({2: 1, 3: -1})],
            [combo({0: 2}), combo({0: 1}), combo({2: -2}), combo({2: -1})],
            [
                combo({}),
                combo({2: -d, 3: 2 * d}),
                combo({}),
                combo({0: F(n, d), 1: F(-2 * n, d)}),
            ],
        ]
        g3 = [
            identity,
            [unit(0), combo({0: 1, 1: -1}), combo({2: -1}), combo({2: -1, 3: 1})],
            [combo({0: 2}), combo({0: 1}), combo({}), combo({2: 1, 3: -2})],
            [
                combo({}),
                combo({2: F(-m, d)}),
                combo({0: F(-2 * n, d), 1: F(4 * n, d)}),
                combo({0: F(-n, d), 1: F(2 * n, d)}),
            ],
        ]
        return [g1, g2, g3]
    x_entry = combo({0: m, 1: -2 * d, 2: -2 * m, 3: 4 * d})
    y_entry = combo(
        {0: F(m * (m + 1), 2 * d), 1: -m, 2: F(-m * (m + 1), d), 3: 2 * m}
    )
    g1 = [
        identity,
        [unit(0), unit(1), combo({0: 1, 2: -1}), combo({1: 1, 3: -1})],
        [
            combo({0: 2}),
            combo({0: 2, 1: -2}),
            combo({0: 1}),
            combo({0: 1, 1: -1}),
        ],
        [combo({}), combo({}), x_entry, y_entry],
    ]
    g2 = [
        identity,
        [
            unit(0),
            combo({0: 1, 1: -1}),
            unit(2),
            combo({0: F(d - m, 2 * d), 2: F(m, d), 3: -1}),
        ],
        [
            combo({0: 2}),
            combo({0: 1}),
            combo({0: 2, 2: -2}),
            combo({0: F(m + d, 2 * d), 2: F(-m, d)}),
        ],
        [
            combo({}),
            x_entry,
            combo({}),
            combo(
                {
                    0: F(n, 2 * d) + F(m, 2),
                    1: -(d + n // d),
                    2: -m,
                    3: 2 * d,
                }
            ),
        ],
    ]
    g3 = [
        identity,
        [
            unit(0),
            combo({0: 1, 1: -1}),
            combo({0: 1, 2: -1}),
            combo({0: F(d + m, 2 * d), 1: -1, 2: F(-m, d), 3: 1}),
        ],
        [
            combo({0: 2}),
            combo({0: 1}),
            combo({0: 1}),
            combo({0: F(d - m, 2 * d), 1: 1, 2: F(m, d), 3: -2}),
        ],
        [
            combo({}),
            combo({0: F(m, d), 2: F(-2 * m, d)}),
            combo({0: F(-n, d), 1: F(2 * n, d)}),
            combo(
                {
                    0: F(m * (d - n), 2 * d * d),
                    1: F(m * n, d * d),
                    2: F(-m, d),
                }
            ),
        ],
    ]
    return [g1, g2, g3]


BIQUAD_KINDS = {0: "first", 1: "first", 2: "second", 3: "second", 4: "third", 5: "third"}


@pytest.mark.parametrize("idx", range(len(BIQUAD_SAMPLES)))
def test_biquadratic_gram_displays_in_integral_basis(idx):
    p = BIQUAD_SAMPLES[idx]
    kind = BIQUAD_KINDS[idx]
    basis = integral_basis_biquadratic(p)
    expected = expected_biquad_displays(p, kind)
    for structure, want in zip(structures_for(p), expected):
        gram = change_basis(gram_nonclassical(p, structure), basis)
        assert gram == want


# ---- action matrix ----

def test_action_matrix_layout():
    p = validate_cyclic(1, 9, 5)
    gram = gram_nonclassical(p, nonclassical(p))
    m = action_matrix(gram)
    assert len(m) == 16 and all(len(row) == 4 for row in m)
    # block 3 (rows 8..11), column 4: action of the fourth algebra element on e3
    assert [m[8 + r][3] for r in range(4)] == vec(0, 0, 10, -18)
    for j in range(4):
        for r in range(4):
            for i in range(4):
                assert m[4 * j + r][i] == gram[i][j][r]


# ---- reduction ----

def integral_gram(p) -> list:
    if isinstance(p, CyclicQuarticParams):
        basis = integral_basis_cyclic(p)
    else:
        basis = integral_basis_biquadratic(p)
    return basis


def full_action(p, structure) -> list:
    return action_matrix(change_basis(gram_nonclassical(p, structure), integral_gram(p)))


CASE_ONE_D = mat([[1, 1, 2, 0], [0, 2, 2, 0], [0, 0, 4, 0], [0, 0, 0, 2]])
CASE_TWO_THREE_D = mat([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
INDEX_TWO_D = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 2]])

CYCLIC_EXPECTED_D = {1: CASE_ONE_D, 2: CASE_TWO_THREE_D, 3: CASE_TWO_THREE_D,
                     4: INDEX_TWO_D, 5: INDEX_TWO_D}
CYCLIC_EXPECTED_INDEX = {1: 16, 2: 8, 3: 8, 4: 2, 5: 2}


@pytest.mark.parametrize("p", CYCLIC_SAMPLES)
def test_cyclic_reduction_matches_expected_forms(p):
    case = cyclic_case(p)
    report = reduction_report(full_action(p, nonclassical(p)))
    assert report.hnf == CYCLIC_EXPECTED_D[case]
    assert report.index == CYCLIC_EXPECTED_INDEX[case]


BIQUAD_EXPECTED = {
    "first": (
        [mat([[1, 1, 2, 0], [0, 2, 2, 2], [0, 0, 4, 0], [0, 0, 0, 4]]),
         mat([[1, 0, 3, 0], [0, 1, 3, 0], [0, 0, 4, 0], [0, 0, 0, 2]]),
         mat([[1, 0, 3, 0], [0, 1, 3, 0], [0, 0, 4, 0], [0, 0, 0, 2]])],
        [32, 8, 8],
    ),
    "second": (
        [CASE_TWO_THREE_D,
         mat([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 2, 0], [0, 0, 0, 1]]),
         mat([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 2, 0], [0, 0, 0, 1]])],
        [8, 2, 2],
    ),
    "third": (
        [INDEX_TWO_D, INDEX_TWO_D, INDEX_TWO_D],
        [2, 2, 2],
    ),
}


@pytest.mark.parametrize("idx", range(len(BIQUAD_SAMPLES)))
def test_biquadratic_reduction_matches_expected_forms(idx):
    p = BIQUAD_SAMPLES[idx]
    expected_d, expected_idx = BIQUAD_EXPECTED[BIQUAD_KINDS[idx]]
    for structure, want_d, want_i in zip(structures_for(p), expected_d, expected_idx):
        report = reduction_report(full_action(p, structure))
        assert report.hnf == want_d
        assert report.index == want_i


def test_classical_structure_reduction_on_case_one_field():
    # Hand reduction of the classical rows over {1, sqrt(d), z, w}:
    # pivots 1, 1, 2, 4, so the group ring sits at index 8 in its order.
    p = validate_cyclic(1, 9, 5)
    report = reduction_report(action_matrix(gram_classical(p)))
    assert report.hnf == mat(
        [[1, 0, 1, 2], [0, 1, 0, 3], [0, 0, 2, 2], [0, 0, 0, 4]]
    )
    assert report.index == 8


def test_reduction_report_order_basis_inverts_hnf():
    p = validate_cyclic(1, 3, 2)
    report = reduction_report(full_action(p, nonclassical(p)))
    for idx, basis_vector in enumerate(report.order_basis):
        assert mat_vec(report.hnf, basis_vector) == unit(idx)
    assert abs(det(report.order_basis)) == F(1, report.index)


def test_reduction_report_rejects_rank_deficient_action():
    rows = [[F(1), F(0), F(0), F(0)]] * 16
    with pytest.raises(RankDeficientError):
        reduction_report(rows)


@pytest.mark.parametrize("factor", [2, F(1, 2)])
def test_reduction_of_a_scaled_action_applies_the_content_once(factor):
    p = validate_cyclic(1, 9, 5)
    action = full_action(p, nonclassical(p))
    base = reduction_report(action)
    scaled = [[factor * x for x in row] for row in action]
    report = reduction_report(scaled)
    assert report.index == factor**4 * base.index
    assert report.hnf == [[factor * x for x in row] for row in base.hnf]
    assert report.order_basis == [[x / factor for x in col] for col in base.order_basis]
    assert generator_passes(report, scaled, [1, 1, -17, 10]) is True


@pytest.mark.parametrize("p", ALL_SAMPLES)
def test_field_built_pipeline_stays_in_integers(p):
    entries = [x for row in mult_table(p) for vec in row for x in vec]
    for structure in structures_for(p):
        action = full_action(p, structure)
        report = reduction_report(action)
        entries += [x for row in action + report.hnf for x in row]
        entries += [report.index, generator_determinant(action, [1, -2, 3, 5])]
    assert all(type(x) is int for x in entries)


def random_unimodular(rng: random.Random, size: int) -> list:
    matrix = [[F(1 if i == j else 0) for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2)
        coef = F(rng.randint(-3, 3))
        for t in range(size):
            matrix[i][t] += coef * matrix[j][t]
        if rng.random() < 0.3:
            matrix[i] = [-x for x in matrix[i]]
    return matrix


@pytest.mark.parametrize("p", ALL_SAMPLES)
def test_index_invariant_under_unimodular_row_operations(p):
    rng = random.Random(20260817)
    for structure in structures_for(p):
        action = full_action(p, structure)
        base = reduction_report(action)
        u = random_unimodular(rng, 16)
        transformed = mat_mul(u, action)
        assert reduction_report(transformed).index == base.index


@pytest.mark.parametrize("p", ALL_SAMPLES)
def test_report_invariant_under_integral_basis_change(p):
    rng = random.Random(48103)
    basis = integral_gram(p)
    structure = structures_for(p)[-1]
    action = action_matrix(change_basis(gram_nonclassical(p, structure), basis))
    base = reduction_report(action)
    beta = [1, 1, -2, 3]
    base_det = generator_determinant(action, beta)
    for _ in range(3):
        v = random_unimodular(rng, 4)
        new_basis = mat_mul(v, basis)
        new_action = action_matrix(
            change_basis(gram_nonclassical(p, structure), new_basis)
        )
        new_report = reduction_report(new_action)
        assert new_report.index == base.index
        vt_inv = mat_inv(transpose(v))
        new_beta = [sum(vt_inv[i][j] * beta[j] for j in range(4)) for i in range(4)]
        assert all(x.denominator == 1 for x in new_beta)
        assert abs(generator_determinant(new_action, new_beta)) == abs(base_det)
        assert generator_passes(new_report, new_action, new_beta) == generator_passes(
            base, action, beta
        )


# ---- generator determinants ----

def test_generator_determinant_zero_beta_is_zero():
    p = validate_cyclic(1, 9, 5)
    action = full_action(p, nonclassical(p))
    assert generator_determinant(action, [0, 0, 0, 0]) == 0


def test_generator_determinant_pinned_free_generator_case_one():
    p = validate_cyclic(1, 9, 5)
    action = full_action(p, nonclassical(p))
    report = reduction_report(action)
    value = generator_determinant(action, [1, 1, -17, 10])
    assert abs(value) == 16
    assert generator_passes(report, action, [1, 1, -17, 10]) is True


def test_generator_determinant_pinned_free_generator_case_five():
    p = validate_cyclic(3, 2, 1)
    action = full_action(p, nonclassical(p))
    report = reduction_report(action)
    assert abs(generator_determinant(action, [0, 0, 0, 1])) == 2
    assert generator_passes(report, action, [0, 0, 0, 1]) is True


def test_generator_determinant_rejects_non_generator_case_four():
    p = validate_cyclic(3, 2, 3)
    action = full_action(p, nonclassical(p))
    report = reduction_report(action)
    # (-1, 1, 0, 1) has determinant of absolute value 6, not the index 2
    assert abs(generator_determinant(action, [-1, 1, 0, 1])) == 6
    assert generator_passes(report, action, [-1, 1, 0, 1]) is False
    # the corrected candidate from the solution (4, -1) does generate
    assert generator_passes(report, action, [0, -1, 2, -1]) is True


# ---- power-basis pipeline ----

def power_basis_descriptor() -> list:
    # 1, z, z^2, z^3 over the reference basis of Q(sqrt(10 + 3 sqrt(10)))
    return mat([[1, 0, 0, 0], [0, 0, 1, 0], [10, 3, 0, 0], [0, 0, 19, 3]])


def test_power_basis_gram_reduction_and_determinant():
    p = validate_cyclic(1, 3, 1)
    gram = change_basis(gram_nonclassical(p, nonclassical(p)), power_basis_descriptor())
    assert gram[2] == [
        combo({0: 2}),
        combo({}),
        combo({0: 40, 2: -2}),
        combo({}),
    ]
    assert gram[3] == [
        combo({}),
        combo({1: 40, 3: -2}),
        combo({}),
        combo({1: 780, 3: -40}),
    ]
    action = action_matrix(gram)
    report = reduction_report(action)
    assert report.hnf == CASE_ONE_D
    assert report.index == 16
    assert generator_determinant(action, [1, 1, 1, 0]) == -176


# ---- Gram text parsing ----

POWER_GRAM_TEXT = """\
# generated by tests: power basis action table
1,0,0,0 0,1,0,0 0,0,1,0 0,0,0,1
1,0,0,0 0,-1,0,0 0,0,1,0 0,0,0,-1
2,0,0,0 0,0,0,0 40,0,-2,0 0,0,0,0
0,0,0,0 0,40,0,-2 0,0,0,0 0,780,0,-40
"""


def rational_power_gram() -> list:
    """The power-basis Gram file with its algebra basis rescaled by 1, 1/2, 3/4, 2/3."""
    gram = parse_gram_text(POWER_GRAM_TEXT)
    scales = (1, F(1, 2), F(3, 4), F(2, 3))
    return [[[s * x for x in entry] for entry in row] for s, row in zip(scales, gram)]


def order_basis_actions() -> list:
    actions = [full_action(p, s) for p in ALL_SAMPLES for s in structures_for(p)]
    return actions + [action_matrix(parse_gram_text(POWER_GRAM_TEXT)),
                      action_matrix(rational_power_gram())]


@pytest.mark.parametrize("action", order_basis_actions())
def test_order_basis_solves_the_hermite_form_exactly(action):
    report = reduction_report(action)
    for idx, x in enumerate(report.order_basis):
        assert all(type(v) in (int, F) for v in x)
        assert mat_vec(report.hnf, x) == unit(idx)


@pytest.mark.parametrize("action", order_basis_actions())
def test_order_basis_is_the_sympy_inverse_of_the_hermite_form(action):
    sympy = pytest.importorskip("sympy")
    report = reduction_report(action)
    d_matrix = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in report.hnf])
    inverse = d_matrix.inv()
    assert report.order_basis == [[F(int(inverse[t, i].p), int(inverse[t, i].q))
                                   for t in range(4)] for i in range(4)]


def test_parse_gram_text_power_basis_round_trip():
    gram = parse_gram_text(POWER_GRAM_TEXT)
    p = validate_cyclic(1, 3, 1)
    constructed = change_basis(
        gram_nonclassical(p, nonclassical(p)), power_basis_descriptor()
    )
    assert gram == constructed
    assert parse_gram_text(format_gram_text(gram)) == gram


def test_parse_gram_text_accepts_rationals_and_blank_lines():
    text = "\n".join(
        [
            "",
            "1,0,0,0 0,1,0,0 0,0,1,0 0,0,0,1",
            "1,0,0,0 0,-1,0,0 0,0,1,0 0,0,0,-1",
            "# comment",
            "2,0,0,0 0,0,0,0 1/2,0,-2,0 0,0,0,0",
            "0,0,0,0 0,40,0,-2 0,0,0,0 0,780,0,-40",
        ]
    )
    gram = parse_gram_text(text)
    assert gram[2][2][0] == F(1, 2)


@pytest.mark.parametrize(
    "text",
    [
        "1,0,0,0 0,1,0,0 0,0,1,0 0,0,0,1",                     # too few lines
        "\n".join(["1,0,0,0 0,1,0,0 0,0,1,0"] * 4),            # too few entries
        "\n".join(["1,0,0 0,1,0,0 0,0,1,0 0,0,0,1"] * 4),      # bad tuple arity
        "\n".join(["1,0,0,x 0,1,0,0 0,0,1,0 0,0,0,1"] * 4),    # bad rational
        "\n".join(["1/0,0,0,0 0,1,0,0 0,0,1,0 0,0,0,1"] * 4),  # zero denominator
    ],
)
def test_parse_gram_text_rejects_malformed_input(text):
    with pytest.raises(GramFormatError):
        parse_gram_text(text)


# ---- property tests over random fields ----

def _try_cyclic(params):
    a, b, c = params
    try:
        return validate_cyclic(a, b, c)
    except ValidationError:
        return None


def cyclic_params():
    raw = st.tuples(st.integers(-15, 15), st.integers(1, 12), st.integers(1, 12))
    return raw.map(_try_cyclic).filter(lambda p: p is not None)


@given(cyclic_params())
@settings(max_examples=40, deadline=None)
def test_cyclic_reduction_index_matches_case_table(p):
    report = reduction_report(full_action(p, nonclassical(p)))
    assert report.index == CYCLIC_EXPECTED_INDEX[cyclic_case(p)]
    assert report.hnf == CYCLIC_EXPECTED_D[cyclic_case(p)]
