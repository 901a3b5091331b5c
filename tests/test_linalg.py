"""Unit tests for exact linear algebra."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq.errors import HopfqError, RankDeficientError, ValidationError, ZeroMatrixError
from hopfq.linalg import (
    adjugate,
    content_primitive,
    det,
    det_adjugate_4x4,
    det_int,
    hnf,
    hnf_integer,
    mat_inv,
)

from helpers import euclidean_hnf, identity, mat, mat_eq, mat_mul

F = Fraction


# ---- content / primitive ----

def test_content_primitive_halves():
    content, primitive = content_primitive(mat([[F(1, 2), 1], [F(3, 2), 2]]))
    assert content == F(1, 2)
    assert primitive == [[1, 2], [3, 4]]


def test_content_primitive_integer_gcd():
    content, primitive = content_primitive([[2, 4], [6, 8]])
    assert content == 2
    assert primitive == [[1, 2], [3, 4]]


def test_content_primitive_zero_matrix_rejected():
    with pytest.raises(ZeroMatrixError):
        content_primitive([[0, 0], [0, 0]])


@given(
    st.lists(
        st.lists(st.fractions(max_denominator=12), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_content_primitive_roundtrip(rows):
    if all(x == 0 for row in rows for x in row):
        return
    content, primitive = content_primitive(rows)
    assert content > 0
    flat = [abs(v) for row in primitive for v in row]
    assert gcd(*flat) == 1
    rebuilt = [[content * v for v in row] for row in primitive]
    assert mat_eq(rebuilt, mat(rows))


# ---- Hermite normal form ----

def test_hnf_near_reduced_example():
    content, h = hnf([[1, 1], [0, 2], [0, 4]])
    assert h == mat([[1, 1], [0, 2]])
    assert content == 1


def test_hnf_identity_fixed_point():
    content, h = hnf(identity(4))
    assert (content, h) == (1, mat(identity(4)))


def test_hnf_stacked_intermediate():
    rows = [[1, 1, 2, 0], [0, 2, 2, -10], [0, 0, 4, 0], [0, 0, 0, 18], [0, 0, 0, 20]]
    content, h = hnf(rows)
    assert (content, h) == (1, mat([[1, 1, 2, 0], [0, 2, 2, 0], [0, 0, 4, 0], [0, 0, 0, 2]]))


def test_hnf_rank_deficient_rejected():
    with pytest.raises(RankDeficientError):
        hnf([[1, 2], [2, 4], [3, 6]])
    with pytest.raises(RankDeficientError):
        hnf([[1, 5, 3]])


small_int_matrix = st.integers(min_value=2, max_value=5).flatmap(
    lambda rows: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=2),
        min_size=rows,
        max_size=rows,
    )
)


def row_coordinates(h, row):
    """Coordinates x with x * h == row, h upper triangular (exact solve)."""
    x = []
    for i in range(len(h)):
        residual = row[i] - sum(x[k] * h[k][i] for k in range(i))
        x.append(F(residual, h[i][i]))
    return x


@given(small_int_matrix)
@settings(max_examples=80)
def test_hnf_spans_the_row_lattice_and_has_hermite_shape(rows):
    try:
        _, primitive = content_primitive(rows)
        h = hnf_integer(primitive)
    except (ZeroMatrixError, RankDeficientError):
        return
    ncols = len(rows[0])
    # every input row is an integer combination of the rows of h ...
    for row in primitive:
        assert all(x.denominator == 1 for x in row_coordinates(h, row))
    # ... and h's lattice is no larger: its determinant is the gcd of the
    # maximal minors of the input, so the two lattices are equal
    minors = [det_int([primitive[i] for i in combo])
              for combo in itertools.combinations(range(len(rows)), ncols)]
    diagonal = 1
    for i in range(ncols):
        diagonal *= h[i][i]
    assert diagonal == gcd(*minors)
    # upper triangular, positive diagonal, above-pivot entries in [0, pivot)
    assert len(h) == ncols
    for i in range(ncols):
        assert h[i][i] > 0
        for j in range(i):
            assert h[i][j] == 0
        for r in range(i):
            assert 0 <= h[r][i] < h[i][i]


@given(small_int_matrix)
@settings(max_examples=40)
def test_hnf_idempotent(rows):
    try:
        content, h = hnf(rows)
    except (ZeroMatrixError, RankDeficientError):
        return
    again_content, again_h = hnf([[content * x for x in row] for row in h])
    assert again_content == content and mat_eq(again_h, h)


@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=2),
        min_size=2,
        max_size=5,
    )
)
@settings(max_examples=60)
def test_hnf_determinant_is_gcd_of_maximal_minors(rows):
    try:
        content, h = hnf(rows)
    except (ZeroMatrixError, RankDeficientError):
        return
    n = len(rows[0])
    minors = [
        det_int([rows[i] for i in combo])
        for combo in itertools.combinations(range(len(rows)), n)
    ]
    expected = gcd(*(abs(v) for v in minors))
    assert det([[content * x for x in row] for row in h]) == expected


@st.composite
def tall_int_matrix(draw):
    """1-16 rows of 4 integers as large as 10^15; half have a dependent column."""
    entry = st.integers(-10**15, 10**15) | st.integers(-3, 3)
    nrows = draw(st.integers(1, 16))
    rows = draw(st.lists(st.lists(entry, min_size=4, max_size=4),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        dependent = draw(st.integers(0, 3))
        k = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
        for row in rows:
            row[dependent] = sum(k[j] * row[j] for j in range(4) if j != dependent)
    return rows


def _hnf_outcome(form, rows):
    try:
        return form(rows)
    except HopfqError as exc:
        return type(exc), str(exc)


@given(tall_int_matrix())
@settings(max_examples=300, deadline=None)
def test_hnf_integer_matches_the_euclidean_sweeps(rows):
    """The one-pass extended-gcd form equals the repeated Euclidean sweeps.

    Large entries would show coefficient growth in the extended gcd as a wrong
    or non-reduced result; rank-deficient input must raise the same error
    with the same message.
    """
    before = [list(row) for row in rows]
    want = _hnf_outcome(euclidean_hnf, rows)
    assert _hnf_outcome(hnf_integer, rows) == want
    assert rows == before
    if not isinstance(want, tuple):
        assert all(type(x) is int for row in hnf_integer(rows) for x in row)


# ---- determinants ----

def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


@given(
    st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=120)
def test_det_matches_cofactor_expansion(rows):
    assert det_int(rows) == cofactor_det(rows)
    assert det(mat(rows)) == cofactor_det(rows)


def test_det_int_rejects_a_non_square_matrix():
    with pytest.raises(ValidationError):
        det_int([[1, 2, 3], [4, 5, 6]])


def test_det_rational_scaling():
    m = mat([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]])
    assert det(m) == F(1, 2) * F(1, 7) - F(1, 3) * F(1, 5)


def test_det_zero_matrix_is_zero():
    assert det([[0, 0], [0, 0]]) == 0


BIG = 2**64
big_or_small = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG),
                         st.integers(BIG, BIG**2), st.integers(-(BIG**2), -BIG))


@st.composite
def four_by_four(draw):
    """A 4x4 integer matrix, singular about half the time, entries up to 2^128."""
    rows = draw(st.lists(st.lists(big_or_small, min_size=4, max_size=4),
                         min_size=4, max_size=4))
    if draw(st.booleans()):
        i, j, k, _ = draw(st.permutations(range(4)))
        s, t = draw(big_or_small), draw(big_or_small)
        rows[k] = [s * x + t * y for x, y in zip(rows[i], rows[j])]
    return rows


@given(four_by_four())
@settings(max_examples=300, deadline=None)
def test_det_adjugate_4x4_matches_bareiss(rows):
    value, adj = det_adjugate_4x4(rows)
    assert value == det_int(rows)
    assert adj == adjugate(rows)
    assert mat_mul(adj, rows) == [[value if i == j else 0 for j in range(4)] for i in range(4)]


def test_det_adjugate_4x4_of_a_singular_matrix():
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [BIG, 0, 1, -1], [0, 5, BIG**2, 7]]
    value, adj = det_adjugate_4x4(rows)
    assert value == 0
    assert adj == adjugate(rows)


def test_mat_inv_roundtrip():
    m = mat([[1, 1, 2, 0], [0, 2, 2, 0], [0, 0, 4, 0], [0, 0, 0, 2]])
    assert mat_eq(mat_mul(m, mat_inv(m)), mat(identity(4)))


def test_mat_inv_singular_rejected():
    with pytest.raises(RankDeficientError):
        mat_inv([[1, 2], [2, 4]])
