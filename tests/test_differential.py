"""Differential tests of hopfq.linalg against sympy's exact linear algebra.

sympy is an optional test dependency; without it the module is skipped.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfq.errors import RankDeficientError, ZeroMatrixError
from hopfq.linalg import det, hnf_integer, mat_inv

sympy = pytest.importorskip("sympy")
hermite_normal_form = pytest.importorskip("sympy.matrices.normalforms").hermite_normal_form


def to_fraction(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


def square_matrices(entries):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


rational_square = square_matrices(st.fractions(min_value=-5, max_value=5, max_denominator=6))


@given(rational_square)
@settings(max_examples=80, deadline=None)
def test_det_and_mat_inv_match_sympy(rows):
    reference = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                              for row in rows])
    want = to_fraction(reference.det())
    assert det(rows) == want
    if want == 0:
        with pytest.raises((RankDeficientError, ZeroMatrixError)):
            mat_inv(rows)
        return
    assert mat_inv(rows) == [[to_fraction(x) for x in row] for row in reference.inv().tolist()]


@st.composite
def full_column_rank(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 6))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    assume(sympy.Matrix(rows).rank() == n)
    return rows


@given(full_column_rank())
@settings(max_examples=80, deadline=None)
def test_hnf_integer_matches_sympy_hermite_normal_form(rows):
    """sympy returns the column form of the lattice spanned by the rows.

    Its form H is upper triangular with each row reduced modulo that row's
    diagonal entry, where hnf_integer reduces each column modulo its pivot.
    Reversing the coordinate order maps one convention onto the other: the
    row form of the reversed rows is H transposed with both axes reversed.
    """
    n = len(rows[0])
    h = hnf_integer(rows)
    reference = hermite_normal_form(sympy.Matrix(rows).T).tolist()
    lattice_det = 1
    for i in range(n):
        lattice_det *= h[i][i]
    assert lattice_det == abs(sympy.Matrix(reference).det())
    reversed_form = hnf_integer([row[::-1] for row in rows])
    assert reversed_form == [[int(reference[n - 1 - j][n - 1 - i]) for j in range(n)]
                             for i in range(n)]
