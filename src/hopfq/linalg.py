"""Exact linear algebra: integers inside, rationals only at the edges.

Dense matrices are plain row-major lists of lists; entries are Python ints or
fractions.Fraction.  No floats appear anywhere.  `det`, `mat_inv` and `hnf`
split a rational matrix once into content * primitive integer matrix
(`content_primitive`), work on the primitive part with Python ints (Bareiss
determinant and cofactor adjugate for any size, row Hermite normal form) and
put the content back at the end, or return it beside the Hermite form; integer
input has integer content, so it never meets a Fraction.  The 4x4 determinant
and adjugate that the Hopf pipeline needs come from 2x2 minors (`det_adjugate_4x4`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import (
    InternalInconsistencyError,
    RankDeficientError,
    ValidationError,
    ZeroMatrixError,
)


def quotient(num, den) -> int | Fraction:
    """num / den exactly: an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return q if r == 0 else Fraction(num, den)


# ---- content / primitive part ----

def content_primitive(m) -> tuple[int | Fraction, list[list[int]]]:
    """Split m = content * primitive.

    content is a positive rational, an int exactly when every entry of m is
    an integer; primitive is an integer matrix of the same shape whose entries
    have gcd 1.  Entries are ints or Fractions.  Raises ZeroMatrixError for
    an all-zero (or empty) matrix, which has no such splitting.
    """
    if not any(x for row in m for x in row):
        raise ZeroMatrixError("content/primitive split of a zero matrix")
    scale = lcm(*(x.denominator for row in m for x in row))
    if scale == 1:
        scaled = [[x.numerator for x in row] for row in m]
    else:
        scaled = [[x.numerator * (scale // x.denominator) for x in row] for row in m]
    g = gcd(*(v for row in scaled for v in row))
    content = g if scale == 1 else Fraction(g, scale)
    return content, scaled if g == 1 else [[v // g for v in row] for row in scaled]


# ---- Hermite normal form ----

def hnf_integer(a: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of an integer matrix with full column rank.

    Returns h, the square basis of the row lattice of a: upper triangular
    with positive diagonal and above-pivot entries reduced into [0, pivot).
    Raises RankDeficientError when a does not have full column rank.

    One pass per column: the first row with a nonzero entry becomes the pivot
    row, and each lower row is folded into it once, by one subtraction when
    the pivot entry divides the row's, else by the unimodular extended-gcd
    step (pivot, row) -> (x*pivot + y*row, b*pivot - p*row), where
    p*x + b*y = 1 for the pivot and row entries divided by their gcd.  The
    row Hermite form is unique, so the order of the steps does not change it.
    """
    nrows = len(a)
    ncols = len(a[0])
    w = list(a)  # rows are replaced, never changed in place
    for col in range(ncols):
        if col >= nrows:
            raise RankDeficientError("fewer rows than columns")
        first = next((r for r in range(col, nrows) if w[r][col]), None)
        if first is None:
            raise RankDeficientError(f"no pivot available in column {col}")
        top, w[first] = w[first], w[col]
        for r in range(first + 1, nrows):
            row = w[r]
            if not row[col]:
                continue
            q, rem = divmod(row[col], top[col])
            if not rem:
                w[r] = [u - q * v for u, v in zip(row, top)]
                continue
            g = gcd(top[col], rem)
            p, b = top[col] // g, row[col] // g
            x = pow(p, -1, abs(b))
            y = (1 - x * p) // b
            top, w[r] = ([x * v + y * u for u, v in zip(row, top)],
                         [b * v - p * u for u, v in zip(row, top)])
        if top[col] < 0:
            top = [-v for v in top]
        w[col] = top
        # Reduce entries above the pivot into [0, pivot).
        for r in range(col):
            q = w[r][col] // top[col]
            if q:
                w[r] = [u - q * v for u, v in zip(w[r], top)]

    if any(map(any, w[ncols:])):
        raise InternalInconsistencyError("rows below the Hermite form are not zero")
    return [list(map(int, row)) for row in w[:ncols]]


def hnf(m) -> tuple[int | Fraction, list[list[int]]]:
    """(content, H) for a rational matrix m with full column rank, H the integer
    Hermite form of m's primitive part: the rows of content * H span m's row lattice."""
    content, primitive = content_primitive(m)
    return content, hnf_integer(primitive)


# ---- determinants and inverses ----

def det_int(a: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValidationError("determinant of a non-square matrix")
    if n == 0:
        return 1
    w = [[int(x) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            for r in range(k + 1, n):
                if w[r][k]:
                    w[k], w[r] = w[r], w[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[n - 1][n - 1]


def adjugate(a: list[list[int]]) -> list[list[int]]:
    """Adjugate of a square integer matrix: adjugate(a) * a = det_int(a) * I."""
    n = len(a)
    return [
        [(-1) ** (i + j) * det_int([row[:i] + row[i + 1:] for k, row in enumerate(a) if k != j])
         for j in range(n)]
        for i in range(n)
    ]


def det_adjugate_4x4(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det_int(a), adjugate(a)) of a 4x4 integer matrix from its twelve 2x2 minors.

    A cofactor of row 0 sums entries of row 1 times minors of rows 2, 3 (Laplace
    expansion); the other rows follow by symmetry, and det is row 0 times its cofactors.
    """
    def cofactors(r, m, sign):
        (r0, r1, r2, r3), (m01, m02, m03, m12, m13, m23) = r, m
        return [sign * (r1 * m23 - r2 * m13 + r3 * m12), sign * (r2 * m03 - r0 * m23 - r3 * m02),
                sign * (r0 * m13 - r1 * m03 + r3 * m01), sign * (r1 * m02 - r0 * m12 - r2 * m01)]

    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    top, bottom = ([r[j] * s[k] - r[k] * s[j] for j, k in pairs] for r, s in (a[:2], a[2:]))
    rows = [cofactors(a[1], bottom, 1), cofactors(a[0], bottom, -1),
            cofactors(a[3], top, 1), cofactors(a[2], top, -1)]
    return sum(map(mul, a[0], rows[0])), [list(column) for column in zip(*rows)]


def det(m) -> int | Fraction:
    """Exact determinant of a square rational matrix: content^n * det_int(primitive)."""
    if not any(x for row in m for x in row):
        return det_int(m)
    content, primitive = content_primitive(m)
    return content ** len(m) * det_int(primitive)


def mat_inv(m) -> list[list[int | Fraction]]:
    """Inverse of a square rational matrix m = content * P: adjugate(P) / (content * det P)."""
    content, primitive = content_primitive(m)
    d = det_int(primitive)
    if d == 0:
        raise RankDeficientError("matrix is singular")
    den = content * d
    return [[quotient(x, den) for x in row] for row in adjugate(primitive)]
