"""Exact rational linear algebra.

Dense matrices are plain row-major lists of lists; entries are Python ints or
fractions.Fraction.  No floats appear anywhere.  The two workhorses are the
content/primitive splitting of a rational matrix and the row Hermite normal
form of an integer matrix with its unimodular transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    InternalInconsistencyError,
    RankDeficientError,
    ValidationError,
    ZeroMatrixError,
)

def mat(rows) -> list[list[Fraction]]:
    """Coerce a nested sequence of numbers into a Fraction matrix."""
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---- content / primitive part ----

def content_primitive(m) -> tuple[Fraction, list[list[int]]]:
    """Split m = content * primitive.

    content is a positive rational; primitive is an integer matrix whose
    entries have gcd 1.  Raises ZeroMatrixError for an all-zero (or empty)
    matrix, which has no such splitting.
    """
    entries = [Fraction(x) for row in m for x in row]
    if not entries or all(e == 0 for e in entries):
        raise ZeroMatrixError("content/primitive split of a zero matrix")
    scale = lcm(*(e.denominator for e in entries))
    scaled = [e.numerator * (scale // e.denominator) for e in entries]
    g = gcd(*(abs(v) for v in scaled))
    content = Fraction(g, scale)
    cols = len(m[0])
    prim_flat = [v // g for v in scaled]
    primitive = [prim_flat[i : i + cols] for i in range(0, len(prim_flat), cols)]
    return content, primitive


# ---- Hermite normal form ----

def hnf_integer(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form of an integer matrix with full column rank.

    Returns (h, u) where u is unimodular, u*a equals h stacked over zero rows,
    and h is upper triangular with positive diagonal and above-pivot entries
    reduced into [0, pivot).  Raises RankDeficientError otherwise.
    """
    nrows = len(a)
    ncols = len(a[0])
    w = [[int(x) for x in row] for row in a]
    u = identity(nrows)

    def submul(dst: int, src: int, q: int) -> None:
        if q:
            wd, ws = w[dst], w[src]
            for j in range(ncols):
                wd[j] -= q * ws[j]
            ud, us = u[dst], u[src]
            for j in range(nrows):
                ud[j] -= q * us[j]

    def swap(i: int, j: int) -> None:
        if i != j:
            w[i], w[j] = w[j], w[i]
            u[i], u[j] = u[j], u[i]

    def negate(i: int) -> None:
        w[i] = [-x for x in w[i]]
        u[i] = [-x for x in u[i]]

    for col in range(ncols):
        if col >= nrows:
            raise RankDeficientError("fewer rows than columns")
        # Euclidean elimination below the pivot.
        while True:
            support = [r for r in range(col, nrows) if w[r][col] != 0]
            if not support:
                raise RankDeficientError(f"no pivot available in column {col}")
            r0 = min(support, key=lambda r: (abs(w[r][col]), r))
            swap(col, r0)
            if w[col][col] < 0:
                negate(col)
            pivot = w[col][col]
            done = True
            for r in range(col + 1, nrows):
                if w[r][col]:
                    submul(r, col, w[r][col] // pivot)
                    if w[r][col]:
                        done = False
            if done:
                break
        # Reduce entries above the pivot into [0, pivot).
        pivot = w[col][col]
        for r in range(col):
            submul(r, col, w[r][col] // pivot)

    h = [w[i][:] for i in range(ncols)]
    if any(x for r in range(ncols, nrows) for x in w[r]):
        raise InternalInconsistencyError("rows below the Hermite form are not zero")
    return h, u


@dataclass(frozen=True)
class HnfResult:
    """Hermite normal form of a rational matrix.

    hnf equals content times the integer HNF of the primitive part; transform
    is a unimodular integer matrix with transform*input = [hnf; zero rows].
    """

    hnf: list[list[Fraction]]
    content: Fraction
    transform: list[list[int]]


def hnf(m) -> HnfResult:
    """Hermite normal form of a rational matrix with full column rank."""
    content, primitive = content_primitive(m)
    h, u = hnf_integer(primitive)
    scaled = [[content * x for x in row] for row in h]
    return HnfResult(hnf=scaled, content=content, transform=u)


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


def det(m) -> Fraction:
    """Exact determinant of a square rational matrix (Bareiss on a scaling)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in row] for row in m]
    scale = lcm(*(x.denominator for row in rows for x in row))
    scaled = [[int(x * scale) for x in row] for row in rows]
    return Fraction(det_int(scaled), scale**n)


def mat_inv(m) -> list[list[Fraction]]:
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(m)
    w = [[Fraction(x) for x in row] for row in m]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if w[r][col] != 0), None)
        if pivot_row is None:
            raise RankDeficientError("matrix is singular")
        w[col], w[pivot_row] = w[pivot_row], w[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        p = w[col][col]
        w[col] = [x / p for x in w[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and w[r][col]:
                f = w[r][col]
                w[r] = [x - f * y for x, y in zip(w[r], w[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv
