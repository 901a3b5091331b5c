"""Gram matrices, action matrices, and the associated-order reduction.

A Hopf algebra acting on a quartic field is described here by its Gram matrix:
a 4x4 table whose (i, j) entry is the coordinate vector of w_i acting on the
j-th basis element of the field, where W = {w_1..w_4} is the algebra basis.
Stacking the per-column blocks gives the 16x4 action matrix; its Hermite
reduction yields the associated order, the index, and the determinant test
deciding whether a candidate element generates the ring of integers freely.
The integral-basis descriptor is inverted once per field from its 2x2 minors,
and the triangular Hermite form by back substitution.

The non-classical structures all share one shape of basis,
(Id, mu, eta + mu*eta, z*(eta - mu*eta)), so their Gram matrices are built
from rows of the classical Gram matrix: one row copied (mu acts as a field
automorphism), one sum of two rows, and one difference of two rows multiplied
by the quadratic element z through the field's multiplication table.  A
field's structures share its classical Gram matrix, multiplication table and
integral basis, so `structure_grams` moves the classical rows and each
structure's z row to the integral basis in one change of basis per field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Sequence, Union

from .errors import GramFormatError, SingularDescriptorError, ZeroMatrixError
from .fields import BiquadraticParams, CyclicQuarticParams
from .linalg import content_primitive, det, det_adjugate_4x4, hnf, quotient

FieldParams = Union[CyclicQuarticParams, BiquadraticParams]

Vec = list  # length-4 list of ints; Fractions only from a rational Gram file or descriptor
GramMatrix = list  # 4x4 nested list of Vec

CYCLIC_NONCLASSICAL = "cyclic_nonclassical"
BIQUAD_H1 = "biquad_H1"
BIQUAD_H2 = "biquad_H2"
BIQUAD_H3 = "biquad_H3"


@dataclass(frozen=True)
class StructureId:
    """Identifies a Hopf-Galois structure by family and defining radical."""

    family: str
    subfield_tag: str


def structures_for(field: FieldParams) -> list[StructureId]:
    """The non-classical structures of the field, in canonical order."""
    if isinstance(field, CyclicQuarticParams):
        return [StructureId(CYCLIC_NONCLASSICAL, f"sqrt({field.d})")]
    return [
        StructureId(BIQUAD_H1, f"sqrt({field.m})"),
        StructureId(BIQUAD_H2, f"sqrt({field.n})"),
        StructureId(BIQUAD_H3, f"sqrt({field.k})"),
    ]


# ---- field arithmetic over the reference basis ----

def _unit(i: int) -> Vec:
    return [1 if t == i else 0 for t in range(4)]


def mult_table(field: FieldParams) -> list:
    """Structure constants: table[i][j] = coordinates of e_i * e_j.

    Cyclic reference basis {1, sqrt(d), z, w} with z^2 = a(d + b*sqrt(d)),
    w^2 = a(d - b*sqrt(d)), z*w = a*c*sqrt(d), sqrt(d)*z = b*z + c*w,
    sqrt(d)*w = c*z - b*w.  Biquadratic reference basis {1, sqrt(m), sqrt(n),
    sqrt(k)} with sqrt(m)*sqrt(n) = d*sqrt(k), sqrt(m)*sqrt(k) = (m/d)*sqrt(n),
    sqrt(n)*sqrt(k) = (n/d)*sqrt(m).
    """
    if isinstance(field, CyclicQuarticParams):
        a, b, c, d = field.a, field.b, field.c, field.d
        products = {
            (1, 1): [d, 0, 0, 0],
            (1, 2): [0, 0, b, c],
            (1, 3): [0, 0, c, -b],
            (2, 2): [a * d, a * b, 0, 0],
            (2, 3): [0, a * c, 0, 0],
            (3, 3): [a * d, -a * b, 0, 0],
        }
    else:
        m, n, k, d = field.m, field.n, field.k, field.d
        products = {
            (1, 1): [m, 0, 0, 0],
            (1, 2): [0, 0, 0, d],
            (1, 3): [0, 0, m // d, 0],
            (2, 2): [n, 0, 0, 0],
            (2, 3): [0, n // d, 0, 0],
            (3, 3): [k, 0, 0, 0],
        }
    table = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if i == 0 or j == 0:
                table[i][j] = _unit(i + j)
            else:
                table[i][j] = products[(min(i, j), max(i, j))]
    return table


def multiply(u: Sequence, v: Sequence, table: list) -> Vec:
    """Product of two field elements given by coordinates over the reference basis."""
    out = [0] * 4
    for i, j in product(range(4), repeat=2):
        if u[i] and v[j]:
            out = [x + u[i] * v[j] * c for x, c in zip(out, table[i][j])]
    return out


# ---- Gram matrices ----

def gram_classical(field: FieldParams) -> GramMatrix:
    """Gram matrix of the Galois group action over the reference basis.

    Each automorphism is listed as one (position, sign) pair per basis
    element j: it sends e_j to sign * e_position.  Cyclic rows are 1, sigma,
    sigma^2, sigma^3 with sigma = (z, w, -z, -w); biquadratic rows are 1,
    sigma, tau, sigma*tau acting by sign flips on the three radicals.
    """
    if isinstance(field, CyclicQuarticParams):
        automorphisms = [
            [(0, 1), (1, 1), (2, 1), (3, 1)],
            [(0, 1), (1, -1), (3, 1), (2, -1)],
            [(0, 1), (1, 1), (2, -1), (3, -1)],
            [(0, 1), (1, -1), (3, -1), (2, 1)],
        ]
    else:
        automorphisms = [
            [(0, 1), (1, 1), (2, 1), (3, 1)],
            [(0, 1), (1, -1), (2, 1), (3, -1)],
            [(0, 1), (1, 1), (2, -1), (3, -1)],
            [(0, 1), (1, -1), (2, -1), (3, 1)],
        ]
    return [[[s if t == pos else 0 for t in range(4)] for pos, s in automorphism]
            for automorphism in automorphisms]


# For each non-classical family: the classical row acting as mu, the rows
# acting as eta and mu*eta, and the reference-basis index of the quadratic
# element z multiplied into the difference row.
_NONCLASSICAL_RECIPE = {
    CYCLIC_NONCLASSICAL: (2, 1, 3, 1),
    BIQUAD_H1: (2, 1, 3, 1),
    BIQUAD_H2: (1, 2, 3, 2),
    BIQUAD_H3: (3, 1, 2, 3),
}


def structure_grams(field: FieldParams, descriptor: Sequence[Sequence]) -> list[GramMatrix]:
    """Integral-basis Gram matrices of the field's non-classical structures.

    One per structure, in the order of `structures_for`.  Rows follow the
    basis (Id, mu, eta + mu*eta, z*(eta - mu*eta)).  The mu rows, the sum
    rows and the z rows move to the integral basis in one `change_basis`
    call; the identity row is the identity there too.  A sum row moves as
    one row, unless eta or mu*eta moves anyway as some structure's mu: then
    it is the sum of the two moved rows, since the change of basis is linear
    and exact.  A cyclic field so moves sigma^2, sigma + sigma^3 and its z
    row.  The moved rows are sums of automorphisms, which map O_L into
    itself, so their entries are ints.
    """
    classical = gram_classical(field)
    table = mult_table(field)
    recipes = [_NONCLASSICAL_RECIPE[s.family] for s in structures_for(field)]
    mus = {mu for mu, *_ in recipes}
    # The rows to move, by classical row index, or by (eta, mu_eta) for a sum row moved as one.
    rows = {mu: classical[mu] for mu in mus}
    for _, eta, mu_eta, _ in recipes:
        if eta in mus or mu_eta in mus:
            rows[eta], rows[mu_eta] = classical[eta], classical[mu_eta]
        else:
            rows[eta, mu_eta] = _row_sum(classical[eta], classical[mu_eta])
    z_rows = [[multiply(_unit(z_index), [x - y for x, y in zip(u, v)], table)
               for u, v in zip(classical[eta], classical[mu_eta])]
              for _, eta, mu_eta, z_index in recipes]
    moved = change_basis(list(rows.values()) + z_rows, descriptor)
    at = dict(zip(rows, moved))
    return [[[_unit(j) for j in range(4)], at[mu],
             at[eta, mu_eta] if (eta, mu_eta) in at else _row_sum(at[eta], at[mu_eta]), z_row]
            for (mu, eta, mu_eta, _), z_row in zip(recipes, moved[len(rows):])]


def _row_sum(u: list, v: list) -> list:
    """Entrywise sum of two Gram rows."""
    return [[x + y for x, y in zip(a, b)] for a, b in zip(u, v)]


def change_basis(gram: GramMatrix, descriptor: Sequence[Sequence]) -> GramMatrix:
    """Re-express a Gram matrix in the integral basis given by the descriptor.

    The descriptor rows are the integral basis elements in reference-basis
    coordinates.  New column j is the action on gamma_j (a combination of old
    columns), and every resulting element is rewritten in integral-basis
    coordinates.  For descriptor = content * P the content cancels: each
    combination u of old columns by a row of P maps to u * adjugate(P) / det P.
    Any number of rows may be moved at once, against one inverse (from P's 2x2 minors).
    """
    try:
        _, primitive = content_primitive(descriptor)
    except ZeroMatrixError as exc:
        raise SingularDescriptorError("basis descriptor is singular") from exc
    denominator, adj = det_adjugate_4x4(primitive)
    if denominator == 0:
        raise SingularDescriptorError("basis descriptor is singular")
    adj_columns = list(zip(*adj))
    out = []
    for row in gram:
        # Columns of (old entries of the row) * adjugate(P), then combined by the rows of P.
        columns = list(zip(*([sum(map(mul, entry, a)) for a in adj_columns] for entry in row)))
        out.append([[quotient(sum(map(mul, coefficients, column)), denominator)
                     for column in columns] for coefficients in primitive])
    return out


# ---- action matrix and reduction ----

def action_matrix(gram: GramMatrix) -> list:
    """16x4 matrix: block j holds columns (w_i . gamma_j) for i = 1..4."""
    return [[gram[i][j][t] for i in range(4)] for j in range(4) for t in range(4)]


@dataclass(frozen=True)
class ReductionReport:
    """Associated-order data extracted from an action matrix.

    `hnf` is the invertible 4x4 Hermite form D of the action matrix; `index`
    is |det D|, the product of D's diagonal and the module index of the span
    of W inside the associated order; `order_basis` holds the columns of
    D^{-1}: the W-coordinates of a basis of the associated order (membership
    x is equivalent to D*x being integral, so the order is the preimage of
    the integer lattice under D).
    """

    hnf: list
    index: int | Fraction
    order_basis: list


def reduction_report(action: Sequence[Sequence]) -> ReductionReport:
    """Hermite form, index and order basis of a 16x4 action matrix.

    D = content * H, H the integer Hermite form (4x4: `hnf` raises RankDeficientError
    short of full rank).  Column i of adjugate(H) solves H x = det(H) * e_i by exact
    back substitution; D^{-1} e_i = x / (content * det H).
    """
    content, h = hnf(action)
    d_matrix = [[content * x for x in row] for row in h]
    index = d_matrix[0][0] * d_matrix[1][1] * d_matrix[2][2] * d_matrix[3][3]
    det_h = h[0][0] * h[1][1] * h[2][2] * h[3][3]
    den = content * det_h
    basis_columns = []
    for i in range(4):
        x = [0, 0, 0, 0]
        x[i] = det_h // h[i][i]
        for k in range(i - 1, -1, -1):
            x[k] = -sum(map(mul, h[k][k + 1:i + 1], x[k + 1:i + 1])) // h[k][k]
        basis_columns.append([quotient(v, den) for v in x])
    return ReductionReport(hnf=d_matrix, index=index, order_basis=basis_columns)


def generator_determinant(action: Sequence[Sequence], beta: Sequence[int]) -> int | Fraction:
    """Exact determinant of sum_j beta_j * (block j of the action matrix)."""
    terms = [(b, action[4 * j:4 * j + 4]) for j, b in enumerate(beta) if b]
    return det([[sum(b * block[t][i] for b, block in terms) for i in range(4)] for t in range(4)])


def test_generator(report: ReductionReport, action: Sequence[Sequence], beta: Sequence[int]) -> bool:
    """True iff beta freely generates: |det of its action| equals the index."""
    return abs(generator_determinant(action, beta)) == report.index


# ---- custom Gram ingestion ----

def parse_rational(text: str) -> Fraction:
    """Exact rational from an integer ``p`` or a quotient ``p/q`` of integers.

    Raises ValueError on any other text (decimals and exponents included) and
    ZeroDivisionError on a zero denominator.
    """
    num, sep, den = text.partition("/")
    return Fraction(int(num), int(den)) if sep else Fraction(int(num))


def parse_gram_text(text: str) -> GramMatrix:
    """Parse a Gram matrix from plain text.

    Four non-empty lines, each with four whitespace-separated entries; every
    entry is a comma-separated 4-tuple of exact rationals, each an integer
    like -2 or a quotient of integers like 3/4.  Lines starting with '#' are
    ignored.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if len(lines) != 4:
        raise GramFormatError(f"expected 4 matrix lines, got {len(lines)}")
    gram = []
    for line_no, line in enumerate(lines, start=1):
        entries = line.split()
        if len(entries) != 4:
            raise GramFormatError(f"line {line_no}: expected 4 entries, got {len(entries)}")
        row = []
        for entry in entries:
            parts = entry.split(",")
            if len(parts) != 4:
                raise GramFormatError(
                    f"line {line_no}: entry {entry!r} is not a 4-tuple"
                )
            try:
                row.append([parse_rational(p) for p in parts])
            except (ValueError, ZeroDivisionError) as exc:
                raise GramFormatError(f"line {line_no}: bad rational in {entry!r}") from exc
        gram.append(row)
    return gram

