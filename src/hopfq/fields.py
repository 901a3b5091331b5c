"""Parameter validation, classification, and integral bases for the fields.

Two families of quartic Galois extensions of the rationals are handled:

* cyclic fields Q(sqrt(a(d + b*sqrt(d)))) with a odd squarefree, b, c > 0,
  d = b^2 + c^2 squarefree and coprime to a; the reference basis is
  {1, sqrt(d), z, w} with z = sqrt(a(d + b*sqrt(d))), w = sqrt(a(d - b*sqrt(d)));
* biquadratic fields Q(sqrt(m), sqrt(n)) with m, n squarefree, writing
  d = gcd adjusted so d | m, d | n and k = m*n/d^2; the reference basis is
  {1, sqrt(m), sqrt(n), sqrt(k)}.

Each family splits into congruence classes (five cyclic cases, three
biquadratic types) with a known integral basis, returned here as rational
coordinate rows over the reference basis.  One residue rule, `_residue_rule`,
gives both a biquadratic field's type and the canonical order of its radicands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DegenerateProductError,
    EvenParameterError,
    NonPositiveError,
    NotCoprimeError,
    NotSquarefreeError,
    ValidationError,
)
from .pell import _primes

SQUAREFREE_LIMIT = 10**12


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides |n|, read off `pell._primes` to the first square."""
    if n == 0:
        raise ValidationError("squarefree test needs a nonzero integer")
    n = abs(n)
    if n > SQUAREFREE_LIMIT:
        raise ValidationError(f"squarefree test supports |n| <= {SQUAREFREE_LIMIT}, got {n}")
    for _, e in _primes(n):
        if e > 1:
            return False
    return True


# ---- cyclic quartic fields ----

@dataclass(frozen=True)
class CyclicQuarticParams:
    """Validated parameters (a, b, c) with d = b^2 + c^2."""

    a: int
    b: int
    c: int
    d: int


def validate_cyclic(a: int, b: int, c: int) -> CyclicQuarticParams:
    """Check the defining constraints and compute d = b^2 + c^2."""
    if b <= 0:
        raise NonPositiveError(f"b must be positive, got {b}")
    if c <= 0:
        raise NonPositiveError(f"c must be positive, got {c}")
    if a % 2 == 0:
        raise EvenParameterError(f"a must be odd, got {a}")
    if not is_squarefree(a):
        raise NotSquarefreeError(a)
    d = b * b + c * c
    if not is_squarefree(d):
        raise NotSquarefreeError(d)
    if gcd(a, d) != 1:
        raise NotCoprimeError(f"a and d must be coprime, got a={a}, d={d}")
    return CyclicQuarticParams(a, b, c, d)


def classify_cyclic_case(p: CyclicQuarticParams) -> int:
    """Congruence case (1-5) selecting the integral basis shape."""
    if p.d % 2 == 0:
        return 1
    if p.b % 2 == 1:
        return 2
    if (p.a + p.b) % 4 == 3:
        return 3
    if (p.a - p.c) % 4 == 0:
        return 4
    return 5


def integral_basis_cyclic(p: CyclicQuarticParams) -> list[list[Fraction]]:
    """Integral basis rows gamma_1..gamma_4 over {1, sqrt(d), z, w}."""
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    rows = {
        1: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        2: [[1, 0, 0, 0], [h, h, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        3: [[1, 0, 0, 0], [h, h, 0, 0], [0, 0, h, h], [0, 0, h, -h]],
        4: [[1, 0, 0, 0], [h, h, 0, 0], [q, q, q, q], [q, -q, q, -q]],
        5: [[1, 0, 0, 0], [h, h, 0, 0], [q, q, q, -q], [q, -q, q, q]],
    }[classify_cyclic_case(p)]
    return [[Fraction(x) for x in row] for row in rows]


# ---- biquadratic fields ----

@dataclass(frozen=True)
class BiquadraticParams:
    """Canonical radicand triple (m, n, k) with d > 0, d | m, d | n, mn = d^2 k.

    `origins` records where each canonical slot came from ("first input",
    "second input", or "derived"), so results can be reported against the
    user's own subfield labels.
    """

    m: int
    n: int
    k: int
    d: int
    origins: tuple[str, str, str]

    @property
    def radicands(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.k)


FIRST_INPUT = "first input"
SECOND_INPUT = "second input"
DERIVED = "derived"


def _check_radicand(value: int, label: str) -> None:
    if value in (0, 1):
        raise DegenerateProductError(f"{label} must generate a quadratic field, got {value}")
    if not is_squarefree(value):
        raise NotSquarefreeError(value)


def _residue_rule(radicands: tuple[int, int, int]) -> tuple[str, int]:
    """The type of a radicand triple and the residue mod 4 of its lead radicand.

    The type counts the radicands that are 1 mod 4: none (first type), one
    (second) or all three (third).  The lead is the first radicand that is
    1 mod 4, or 3 mod 4 where none is.  Write m = d*m', n = d*n' with
    d = gcd(|m|, |n|) and k = m'*n'.  Where all three are odd, d is odd and
    k = m*n mod 4, so an even number of them are 3 mod 4; where one of m, n
    is even, so is k; where both are, k is odd.  A field's triple thus has
    none, one or three radicands that are 1 mod 4, and where none is, exactly
    one is odd, and it is 3 mod 4.  A count of two comes only from a
    hand-built `BiquadraticParams`.
    """
    ones = sum(1 for v in radicands if v % 4 == 1)
    if ones == 2:
        raise ValidationError(f"two of the radicands {radicands} are 1 mod 4, as in no field")
    return {0: "first", 1: "second", 3: "third"}[ones], 1 if ones else 3


def canonicalize_biquadratic(m_in: int, n_in: int) -> BiquadraticParams:
    """Order the three quadratic subfield radicands into canonical (m, n, k).

    The derived radicand is k0 = m_in*n_in/d0^2 with d0 = gcd(|m_in|, |n_in|).
    Canonical m is the lead radicand of `_residue_rule`, so a third-type triple
    keeps input order; the other slots take the other inputs in input order,
    the derived radicand last.  Distinct squarefree inputs other than 0 and 1
    need no further check: with m_in = d0*m', n_in = d0*n', k0 = m'*n' is 1 only
    where m' = n' = +-1, that is m_in = n_in; and each radicand is the product
    of the other two over the square of their gcd (m_in*k0 = m'^2*n_in and
    gcd(|m_in|, |k0|) = |m'| as n_in is squarefree), so every order has m*n = d^2*k.
    """
    _check_radicand(m_in, "m")
    _check_radicand(n_in, "n")
    if m_in == n_in:
        raise DegenerateProductError(f"radicands must be distinct, got {m_in} twice")
    d0 = gcd(abs(m_in), abs(n_in))
    k0 = (m_in * n_in) // (d0 * d0)
    _, lead = _residue_rule((m_in, n_in, k0))
    # A stable sort: the first radicand with the lead residue, then the rest in input order.
    ordered = sorted([(m_in, FIRST_INPUT), (n_in, SECOND_INPUT), (k0, DERIVED)],
                     key=lambda item: item[0] % 4 != lead)
    m, n, k = (v for v, _ in ordered)
    return BiquadraticParams(m, n, k, gcd(abs(m), abs(n)), tuple(o for _, o in ordered))


def classify_biquadratic_type(p: BiquadraticParams) -> str:
    """The type of `_residue_rule`: how many radicands are 1 mod 4 (0, 1, or all 3)."""
    return _residue_rule(p.radicands)[0]


def integral_basis_biquadratic(p: BiquadraticParams) -> list[list[Fraction]]:
    """Integral basis rows gamma_1..gamma_4 over {1, sqrt(m), sqrt(n), sqrt(k)}.

    First type: {1, sqrt(m), sqrt(n), (sqrt(n)+sqrt(k))/2}.
    Second type: {1, (1+sqrt(m))/2, sqrt(n), (sqrt(n)+sqrt(k))/2}.
    Third type: {1, (1+sqrt(m))/2, (1+sqrt(n))/2, (1+sqrt(m))(1+sqrt(k))/4},
    whose last element expands to (1/4, 1/4, m/(4d), 1/4) using
    sqrt(m)*sqrt(k) = (m/d)*sqrt(n).
    """
    kind = classify_biquadratic_type(p)
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    if kind == "first":
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, h, h]]
    elif kind == "second":
        rows = [[1, 0, 0, 0], [h, h, 0, 0], [0, 0, 1, 0], [0, 0, h, h]]
    else:
        rows = [[1, 0, 0, 0], [h, h, 0, 0], [h, 0, h, 0], [q, q, Fraction(p.m, 4 * p.d), q]]
    return [[Fraction(x) for x in row] for row in rows]
