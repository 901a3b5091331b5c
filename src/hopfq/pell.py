"""Generalized Pell equations and indefinite binary quadratic forms.

Solves x^2 - D*y^2 = N exactly over the integers for any nonzero D, N:
finitely many solutions when D < 0 or D is a perfect square, otherwise
finitely many solution classes closed under multiplication by the fundamental
unit.  Also provides the divisibility-constrained search behind
`hopfq pell -c`, reduction cycles of indefinite forms, the Jacobi symbol, and
`_primes`, the one route of the package from an integer to its primes.

The class search follows K. Matthews, "The Diophantine equation
x^2 - Dy^2 = N, D > 0", Expo. Math. 18, 2000, with the square roots of D
modulo |N| taken from the factorisation of N (H. Cohen, "A Course in
Computational Algebraic Number Theory", section 1.5).  Each root walks its
continued fraction to its first reduced state, its anchor; the class has a
solution exactly when the anchor lies on the principal cycle, which the
unit's walk passes once per D, up to the middle of its palindromic period.
The anchor splits the period in two sides, each giving an element of the
class (the infrastructure of the principal cycle: M. J. Jacobson Jr. and
H. C. Williams, "Solving the Pell Equation", 2009).  The class is read from
the shorter side, or the unit times it when only the longer side has value N;
its size in floating point confirms the smallest element and exact comparison
settles a near-tie, so no element is walked by the unit.  The walks keep only
small states and partial quotients; the products, up to millions of bits,
come from half the period cut at the shorter sides: a balanced product tree
per segment, whose running product reads every shorter side at its cut and
ends at the half period.  They are built only when some anchor lies on the
principal cycle; the root 0 of N/f^2 = +-1 reaches its first state in one
step, and the fundamental unit is read from the class of 1.  The principal
cycle is not walked at all where no class can exist for a reason seen
first: no solution modulo 8, or modulo an odd prime q of D or q^2 where q
divides D and N once each (`_residue_obstructed`, at each q as it is found,
before N is factored), or D not a square modulo any |N/f^2|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from math import gcd, inf, isqrt, log2
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    BadDiscriminantError,
    EvenModulusError,
    InternalInconsistencyError,
    NotReducedError,
    SquareDiscriminantError,
    ValidationError,
)


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# ---- Jacobi symbol ----

def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise EvenModulusError(f"Jacobi symbol needs an odd positive modulus, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---- factorisation and square roots modulo m ----

# (b, psi): Miller-Rabin to the prime bases up to b is exact below psi, the least
# composite that passes them all (OEIS A014233: G. Jaeschke, Math. Comp. 61, 1993;
# Y. Jiang and Y. Deng, Math. Comp. 83, 2014; J. Sorenson and J. Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_WITNESSES = ((2, 2047), (3, 1373653), (5, 25326001), (7, 3215031751), (11, 2152302898747),
              (13, 3474749660383), (17, 341550071728321), (19, 341550071728321),
              (23, 3825123056546413051), (29, 3825123056546413051), (31, 3825123056546413051),
              (37, 318665857834031151167461), (41, 3317044064679887385961981))
# Pollard-Brent multiplies this many differences together between two gcds.
_RHO_BATCH = 64
# `_primes` trial-divides by 2 and the odd numbers below this bound.
_TRIAL_BOUND = 256
_TRIAL_DIVISORS = (2, *range(3, _TRIAL_BOUND, 2))


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 1 to the first 13 prime bases, each taken only
    where n is not below the psi of those before it: exact below 3.3 * 10^24."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    t = (n - 1) >> s
    for a, psi in _WITNESSES:
        x = pow(a, t, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of an odd composite n, by Pollard's rho with Brent's cycle
    search (R. P. Brent, "An improved Monte Carlo factorization algorithm", BIT 20,
    1980) on x -> x^2 + c for c = 1, 2, ... until one splits n."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch passed the collision: take its steps one by one
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _odd_primes(n: int) -> dict[int, int]:
    """{p: e}, smallest p first, of an odd n > 1, split by `_rho_divisor`; a part
    at or above the last psi that `_is_probable_prime` passes raises `ValidationError`."""
    if _is_probable_prime(n):
        if n >= _WITNESSES[-1][1]:
            raise ValidationError(f"cannot prove {n} prime: it is not below {_WITNESSES[-1][1]}")
        return {n: 1}
    f = _rho_divisor(n)
    a, b = _odd_primes(f), _odd_primes(n // f)
    return {p: a.get(p, 0) + b.get(p, 0) for p in sorted(a | b)}


def _primes(n: int) -> Iterator[tuple[int, int]]:
    """The primes p of |n| with their exponents e, smallest first and one at a
    time: the one route from an integer to its primes.  Trial division stops
    once p^2 exceeds what is left, which is then 1 or a prime; a rest of at
    least `_TRIAL_BOUND`^2 is split by `_odd_primes`."""
    n = abs(n)
    for p in _TRIAL_DIVISORS:
        if p * p > n:
            break
        e = 0
        while not n % p:
            n //= p
            e += 1
        if e:
            yield p, e
    if n >= _TRIAL_BOUND * _TRIAL_BOUND:
        yield from _odd_primes(n).items()
    elif n > 1:
        yield n, 1


def _factor(n: int) -> dict[int, int]:
    """Prime factorisation {p: e} of |n|; {} for |n| <= 1."""
    return dict(_primes(n))


def _signed_divisors(n: int) -> set[int]:
    """Every divisor of n != 0 and its negative, from the factorisation of n."""
    divisors = [1]
    for p, e in _factor(n).items():
        divisors = [t * p**k for t in divisors for k in range(e + 1)]
    return {v for t in divisors for v in (t, -t)}


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p not dividing a, or None (Tonelli-Shanks)."""
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _unit_roots(a: int, p: int, e: int) -> list[int]:
    """Square roots of a modulo p^e for a prime p not dividing a."""
    if p == 2:
        if e == 1:
            return [1]
        if e == 2:
            return [1, 3] if a % 4 == 1 else []
        if a % 8 != 1:
            return []
        # r^2 = a mod 2^k holds for r or for r + 2^(k-1) modulo 2^(k+1).
        r = 1
        for k in range(3, e):
            if (r * r - a) % (1 << (k + 1)):
                r += 1 << (k - 1)
        half = 1 << (e - 1)
        return [r, 2 * half - r, half - r, half + r]
    r = _sqrt_mod_prime(a % p, p)
    if r is None:
        return []
    pk = p
    for _ in range(e - 1):  # Hensel: a root modulo p^k lifts to one modulo p^(k+1)
        pk *= p
        r = (r - (r * r - a) * pow(2 * r, -1, pk)) % pk
    return [r, pk - r]


def _prime_power_roots(d: int, p: int, e: int) -> list[int]:
    """Square roots of d modulo p^e, in [0, p^e).

    With v = v_p(d) >= e the roots are the multiples of p^ceil(e/2).  With
    v < e, v must be even and z = p^(v/2)*w with w^2 = d/p^v modulo p^(e-v),
    w taken modulo p^(e-v/2).
    """
    pe = p ** e
    a = d % pe
    if a == 0:
        return list(range(0, pe, p ** ((e + 1) // 2)))
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v % 2:
        return []
    h, step = p ** (v // 2), p ** (e - v)
    return [h * (w + j * step) for w in _unit_roots(a, p, e - v) for j in range(h)]


def _square_roots(d: int, m: int, factors: dict[int, int]) -> list[int]:
    """Every z in (-m/2, m/2] with z^2 = d modulo m >= 1, ascending.

    `factors` is the factorisation of m; the roots modulo each prime power
    are combined by the Chinese remainder theorem.
    """
    roots, mod = [0], 1
    for p, e in factors.items():
        local = _prime_power_roots(d, p, e)
        if not local:
            return []
        pe = p ** e
        inverse = pow(mod, -1, pe)
        roots = [r + mod * ((s - r) * inverse % pe) for r in roots for s in local]
        mod *= pe
    half = m // 2
    return sorted([z if z <= half else z - m for z in roots])


def _square_divisors(factors: dict[int, int]) -> list[tuple[int, dict[int, int]]]:
    """(f, factorisation of |n|/f^2) for every f >= 1 with f^2 | n, from n's factorisation."""
    out = [(1, factors)]
    for p, e in factors.items():
        if e > 1:
            out = [(f * p ** k, {q: x - 2 * k if q == p else x
                                 for q, x in rest.items() if q != p or x > 2 * k})
                   for f, rest in out for k in range(e // 2 + 1)]
    return out


# ---- fundamental units ----

# Runs of at most this many quotients are multiplied out one by one.
_PRODUCT_LEAF = 16


def _times(m: tuple[int, ...], n: tuple[int, ...]) -> tuple[int, int, int, int]:
    """The product m * n of 2x2 matrices, each written (h, h', k, k') for [[h, h'], [k, k']]."""
    a, b, c, e = m
    f, g, i, j = n
    return a * f + b * i, a * g + b * j, c * f + e * i, c * g + e * j


def _quotient_product(quotients: list[int], lo: int, hi: int) -> tuple[int, int, int, int]:
    """Entries (h, h', k, k') of the product of [[a, 1], [1, 0]] over quotients[lo:hi].

    The first column (h, k) is the last convergent of [a_lo; ..., a_(hi-1)] and
    the second column the one before it.  Halves are multiplied recursively
    (binary splitting), so the big products come last and are balanced; short
    runs are multiplied one quotient at a time.
    """
    if hi - lo <= _PRODUCT_LEAF:
        h, h1, k, k1 = 1, 0, 0, 1
        for a in quotients[lo:hi]:
            h, h1 = a * h + h1, h
            k, k1 = a * k + k1, k
        return h, h1, k, k1
    mid = (lo + hi) // 2
    return _times(_quotient_product(quotients, lo, mid), _quotient_product(quotients, mid, hi))


def _principal_walk(d: int, anchors: dict[int, set[int]]
                    ) -> tuple[list[int], int, dict[tuple[int, int], tuple[int, bool]]]:
    """Partial quotients of sqrt(d) up to the middle of its period, the period
    length L, and the shorter side of each anchor met.

    The states after the first, (m_i + sqrt(d))/den_i, are the reduced states
    of the principal cycle; the period closes at den_L = 1, in the state
    (isqrt(d) + sqrt(d))/1.  Over a period den_i = den_(L-i) and
    m_i = m_(L+1-i), so the walk stops where m or den first repeats, at the
    middle, and the state (m_i, den_(i-1)) is the one at position L + 1 - i.
    `anchors` maps a denominator to the numerators of the states sought.  An
    anchor at position i, the index of its partial quotient, has the side
    a_1, ..., a_(i-1) before it and a_i, ..., a_(L-1) after it.  It comes back
    with (l, after) from its first meeting, at step l + 1, where the side
    before it, or after it if mirrored, is the shorter: l <= (L-1)//2.
    """
    a0 = isqrt(d)
    quotients = [a0]
    append = quotients.append
    sides: dict[tuple[int, int], tuple[int, bool]] = {}
    m, den, a = 0, 1, a0
    while True:
        m1 = den * a - m
        den1 = (d - m1 * m1) // den
        if den1 in anchors and m1 in anchors[den1]:
            sides.setdefault((m1, den1), (len(quotients) - 1, False))
        if den in anchors and m1 in anchors[den]:
            sides.setdefault((m1, den), (len(quotients) - 1, True))
        if m1 == m or den1 == den:
            break
        m, den = m1, den1
        a = (a0 + m) // den
        append(a)
    return quotients, 2 * len(quotients) - (2 if m1 == m else 1), sides


def _period_convergent(quotients: list[int], period: int, lengths: Sequence[int],
                       rows: dict[int, tuple[int, int]]) -> tuple[int, int, int]:
    """(x, y, s) of the convergent built from one period of sqrt(d): x^2 - d*y^2 = s.

    `quotients` are a_0, a_1, ... up to the middle of the period, of length
    L = `period`.  a_1, ..., a_(L-1) is a palindrome, so the product R of
    their matrices is B * A^T, where A is the product over the first
    r = (L-1)//2 of them and B is A, times the middle one when L - 1 is odd.
    (x, y) is the first column of [[a0, 1], [1, 0]] * R.  The ascending
    `lengths`, all at most r, cut a_1, ..., a_r in segments; A is the running
    product of their trees, and for each l, rows[1 + l] becomes the first row
    of that product over a_1, ..., a_l.
    """
    r = (period - 1) // 2
    prefix, lo = (1, 0, 0, 1), 1
    for n in lengths:
        prefix, lo = _times(prefix, _quotient_product(quotients, lo, 1 + n)), 1 + n
        rows[lo] = prefix[:2]
    h, h1, k, k1 = a = _times(prefix, _quotient_product(quotients, lo, r + 1))
    bh, bh1, bk, bk1 = _times(a, (quotients[r + 1], 1, 1, 0)) if period % 2 == 0 else a
    r11 = bh * h + bh1 * h1
    return quotients[0] * r11 + bk * h + bk1 * h1, r11, (-1) ** period


def fundamental_unit(d: int) -> tuple[int, int]:
    """Minimal (t, u) with t, u >= 1 and t^2 - d*u^2 = 1: the unit of the
    class of 1, which `solve_all` finds like any other."""
    if d <= 0:
        raise SquareDiscriminantError(f"fundamental unit needs d > 1, got {d}")
    if is_square(d):
        raise SquareDiscriminantError(f"{d} is a perfect square")
    return solve_all(d, 1).unit


# ---- solution class sets ----

class PellSolution(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class SolutionClassSet:
    """Solutions of x^2 - D*y^2 = N.

    kind "empty": no solutions.  kind "finite": `solutions` lists every
    solution (D < 0 or D square).  kind "indefinite": `solutions` lists class
    representatives; the full set is {±U^k·rep} for the fundamental unit
    U = (t, u) acting by (x, y) -> (t*x + D*u*y, u*x + t*y).  `minimal` is
    the minimal solution (x, y, s) of x^2 - D*y^2 = s = +-1, set for kind
    "indefinite" alone: it is not computed when there is no class.  `unit`
    (the minimal solution if s = 1, else its square) is built on first use,
    as a divisibility search needs it only for a class that it walks.
    """

    kind: str
    solutions: tuple[PellSolution, ...]
    minimal: tuple[int, int, int] | None = None

    @cached_property
    def unit(self) -> tuple[int, int] | None:
        if self.minimal is None:
            return None
        x, y, s = self.minimal
        return (x, y) if s == 1 else (2 * x * x + 1, 2 * x * y)  # x^2 + d*y^2 = 2*x^2 + 1


def _size_key(s: PellSolution) -> tuple:
    return (abs(s.y), 0 if s.y >= 0 else 1, abs(s.x), 0 if s.x >= 0 else 1)


def solve_all(d: int, n: int) -> SolutionClassSet:
    """Full solution description of x^2 - d*y^2 = n (d, n nonzero).

    For d > 0 nonsquare it is empty, with no cycle walked and n not factored,
    where a local rule of `_residue_obstructed` rules n out; n's primes serve
    only its square divisors and the square roots of d modulo n/f^2.
    """
    if d == 0 or n == 0:
        raise ValidationError(f"Pell problem needs nonzero D and N, got D={d}, N={n}")
    s = isqrt(d) if d > 0 else 0
    if d < 0 or s * s == d:
        sols = set()
        if d < 0:
            for y in range(isqrt(n // -d) + 1 if n > 0 else 0):
                r = n + d * y * y
                if is_square(r):
                    x = isqrt(r)
                    sols.update({(x, y), (-x, y), (x, -y), (-x, -y)})
        else:  # (x - s*y)(x + s*y) = n: pair up divisors of matching parity.
            for e in _signed_divisors(n):
                f = n // e
                if (e + f) % 2 == 0 and (f - e) % (2 * s) == 0:
                    sols.add(((e + f) // 2, (f - e) // (2 * s)))
        ordered = tuple(sorted(map(PellSolution._make, sols), key=_size_key))
        return SolutionClassSet("finite" if ordered else "empty", ordered)

    if _residue_obstructed(d, n):
        return SolutionClassSet("empty", ())  # no solution modulo 8, q or q^2 at a prime q of d
    divisors = _square_divisors(_factor(n))
    minimal, reps = _primitive_class_reps(d, [(n // (f * f), rest) for f, rest in divisors])
    found = {PellSolution(f * x, f * y) for (f, _), class_reps in zip(divisors, reps)
             for x, y in class_reps}
    if not found:
        return SolutionClassSet("empty", ())
    return SolutionClassSet("indefinite", tuple(sorted(found, key=_size_key)), minimal)


def _residue_obstructed(d: int, n: int) -> bool:
    """True where x^2 - d*y^2 = n has no solution modulo 8, or modulo q or
    q^2 at an odd prime q of d, so none at all.  The three local rules:

    - mod 8: where d = 3 and n = 2 modulo 4, x^2 + y^2 = 2 modulo 4 makes x
      and y odd, so n = 1 - d modulo 8;
    - residue: at q not dividing n, (n/q) = -1 rules n out, as x^2 = n modulo q;
    - q^2: at q dividing d and n once each, (-(d/q)*(n/q) | q) = -1 rules n
      out: q | x, so q*x'^2 - (d/q)*y^2 = n/q with q not dividing y.  This is
      the Hilbert symbol (d, n) = -1 at q, and so, by the product formula, at
      some other prime of 2n, which no residue modulo a prime of d sees.  At
      any other q | n the symbol is 0, as q divides d/q or n/q.

    Each odd prime of d is tested as `_primes` finds it, and the primes of d
    above the first that rules n out are not looked for.
    """
    if d % 4 == 3 and n % 4 == 2 and (n + d - 1) % 8:
        return True
    return any(q > 2 and jacobi(n if n % q else -(d // q) * (n // q), q) == -1
               for q, _ in _primes(d))


def _primitive_class_reps(d: int, targets: list[tuple[int, dict[int, int]]]) -> tuple[
        tuple[int, int, int] | None, list[list[tuple[int, int]]]]:
    """The minimal +-1 solution eps = (x, y, s) and per target the smallest
    element (by _size_key) of each class of primitive solutions of
    x^2 - d*y^2 = m.

    eps is built only when some target has a class on the principal cycle.
    Otherwise eps is None and every list is empty; with no square root of d
    modulo any |m|, the principal cycle is not walked either.  m = +-1 has
    the root 0, whose anchor (isqrt(d), d - isqrt(d)^2) is the first state
    of the principal cycle: the class of 1 holds (1, 0), and that of -1 is
    eps's when the period is odd.

    Each target is m with the factorisation of |m|.  Classes correspond to the
    square roots z of d modulo |m|.  The continued fraction of (z + sqrt(d))/|m|
    becomes purely periodic at its first reduced state, its anchor, and can
    meet q = 1 only on the principal cycle, as (isqrt(d) + sqrt(d))/1 is the
    only reduced state with q = 1; a class whose anchor is not on that cycle
    has no solution.  An anchor splits the period in two sides: through the
    quotients after it the walk ends at an element of value (-1)^steps * |m|,
    through the adjugate of the product before it at +-eps^-1 times that.
    The shorter side gives the class when its value is m; else, for an odd
    period, the longer side does: at the middle of the period from the same
    row, elsewhere as eps^-+1 times the shorter side.  That element is the
    smallest of the class but for a near-tie, which `_least_in_class` settles.
    """
    root = isqrt(d)
    walks = []
    anchors: dict[int, set[int]] = {}
    for i, (m, factors) in enumerate(targets):
        for z in _square_roots(d, abs(m), factors):
            quotients, (p, q) = _walk_to_anchor(d, root, z, abs(m))
            anchors.setdefault(q, set()).add(p)
            walks.append((i, m, z, quotients, (p, q)))
    if not walks:
        return None, [[] for _ in targets]  # no square root of d: no class, no walk
    principal, period, sides = _principal_walk(d, anchors)
    sign = -1 if period % 2 else 1  # the norm of eps
    classes = []
    for i, m, z, quotients, anchor in walks:
        if anchor not in sides:
            continue
        length, after = sides[anchor]
        power = 0
        # A side of l quotients has value (-1)^(w + l) * |m| after the anchor, w the
        # walk's steps, and the opposite before it.
        if (len(quotients) + length + after) % 2 != (m > 0):  # the shorter side's is -m
            if sign == 1:
                continue  # and so is the longer side's: no class
            if 2 * length == period - 1:  # the middle: the other side, as long
                after = not after
            else:  # the longer side: +-eps^-1 * after, +-eps * before
                power = -1 if after else 1
        classes.append((i, m, z, quotients, length, after, power))
    if not classes:
        return None, [[] for _ in targets]  # no class on the principal cycle: eps unread
    rows: dict[int, tuple[int, int]] = {}
    x, y, s = _period_convergent(principal, period, sorted({c[4] for c in classes}), rows)
    size = (1 if s == 1 else 2) * _log2_size(x, y, d)  # log2 of the unit U of _least_in_class
    reps: list[list] = [[] for _ in targets]
    for i, m, z, quotients, length, after, power in classes:
        # (p, q) is the first row of the product over a_1, ..., a_l.  By the
        # palindrome the side after the anchor is its transpose, with first
        # column (p, q); the side before is [[a0, 1], [1, 0]] times it, whose
        # adjugate has first column (q, -p).
        p, q = rows[1 + length]
        col0, col1 = (p, q) if after else (q, -p)
        hw, hw1, kw, kw1 = _quotient_product(quotients, 0, len(quotients))
        # [[g, .], [b, .]] = [[|m|, -z], [0, 1]] times the walk's product times the column.
        b = kw * col0 + kw1 * col1
        v = PellSolution(abs(m) * (hw * col0 + hw1 * col1) - z * b, b)
        reps[i].append(_least_in_class(v, power, m, d, x, y, s, size))
    return (x, y, s), reps


def _walk_to_anchor(d: int, root: int, p: int, q: int) -> tuple[list[int], tuple[int, int]]:
    """Partial quotients of (p + sqrt(d))/q up to its first reduced state (p', q'), and (p', q').

    A state is reduced when (p + sqrt(d))/q is greater than 1 with conjugate
    in (-1, 0).  States before it cannot repeat; a set over them makes sure
    that a wrong test cannot loop.
    """
    quotients: list[int] = []
    append = quotients.append
    before: set[tuple[int, int]] = set()
    while not (0 < q <= p + root and p <= root < p + q):
        if (p, q) in before:
            raise InternalInconsistencyError(
                f"continued fraction of ({p} + sqrt({d}))/{q} repeated before its period")
        before.add((p, q))
        # floor((p + sqrt(d))/q); for q < 0 it is floor((p + root + 1)/q), since
        # p + root < p + sqrt(d) < p + root + 1 and no multiple of q lies between.
        a = (p + root) // q if q > 0 else (p + root + 1) // q
        append(a)
        p = a * q - p
        q = (d - p * p) // q
    return quotients, (p, q)


def _log2_size(x: int, y: int, d: int) -> float:
    """log2(|x| + |y|*sqrt(d)) from the leading bits of x and y."""
    a = log2(abs(x)) if x else -inf
    b = log2(abs(y)) + log2(d) / 2 if y else -inf
    hi, lo = max(a, b), min(a, b)
    return hi + log2(1 + 2.0 ** (lo - hi))


def _least_in_class(v: PellSolution, power: int, n: int, d: int, x: int, y: int, sign: int,
                    size: float) -> PellSolution:
    """Smallest element (by _size_key) of the class {+-U^k * eps^power * v} of
    x^2 - d*y^2 = n.

    (x, y, sign) is the minimal +-1 solution eps; U = eps^e, e = 2 when
    sign = -1 and 1 otherwise, and size = log2(U), the same for every class.
    With |v.x + v.y*sqrt(d)| = sqrt(|n|) * 2^s, U^k * eps^power * v has
    s + (k + power/e)*size, and |y| grows strictly with its absolute value:
    the smallest element has it at most size/2, with y > 0 (x > 0 when
    y = 0) of the pair +-w.  s is a float from the leading bits; where
    rounding could hide which side of a tie it lies on, both neighbours are
    compared exactly.  Each is v times one power of eps, so where v is small
    neither is a product of two large numbers: the class of -1, with
    v = (-1, 0) and power 1, is always a tie between eps and -eps^-1.
    """
    e = 1 if sign == 1 else 2
    s = _log2_size(v.x, v.y, d) - log2(abs(n)) / 2
    if (v.x >= 0) != (v.y >= 0):  # |v.x + v.y*sqrt(d)| = |n| / (|v.x| + |v.y|*sqrt(d))
        s = -s
    s += power * size / e
    k = round(-s / size)
    rest = s + k * size
    near = abs(rest) > size / 2 - 1e-9 * (size + abs(s) + 1)  # within rounding of a tie
    ks = [k, k - 1 if rest > 0 else k + 1] if near else [k]
    return min((_normalize_sign(_unit_power(x, y, d, v, e * j + power))
                for j in ks), key=_size_key)


def _unit_power(t: int, u: int, d: int, rep: PellSolution, k: int) -> PellSolution:
    """Multiply a solution by (t + u*sqrt(d))^k, t^2 - d*u^2 = +-1, k in Z.

    A negative k multiplies by (t - u*sqrt(d))^|k|: the inverse power for a
    unit of norm 1, and that times (-1)^k for norm -1.
    """
    if k < 0:
        u, k = -u, -k
    x, y = rep
    while k:
        if k & 1:
            x, y = t * x + d * u * y, u * x + t * y
        k >>= 1
        if k:
            t, u = t * t + d * u * u, 2 * t * u
    return PellSolution(x, y)


def _normalize_sign(s: PellSolution) -> PellSolution:
    """Canonical sign: y > 0, or y == 0 and x > 0 (global flip only)."""
    if s.y < 0 or (s.y == 0 and s.x < 0):
        return PellSolution(-s.x, -s.y)
    return s


def divisible_solutions(d: int, b: int, c: int) -> Iterator[PellSolution]:
    """Solutions of x^2 - d*y^2 = b with b | x - c*y.

    First the representatives that qualify, in the order of `solve_all`; then
    U^k * rep for each qualifying power k of the unit modulo its class's
    period, taken in (-period/2, period/2]: by |k|, k > 0 first, then by
    class.  At half a period U^k * rep is listed and U^-k * rep is not.
    Witnesses are sign-normalized to y >= 0 (x > 0 when y = 0).

    The search is complete: every solution is +-U^k * rep for one class
    representative, and U^k * rep modulo |b| is periodic in k, so one period
    of each class holds every residue of x - c*y it takes.  Where
    divisibility cannot depend on k (`_class_invariant`), a class whose
    representative fails holds no solution that qualifies and is not walked.
    """
    if b == 0:
        raise ValidationError("divisor target must be nonzero")
    return _divisible_solutions_from(solve_all(d, b), d, b, c)


def _divisible_solutions_from(scs: SolutionClassSet, d: int, b: int,
                              c: int) -> Iterator[PellSolution]:
    """divisible_solutions over the already solved classes scs of x^2 - d*y^2 = b."""
    bb = abs(b)
    cb = c % bb
    # Solutions come by unit power k (nearest to 0 modulo each class's period,
    # k before -k), then by class.  The k = 0 ones, the representatives (all
    # of the solutions of a finite set, where +-v are both listed), need no
    # walk: they come first, before any period is walked.
    for v in dict.fromkeys(map(_normalize_sign, scs.solutions)):
        if (v.x - cb * v.y) % bb == 0:
            yield v
    if scs.kind != "indefinite":
        return
    walked = [(idx, rep) for idx, rep in enumerate(scs.solutions)
              if (rep.x - cb * rep.y) % bb == 0 or not _class_invariant(rep, d, bb, cb)]
    if not walked:
        return
    t, u = scs.unit
    # The walk only needs residues, so the unit's coefficients are reduced once.
    tb, ub, dub = t % bb, u % bb, d * u % bb
    found: list[tuple[int, bool, int, int]] = []
    for idx, rep in walked:
        x0, y0 = rep.x % bb, rep.y % bb
        x, y = (tb * x0 + dub * y0) % bb, (ub * x0 + tb * y0) % bb
        ks = []
        k = 1
        while x != x0 or y != y0:
            if (x - cb * y) % bb == 0:
                ks.append(k)
            x, y = (tb * x + dub * y) % bb, (ub * x + tb * y) % bb
            k += 1
        # k is now the period; a power past its half is nearer to 0 below it.
        for kk in (k0 if 2 * k0 <= k else k0 - k for k0 in ks):
            found.append((abs(kk), kk < 0, idx, kk))
    # A nonzero power of one class meets neither another power nor a representative.
    for *_, idx, kk in sorted(found):
        yield _normalize_sign(_unit_power(t, u, d, scs.solutions[idx], kk))


def _class_invariant(rep: PellSolution, d: int, bb: int, cb: int) -> bool:
    """True where bb | x - cb*y is proved to hold on all of rep's class {+-U^k * rep} or none.

    It does when d = cb^2 mod bb: the unit (T, U) multiplies x - cb*y by
    T - cb*U modulo bb, and (T - cb*U)(T + cb*U) = T^2 - d*U^2 = 1.  It does
    too when rep is primitive and gcd(bb, 2d) = 1.  At each p^e || bb, d has
    a p-adic square root s, and the factors x + s*y and x - s*y of the norm
    cannot both be multiples of p, so one is 0 modulo p^e and the other a
    unit, along the whole class, as the unit's own factors are units.  Then
    x - cb*y = ((s - cb)(x + s*y) + (s + cb)(x - s*y))/(2s) is a unit times
    s + cb or s - cb modulo p^e, whatever the power of U.
    """
    return (d - cb * cb) % bb == 0 or (gcd(rep.x, rep.y) == 1 and gcd(bb, 2 * d) == 1)


def find_with_divisibility(d: int, b: int, c: int) -> PellSolution | None:
    """First solution of x^2 - d*y^2 = b with b | x - c*y, if any."""
    return next(divisible_solutions(d, b, c), None)


# ---- indefinite binary quadratic forms ----

class QuadForm(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def _check_disc(f: QuadForm) -> int:
    delta = f.disc
    if delta <= 0 or is_square(delta):
        raise BadDiscriminantError(
            f"form {tuple(f)} needs a positive nonsquare discriminant, got {delta}"
        )
    return delta


def is_reduced(f: QuadForm) -> bool:
    """Reduced indefinite form: |sqrt(disc) - 2|a|| < b < sqrt(disc)."""
    delta = _check_disc(f)
    if f.b <= 0 or f.b * f.b >= delta:
        return False
    hi = 2 * abs(f.a) + f.b
    if hi * hi <= delta:
        return False
    lo = 2 * abs(f.a) - f.b
    return lo < 0 or lo * lo < delta


def rho(f: QuadForm) -> QuadForm:
    """Reduction step (a, b, c) -> (c, r, (r^2 - disc)/(4c)).

    r is chosen congruent to -b modulo 2|c|, in (sqrt(disc) - 2|c|, sqrt(disc)]
    when |c| < sqrt(disc) and in (-|c|, |c|] otherwise.
    """
    delta = _check_disc(f)
    ac = abs(f.c)
    if f.c * f.c < delta:
        s = isqrt(delta)
        r = s - (s + f.b) % (2 * ac)
    else:
        r = (-f.b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    return QuadForm(f.c, r, (r * r - delta) // (4 * f.c))


def reduce_form(f: QuadForm) -> QuadForm:
    """Iterate the reduction step until the form is reduced."""
    f = QuadForm(*f)
    _check_disc(f)
    for _ in range(10_000):
        if is_reduced(f):
            return f
        f = rho(f)
    raise InternalInconsistencyError(f"reduction of {tuple(f)} did not terminate")


def _flip(f: QuadForm) -> QuadForm:
    return QuadForm(-f.a, f.b, -f.c) if f.a < 0 else f


def form_cycle(f: QuadForm) -> list[QuadForm]:
    """Reduction cycle of a reduced indefinite form.

    Returns [start, g1, g2, ...] over one full period, where each successor is
    the reduction step of the previous form with the leading coefficient
    sign-normalized positive; the step after the last returns to the start.
    """
    f = QuadForm(*f)
    _check_disc(f)
    if not is_reduced(f):
        raise NotReducedError(f"form {tuple(f)} is not reduced")
    start = _flip(f)
    cycle = [start]
    g = _flip(rho(start))
    while g != start:
        cycle.append(g)
        g = _flip(rho(g))
    return cycle


def principal_form(delta: int) -> QuadForm:
    """Reduced principal form of a positive nonsquare discriminant."""
    if delta <= 0 or delta % 4 in (2, 3) or is_square(delta):
        raise BadDiscriminantError(f"not a positive nonsquare discriminant: {delta}")
    s = isqrt(delta)
    b0 = s if (s - delta) % 2 == 0 else s - 1
    return QuadForm(1, b0, (b0 * b0 - delta) // 4)


def represents_one(f: QuadForm) -> bool:
    """Whether the form properly represents 1.

    True exactly when the principal form of the same discriminant lies on the
    reduction orbit (without sign normalization, which would conflate a form
    with its negative) of the reduced image of f.
    """
    f = QuadForm(*f)
    delta = _check_disc(f)
    target = principal_form(delta)
    start = reduce_form(f)
    g = start
    while True:
        if g == target:
            return True
        g = rho(g)
        if g == start:
            return False
