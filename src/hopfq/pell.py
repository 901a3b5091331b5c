"""Generalized Pell equations and indefinite binary quadratic forms.

Solves x^2 - D*y^2 = N exactly over the integers for any nonzero D, N:
finitely many solutions when D < 0 or D is a perfect square, otherwise
finitely many solution classes closed under multiplication by the fundamental
unit.  Also provides the divisibility-constrained search used by the freeness
criteria, reduction cycles of indefinite forms, and the Jacobi symbol.

The class search follows K. Matthews, "The Diophantine equation
x^2 - Dy^2 = N, D > 0", Expo. Math. 18, 2000.  Its square roots of D modulo
|N| come from the factorisation of N (Tonelli-Shanks, Hensel lifting and the
Chinese remainder theorem, as in H. Cohen, "A Course in Computational
Algebraic Number Theory", section 1.5), not from a scan.  Each root walks its
continued fraction only to its first reduced state; a class has a solution
exactly when that state lies on the principal cycle, which the unit's own
walk passes once per D.  The walks keep only the small state of each step and
its partial quotient.  A convergent, which can run to hundreds of thousands
of bits, is built once from the quotients by a balanced product tree
(`_quotient_product`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, NamedTuple

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

def _factor(n: int) -> dict[int, int]:
    """Prime factorisation {p: e} of |n| by trial division; {} for |n| <= 1."""
    n = abs(n)
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
    """Every z in (-m/2, m/2] with z^2 = d modulo m >= 2, ascending.

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
    a, b, c, e = _quotient_product(quotients, lo, mid)
    f, g, i, j = _quotient_product(quotients, mid, hi)
    return a * f + b * i, a * g + b * j, c * f + e * i, c * g + e * j


def _principal_walk(d: int, anchors: dict[int, set[int]]
                    ) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Partial quotients [a0, ..., a_(L-1)] of sqrt(d) over one period, and where anchors lie.

    The states after the first, (m + sqrt(d))/den, are the reduced states of
    the principal cycle; the period closes at den = 1.  `anchors` maps a
    denominator to the numerators of the states sought.  Each one the walk
    passes comes back with its position: the index of its partial quotient.
    """
    if d <= 0:
        raise SquareDiscriminantError(f"fundamental unit needs d > 1, got {d}")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise SquareDiscriminantError(f"{d} is a perfect square")
    quotients = [a0]
    append = quotients.append
    positions: dict[tuple[int, int], int] = {}
    m, den, a = 0, 1, a0
    while True:
        m = den * a - m
        den = (d - m * m) // den
        if den == 1:
            break
        if den in anchors and m in anchors[den]:
            positions[m, den] = len(quotients)
        a = (a0 + m) // den
        append(a)
    return quotients, positions


def _period_convergent(quotients: list[int]) -> tuple[int, int, int]:
    """(x, y, s) of the convergent built from one period of sqrt(d): x^2 - d*y^2 = s."""
    h, _, k, _ = _quotient_product(quotients, 0, len(quotients))
    return h, k, (-1) ** len(quotients)


def _minimal_unit_pm(d: int) -> tuple[int, int, int]:
    """Smallest (x, y, s) with x, y >= 1 and x^2 - d*y^2 = s, s in {1, -1}.

    Continued-fraction expansion of sqrt(d); the convergent just before the
    period closes gives the minimal solution, with s = (-1)^period.  The walk
    keeps only small integers and records the partial quotients; the
    convergent is built from them once, by `_quotient_product`.
    """
    return _period_convergent(_principal_walk(d, {})[0])


def _unit_and_negative(d: int, x: int, y: int,
                       s: int) -> tuple[tuple[int, int], tuple[int, int] | None]:
    """The fundamental unit and the minimal -1 solution, from the minimal +-1 solution."""
    if s == 1:
        return (x, y), None
    return (x * x + d * y * y, 2 * x * y), (x, y)


def fundamental_unit(d: int) -> tuple[int, int]:
    """Minimal (t, u) with t, u >= 1 and t^2 - d*u^2 = 1."""
    return _unit_and_negative(d, *_minimal_unit_pm(d))[0]


def minimal_negative_solution(d: int) -> tuple[int, int] | None:
    """Minimal positive solution of x^2 - d*y^2 = -1, if one exists."""
    return _unit_and_negative(d, *_minimal_unit_pm(d))[1]


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
    U = (t, u) acting by (x, y) -> (t*x + D*u*y, u*x + t*y).
    """

    kind: str
    solutions: tuple[PellSolution, ...]
    unit: tuple[int, int] | None = None


def _size_key(s: PellSolution) -> tuple:
    return (abs(s.y), 0 if s.y >= 0 else 1, abs(s.x), 0 if s.x >= 0 else 1)


def _check_problem(d: int, n: int) -> None:
    if d == 0 or n == 0:
        raise ValidationError(f"Pell problem needs nonzero D and N, got D={d}, N={n}")


def solve_all(d: int, n: int) -> SolutionClassSet:
    """Full solution description of x^2 - d*y^2 = n (d, n nonzero)."""
    _check_problem(d, n)

    if d < 0:
        sols = set()
        if n > 0:
            for y in range(isqrt(n // -d) + 1):
                r = n + d * y * y
                if is_square(r):
                    x = isqrt(r)
                    sols.update({(x, y), (-x, y), (x, -y), (-x, -y)})
        ordered = tuple(PellSolution(*v) for v in sorted(sols, key=lambda v: _size_key(PellSolution(*v))))
        return SolutionClassSet("finite" if ordered else "empty", ordered)

    s = isqrt(d)
    if s * s == d:
        # (x - s*y)(x + s*y) = n: pair up divisors of matching parity.
        sols = set()
        for e in range(1, isqrt(abs(n)) + 1):
            if n % e:
                continue
            for e_signed in {e, -e, n // e, -(n // e)}:
                f = n // e_signed
                if (e_signed + f) % 2 == 0 and (f - e_signed) % (2 * s) == 0:
                    sols.add(((e_signed + f) // 2, (f - e_signed) // (2 * s)))
        ordered = tuple(PellSolution(*v) for v in sorted(sols, key=lambda v: _size_key(PellSolution(*v))))
        return SolutionClassSet("finite" if ordered else "empty", ordered)

    factors = _factor(n)
    divisors = _square_divisors(factors)
    (t, u), _, reps = _primitive_class_reps(d, [(n // (f * f), rest) for f, rest in divisors])
    found = {_canonical_in_class(PellSolution(f * r, f * s), d, t, u)
             for (f, _), class_reps in zip(divisors, reps) for r, s in class_reps}
    if not found:
        return SolutionClassSet("empty", ())
    return SolutionClassSet("indefinite", tuple(sorted(found, key=_size_key)), (t, u))


def _primitive_class_reps(d: int, targets: list[tuple[int, dict[int, int]]]) -> tuple[
        tuple[int, int], tuple[int, int] | None, list[list[tuple[int, int]]]]:
    """The fundamental unit, the minimal -1 solution, and per target one
    fundamental solution per class of primitive solutions of x^2 - d*y^2 = m.

    Each target is m with the factorisation of |m|.  Classes correspond to the
    square roots z of d modulo |m|; the continued fraction of
    (z + sqrt(d))/|m| reaches a convergent of value +-m, and a value of -m
    converts to m through a solution of x^2 - d*y^2 = -1.  A walk ends at an
    early q = +-1 or at its first reduced state, its anchor, from which the
    expansion is purely periodic.  It can reach q = 1 from there only on the
    principal cycle, as (isqrt(d) + sqrt(d))/1 is the only reduced state with
    q = 1.  So the unit's walk runs once and places every anchor on that
    cycle; a class whose anchor is not on it has no solution, and the others
    take the principal quotients from their anchor on.
    """
    root = isqrt(d)
    walks = []
    anchors: dict[int, set[int]] = {}
    for i, (m, factors) in enumerate(targets):
        am = abs(m)
        if am == 1:
            continue
        for z in _square_roots(d, am, factors):
            quotients, anchor = _walk_to_anchor(d, root, z, am)
            if anchor is not None:
                anchors.setdefault(anchor[1], set()).add(anchor[0])
            walks.append((i, m, z, quotients, anchor))
    principal, positions = _principal_walk(d, anchors)
    unit, neg = _unit_and_negative(d, *_period_convergent(principal))
    reps: list[list[tuple[int, int]]] = [
        [(1, 0)] if m == 1 else [neg] if m == -1 and neg is not None else []
        for m, _ in targets]
    for i, m, z, quotients, anchor in walks:
        if anchor is not None:
            if anchor not in positions:
                continue
            quotients = quotients + principal[positions[anchor]:]
        h, _, k, _ = _quotient_product(quotients, 0, len(quotients))
        # [[g, .], [b, .]] = [[|m|, -z], [0, 1]] times the quotient product.
        g, b = abs(m) * h - z * k, k
        value = g * g - d * b * b
        if value == m:
            reps[i].append((g, b))
        elif value == -m and neg is not None:
            reps[i].append((g * neg[0] + d * b * neg[1], g * neg[1] + b * neg[0]))
    return unit, neg, reps


def _walk_to_anchor(d: int, root: int, p: int,
                    q: int) -> tuple[list[int], tuple[int, int] | None]:
    """Partial quotients of (p + sqrt(d))/q up to its first reduced state (p', q').

    Returns the quotients and (p', q'), or None for the anchor when a state
    with q = +-1 comes first; the walk then stops there.  A state is reduced
    when (p + sqrt(d))/q is greater than 1 with conjugate in (-1, 0).  States
    before it cannot repeat; a set over them makes sure that a wrong test
    cannot loop.
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
        if q == 1 or q == -1:
            return quotients, None
    return quotients, (p, q)


def _canonical_in_class(sol: PellSolution, d: int, t: int, u: int) -> PellSolution:
    """Smallest element (by _size_key) of the class {+-U^k * sol}.

    From sol and from -sol, walk down (by U^-1) and up (by U) while the key
    falls; the smallest end point wins.  Each step compares |y| first, so it
    computes x only when y does not grow.  The unit acts linearly, so the
    walks from -sol are the negated walks from sol until the first tie in |y|,
    where the sign of y decides; only from there do they need their own steps.
    """
    ends = []
    for sign in (-1, 1):
        end, tie = _descend(sol, d, t, sign * u)
        ends.append(end)
        if tie is None:
            ends.append(PellSolution(-end.x, -end.y))
        else:
            ends.append(_descend(PellSolution(-tie.x, -tie.y), d, t, sign * u)[0])
    return min(ends, key=_size_key)


def _descend(v: PellSolution, d: int, t: int, u: int) -> tuple[PellSolution, PellSolution | None]:
    """Apply (x, y) -> (t*x + d*u*y, u*x + t*y) while _size_key falls.

    Returns the end point and the first point at which a step kept |y|, or None.
    """
    tie = None
    while True:
        # When u*x and t*y do not have opposite signs, |u*x + t*y| >= t*|y| > |y|,
        # or u*|x| > 0 = |y|: the step grows |y| and needs no product.
        if v.x == 0 or v.y == 0 or ((u > 0) == (v.x > 0)) == (v.y > 0):
            return v, tie
        wy = u * v.x + t * v.y
        if abs(wy) > abs(v.y):
            return v, tie
        w = PellSolution(t * v.x + d * u * v.y, wy)
        if abs(wy) == abs(v.y):
            if tie is None:
                tie = v
            if _size_key(w) >= _size_key(v):
                return v, tie
        v = w


def _unit_power(t: int, u: int, d: int, rep: PellSolution, k: int) -> PellSolution:
    """Apply the k-th power (k in Z) of the fundamental unit to a solution."""
    a, b, c, e = 1, 0, 0, 1  # 2x2 identity
    if k >= 0:
        ma, mb, mc, md = t, d * u, u, t
    else:
        ma, mb, mc, md = t, -d * u, -u, t
        k = -k
    while k:
        if k & 1:
            a, b, c, e = a * ma + b * mc, a * mb + b * md, c * ma + e * mc, c * mb + e * md
        ma, mb, mc, md = (
            ma * ma + mb * mc,
            ma * mb + mb * md,
            mc * ma + md * mc,
            mc * mb + md * md,
        )
        k >>= 1
    return PellSolution(a * rep.x + b * rep.y, c * rep.x + e * rep.y)


def _normalize_sign(s: PellSolution) -> PellSolution:
    """Canonical sign: y > 0, or y == 0 and x > 0 (global flip only)."""
    if s.y < 0 or (s.y == 0 and s.x < 0):
        return PellSolution(-s.x, -s.y)
    return s


def divisible_solutions(d: int, b: int, c: int) -> Iterator[PellSolution]:
    """Solutions of x^2 - d*y^2 = b with b | x - c*y, smallest first.

    Witnesses are sign-normalized to y >= 0 (x > 0 when y = 0); the search is
    complete because the divisibility pattern along each solution class is
    periodic modulo b.
    """
    if b == 0:
        raise ValidationError("divisor target must be nonzero")
    return _divisible_solutions_from(solve_all(d, b), d, b, c)


def _divisible_solutions_from(scs: SolutionClassSet, d: int, b: int,
                              c: int) -> Iterator[PellSolution]:
    """divisible_solutions over the already solved classes scs of x^2 - d*y^2 = b."""
    if scs.kind == "empty":
        return
    bb = abs(b)
    cb = c % bb

    seen: set[PellSolution] = set()
    if scs.kind == "finite":
        for s in sorted(scs.solutions, key=_size_key):
            v = _normalize_sign(s)
            if v not in seen and (v.x - cb * v.y) % bb == 0:
                seen.add(v)
                yield v
        return

    # Solutions come by unit power k (nearest to 0 modulo each class's period,
    # k before -k), then by class.  The k = 0 ones, the representatives, need
    # no walk: they come first, before any period is walked.
    for rep in scs.solutions:
        if (rep.x - cb * rep.y) % bb == 0:
            v = _normalize_sign(rep)
            if v not in seen:
                seen.add(v)
                yield v
    t, u = scs.unit
    # The walk only needs residues, so the unit's coefficients are reduced once.
    tb, ub, dub = t % bb, u % bb, d * u % bb
    found: list[tuple[tuple, int, int]] = []
    for idx, rep in enumerate(scs.solutions):
        x0, y0 = rep.x % bb, rep.y % bb
        x, y = (tb * x0 + dub * y0) % bb, (ub * x0 + tb * y0) % bb
        ks = []
        k = 1
        while x != x0 or y != y0:
            if (x - cb * y) % bb == 0:
                ks.append(k)
            x, y = (tb * x + dub * y) % bb, (ub * x + tb * y) % bb
            k += 1
        period = k
        for k0 in ks:
            kk = k0 if k0 <= period - k0 else k0 - period
            found.append(((abs(kk), 0 if kk >= 0 else 1, idx), idx, kk))
    for _, idx, kk in sorted(found):
        v = _normalize_sign(_unit_power(t, u, d, scs.solutions[idx], kk))
        if v not in seen:
            seen.add(v)
            yield v


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


def representation_of_one(f: QuadForm) -> tuple[int, int] | None:
    """Explicit (u, v) with f(u, v) = 1, or None when 1 is not represented.

    Tracks the change of variables along the reduction orbit: each step
    (a, b, c) -> (c, r, c') substitutes (u, v) -> (-v, u + s*v) with
    s = (b + r)/(2c), so reaching the principal form p gives f = p composed
    with the inverse substitution, and p(1, 0) = 1 pulls back to a witness.
    """
    f = QuadForm(*f)
    delta = _check_disc(f)
    target = principal_form(delta)
    g = f
    m00, m01, m10, m11 = 1, 0, 0, 1  # g = f with variables sent through M
    cycle_start: QuadForm | None = None
    for _ in range(1_000_000):
        if g == target:
            u, v = m00, m10
            if f.a * u * u + f.b * u * v + f.c * v * v != 1:
                raise InternalInconsistencyError(f"({u}, {v}) does not represent 1 by {tuple(f)}")
            return u, v
        if cycle_start is None and is_reduced(g):
            cycle_start = g
        nxt = rho(g)
        s = (g.b + nxt.b) // (2 * g.c)
        m00, m01 = m01, -m00 + s * m01
        m10, m11 = m11, -m10 + s * m11
        g = nxt
        if cycle_start is not None and g == cycle_start:
            return None
    raise InternalInconsistencyError(f"reduction orbit of {tuple(f)} did not close")
