"""Generalized Pell equations and indefinite binary quadratic forms.

Solves x^2 - D*y^2 = N exactly over the integers for any nonzero D, N:
finitely many solutions when D < 0 or D is a perfect square, otherwise
finitely many solution classes closed under multiplication by the fundamental
unit.  Also provides the divisibility-constrained search used by the freeness
criteria, reduction cycles of indefinite forms, and the Jacobi symbol.

The continued-fraction walks behind the unit and the class search (after
K. Matthews, "The Diophantine equation x^2 - Dy^2 = N, D > 0", Expo. Math.
18, 2000) keep only the small state of each step and its partial quotient.
A convergent, which can run to hundreds of thousands of bits, is built once
from the quotients by a balanced product tree (`_quotient_product`).
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


def _minimal_unit_pm(d: int) -> tuple[int, int, int]:
    """Smallest (x, y, s) with x, y >= 1 and x^2 - d*y^2 = s, s in {1, -1}.

    Continued-fraction expansion of sqrt(d); the convergent just before the
    period closes gives the minimal solution, with s = (-1)^period.  The walk
    keeps only small integers and records the partial quotients; the
    convergent is built from them once, by `_quotient_product`.
    """
    if d <= 0:
        raise SquareDiscriminantError(f"fundamental unit needs d > 1, got {d}")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise SquareDiscriminantError(f"{d} is a perfect square")
    quotients = [a0]
    append = quotients.append
    m, den, a = 0, 1, a0
    while True:
        m = den * a - m
        den = (d - m * m) // den
        if den == 1:
            break
        a = (a0 + m) // den
        append(a)
    h, _, k, _ = _quotient_product(quotients, 0, len(quotients))
    return h, k, (-1) ** len(quotients)


def _unit_and_negative(d: int) -> tuple[tuple[int, int], tuple[int, int] | None]:
    """The fundamental unit and the minimal -1 solution, from one expansion."""
    x, y, s = _minimal_unit_pm(d)
    if s == 1:
        return (x, y), None
    return (x * x + d * y * y, 2 * x * y), (x, y)


def fundamental_unit(d: int) -> tuple[int, int]:
    """Minimal (t, u) with t, u >= 1 and t^2 - d*u^2 = 1."""
    return _unit_and_negative(d)[0]


def minimal_negative_solution(d: int) -> tuple[int, int] | None:
    """Minimal positive solution of x^2 - d*y^2 = -1, if one exists."""
    return _unit_and_negative(d)[1]


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

    (t, u), neg = _unit_and_negative(d)
    found: set[PellSolution] = set()
    f = 1
    while f * f <= abs(n):
        if n % (f * f) == 0:
            for r, s in _primitive_class_reps(d, n // (f * f), neg):
                found.add(_canonical_in_class(PellSolution(f * r, f * s), d, t, u))
        f += 1
    if not found:
        return SolutionClassSet("empty", ())
    return SolutionClassSet("indefinite", tuple(sorted(found, key=_size_key)), (t, u))


def _primitive_class_reps(d: int, m: int, neg: tuple[int, int] | None) -> Iterator[tuple[int, int]]:
    """One fundamental solution per class of primitive solutions of x^2 - d*y^2 = m.

    Classes correspond to the square roots z of d modulo |m|; the continued
    fraction of (z + sqrt(d))/|m| reaches a convergent of value +-m, and a
    value of -m converts to m through a solution of x^2 - d*y^2 = -1.  Each
    walk keeps only the small state (p, q) of (p + sqrt(d))/q and its partial
    quotients; the convergent is built once, when q = +-1 is reached.
    """
    if m == 1:
        yield (1, 0)
        return
    if m == -1:
        if neg is not None:
            yield neg
        return
    root = isqrt(d)
    am = abs(m)
    for z in range(-((am - 1) // 2), am // 2 + 1):
        if (z * z - d) % am:
            continue
        quotients = _walk_to_unit_denominator(d, root, z, am)
        if quotients is None:
            continue
        h, _, k, _ = _quotient_product(quotients, 0, len(quotients))
        # [[g, .], [b, .]] = [[|m|, -z], [0, 1]] times the quotient product.
        g, b = am * h - z * k, k
        value = g * g - d * b * b
        if value == m:
            yield (g, b)
        elif value == -m and neg is not None:
            yield (g * neg[0] + d * b * neg[1], g * neg[1] + b * neg[0])


def _walk_to_unit_denominator(d: int, root: int, p: int, q: int) -> list[int] | None:
    """Partial quotients of (p + sqrt(d))/q up to the first later state with q = +-1.

    None when the expansion closes its period first.  Once (p + sqrt(d))/q is
    reduced (greater than 1, conjugate in (-1, 0)) the expansion is purely
    periodic, so that state anchors the stop.  States before it cannot repeat;
    a set over them alone makes sure that a wrong anchor test cannot loop.
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
            return quotients
    # Reduced from here on: q stays positive, and q = 1 only at p = root.
    p0, q0 = p, q
    while True:
        a = (p + root) // q
        append(a)
        p = a * q - p
        q = (d - p * p) // q
        if q == 1:
            return quotients
        if p == p0 and q == q0:
            return None


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

    t, u = scs.unit
    # The walk only needs residues, so the unit's coefficients are reduced once.
    tb, ub, dub = t % bb, u % bb, d * u % bb
    found: list[tuple[tuple, int, int]] = []
    for idx, rep in enumerate(scs.solutions):
        x0, y0 = rep.x % bb, rep.y % bb
        x, y = x0, y0
        ks = []
        k = 0
        while True:
            if (x - cb * y) % bb == 0:
                ks.append(k)
            x, y = (tb * x + dub * y) % bb, (ub * x + tb * y) % bb
            k += 1
            if x == x0 and y == y0:
                break
        period = k
        for k0 in ks:
            kk = k0 if abs(k0) <= abs(k0 - period) else k0 - period
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
