"""Matrix, Gram-matrix, Pell, quadratic-form and JSON-number helpers used only by the tests."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from typing import Iterator, Sequence

from hopfq.fields import CyclicQuarticParams, classify_biquadratic_type, classify_cyclic_case
from hopfq.freeness import FieldParams
from hopfq.hopf import (
    _NONCLASSICAL_RECIPE,
    CYCLIC_NONCLASSICAL,
    GramMatrix,
    StructureId,
    _unit,
    gram_classical,
    mult_table,
    multiply,
    parse_rational,
    structures_for,
)
from hopfq.errors import (
    InternalInconsistencyError,
    RankDeficientError,
    SquareDiscriminantError,
    ValidationError,
)
from hopfq.linalg import det_int
from hopfq.pell import (
    PellSolution,
    QuadForm,
    _check_disc,
    _normalize_sign,
    _size_key,
    _unit_power,
    is_reduced,
    jacobi,
    principal_form,
    rho,
    solve_all,
)


def decode_number(value) -> Fraction:
    """Inverse of `hopfq.cli.encode_number`; raises ValidationError on junk."""
    if isinstance(value, bool):
        raise ValidationError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational value: {value!r}") from exc
    raise ValidationError(f"not a rational value: {value!r}")


def mat(rows) -> list[list[Fraction]]:
    """Coerce a nested sequence of numbers into a Fraction matrix."""
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner, "dimension mismatch"
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a, v):
    assert len(a[0]) == len(v), "dimension mismatch"
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def transpose(a):
    return [list(col) for col in zip(*a)]


CLASSICAL = "classical"


def classical_structure(field) -> StructureId:
    if isinstance(field, CyclicQuarticParams):
        return StructureId(CLASSICAL, f"sqrt({field.d})")
    return StructureId(CLASSICAL, f"sqrt({field.m})")


def gram_nonclassical(field, structure: StructureId) -> GramMatrix:
    """Gram matrix of one non-classical structure over the reference basis.

    The per-structure reference construction for `hopfq.hopf.structure_grams`.
    Rows follow the basis (Id, mu, eta + mu*eta, z*(eta - mu*eta)): the first
    is the identity row, the second a single classical row, the third the sum
    of two classical rows, and the fourth z times their difference, expanded
    through the multiplication table.
    """
    if structure.family not in _NONCLASSICAL_RECIPE:
        raise ValidationError(f"not a non-classical structure: {structure.family}")
    if isinstance(field, CyclicQuarticParams) != (structure.family == CYCLIC_NONCLASSICAL):
        raise ValidationError(f"structure {structure.family} does not match the field family")
    mu, eta, mu_eta, z_index = _NONCLASSICAL_RECIPE[structure.family]
    classical = gram_classical(field)
    table = mult_table(field)
    z_vec = _unit(z_index)
    row1 = classical[0]
    row2 = classical[mu]
    row3 = [
        [classical[eta][j][t] + classical[mu_eta][j][t] for t in range(4)] for j in range(4)
    ]
    row4 = [
        multiply(
            z_vec,
            [classical[eta][j][t] - classical[mu_eta][j][t] for t in range(4)],
            table,
        )
        for j in range(4)
    ]
    return [row1, row2, row3, row4]


def euclidean_hnf(a: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form by repeated Euclidean sweeps; reference for `hnf_integer`.

    Each column repeats "take the smallest nonzero entry as pivot, reduce
    every lower row by it" until the column is clear below the pivot.
    """
    nrows = len(a)
    ncols = len(a[0])
    w = [[int(x) for x in row] for row in a]

    def submul(dst: int, src: int, q: int) -> None:
        if q:
            wd, ws = w[dst], w[src]
            for j in range(ncols):
                wd[j] -= q * ws[j]

    for col in range(ncols):
        if col >= nrows:
            raise RankDeficientError("fewer rows than columns")
        # Euclidean elimination below the pivot.
        while True:
            support = [r for r in range(col, nrows) if w[r][col] != 0]
            if not support:
                raise RankDeficientError(f"no pivot available in column {col}")
            r0 = min(support, key=lambda r: (abs(w[r][col]), r))
            w[col], w[r0] = w[r0], w[col]
            if w[col][col] < 0:
                w[col] = [-x for x in w[col]]
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

    if any(x for r in range(ncols, nrows) for x in w[r]):
        raise InternalInconsistencyError("rows below the Hermite form are not zero")
    return w[:ncols]


def format_gram_text(gram) -> str:
    """Inverse of hopfq.hopf.parse_gram_text."""
    return "\n".join(
        " ".join(",".join(str(x) for x in entry) for entry in row) for row in gram
    )


def solutions_within(d: int, n: int, bound: int) -> list[PellSolution]:
    """All solutions of x^2 - d*y^2 = n with |x| <= bound and |y| <= bound."""
    scs = solve_all(d, n)
    if scs.kind == "empty":
        return []
    if scs.kind == "finite":
        inside = {s for s in scs.solutions if abs(s.x) <= bound and abs(s.y) <= bound}
        return sorted(inside, key=_size_key)
    t, u = scs.unit
    # Once a coordinate exceeds this, no later step re-enters the box.
    stop = bound * (t + abs(d) * u + 1)
    inside: set[PellSolution] = set()
    for rep in scs.solutions:
        for step in (1, -1):
            x, y = rep
            while max(abs(x), abs(y)) <= stop:
                if abs(x) <= bound and abs(y) <= bound:
                    inside.add(PellSolution(x, y))
                    inside.add(PellSolution(-x, -y))
                if step == 1:
                    x, y = t * x + d * u * y, u * x + t * y
                else:
                    x, y = t * x - d * u * y, -u * x + t * y
    return sorted(inside, key=_size_key)


def residue_rule_alone(d: int, n: int, primes) -> bool:
    """The mod-8 line and the residue rule of `pell._residue_obstructed`,
    without its q^2 rule: d = 3 and n = 2 modulo 4 with n != 1 - d modulo 8,
    or an odd q of `primes`, the primes of d, with q not dividing n and
    (n/q) = -1.  A prime dividing n is never tested here."""
    if d % 4 == 3 and n % 4 == 2 and (n + d - 1) % 8:
        return True
    return any(q > 2 and n % q and jacobi(n, q) == -1 for q in primes)


def minimal_negative_solution(d: int) -> tuple[int, int] | None:
    """Minimal positive solution of x^2 - d*y^2 = -1, if one exists."""
    x, y, s = stepwise_minimal_unit_pm(d)
    return (x, y) if s == -1 else None


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


# ---- step-by-step references for the continued-fraction walks in hopfq.pell ----
#
# These are the walks as they were before hopfq.pell kept only partial
# quotients: every step updates the full convergents.  The class reference
# also finds its square roots by trying every residue modulo |m| and walks each
# root through a whole period of its own cycle.  The tests require the
# library's walks to return exactly what these return.

def stepwise_minimal_unit_pm(d: int) -> tuple[int, int, int]:
    """Smallest (x, y, s) with x, y >= 1 and x^2 - d*y^2 = s, s in {1, -1}.

    Continued-fraction expansion of sqrt(d); the convergent just before the
    period closes gives the minimal solution, with s = (-1)^period.
    """
    if d <= 0:
        raise SquareDiscriminantError(f"fundamental unit needs d > 1, got {d}")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise SquareDiscriminantError(f"{d} is a perfect square")
    h_prev, k_prev = 1, 0
    h, k = a0, 1
    m, den = 0, 1
    a = a0
    steps = 0
    while True:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        steps += 1
        if den == 1:
            return h, k, (-1) ** steps
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


def _cf_floor(p: int, q: int, root: int) -> int:
    """floor((p + sqrt(d)) / q) with root = isqrt(d), d not a square."""
    quo, rem = divmod(p + root, q)
    if rem == 0 and q < 0:
        return quo - 1
    return quo


def stepwise_primitive_class_reps(d: int, m: int, neg: tuple[int, int] | None) -> Iterator[tuple[int, int]]:
    """One fundamental solution per class of primitive solutions of x^2 - d*y^2 = m.

    Classes correspond to the square roots z of d modulo |m|; the continued
    fraction of (z + sqrt(d))/|m| reaches a convergent of value +-m, and a
    value of -m converts to m through a solution of x^2 - d*y^2 = -1.
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
        p, q = z, am
        g_prev, g = -z, am
        b_prev, b = 1, 0
        seen = set()
        while (p, q) not in seen:
            seen.add((p, q))
            a = _cf_floor(p, q, root)
            g_prev, g = g, a * g + g_prev
            b_prev, b = b, a * b + b_prev
            p = a * q - p
            q = (d - p * p) // q
            if q in (1, -1):
                value = g * g - d * b * b
                if value == m:
                    yield (g, b)
                elif value == -m and neg is not None:
                    yield (g * neg[0] + d * b * neg[1], g * neg[1] + b * neg[0])
                break


def stepwise_canonical_in_class(sol: PellSolution, d: int, t: int, u: int) -> PellSolution:
    """Smallest element (by _size_key) of the class {+-U^k * sol}."""
    best: PellSolution | None = None
    steppers = (
        lambda v: PellSolution(t * v.x - d * u * v.y, -u * v.x + t * v.y),
        lambda v: PellSolution(t * v.x + d * u * v.y, u * v.x + t * v.y),
    )
    for start in (sol, PellSolution(-sol.x, -sol.y)):
        for step in steppers:
            v = start
            while True:
                w = step(v)
                if _size_key(w) < _size_key(v):
                    v = w
                else:
                    break
            if best is None or _size_key(v) < _size_key(best):
                best = v
    return best


def stepwise_divisible_solutions(d: int, b: int, c: int) -> Iterator[PellSolution]:
    """divisible_solutions(d, b, c) with every class walked through its whole period.

    The search as it was before hopfq.pell skipped the classes on which
    divisibility cannot depend on the power of the unit: the representatives
    that qualify, then each class's qualifying powers modulo its period, by
    |k|, k > 0 first, then by class.
    """
    scs = solve_all(d, b)
    bb = abs(b)
    cb = c % bb
    for v in dict.fromkeys(map(_normalize_sign, scs.solutions)):
        if (v.x - cb * v.y) % bb == 0:
            yield v
    if scs.kind != "indefinite":
        return
    t, u = scs.unit
    found = []
    for idx, rep in enumerate(scs.solutions):
        x0, y0 = rep.x % bb, rep.y % bb
        x, y = (t * x0 + d * u * y0) % bb, (u * x0 + t * y0) % bb
        ks, k = [], 1
        while (x, y) != (x0, y0):
            if (x - cb * y) % bb == 0:
                ks.append(k)
            x, y = (t * x + d * u * y) % bb, (u * x + t * y) % bb
            k += 1
        # k is now the period; a power past its half is nearer to 0 below it.
        found += [(abs(kk), kk < 0, idx, kk) for kk in (k0 if 2 * k0 <= k else k0 - k for k0 in ks)]
    for *_, idx, kk in sorted(found):
        yield _normalize_sign(_unit_power(t, u, d, scs.solutions[idx], kk))


# ---- reference for the determinant polynomial of the oracle in hopfq.freeness ----

def expanded_quartic_coefficients(action) -> dict[tuple[int, ...], int]:
    """Monomial coefficients of det(sum_j beta_j * block_j) for an integer action.

    The multilinear expansion over rows: row t of the combined matrix is
    sum_j beta_j * (row t of block j), so the polynomial is the sum of the 256
    determinants that take each row from one block.
    """
    blocks = [[action[4 * j + t] for t in range(4)] for j in range(4)]
    coeffs: dict[tuple[int, ...], int] = {}
    for js in product(range(4), repeat=4):
        value = det_int([blocks[js[t]][t] for t in range(4)])
        if value:
            key = tuple(js.count(j) for j in range(4))
            coeffs[key] = coeffs.get(key, 0) + value
    return {key: v for key, v in coeffs.items() if v}


# ---- reference for the box scan of the oracle in hopfq.freeness ----

def full_box_first_point(content: int, factor: dict[tuple[int, ...], int],
                          linear: dict[tuple[int, ...], int], bound: int,
                          target: int) -> tuple[int, int, int, int] | None:
    """Lexicographically first beta in [-bound, bound]^4 with |q(beta)| = target.

    q = (c * beta_1 + S) * R as `_split` returns it.  At an integer point
    with |q| = target, R divides target and c * beta_1 + S = +-target / R,
    which gives beta_1 directly.  R's coefficients are expanded for each
    beta_3, then for each row beta_4, and R is evaluated in beta_2 by Horner's
    rule.  Every value of R on a row is a multiple of the gcd of the row's
    coefficients, so a row whose gcd does not divide target is skipped whole.
    """
    # forms[e2][e4]: coefficient of beta_2^e2 * beta_3^(3 - e2 - e4) * beta_4^e4 in R.
    forms = [[0] * (4 - e2) for e2 in range(4)]
    for (e2, _, e4), r in factor.items():
        forms[e2][e4] = r
    s2, s3, s4 = (linear.get(key, 0) for key in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    span = range(-bound, bound + 1)
    best = None
    for b3 in span:
        powers = (1, b3, b3 * b3, b3**3)
        # Coefficients of beta_2^e2 * beta_4^j once beta_3 is fixed.
        (r00, r01, r02, r03), (r10, r11, r12), (r20, r21), (r3,) = (
            [r * powers[len(form) - 1 - j] for j, r in enumerate(form)] for form in forms)
        for b4 in span:
            # Coefficients of beta_2^e2 once beta_4 is fixed as well.
            r0 = ((r03 * b4 + r02) * b4 + r01) * b4 + r00
            r1 = (r12 * b4 + r11) * b4 + r10
            r2 = r21 * b4 + r20
            row = gcd(r0, r1, r2, r3)
            if not row or target % row:
                continue
            s_row = s3 * b3 + s4 * b4
            for b2 in span:
                value = ((r3 * b2 + r2) * b2 + r1) * b2 + r0
                if not value or target % value:
                    continue
                for t in (target // value, -target // value):
                    b1, r = divmod(t - s2 * b2 - s_row, content)
                    if not r and -bound <= b1 <= bound and (best is None or (b1, b2, b3, b4) < best):
                        best = (b1, b2, b3, b4)
    return best


# ---- primes for the theorems at the domain edge ----

def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2 ... 13, exact below 3.4 * 10^12."""
    bases = (2, 3, 5, 7, 11, 13)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        for _ in range(r):
            if x in (1, n - 1):
                break
            x = x * x % n
        else:
            return False
    return True


# ---- closed-form generator determinants, the cross-check of hopfq.freeness ----

def closed_form_determinant(p: FieldParams, structure: StructureId,
                            beta: Sequence[int]) -> Fraction:
    """Factored closed form of the generator determinant.

    Independent of the matrix construction: evaluates the per-case product
    of two linear factors and one quadratic form in the coordinates of beta.
    """
    b1, b2, b3, b4 = (Fraction(x) for x in beta)
    if isinstance(p, CyclicQuarticParams):
        b, c = p.b, p.c
        case = classify_cyclic_case(p)
        if case == 1:
            return 16 * b1 * b2 * (b * b3**2 + 2 * c * b3 * b4 - b * b4**2)
        if case == 2:
            return 8 * b2 * (2 * b1 + b2) * (b * b3**2 + 2 * c * b3 * b4 - b * b4**2)
        if case == 3:
            return -8 * b2 * (2 * b1 + b2) * (c * b3**2 + 2 * b * b3 * b4 - c * b4**2)
        if case == 4:
            return (-2 * (2 * b2 + b3 - b4) * (4 * b1 + 2 * b2 + b3 + b4)
                    * (c * b3**2 + 2 * b * b3 * b4 - c * b4**2))
        return (2 * (2 * b2 + b3 - b4) * (4 * b1 + 2 * b2 + b3 + b4)
                * (-c * b3**2 + 2 * b * b3 * b4 + c * b4**2))
    m, n, k, d = p.m, p.n, p.k, p.d
    md, nd = m // d, n // d
    kind = classify_biquadratic_type(p)
    idx = structures_for(p).index(structure)
    if kind == "first":
        if idx == 0:
            return (-32 * b1 * b2
                    * (d * b3**2 + d * b3 * b4 + Fraction(d + md, 4) * b4**2))
        if idx == 1:
            return 8 * b1 * (2 * b3 + b4) * (2 * d * b2**2 + Fraction(n, 2 * d) * b4**2)
        return (8 * b1 * b4
                * (2 * md * b2**2 + 2 * nd * b3**2 + 2 * nd * b3 * b4
                   + Fraction(n, 2 * d) * b4**2))
    if kind == "second":
        if idx == 0:
            return (-8 * b2 * (2 * b1 + b2)
                    * (2 * d * b3**2 + 2 * d * b3 * b4 + Fraction(d + md, 2) * b4**2))
        if idx == 1:
            return 4 * (2 * b1 + b2) * (2 * b3 + b4) * (d * b2**2 + nd * b4**2)
        return (4 * b4 * (2 * b1 + b2)
                * (md * b2**2 + 4 * nd * b3**2 + 4 * nd * b3 * b4 + nd * b4**2))
    if idx == 0:
        return (-2 * (2 * b2 + b4) * (4 * b1 + 2 * b2 + 2 * b3 + b4)
                * (2 * d * b3**2 + 2 * m * b3 * b4 + md * Fraction(m + 1, 2) * b4**2))
    if idx == 1:
        return (2 * (2 * b3 + md * b4) * (4 * b1 + 2 * b2 + 2 * b3 + b4)
                * (2 * d * b2**2 + 2 * d * b2 * b4 + Fraction(d + nd, 2) * b4**2))
    return (2 * b4 * (4 * b1 + 2 * b2 + 2 * b3 + b4)
            * (2 * md * b2**2 + 2 * md * b2 * b4 + 2 * nd * b3**2
               + 2 * k * b3 * b4 + md * Fraction(k + 1, 2) * b4**2))
