"""Freeness of the ring of integers over its associated orders.

For each non-classical structure of a quartic field this module decides
whether the ring of integers is a free module over the associated order.
Every structure reduces to one question, the solvability of a generalized
Pell equation: x^2 - d*y^2 = t with t | x - s*y for the cyclic structure,
x^2 + a*y^2 = +-t for the three biquadratic ones.  A decision is prescreen,
then class representatives, then formula, then determinant test: each family
supplies a prescreen verdict, a witness (the first class representative that
qualifies) and the paper's generator formula in it, and one routine,
`_decide`, verifies the one generator before it is reported.  A not-free
prescreen verdict needs no Pell solve; a free one still takes its witness from
the solved classes.  A box-scan oracle provides an independent check for tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, combinations_with_replacement
from math import gcd, isqrt
from typing import Callable, Sequence

from .errors import InternalInconsistencyError, ValidationError
from .fields import (
    DERIVED,
    FIRST_INPUT,
    SECOND_INPUT,
    BiquadraticParams,
    CyclicQuarticParams,
    classify_biquadratic_type,
    classify_cyclic_case,
    integral_basis_biquadratic,
    integral_basis_cyclic,
)
from .hopf import (
    FieldParams,
    ReductionReport,
    StructureId,
    action_matrix,
    reduction_report,
    structure_grams,
    structures_for,
    test_generator,
)
from .linalg import content_primitive, quotient
from .pell import (
    SolutionClassSet, _divisible_solutions_from, _factor, _signed_divisors, jacobi, solve_all,
)

FREE = "free"
NOT_FREE = "not_free"
UNKNOWN = "unknown"

STRUCTURAL_RULE = "determinant always a multiple of four while the index is two"


@dataclass(frozen=True)
class PrescreenVerdict:
    """Outcome of the fast solvability rules.

    `outcome` is "free", "not_free", or "unknown"; `reason` names the rule
    that fired (or "no rule applies").
    """

    outcome: str
    reason: str


UNDECIDED = PrescreenVerdict(UNKNOWN, "no rule applies")


@dataclass(frozen=True)
class FreenessReport:
    """Decision for one non-classical structure.

    `witness` is a solution (x, y) of x^2 - D*y^2 = `witness_target` backing
    a free decision, `generator` a verified free generator in integral-basis
    coordinates, `index` the module index of the structure basis inside the
    associated order, and `method` how the decision was reached:
    "prescreen:<rule>", "pell_criterion", or "brute_force".
    """

    structure: StructureId
    decision: str
    witness: tuple[int, int] | None
    witness_target: int | None
    generator: tuple[int, int, int, int] | None
    index: int | Fraction
    method: str


# ---- the decision every structure shares ----

def _decide(structure: StructureId, action: Sequence[Sequence[int]], reduction: ReductionReport,
            verdict: PrescreenVerdict, witness: tuple[int, int, int] | None,
            formula: Callable[[int, int], tuple[int, int, int, int]]) -> FreenessReport:
    """Decide one structure from its prescreen verdict and norm-equation witness.

    `witness` is (x, y, target), a solution of the structure's norm equation
    (with its side condition), or None when there is none.  The generator
    `formula(x, y)` is verified once: at it each closed form
    (`closed_form_determinant` in tests/helpers.py) is a constant times
    (x^2 - D*y^2)/target whatever the signs of x and y, so no sign variant
    verifies where it fails.
    """
    index = reduction.index
    if verdict.outcome == NOT_FREE:
        return FreenessReport(structure, NOT_FREE, None, None, None, index,
                              f"prescreen:{verdict.reason}")
    if witness is None:
        if verdict.outcome == FREE:
            raise InternalInconsistencyError(
                f"prescreen says free but the norm equation of {structure} has no solution")
        return FreenessReport(structure, NOT_FREE, None, None, None, index, "pell_criterion")
    x, y, target = witness
    beta = formula(x, y)
    if not test_generator(reduction, action, beta):
        raise InternalInconsistencyError(
            f"the generator formula does not verify for {structure}, witness {(x, y)}")
    method = f"prescreen:{verdict.reason}" if verdict.outcome == FREE else "pell_criterion"
    return FreenessReport(structure, FREE, (x, y), target, beta, index, method)


# ---- cyclic structure ----

def _cyclic_equation(p: CyclicQuarticParams, case: int) -> tuple[int, int]:
    """(target, cross) of the criterion x^2 - d*y^2 = target, target | x - cross*y."""
    return (p.b, p.c) if case <= 2 else (p.c, p.b)


def prescreen_cyclic(p: CyclicQuarticParams) -> PrescreenVerdict:
    """Fast rules for the cyclic criterion x^2 - d*y^2 = t, t | x - s*y.

    The target t is the odd one of {b, c}.  Sound but incomplete: "unknown"
    sends the caller to the full decision procedure.
    """
    return _cyclic_prescreen(p, _cyclic_equation(p, classify_cyclic_case(p))[0])[0]


def _cyclic_prescreen(p: CyclicQuarticParams,
                      target: int) -> tuple[PrescreenVerdict, SolutionClassSet | None]:
    """The cyclic prescreen verdict and the solved classes of x^2 - d*y^2 = target.

    The classes are None when the residue rule rules the field out: that rule
    needs no solution.  It is checked modulo d/2 only: for odd d the target t
    is odd, d = 1 mod 4 and d = s^2 mod t, so by reciprocity (t/d) = (d/t) = 1.
    Rules on a prime d are left out because they cannot fire either:
    d = b^2 + c^2 is never 3 mod 4, and it is a nonzero square modulo every
    prime factor of b or c (d is squarefree, so no prime divides both).
    """
    if target == 1:
        return PrescreenVerdict(FREE, "target equals one"), solve_all(p.d, target)
    if p.d % 2 == 0 and jacobi(target, p.d // 2) == -1:
        return PrescreenVerdict(NOT_FREE, "target is a quadratic non-residue modulo d/2"), None
    classes = solve_all(p.d, target)
    if classes.kind != "empty" and _factor(target) == {target: 1}:
        return PrescreenVerdict(FREE, "prime target with solvable norm equation"), classes
    return UNDECIDED, classes


def _cyclic_generator(case: int, target: int, cross: int,
                      x: int, y: int) -> tuple[int, int, int, int]:
    """The generator for x^2 - d*y^2 = target with target | x - cross*y.

    In cases 4-5 the target c is odd and b even, so d = 1 mod 4, exactly one
    of x, y is odd, q = x mod 2, and y - q is odd."""
    q = (x - cross * y) // target
    if case == 1:
        return (1, 1, q, y)
    if case <= 3:
        return (0, 1, q, y)
    half = (y - q + 1) // 2
    if case == 4:
        return (-(y + y % 2) // 2, half, q, y)
    return (-(y + y % 2) // 2 + half, -half, y, q)


def decide_cyclic(p: CyclicQuarticParams) -> FreenessReport:
    """Freeness decision for the unique non-classical cyclic structure.

    Cases 1-2 solve x^2 - d*y^2 = b with b | x - c*y; cases 3-5 swap the
    roles of b and c.  A found solution is turned into a generator by the
    per-case formula and verified by the determinant test.
    """
    return _analyse(p).structures[0].report


# ---- biquadratic structures ----

def _equation_table(p: BiquadraticParams, kind: str):
    """Per-structure (radicand, target) of x^2 + a*y^2 = +-target, or None."""
    if kind == "first":
        return ((p.m, 4 * p.d), (p.n, 2 * p.d), (p.k, 2 * (p.n // p.d)))
    if kind == "second":
        return ((p.m, 2 * p.d), None, None)
    return ((p.m, 2 * p.d), (p.n, 2 * p.d), (p.k, 2 * (p.n // p.d)))


def prescreen_biquadratic(
        p: BiquadraticParams) -> tuple[PrescreenVerdict, PrescreenVerdict, PrescreenVerdict]:
    """Fast rules for the three biquadratic structures, in canonical order."""
    kind = classify_biquadratic_type(p)
    m, n, k, d = p.m, p.n, p.k, p.d
    if kind == "first":
        if d == 1 or d == abs(m):
            h1 = PrescreenVerdict(FREE, "d equals 1 or |m|")
        elif m > 0:
            h1 = PrescreenVerdict(NOT_FREE, "positive radicand m with d not in {1, |m|}")
        else:
            h1 = UNDECIDED
        if abs(n) == 2 * d:
            h2 = h3 = PrescreenVerdict(FREE, "n equals plus or minus 2d")
        else:
            h2 = (PrescreenVerdict(NOT_FREE, "positive radicand n with n != 2d")
                  if n > 0 else UNDECIDED)
            h3 = (PrescreenVerdict(NOT_FREE, "positive radicand k with |n| != 2d")
                  if k > 0 else UNDECIDED)
        return (h1, h2, h3)
    if kind == "second":
        blocked = PrescreenVerdict(NOT_FREE, STRUCTURAL_RULE)
        return (_small_radicand_rule(m), blocked, blocked)
    return tuple(_small_radicand_rule(a) for a in (m, n, k))


def _small_radicand_rule(a: int) -> PrescreenVerdict:
    """Rules for x^2 + a*y^2 = +-2g with a squarefree, 1 mod 4, g | |a|."""
    if a > 1:
        return PrescreenVerdict(NOT_FREE, "positive radicand exceeds one")
    if a in (-3, -7):
        return PrescreenVerdict(FREE, "radicand -3 or -7 solves every admissible target")
    return UNDECIDED


def _biquad_generator(kind: str, idx: int, p: BiquadraticParams,
                      x: int, y: int) -> tuple[int, int, int, int]:
    """The generator for one solution of the structure's equation x^2 + a*y^2 = +-target."""
    m, n, k, d = p.m, p.n, p.k, p.d
    nd = n // d
    if kind == "first":
        if idx == 0:
            return (1, 1, (x - d * y) // (2 * d), y)
        if idx == 1:
            return (1, x // (2 * d), (1 - y) // 2, y)
        return (1, y // 2, (x * d - n) // (2 * n), 1)
    if kind == "second":
        return (1, -1, (x - d * y) // (2 * d), y)
    if idx == 0:
        b3 = (x - m * y) // (2 * d)
        return ((-b3 - b3 % 2) // 2, (1 - y) // 2, b3, y)
    if idx == 1:
        t = (m * y - x) // d
        return ((t - t % 4) // 4, (x - y * d) // (2 * d), (d - m * y) // (2 * d), y)
    t = (k - x) // nd - y
    return ((t + t % 4 - 2) // 4, (y - 1) // 2, (x - k) // (2 * nd), 1)


def _biquadratic_witness(equation: tuple[int, int]) -> tuple[int, int, int] | None:
    """First class representative of the first target, +-base in turn, that has a solution.

    `equation` is (a, base) of x^2 + a*y^2 = +-base.  Any solution yields a
    generator, so the first one decides.  Where a = 1 mod 4 and base is twice
    an odd number, the mod-8 rule of `pell.solve_all` leaves exactly one sign.
    Second-type H2 and H3 have no equation and never reach here: their
    prescreen always reads not free (`STRUCTURAL_RULE`).
    """
    a, base = equation
    for target in (base, -base):
        classes = solve_all(-a, target)
        if classes.kind != "empty":
            rep = classes.solutions[0]
            return rep.x, rep.y, target
    return None


def decide_biquadratic(
        p: BiquadraticParams) -> tuple[FreenessReport, FreenessReport, FreenessReport]:
    """Freeness decisions for the three non-classical biquadratic structures.

    Each structure has a norm-form equation x^2 + a*y^2 = +-target; any
    solution yields a generator through the per-type formula (all required
    divisibilities hold automatically; the determinant test checks the
    result).  Second-type structures two and three are never free: their
    generator determinants are multiples of four while the index is two.
    """
    return tuple(entry.report for entry in _analyse(p).structures)


# ---- exhaustive oracle ----

# Largest box half-width the oracle accepts.  Of the about 20,000 rows
# (beta_3, beta_4) >= (0, 0) at this limit the scan visits only those where the
# gcd of R's coefficients in beta_2 can divide the target (on the benchmark's
# fields about 20, at most 201), and on each row it solves for the beta_2 where
# R does: about half a millisecond per structure.
ORACLE_BOUND_LIMIT = 100


def check_oracle_bound(bound: int) -> None:
    """Reject a box half-width outside [0, ORACLE_BOUND_LIMIT]."""
    if not 0 <= bound <= ORACLE_BOUND_LIMIT:
        raise ValidationError(
            f"scan bound must lie in [0, {ORACLE_BOUND_LIMIT}], got {bound}")


# The ten block pairs j <= k, each with the base-5 key of beta_j * beta_k, and the
# exponents of beta for the key of each product of two such monomials.
_PAIRS = tuple((j, k, 5**j + 5**k) for j, k in combinations_with_replacement(range(4), 2))
_EXPONENTS = {a + b: tuple((a + b) // 5**i % 5 for i in range(4))
              for _, _, a in _PAIRS for _, _, b in _PAIRS}


def _quartic_coefficients(action: Sequence[Sequence]) -> dict[tuple[int, ...], int]:
    """Monomial coefficients of det(sum_j beta_j * block_j) for an action of ints or Fractions.

    Laplace expansion: the signed sum of six products of a 2x2 minor of rows
    0, 1 and the complementary minor of rows 2, 3, each a quadratic form in beta
    keyed by its exponents as base-5 digits, so multiplying monomials adds keys.
    """
    blocks = [[action[4 * j + t] for t in range(4)] for j in range(4)]

    def minor_form(r: int, s: int, p: int, q: int) -> dict[int, int]:
        form = {}
        for j, k, key in _PAIRS:
            c = blocks[j][r][p] * blocks[k][s][q] - blocks[j][r][q] * blocks[k][s][p]
            if j != k:  # the (k, j) term has the same monomial
                c += blocks[k][r][p] * blocks[j][s][q] - blocks[k][r][q] * blocks[j][s][p]
            if c:
                form[key] = c
        return form

    coeffs: dict[int, int] = defaultdict(int)
    for p, q in combinations(range(4), 2):
        sign = 1 if (p + q) % 2 else -1
        upper = minor_form(0, 1, p, q)
        lower = minor_form(2, 3, *(c for c in range(4) if c not in (p, q))) if upper else {}
        for a, u in upper.items():
            for b, v in lower.items():
                coeffs[a + b] += sign * u * v
    return {_EXPONENTS[key]: c for key, c in coeffs.items() if c}


def _split(coeffs: dict[tuple[int, ...], int]
           ) -> tuple[int, dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """(c, R, S) with q = (c * beta_1 + S) * R over the integers.

    Write q = A * beta_1 + B, c for the content of A and R = A / c: R is a
    cubic and S a linear form in (beta_2, beta_3, beta_4), keyed by their
    exponents.  R is divided into B by leading terms in lexicographic order of
    exponents; the division fails at the first leading term that LT(R) does
    not divide.  Every determinant the pipeline builds splits so: each closed
    form (`closed_form_determinant` in tests/helpers.py) has one factor in
    beta_1, a linear one.
    """
    degree = max(key[0] for key in coeffs)
    if degree != 1:
        raise InternalInconsistencyError(
            f"determinant polynomial has degree {degree} in beta_1" if degree
            else "determinant polynomial does not involve beta_1")
    slope = {key[1:]: c for key, c in coeffs.items() if key[0]}
    content = gcd(*slope.values())
    factor = {key: c // content for key, c in slope.items()}
    lead = max(factor)
    rest = {key[1:]: c for key, c in coeffs.items() if not key[0]}
    linear = {}
    while rest:
        top = max(rest)
        shift = tuple(t - e for t, e in zip(top, lead))
        q, r = divmod(rest[top], factor[lead])
        if r or min(shift) < 0:
            raise InternalInconsistencyError(
                "determinant polynomial does not split off a factor linear in beta_1")
        linear[shift] = q
        for key, c in factor.items():
            key = tuple(e + s for e, s in zip(key, shift))
            rest[key] = rest.get(key, 0) - q * c
            if not rest[key]:
                del rest[key]
    return content, factor, linear


def _primitive(poly: list[int]) -> list[int]:
    """poly over its content with a positive leading coefficient, [] for zero.

    A polynomial in one variable is the list of its coefficients from the
    constant up; zero leading coefficients are dropped.
    """
    while poly and not poly[-1]:
        poly = poly[:-1]
    c = gcd(*poly) if poly and poly[-1] > 0 else -gcd(*poly)
    return [x // c for x in poly]


def _primitive_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[t] of two nonzero polynomials, by pseudo-remainders."""
    a, b = _primitive(a), _primitive(b)
    while b:
        while len(a) >= len(b):  # cancel a's leading term against lc(b) * a
            shift, top = len(a) - len(b), a[-1]
            a = [b[-1] * x for x in a]
            for j, y in enumerate(b):
                a[shift + j] -= top * y
            a = _primitive(a)
        a, b = b, a
    return a


def _roots(poly: list[int], values: set[int], xs: range) -> dict[int, int]:
    """{x: poly(x)} for the x in xs with poly(x) in `values`, for poly's
    coefficients from the constant up.

    Where poly has degree 1 or 2, poly(x) = v is solved for each v in
    `values`: one division, or a discriminant and its square root.
    Otherwise every x in xs is tried.
    """
    degree = len(poly) - 1
    while degree > 0 and not poly[degree]:
        degree -= 1
    if not 1 <= degree <= 2:
        return {x: v for x in xs if (v := sum(c * x**j for j, c in enumerate(poly))) in values}
    found = {}
    for v in values:
        if degree == 1:
            nums, den = (v - poly[0],), poly[1]
        else:
            c, b, a = poly[:3]
            disc = b * b - 4 * a * (c - v)
            root = isqrt(disc) if disc >= 0 else -1
            if root * root != disc:
                continue
            nums, den = {-b - root, -b + root}, 2 * a
        for num in nums:
            x, r = divmod(num, den)
            if not r and x in xs:
                found[x] = v
    return found


def _candidate_rows(forms: list[list[int]], bound: int, values: set[int]):
    """(beta_3, {beta_4: G(beta_3, beta_4)} for its rows that can hold a point), beta_3 <= bound.

    forms[e] holds the coefficients of the binary form r_e of degree 3 - e in
    R = sum_e beta_2^e * r_e(beta_3, beta_4), from beta_3^(3 - e) up to
    beta_4^(3 - e).  Their primitive gcd G in Z[beta_3, beta_4] is the power
    of beta_3 they all share times the homogenised primitive gcd of the
    nonzero r_e(1, t).  By Gauss's lemma G divides every r_e, so a row that
    holds a point has G(beta_3, beta_4) = +-t for a divisor t of the target,
    and only those beta_4 are yielded (`_roots`, given all the signed divisors
    `values` of the target).  Only rows (beta_3, beta_4) >= (0, 0) are considered.
    """
    primitives = [_primitive(form) for form in forms]
    shift = min(len(form) - len(poly) for form, poly in zip(forms, primitives) if poly)
    g = reduce(_primitive_gcd, filter(None, primitives))
    degree = shift + len(g) - 1
    span = range(-bound, bound + 1)
    for b3 in range(bound + 1):
        # G(b3, beta_4) from the constant up; at b3 = 0 it is zero or a monomial.
        row = [c * b3**(degree - j) for j, c in enumerate(g)]
        yield b3, _roots(row, values, span if b3 else range(bound + 1))


def _first_point(content: int, factor: dict[tuple[int, ...], int],
                 linear: dict[tuple[int, ...], int], bound: int,
                 target: int) -> tuple[int, int, int, int] | None:
    """Lexicographically first beta in [-bound, bound]^4 with |q(beta)| = target.

    q = (c * beta_1 + S) * R as `_split` returns it.  At an integer point
    with |q| = target, R divides target and c * beta_1 + S = +-target / R.
    q is homogeneous of degree 4, so beta solves exactly when -beta does, and
    the box is symmetric: only the rows (beta_3, beta_4) >= (0, 0) are
    scanned, and each point found stands for the smaller of it and -beta, so
    the least of them is the first of the box.  Of those rows only the ones
    where the gcd G of R's coefficients in beta_2 is a divisor of target are
    visited (`_candidate_rows`), about 3 of 313 at bound 12.  On each, one
    rule (`_roots`) finds the beta_2 where R is a divisor, then the beta_1
    where c * beta_1 + S = +-target / R, solving where the polynomial has
    degree 1 or 2, as R has in beta_2 on every row the pipeline builds.  R's
    coefficients are expanded for each beta_3 with such a row, then for each
    row beta_4.  The signed divisors of target are listed once.
    """
    # forms[e2][e4]: coefficient of beta_2^e2 * beta_3^(3 - e2 - e4) * beta_4^e4 in R.
    forms = [[0] * (4 - e2) for e2 in range(4)]
    for (e2, _, e4), r in factor.items():
        forms[e2][e4] = r
    s2, s3, s4 = (linear.get(key, 0) for key in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    values = _signed_divisors(target)
    span = range(-bound, bound + 1)
    found = []
    for b3, b4s in _candidate_rows(forms, bound, values):
        if not b4s:
            continue
        powers = (1, b3, b3 * b3, b3**3)
        # Coefficients of beta_2^e2 * beta_4^j once beta_3 is fixed.
        (r00, r01, r02, r03), (r10, r11, r12), (r20, r21), (r3,) = (
            [r * powers[len(form) - 1 - j] for j, r in enumerate(form)] for form in forms)
        for b4 in b4s:
            # Coefficients of beta_2^e2 once beta_4 is fixed as well.
            r0 = ((r03 * b4 + r02) * b4 + r01) * b4 + r00
            r1 = (r12 * b4 + r11) * b4 + r10
            r2 = r21 * b4 + r20
            s_row = s3 * b3 + s4 * b4
            for b2, value in _roots([r0, r1, r2, r3], values, span).items():
                t = target // value
                for b1 in _roots([s2 * b2 + s_row, content], {t, -t}, span):
                    found.append(min((b1, b2, b3, b4), (-b1, -b2, -b3, -b4)))
    return min(found, default=None)


def brute_force_generator(report: ReductionReport, action: Sequence[Sequence],
                          bound: int) -> tuple[int, int, int, int] | None:
    """First generator in the box [-bound, bound]^4, or None.

    The lexicographically smallest beta whose determinant test passes, found
    by an exact scan of the determinant polynomial and confirmed by the matrix
    test.  The scan reads the polynomial over the content of its coefficients,
    which holds the action's content^4, and the index over the same content;
    where that quotient is no integer no point qualifies.  The polynomial must
    split as (c * beta_1 + S) * R (`_split`), as every determinant the
    pipeline builds does; any other raises InternalInconsistencyError.  As
    q(-beta) = q(beta), the scan visits only the rows (beta_3, beta_4) >=
    (0, 0) on which the gcd of R's coefficients in beta_2 divides the target,
    and keeps the smaller of each point found and its mirror (`_first_point`).
    The bound must lie in [0, ORACLE_BOUND_LIMIT].
    """
    check_oracle_bound(bound)
    coeffs = _quartic_coefficients(action)
    if not coeffs:
        return None
    common, (values,) = content_primitive([list(coeffs.values())])
    split = _split(dict(zip(coeffs, values)))
    target = quotient(report.index, common)
    if not isinstance(target, int):
        return None
    beta = _first_point(*split, bound, target)
    if beta is not None and not test_generator(report, action, beta):
        raise InternalInconsistencyError(
            f"polynomial and matrix determinants disagree at {beta}")
    return beta


# ---- aggregated field summary ----

@dataclass(frozen=True)
class StructureSummary:
    """Everything the pipeline knows about one non-classical structure.

    Each piece is computed once: the Gram matrix in the integral basis, the
    action matrix stacked from it, its reduction, the prescreen verdict and
    the freeness decision built on them.
    """

    structure: StructureId
    origin: str | None
    gram: list
    action: list
    reduction: ReductionReport
    prescreen: PrescreenVerdict
    report: FreenessReport


@dataclass(frozen=True)
class FieldSummary:
    """Per-field aggregate in the caller's own subfield labels."""

    family: str
    classification: str
    descriptor: list
    structures: tuple[StructureSummary, ...]


def _analyse(p: FieldParams) -> FieldSummary:
    """One record per non-classical structure, in canonical order.

    The classification, integral basis, prescreen and the change of basis of
    the Gram matrices run once per field; the action matrix, reduction and
    decision once per structure.
    Each family supplies per structure a prescreen verdict, a witness and the
    generator formula; `_decide` does the rest.
    """
    if isinstance(p, CyclicQuarticParams):
        case = classify_cyclic_case(p)
        family, classification, origins = "cyclic", f"case {case}", (None,)
        descriptor = integral_basis_cyclic(p)
        # One solution of the norm equation serves the prescreen and the decision.
        target, cross = _cyclic_equation(p, case)
        pre, classes = _cyclic_prescreen(p, target)
        hit = None if classes is None else next(
            _divisible_solutions_from(classes, p.d, target, cross), None)
        plans = [(pre, None if hit is None else (hit.x, hit.y, target),
                  partial(_cyclic_generator, case, target, cross))]
    else:
        kind = classify_biquadratic_type(p)
        family, classification, origins = "biquadratic", kind, p.origins
        descriptor = integral_basis_biquadratic(p)
        plans = [(pre, None if pre.outcome == NOT_FREE else _biquadratic_witness(equation),
                  partial(_biquad_generator, kind, idx, p))
                 for idx, (pre, equation)
                 in enumerate(zip(prescreen_biquadratic(p), _equation_table(p, kind)))]
    entries = []
    for structure, origin, gram, (pre, witness, formula) in zip(
            structures_for(p), origins, structure_grams(p, descriptor), plans):
        action = action_matrix(gram)
        red = reduction_report(action)
        report = _decide(structure, action, red, pre, witness, formula)
        entries.append(StructureSummary(structure, origin, gram, action, red, pre, report))
    return FieldSummary(family, classification, descriptor, tuple(entries))


def summary(p: FieldParams) -> FieldSummary:
    """Aggregate classification, reduction data, and freeness per structure.

    Biquadratic structures are listed in the caller's order: the structure
    attached to the first input radicand first, then the second input, then
    the derived third radicand.
    """
    fs = _analyse(p)
    if fs.family == "cyclic":
        return fs
    rank = {FIRST_INPUT: 0, SECOND_INPUT: 1, DERIVED: 2}
    return replace(fs, structures=tuple(sorted(fs.structures, key=lambda e: rank[e.origin])))
