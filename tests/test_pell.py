"""Tests for generalized Pell solving and indefinite form cycles."""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from math import isqrt, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfq import pell
from hopfq.errors import (
    BadDiscriminantError,
    EvenModulusError,
    InternalInconsistencyError,
    NotReducedError,
    SquareDiscriminantError,
)
from hopfq.fields import canonicalize_biquadratic, validate_cyclic
from hopfq.freeness import FREE, NOT_FREE, decide_cyclic, summary
from hopfq.pell import (
    PellSolution,
    QuadForm,
    divisible_solutions,
    find_with_divisibility,
    form_cycle,
    fundamental_unit,
    is_reduced,
    jacobi,
    principal_form,
    reduce_form,
    represents_one,
    rho,
    solve_all,
)

from helpers import (
    is_prime,
    minimal_negative_solution,
    representation_of_one,
    solutions_within,
    stepwise_canonical_in_class,
    stepwise_divisible_solutions,
    stepwise_minimal_unit_pm,
    stepwise_primitive_class_reps,
)


def brute_solutions(d: int, n: int, bound: int) -> set[tuple[int, int]]:
    """Every (x, y) with |x|, |y| <= bound and x^2 - d*y^2 = n, by scan."""
    out = set()
    for y in range(bound + 1):
        r = n + d * y * y
        if 0 <= r <= bound * bound and isqrt(r) ** 2 == r:
            x = isqrt(r)
            out.update({(x, y), (-x, y), (x, -y), (-x, -y)})
    return out


def brute_represents_one(f: QuadForm, bound: int) -> bool:
    a, b, c = f
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    u = rng[:, None]
    v = rng[None, :]
    return bool(np.any(a * u * u + b * u * v + c * v * v == 1))


# ---- Jacobi symbol ----

def test_jacobi_pinned_values():
    assert jacobi(3, 5) == -1
    assert jacobi(9, 53) == 1
    for n in (1, 3, 15, 21, 53):
        assert jacobi(1, n) == 1


def test_jacobi_rejects_even_or_nonpositive_modulus():
    with pytest.raises(EvenModulusError):
        jacobi(2, 8)
    with pytest.raises(EvenModulusError):
        jacobi(3, -5)
    with pytest.raises(EvenModulusError):
        jacobi(3, 0)


def test_jacobi_matches_euler_criterion_on_primes():
    for p in (3, 5, 7, 11, 13, 53, 97):
        for a in range(1, p):
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) == (1 if euler == 1 else -1)


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(0, 30))
def test_jacobi_multiplicative_in_numerator(a, b, k):
    n = 2 * k + 1
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


# ---- fundamental units ----

def test_fundamental_unit_pinned_values():
    assert fundamental_unit(5) == (9, 4)
    assert fundamental_unit(10) == (19, 6)
    assert fundamental_unit(2) == (3, 2)


def test_fundamental_unit_rejects_squares():
    with pytest.raises(SquareDiscriminantError, match="^9 is a perfect square$"):
        fundamental_unit(9)
    with pytest.raises(SquareDiscriminantError, match="^4 is a perfect square$"):
        fundamental_unit(4)
    with pytest.raises(SquareDiscriminantError, match="^fundamental unit needs d > 1, got -3$"):
        fundamental_unit(-3)


def test_fundamental_unit_is_minimal():
    for d in range(2, 80):
        if isqrt(d) ** 2 == d:
            continue
        t, u = fundamental_unit(d)
        assert t * t - d * u * u == 1 and t > 0 and u > 0
        # Scan capped so fields with huge units (e.g. d = 61) stay affordable.
        for y in range(1, min(u, 30_000)):
            assert isqrt(1 + d * y * y) ** 2 != 1 + d * y * y


def test_minimal_negative_solution():
    assert minimal_negative_solution(2) == (1, 1)
    assert minimal_negative_solution(10) == (3, 1)
    assert minimal_negative_solution(3) is None
    x, y = minimal_negative_solution(13)
    assert x * x - 13 * y * y == -1


# ---- solve_all / solutions_within ----

def test_solve_all_pinned_examples():
    assert solve_all(10, 3).kind == "empty"
    assert solve_all(-5, 2).kind == "empty"

    s106 = solve_all(106, 9)
    assert s106.kind == "indefinite"
    assert PellSolution(3, 0) in s106.solutions
    assert PellSolution(103, 10) in s106.solutions

    s13 = solve_all(13, 3)
    assert s13.kind == "indefinite"
    assert PellSolution(4, 1) in s13.solutions


def test_solve_all_negative_d_is_finite_and_complete():
    s = solve_all(-5, 9)
    assert s.kind == "finite"
    assert set(s.solutions) == {(3, 0), (-3, 0), (2, 1), (-2, 1), (2, -1), (-2, -1)}


def test_solve_all_square_d_by_divisor_pairing():
    s = solve_all(4, 33)
    assert s.kind == "finite"
    assert set(s.solutions) == brute_solutions(4, 33, 40)


def test_solve_all_unit_short_circuit():
    s = solve_all(10, 1)
    assert s.kind == "indefinite" and s.solutions == (PellSolution(1, 0),)
    s = solve_all(10, -1)
    assert s.kind == "indefinite" and s.solutions == (PellSolution(3, 1),)
    assert solve_all(3, -1).kind == "empty"


@given(
    st.integers(-30, 30).filter(lambda d: d != 0),
    st.integers(-30, 30).filter(lambda n: n != 0),
)
@settings(max_examples=120, deadline=None)
def test_solutions_within_matches_brute_scan(d, n):
    bound = 40
    assert set(solutions_within(d, n, bound)) == brute_solutions(d, n, bound)


@given(
    st.integers(2, 60).filter(lambda d: isqrt(d) ** 2 != d),
    st.integers(-25, 25).filter(lambda n: n != 0),
)
@settings(max_examples=80, deadline=None)
def test_solve_all_classes_satisfy_equation(d, n):
    s = solve_all(d, n)
    if s.kind == "empty":
        assert not brute_solutions(d, n, 500)
        return
    t, u = s.unit
    assert t * t - d * u * u == 1
    for x, y in s.solutions:
        assert x * x - d * y * y == n


# ---- continued-fraction walks against their step-by-step references ----

nonsquare_d = st.one_of(st.integers(2, 100), st.integers(2, 10**7)).filter(
    lambda d: isqrt(d) ** 2 != d)
# Small targets, targets up to 2*10^4, and products of small primes with many square roots.
class_targets = st.one_of(
    st.integers(-200, 200),
    st.integers(-2 * 10**4, 2 * 10**4),
    st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=8).map(prod)
    .filter(lambda m: m <= 2 * 10**4).flatmap(lambda m: st.sampled_from((m, -m))),
).filter(lambda m: m != 0)


def _unit_of(d: int, x: int, y: int, s: int) -> tuple[int, int]:
    return (x, y) if s == 1 else (x * x + d * y * y, 2 * x * y)


def _least_in_class(v: PellSolution, m: int, d: int, x: int, y: int, s: int) -> PellSolution:
    """`pell._least_in_class` with log2 of the unit U taken from U's own coordinates."""
    return pell._least_in_class(v, 0, m, d, x, y, s, pell._log2_size(*_unit_of(d, x, y, s), d))


def _stepwise_reps(d: int, m: int) -> list[PellSolution]:
    """The smallest element of each class of x^2 - d*y^2 = m, by the stepwise references."""
    x, y, s = stepwise_minimal_unit_pm(d)
    t, u = _unit_of(d, x, y, s)
    return [stepwise_canonical_in_class(PellSolution(*r), d, t, u)
            for r in stepwise_primitive_class_reps(d, m, (x, y) if s == -1 else None)]


@given(nonsquare_d, class_targets)
@settings(max_examples=300, deadline=None)
def test_walks_match_the_stepwise_references(d, m):
    """Each class comes back as its smallest element: the stepwise
    representative, reduced by stepping through the class one unit at a time."""
    x, y, s = stepwise_minimal_unit_pm(d)
    assert solve_all(d, 1).minimal == (x, y, s)
    minimal, [reps] = pell._primitive_class_reps(d, [(m, pell._factor(m))])
    assert minimal == ((x, y, s) if reps else None)
    t, u = _unit_of(d, x, y, s)
    assert reps == _stepwise_reps(d, m)
    for rep in reps:
        for k in (-2, -1, 0, 1, 2):
            for sign in (1, -1):
                start = pell._unit_power(t, u, d, PellSolution(sign * rep[0], sign * rep[1]), k)
                assert _least_in_class(start, m, d, x, y, s) == rep


@given(st.one_of(st.integers(2, 100), st.integers(1, 1000).map(lambda k: k * k + 1),
                 st.integers(2, 10**6)).filter(lambda d: isqrt(d) ** 2 != d))
@settings(max_examples=200, deadline=None)
def test_plus_and_minus_one_take_the_anchor_path(d):
    """N = +-1 has the square root 0 modulo 1, whose anchor is the first state
    of the principal cycle (for d = k^2 + 1, of period 1, also its last): the
    class of 1 is (1, 0), that of -1 is eps's when the period is odd, and the
    fundamental unit is the one of the class of 1."""
    x, y, s = stepwise_minimal_unit_pm(d)
    one = solve_all(d, 1)
    assert one.solutions == ((1, 0),) and one.minimal == (x, y, s)
    assert solve_all(d, -1).solutions == (((x, y),) if s == -1 else ())
    assert fundamental_unit(d) == _unit_of(d, x, y, s)


def _stepwise_product(quotients: list[int]) -> tuple[int, int, int, int]:
    """(h, h', k, k') of the product of [[a, 1], [1, 0]] over quotients, one at a time."""
    h, h1, k, k1 = 1, 0, 0, 1
    for a in quotients:
        h, h1, k, k1 = a * h + h1, h, a * k + k1, k
    return h, h1, k, k1


@given(nonsquare_d, class_targets)
@settings(max_examples=200, deadline=None)
def test_both_sides_of_an_anchor_give_the_class(d, m):
    """The identity that lets `_primitive_class_reps` read every class from
    the shorter side of its anchor.  An anchor at position i of the principal
    period splits it in two.  The walk continued through the quotients from i
    gives an element A of value (-1)^steps * |m|; through the adjugate of the
    product before i it gives +-eps^-1 * A.  Brought to value m by eps where
    needed, either side reduces to the smallest element of the class, the
    stepwise reference's."""
    assume(abs(m) > 1)
    x, y, s = stepwise_minimal_unit_pm(d)
    root = isqrt(d)
    principal, where = [root], {}
    p, q, a = 0, 1, root
    while True:  # one whole period, every state with its position
        p = q * a - p
        q = (d - p * p) // q
        where[p, q] = len(principal)
        if q == 1:
            break
        a = (root + p) // q
        principal.append(a)
    got = []
    for z in pell._square_roots(d, abs(m), pell._factor(m)):
        walk, anchor = pell._walk_to_anchor(d, root, z, abs(m))
        if anchor not in where:
            continue
        pos = where[anchor]
        hw, hw1, kw, kw1 = _stepwise_product(walk)

        def element(c0: int, c1: int) -> PellSolution:
            b = kw * c0 + kw1 * c1
            return PellSolution(abs(m) * (hw * c0 + hw1 * c1) - z * b, b)

        h, _, k, _ = _stepwise_product(principal[pos:])
        after = element(h, k)
        _, _, k, k1 = _stepwise_product(principal[:pos])
        before = element(k1, -k)
        steps = len(walk) + len(principal) - pos
        assert after.x ** 2 - d * after.y ** 2 == (-1) ** steps * abs(m)
        shifted = (s * (x * after.x - d * y * after.y), s * (x * after.y - y * after.x))
        assert before in (shifted, (-shifted[0], -shifted[1]))
        least = set()
        for v in (after, before):
            if v.x ** 2 - d * v.y ** 2 != m:
                if s == 1:
                    continue
                v = PellSolution(x * v.x + d * y * v.y, y * v.x + x * v.y)
            least.add(_least_in_class(v, m, d, x, y, s))
        if least:
            assert len(least) == 1
            got.append(least.pop())
    assert got == _stepwise_reps(d, m)


def _stepwise_rows(quotients: list[int], lengths: list[int]) -> dict[int, tuple[int, int]]:
    """{1 + l: the first row of the product over quotients[1:1 + l]} for the
    ascending lengths, one quotient at a time."""
    rows, h, h1, lo = {}, 1, 0, 1
    for n in lengths:
        for a in quotients[lo:1 + n]:
            h, h1 = a * h + h1, h
        rows[1 + n], lo = (h, h1), 1 + n
    return rows


@pytest.mark.parametrize("d", [1366, 1381, 61409021, 2147483647, 999999937])
def test_period_convergent_rows_are_the_stepwise_rows(d):
    """Each cut of the half period gives the first row of the product before
    it, for seeded random ascending lengths that hold 0 and the half period r
    and cut it in up to 202 segments, and the convergent is the minimal
    +-1 solution.  Every r here spans more than two leaves of the tree."""
    quotients, period, _ = pell._principal_walk(d, {})
    r = (period - 1) // 2
    assert r > 2 * pell._PRODUCT_LEAF
    rng = random.Random(d)
    for _ in range(5):
        lengths = sorted({0, r, *rng.sample(range(1, r), rng.randint(0, min(r - 1, 200)))})
        rows: dict[int, tuple[int, int]] = {}
        assert pell._period_convergent(quotients, period, lengths, rows) == \
            stepwise_minimal_unit_pm(d)
        assert rows == _stepwise_rows(quotients, lengths)


def test_every_class_comes_from_one_half_period_tree(monkeypatch):
    """No side longer than half the period is asked of `_period_convergent`,
    and every class of every small (d, m) is still the stepwise reference's."""
    convergent = pell._period_convergent

    def half_only(quotients, period, lengths=(), rows=None):
        assert all(n <= (period - 1) // 2 for n in lengths)
        return convergent(quotients, period, lengths, rows)

    monkeypatch.setattr(pell, "_period_convergent", half_only)
    for d in range(2, 80):
        if isqrt(d) ** 2 == d:
            continue
        for m in itertools.chain(range(-80, -1), range(2, 81)):
            assert pell._primitive_class_reps(d, [(m, pell._factor(m))])[1] == [
                _stepwise_reps(d, m)]


@pytest.mark.parametrize("m, sides, reps", [
    (-39, [(0, True), (1, True)], [(13, 4), (-13, 4)]),
    (-29, [(2, False), (0, False)], [(32, 9), (-32, 9)]),
])
def test_a_class_from_the_longer_side_of_its_anchor(m, sides, reps):
    """sqrt(13) has period 5 and eps = (18, 5) of norm -1, so the two sides of
    an anchor have opposite values.  For -39 the root 13's anchor has one
    quotient after it, of value +39: the class is eps^-1 times that side, the
    longer one.  For -29 the root -10's anchor sits at the middle, two
    quotients on each side, and the side before it has value +29: the class
    is the side after it, read from the same row."""
    anchors = [pell._walk_to_anchor(13, 3, z, abs(m))[1]
               for z in pell._square_roots(13, abs(m), pell._factor(m))]
    sought: dict[int, set[int]] = {}
    for p, q in anchors:
        sought.setdefault(q, set()).add(p)
    _, period, found = pell._principal_walk(13, sought)
    assert period == 5 and [found[a] for a in anchors] == sides
    assert pell._primitive_class_reps(13, [(m, pell._factor(m))])[1] == [_stepwise_reps(13, m)]
    assert solve_all(13, m).solutions == tuple(reps) and set(_stepwise_reps(13, m)) == set(reps)


def test_a_class_at_the_middle_of_the_period_takes_no_product(monkeypatch):
    """Both anchors of x^2 - 29*y^2 = -5 sit at the middle of the period 5 of
    sqrt(29), and the side met first of one of them has value +5: its class
    is the other side, read from the same row, not the unit times it."""
    power = pell._unit_power

    def no_product(t, u, d, rep, k):
        assert k == 0, "a class at the middle was multiplied by the unit"
        return power(t, u, d, rep, k)

    monkeypatch.setattr(pell, "_unit_power", no_product)
    assert pell._primitive_class_reps(29, [(-5, {5: 1})]) == (
        (70, 13, -1), [_stepwise_reps(29, -5)])
    assert _stepwise_reps(29, -5) == [(16, 3), (-16, 3)]


def test_the_class_of_minus_one_multiplies_only_the_empty_side(monkeypatch):
    """sqrt(13) has the odd period 5.  The root 0 of -1 has its anchor at the
    first state of the principal cycle, so the side before it is empty,
    (-1, 0) of value +1, and the class is eps times it.  eps and -eps^-1 tie
    in size: both come from (-1, 0) by one power of eps, and no product of
    two large numbers is taken."""
    power = pell._unit_power
    calls = []

    def logged(t, u, d, rep, k):
        calls.append((tuple(rep), k))
        return power(t, u, d, rep, k)

    monkeypatch.setattr(pell, "_unit_power", logged)
    assert solve_all(13, -1).solutions == ((18, 5),)
    assert calls == [((-1, 0), 1), ((-1, 0), -1)]


def test_canonical_step_breaks_a_tie_in_y_by_sign():
    """For d = 2 the class of norm -1 holds (1, 1) and U^-1 * (1, 1) = (-1, 1)
    with the same |y|: the tie goes to the positive x, from every start."""
    for start in ((1, 1), (-1, -1), (1, -1), (-1, 1), (7, 5), (-7, 5)):
        sol = PellSolution(*start)
        least = _least_in_class(sol, -1, 2, 1, 1, -1)
        assert least == stepwise_canonical_in_class(sol, 2, 3, 2) == (1, 1)


def test_quotient_product_matches_the_stepwise_convergents():
    rng = random.Random(11)
    quotients = [rng.choice((1, 1, 2, 3, 7, 40)) for _ in range(200)]
    h1, h, k1, k = 0, 1, 1, 0
    for n in range(len(quotients) + 1):
        assert pell._quotient_product(quotients, 0, n) == (h, h1, k, k1)
        if n < len(quotients):
            a = quotients[n]
            h1, h = h, a * h + h1
            k1, k = k, a * k + k1


def test_large_unit_is_pinned(unlimited_int_digits):
    x, y, s = solve_all(9_556_797_337, 1).minimal
    assert x.bit_length() == 184_216 and s == -1
    assert hashlib.sha256(repr((x, y, s)).encode()).hexdigest() == (
        "740dc5c99e9e759104b65af623de9dd887449f7118e529975fa559896cbb69d8")


def _unread(name: str):
    def fail(*args):
        pytest.fail(f"{name} ran for an answer that does not read it")
    return fail


@pytest.mark.parametrize("n", [3, -3])
def test_square_roots_without_a_solution_close_their_period(n, monkeypatch):
    """1 is a square root of 10 modulo 3, yet x^2 - 10*y^2 = +-3 has no solution:
    the walks of both roots reach an anchor off the principal cycle, whose
    period closes without meeting q = +-1.  Nothing reads the unit, so it is
    not built.  solve_all walks nothing here, as +-3 is not a square modulo
    5; the class search is called directly to reach that path."""
    assert (1 - 10) % 3 == 0
    assert pell._square_roots(10, 3, {3: 1}) == [-1, 1]
    monkeypatch.setattr(pell, "_period_convergent", _unread("_period_convergent"))
    assert pell._primitive_class_reps(10, [(n, {3: 1})]) == (None, [[]])
    assert solve_all(10, n) == pell.SolutionClassSet("empty", ())


# ---- square roots modulo m from the factorisation ----

@st.composite
def square_root_problems(draw):
    """(d, m) with 2 <= m <= 5000 and d of either sign, often sharing prime
    powers with m: square factors, even d and high powers of 2 included."""
    m = draw(st.one_of(st.integers(2, 5000), st.sampled_from(
        [2 ** k for k in range(1, 13)] + [3 ** 7, 2 ** 5 * 3 ** 4, 4 * 9 * 25, 8 * 49 * 11])))
    shared = draw(st.sampled_from(sorted(pell._factor(m)) + [2]))
    d = (draw(st.integers(-10**6, 10**6)) * shared ** draw(st.integers(0, 12))
         * draw(st.integers(1, 40)) ** 2)
    return d, m


@given(square_root_problems())
@settings(max_examples=400, deadline=None)
def test_square_roots_match_a_scan(problem):
    d, m = problem
    want = [z for z in range(-((m - 1) // 2), m // 2 + 1) if (z * z - d) % m == 0]
    assert pell._square_roots(d, m, pell._factor(m)) == want


def test_square_divisors_come_from_the_factorisation():
    for n in list(range(1, 2000)) + [2**20, 3**9 * 5**4, 9699690, 2**6 * 3**4 * 7**2]:
        got = pell._square_divisors(pell._factor(n))
        want = [f for f in range(1, isqrt(n) + 1) if n % (f * f) == 0]
        assert sorted(f for f, _ in got) == want
        for f, rest in got:
            assert rest == pell._factor(n // (f * f))


# ---- divisibility-constrained search ----

def test_find_with_divisibility_pinned_examples():
    assert find_with_divisibility(106, 9, 5) == (-103, 10)
    assert find_with_divisibility(10, 3, 1) is None
    assert find_with_divisibility(274, 15, 7) is None


def test_divisible_solutions_are_valid_and_normalized():
    witnesses = list(divisible_solutions(106, 9, 5))
    assert witnesses and witnesses[0] == (-103, 10)
    for x, y in witnesses:
        assert x * x - 106 * y * y == 9
        assert (x - 5 * y) % 9 == 0
        assert y > 0 or (y == 0 and x > 0)


def test_divisible_solutions_of_a_finite_set_are_each_listed_once():
    # x^2 + y^2 = 25: (0, 5) and (0, -5) normalize to the same witness.
    assert list(divisible_solutions(-1, 25, 0)) == [(0, 5)]
    assert list(divisible_solutions(-1, 25, 7)) == [(-4, 3), (3, 4)]
    assert list(divisible_solutions(-2, 9, 1)) == []


def test_divisible_solutions_take_the_positive_power_at_half_a_period():
    # The divisible power sits at exactly half the class's period modulo b,
    # where k and -k give different solutions; k comes first.  The one class
    # has the non-primitive representative (4, 4), which does not qualify, so
    # the witness comes from the walk.
    assert solve_all(2, -16).solutions == ((4, 4),) and (4 - 3 * 4) % 16
    assert list(divisible_solutions(2, -16, 3)) == [(28, 20)]
    assert list(itertools.islice(divisible_solutions(2, -36, 1), 2)) == [(6, 6), (246, 174)]


@st.composite
def divisibility_problems(draw):
    """(d, n, c): small d, 1 <= |n| <= 400 and c over a wide range, often with
    d = c^2 mod n, a square factor in n (non-primitive classes) or a prime of
    n dividing 2d."""
    f = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
    n = f * f * draw(st.integers(1, 400 // (f * f))) * draw(st.sampled_from([1, -1]))
    c = draw(st.integers(-10**9, 10**9))
    how = draw(st.sampled_from(["any", "c squared", "shared prime"]))
    if how == "c squared":
        d = c * c % abs(n) + abs(n) * draw(st.integers(0, 2))
    elif how == "shared prime":
        d = draw(st.sampled_from([p for p in (2, 3, 5, 7) if n % p == 0] or [1]))
        d *= draw(st.integers(-10, 60))
    else:
        d = draw(st.integers(-30, 300))
    assume(d != 0)
    return d, n, c


@given(divisibility_problems())
@settings(max_examples=400, deadline=None)
def test_divisible_solutions_match_the_walk_of_every_class(problem):
    """Skipping a class whose divisibility cannot change with the power of the
    unit leaves the whole list as it was, order included."""
    assert list(divisible_solutions(*problem)) == list(stepwise_divisible_solutions(*problem))


def test_no_class_that_cannot_change_is_walked(monkeypatch):
    # x^2 - 2y^2 = 999999999961 has two primitive classes and gcd(N, 2D) = 1; the
    # walk modulo N would run through a period of up to about 10^12 steps.
    # x^2 - 17y^2 = -16 has the non-primitive class of (16, 4) and N is even,
    # but 17 = 1^2 = 7^2 mod 16: only a class whose representative qualifies is walked.
    want = list(stepwise_divisible_solutions(17, -16, 1))
    assert want == [(1, 1), (169, 41)]
    assert list(divisible_solutions(17, -16, 1)) == want
    monkeypatch.setattr(pell.SolutionClassSet, "unit", property(lambda self: pytest.fail("walked")))
    assert next(divisible_solutions(17, -16, 1)) == (1, 1)
    assert list(divisible_solutions(17, -16, 7)) == []
    assert list(divisible_solutions(2, 999999999961, 1)) == []


def test_no_unit_is_built_where_no_class_reads_it(monkeypatch):
    # x^2 - 3y^2 = -1: the period of sqrt(3) is even, so the walk finds no
    # class; solve_all does not walk, as -1 is not a square modulo 3.
    # d = 97704^2 + 2357^2 has the period 25,250 and its target 2357 the roots
    # +-1067, whose anchors are off the principal cycle; solve_all does not
    # walk either, as d = 0 and 2357 = 2 modulo 5.  d = 13082^2 + 67233^2 =
    # 17 * 275965589 (period 5,332) is a square modulo its target 67233 and
    # the target one modulo both primes of d: solve_all walks, meets no class
    # on the principal cycle, and the field is not free with no unit.
    assert pell._principal_walk(97704 ** 2 + 2357 ** 2, {})[1] == 25_250
    assert pell._square_roots(97704 ** 2 + 2357 ** 2, 2357, {2357: 1}) == [-1067, 1067]
    d = 13082 ** 2 + 67233 ** 2
    assert pell._factor(d) == {17: 1, 275965589: 1} and pell._principal_walk(d, {})[1] == 5_332
    assert pell.jacobi(67233, 17) == pell.jacobi(67233, 275965589) == 1
    monkeypatch.setattr(pell, "_period_convergent", _unread("_period_convergent"))
    assert pell._primitive_class_reps(3, [(-1, {})]) == (None, [[]])
    assert solve_all(3, -1) == pell.SolutionClassSet("empty", ())
    report = decide_cyclic(validate_cyclic(1, 97704, 2357))
    assert (report.decision, report.method) == (NOT_FREE, "pell_criterion")
    walks = []
    walk = pell._principal_walk
    monkeypatch.setattr(pell, "_principal_walk", lambda *args: walks.append(args[0]) or walk(*args))
    report = decide_cyclic(validate_cyclic(1, 13082, 67233))
    assert (report.decision, report.method) == (NOT_FREE, "pell_criterion")
    assert walks == [d]


def test_no_principal_walk_without_a_square_root(monkeypatch):
    # 999999999989 = 2 mod 3 is not a square modulo 3, so no class can exist;
    # the period of its square root runs to 1,103,497.
    assert 999999999989 % 3 == 2
    monkeypatch.setattr(pell, "_principal_walk", _unread("_principal_walk"))
    monkeypatch.setattr(pell, "_period_convergent", _unread("_period_convergent"))
    assert solve_all(999999999989, 3) == pell.SolutionClassSet("empty", ())
    assert list(divisible_solutions(999999999989, 3, 1)) == []


def test_no_walk_where_a_prime_of_d_rules_the_target_out(monkeypatch):
    # 999999999985 = 5 * 7^3 * 1733 * 336463 is 1 modulo 3, a square, but 3 is
    # not a square modulo 5: no solution, and no walk of the period 397,018.
    assert 999999999985 % 3 == 1 and pell.jacobi(3, 5) == -1
    monkeypatch.setattr(pell, "_principal_walk", _unread("_principal_walk"))
    monkeypatch.setattr(pell, "_period_convergent", _unread("_period_convergent"))
    assert solve_all(999999999985, 3) == pell.SolutionClassSet("empty", ())


def _largest_prime_below(bound: int, residue: int, modulus: int) -> int:
    return next(p for p in range(bound - 1, 1, -1) if p % modulus == residue and is_prime(p))


def test_legendre_at_the_domain_edge_for_a_prime_7_mod_8():
    """Legendre: for a prime p = 7 mod 8, x^2 - p*y^2 = 2 is solvable, while
    -2 (not a square modulo p) and -1 (p = 3 mod 4) are not, so the least
    unit has norm +1."""
    p = _largest_prime_below(10**12, 7, 8)
    assert p == 999999999959
    plus = solve_all(p, 2)
    assert plus.kind == "indefinite" and plus.solutions
    assert all(x * x - p * y * y == 2 for x, y in plus.solutions)
    assert plus.minimal[2] == 1
    assert solve_all(p, -2) == pell.SolutionClassSet("empty", ())
    assert solve_all(p, -1) == pell.SolutionClassSet("empty", ())


def test_legendre_at_the_domain_edge_for_a_prime_1_mod_4():
    """Legendre: for a prime p = 1 mod 4, x^2 - p*y^2 = -1 is solvable, so the
    least unit has norm -1, and it is the one class of -1.

    Its digits run past Python's limit on int-to-text conversion, so `repr`
    raises.  The README's recipe (lift the limit, print, restore it) is shown
    on the class of -1 at the prime 999999937, also past the limit: printing
    the edge result itself takes about 6 s a number on Python 3.11."""
    p = _largest_prime_below(10**12, 1, 4)
    assert p == 999999999989
    minus = solve_all(p, -1)
    x, y, s = minus.minimal
    assert s == -1 and x * x - p * y * y == -1  # about 1.9 million bits each
    assert minus.kind == "indefinite"
    assert [(abs(a), abs(b)) for a, b in minus.solutions] == [(x, y)]

    limit = sys.get_int_max_str_digits()
    smaller = solve_all(_largest_prime_below(10**9, 1, 4), -1)
    for result in (minus, minus.solutions[0], smaller, smaller.solutions[0]) if limit else ():
        with pytest.raises(ValueError, match="limit"):
            repr(result)
    sys.set_int_max_str_digits(0)
    try:
        digits = str(abs(smaller.minimal[0]))
        assert len(digits) > 4300
        assert digits in repr(smaller) and digits in repr(smaller.solutions[0])
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit


def test_no_walk_where_the_target_fails_the_mod8_test(monkeypatch):
    # D = 535543364959 = 429101 * 1248059 is 3 mod 4 and N = -2 * 429101 is 2
    # mod 4, so x and y would be odd and N = 1 - D mod 8; it is 4 more.  The
    # prime 429101 of N divides D and the Jacobi symbol leaves it alone.
    d, n = 535543364959, -858202
    assert d % 4 == 3 and (n + d - 1) % 8 == 4 and d % 429101 == 0 == n % 429101
    monkeypatch.setattr(pell, "_principal_walk", _unread("_principal_walk"))
    monkeypatch.setattr(pell, "_period_convergent", _unread("_period_convergent"))
    assert solve_all(d, n) == pell.SolutionClassSet("empty", ())


@st.composite
def obstruction_problems(draw):
    """(D, N) with nonsquare 2 <= D <= 10^4 and 1 <= |N| <= 10^4, three kinds
    in equal shares.  D is an odd prime q <= 7 times a cofactor of at least
    q^3, so that q lies below D^(1/4) and is tested on its own; or uniform,
    its odd primes mostly left to the Jacobi symbol of what trial division
    leaves; or 3 mod 4 with N twice an odd number, where the mod-8 test rules
    out half the N: about a third of the examples kept by the test below."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        q = draw(st.sampled_from([3, 5, 7]))
        d = q * draw(st.integers(q ** 3, 10**4 // q))
    elif kind == 1:
        d = draw(st.integers(2, 10**4))
    else:
        d = 4 * draw(st.integers(0, 2499)) + 3
        return d, (4 * draw(st.integers(0, 2499)) + 2) * draw(st.sampled_from([1, -1]))
    assume(isqrt(d) ** 2 != d)
    return d, draw(st.integers(1, 10**4)) * draw(st.sampled_from([1, -1]))


@given(obstruction_problems())
@settings(max_examples=300, deadline=None)
def test_a_residue_obstruction_leaves_no_solution(problem):
    """Where the obstruction fires, the class search without it finds no class
    of any N/f^2, and neither the classes nor a scan put a solution in a box."""
    d, n = problem
    assume(pell._residue_obstructed(d, n))
    targets = [(n // (f * f), rest) for f, rest in pell._square_divisors(pell._factor(n))]
    assert not any(pell._primitive_class_reps(d, targets)[1])
    assert solutions_within(d, n, 10**4) == []
    assert not brute_solutions(d, n, 300)


@st.composite
def shared_prime_problems(draw):
    """(D, N, q) with D = q*c and N = +-q*m for an odd prime q <= 13 dividing
    neither c nor m, and c, m <= 10^4 / q.  The test at q fires where
    (-c*m | q) = -1: on about half the examples, and with the residue test
    silent on about 30% of them, the ones the test below keeps."""
    q = draw(st.sampled_from([3, 5, 7, 11, 13]))
    c = draw(st.integers(1, 10**4 // q).filter(lambda c: c % q))
    m = draw(st.integers(1, 10**4 // q).filter(lambda m: m % q))
    return q * c, q * m * draw(st.sampled_from([1, -1])), q


@given(shared_prime_problems())
@settings(max_examples=200, deadline=None)
def test_a_shared_prime_obstruction_leaves_no_solution(problem):
    """Where q divides D and N once each and -(D/q)*(N/q) is not a square
    modulo q, solve_all ends before any square root is taken, the class
    search without the test finds no class of any N/f^2, and a scan finds no
    solution in a box."""
    d, n, q = problem
    assume(jacobi(-(d // q) * (n // q), q) == -1 and not pell._residue_obstructed(d, n))
    with mock.patch.object(pell, "_square_roots", _unread("_square_roots")):
        assert solve_all(d, n) == pell.SolutionClassSet("empty", ())
    targets = [(n // (f * f), rest) for f, rest in pell._square_divisors(pell._factor(n))]
    assert not any(pell._primitive_class_reps(d, targets)[1])
    assert not brute_solutions(d, n, 300)


def test_a_shared_prime_decides_a_biquadratic_structure_without_a_walk(monkeypatch):
    """The field (-6219803503, 135957049) has the derived radicand
    k = -845626129627742647, whose principal cycle has about 10^9 steps.  Its
    structure solves x^2 - |k|*y^2 = +-2*135957049: the residue test rules out
    the sign -, and the prime 135957049, dividing k and the target once each,
    rules out the sign +.  So it is not free with no walk of sqrt(|k|)."""
    walk = pell._principal_walk

    def bounded(d, anchors):
        assert d <= 10**12, f"walked the principal cycle of sqrt({d})"
        return walk(d, anchors)

    monkeypatch.setattr(pell, "_principal_walk", bounded)
    d, n, q = 845626129627742647, 2 * 135957049, 135957049
    assert d % q == 0 and (d // q) % q and jacobi(-(d // q) * (n // q), q) == -1
    assert pell._residue_obstructed(d, -n) and not pell._residue_obstructed(d, n)
    fs = summary(canonicalize_biquadratic(-6219803503, 135957049))
    reports = {e.structure.subfield_tag: e.report for e in fs.structures}
    derived = reports["sqrt(-845626129627742647)"]
    assert (derived.decision, derived.method, derived.witness) == (NOT_FREE, "pell_criterion", None)
    assert reports["sqrt(-6219803503)"].decision == FREE


@pytest.mark.parametrize("n, rep", [(1, (1, 0)), (-1, (1, 1))])
def test_a_target_of_one_still_carries_the_unit(n, rep):
    scs = solve_all(2, n)
    assert scs.kind == "indefinite" and scs.solutions == (rep,)
    assert scs.minimal == (1, 1, -1) and scs.unit == (3, 2)


@given(
    st.integers(2, 60).filter(lambda d: isqrt(d) ** 2 != d),
    st.integers(-12, 12).filter(lambda b: b != 0),
    st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
def test_find_with_divisibility_none_means_no_small_witness(d, b, c):
    got = find_with_divisibility(d, b, c)
    if got is None:
        for y in range(0, 2000):
            r = b + d * y * y
            if r >= 0 and isqrt(r) ** 2 == r:
                x = isqrt(r)
                for sx, sy in ((x, y), (-x, y), (x, -y), (-x, -y)):
                    assert (sx - c * sy) % abs(b) != 0
    else:
        x, y = got
        assert x * x - d * y * y == b and (x - c * y) % abs(b) == 0


# ---- indefinite form cycles ----

PINNED_CYCLE_TAIL = [
    QuadForm(15, 16, -14),
    QuadForm(14, 12, -17),
    QuadForm(17, 22, -9),
    QuadForm(9, 32, -2),
    QuadForm(2, 32, -9),
    QuadForm(9, 22, -17),
    QuadForm(17, 12, -14),
    QuadForm(14, 16, -15),
]


def test_form_cycle_pinned_example():
    cycle = form_cycle(QuadForm(15, 14, -15))
    assert cycle[0] == QuadForm(15, 14, -15)
    assert cycle[1:] == PINNED_CYCLE_TAIL
    assert len(cycle) == 9


def test_form_cycle_principal_contains_itself():
    p = principal_form(1096)
    assert p in form_cycle(p)
    p8 = principal_form(8)
    assert p8 in form_cycle(p8)


def test_reduce_then_cycle_reaches_principal():
    g = reduce_form(QuadForm(1, 0, -2))
    assert is_reduced(g)
    assert principal_form(8) in form_cycle(g)


def test_reduce_form_stall_raises_typed_error(monkeypatch):
    monkeypatch.setattr(pell, "rho", lambda f: f)
    with pytest.raises(InternalInconsistencyError):
        reduce_form(QuadForm(1, 0, -2))


def test_form_cycle_rejects_unreduced_and_bad_discriminant():
    with pytest.raises(NotReducedError):
        form_cycle(QuadForm(1, 0, -2))
    with pytest.raises(BadDiscriminantError):
        form_cycle(QuadForm(1, 1, 1))
    with pytest.raises(BadDiscriminantError):
        form_cycle(QuadForm(1, 0, -1))
    with pytest.raises(BadDiscriminantError):
        represents_one(QuadForm(2, 4, 2))


def test_represents_one_pinned_examples():
    assert represents_one(QuadForm(15, 14, -15)) is False
    assert represents_one(principal_form(1096)) is True
    assert represents_one(QuadForm(3, 2, -3)) == brute_represents_one(QuadForm(3, 2, -3), 100)


def test_represents_one_matches_explicit_witness_on_sampled_forms():
    """Cycle-membership answer vs independent transform-tracking witness.

    A positive answer must come with an exact witness (checked by direct
    evaluation, so arbitrarily large witnesses are fine); a negative answer
    must survive a brute scan.
    """
    rng = random.Random(0)
    checked = 0
    while checked < 100:
        a = rng.randint(-12, 12)
        b = rng.randint(-12, 12)
        c = rng.randint(-12, 12)
        f = QuadForm(a, b, c)
        delta = f.disc
        if delta <= 0 or delta > 2000 or isqrt(delta) ** 2 == delta:
            continue
        witness = representation_of_one(f)
        assert represents_one(f) == (witness is not None)
        if witness is not None:
            u, v = witness
            assert a * u * u + b * u * v + c * v * v == 1
        else:
            assert not brute_represents_one(f, 200)
        checked += 1


@given(st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12))
@settings(max_examples=150, deadline=None)
def test_form_cycle_structure(a, b, c):
    f = QuadForm(a, b, c)
    delta = f.disc
    if delta <= 0 or isqrt(delta) ** 2 == delta:
        return
    g = reduce_form(f)
    assert is_reduced(g)
    cycle = form_cycle(g)
    flip = lambda h: QuadForm(-h.a, h.b, -h.c) if h.a < 0 else h
    for h, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert h.disc == delta
        assert is_reduced(h) and h.a > 0
        assert flip(rho(h)) == nxt
