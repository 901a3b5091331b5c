"""Differential tests of hopfq.linalg, hopfq.pell (classes, square roots
modulo m, Legendre's families at the domain edge) and `pell._primes`, the one
route to primes behind the factorisation, the divisors, the residue test and
the squarefree test, against sympy.

sympy is an optional test dependency; without it the module is skipped.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfq.errors import RankDeficientError, ZeroMatrixError
from hopfq.fields import is_squarefree
from hopfq.freeness import _factor
from hopfq.linalg import det, hnf_integer, mat_inv
from hopfq.pell import (
    _TRIAL_BOUND, _WITNESSES, SolutionClassSet, _is_probable_prime, _odd_primes, _primes,
    _residue_obstructed, _signed_divisors, _square_roots, jacobi, solve_all,
)

from helpers import residue_rule_alone

sympy = pytest.importorskip("sympy")
sympy_random = pytest.importorskip("sympy.core.random")
factorint = pytest.importorskip("sympy.ntheory").factorint
sqrt_mod = pytest.importorskip("sympy.ntheory").sqrt_mod
hermite_normal_form = pytest.importorskip("sympy.matrices.normalforms").hermite_normal_form
diop_DN = pytest.importorskip("sympy.solvers.diophantine.diophantine").diop_DN


def to_fraction(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


def square_matrices(entries):
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


rational_square = square_matrices(st.fractions(min_value=-5, max_value=5, max_denominator=6))


@given(rational_square)
@settings(max_examples=80, deadline=None)
def test_det_and_mat_inv_match_sympy(rows):
    reference = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                              for row in rows])
    want = to_fraction(reference.det())
    assert det(rows) == want
    if want == 0:
        with pytest.raises((RankDeficientError, ZeroMatrixError)):
            mat_inv(rows)
        return
    assert mat_inv(rows) == [[to_fraction(x) for x in row] for row in reference.inv().tolist()]


@st.composite
def full_column_rank(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 6))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    assume(sympy.Matrix(rows).rank() == n)
    return rows


@given(full_column_rank())
@settings(max_examples=80, deadline=None)
def test_hnf_integer_matches_sympy_hermite_normal_form(rows):
    """sympy returns the column form of the lattice spanned by the rows.

    Its form H is upper triangular with each row reduced modulo that row's
    diagonal entry, where hnf_integer reduces each column modulo its pivot.
    Reversing the coordinate order maps one convention onto the other: the
    row form of the reversed rows is H transposed with both axes reversed.
    """
    n = len(rows[0])
    h = hnf_integer(rows)
    reference = hermite_normal_form(sympy.Matrix(rows).T).tolist()
    lattice_det = 1
    for i in range(n):
        lattice_det *= h[i][i]
    assert lattice_det == abs(sympy.Matrix(reference).det())
    reversed_form = hnf_integer([row[::-1] for row in rows])
    assert reversed_form == [[int(reference[n - 1 - j][n - 1 - i]) for j in range(n)]
                             for i in range(n)]


def _pell_cases(count: int, seed: int) -> list[tuple[int, int]]:
    """Nonsquare d <= 5000 and 1 <= |N| <= 3000.  Every other N is drawn
    uniformly; the rest are values x^2 - d*y^2 near zero, which are solvable."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        d = rng.randint(2, 5000)
        if isqrt(d) ** 2 == d:
            continue
        if len(cases) % 2:
            y = rng.randint(1, 4)
            x = isqrt(d * y * y) + rng.randint(-3, 4)
            n = x * x - d * y * y
            if not 1 <= abs(n) <= 3000:
                continue
        else:
            n = rng.choice((1, -1)) * rng.randint(1, 3000)
        cases.append((d, n))
    return cases


def _large_pell_cases(count: int, seed: int) -> list[tuple[int, int]]:
    """Nonsquare d <= 10^4 and 1 <= |N| <= 10^6, in turn: a product of three
    small values x^2 - d*y^2 with at least three odd prime factors; such a
    value times a power of 2 up to 2^10; and a power of a prime dividing d
    times a uniform cofactor.  (diop_DN itself slows down sharply with d.)"""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        d = rng.randint(2, 10**4)
        if isqrt(d) ** 2 == d:
            continue
        y = rng.randint(1, 3)
        kind = len(cases) % 3
        if kind == 0:
            n = 1
            for _ in range(3):
                x = isqrt(d * y * y) + rng.randint(-2, 3)
                n *= x * x - d * y * y
            if sum(1 for q in _factor(n) if q > 2) < 3:
                continue
        elif kind == 1:
            x = isqrt(d * y * y) + rng.randint(-2, 3)
            n = 2 ** rng.randint(1, 10) * (x * x - d * y * y)
        else:
            p = rng.choice(sorted(_factor(d)))
            n = rng.choice((1, -1)) * p ** rng.randint(1, 3) * rng.randint(1, 10**6 // p)
        if 1 <= abs(n) <= 10**6:
            cases.append((d, n))
    return cases


def _coprime_pell_cases(count: int, seed: int) -> list[tuple[int, int]]:
    """Nonsquare d <= 10^4, each an odd prime up to 13 times a cofactor, and
    N coprime to d with 1 <= |N| <= 10^4.  Two N in three are uniform, often
    a non-residue modulo a prime of d; the third is a value x^2 - d*y^2 near
    zero, which is solvable."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        q = rng.choice((3, 5, 7, 11, 13))
        d = q * rng.randint(1, 10**4 // q)
        if isqrt(d) ** 2 == d:
            continue
        if len(cases) % 3 == 2:
            y = rng.randint(1, 3)
            x = isqrt(d * y * y) + rng.randint(-2, 3)
            n = x * x - d * y * y
        else:
            n = rng.choice((1, -1)) * rng.randint(1, 10**4)
        if 1 <= abs(n) <= 10**4 and gcd(n, d) == 1:
            cases.append((d, n))
    return cases



def _mod8_pell_cases(count: int, seed: int) -> list[tuple[int, int]]:
    """Squarefree d = 3 mod 4 up to 10^4 and N = +-2g for an odd divisor g of
    d, the shape of the biquadratic equations: x and y would be odd, so only
    N = 1 - d modulo 8 can solve, and the odd primes of N all divide d."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        d = 4 * rng.randint(0, 2499) + 3
        factors = _factor(d)
        if max(factors.values()) == 1:
            g = prod(q for q in factors if rng.random() < 0.5)
            cases.append((d, rng.choice((1, -1)) * 2 * g))
    return cases


def _shared_prime_pell_cases(count: int, seed: int) -> list[tuple[int, int, int]]:
    """(d, N, q): nonsquare d < 5,000 with an odd prime q <= 13 dividing it
    once, and N = +-q*m with q not dividing m and |N| <= 10^4.  One N in
    three is uniform; one is uniform among those on which the residue rule
    alone (`residue_rule_alone`) is silent, which it is on few uniform N, as
    it tests every prime of d; the third is a value x^2 - d*y^2 with q | x
    and q not dividing y, which is solvable."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        q = rng.choice((3, 5, 7, 11, 13))
        c = rng.randint(1, 4999 // q)
        if c % q == 0:
            continue
        d = q * c
        if len(cases) % 3 == 2:
            y = rng.randint(1, 2)
            x = q * (isqrt(d * y * y) // q + rng.randint(0, 1))
            n = x * x - d * y * y
        else:
            n = rng.choice((1, -1)) * q * rng.randint(1, 10**4 // q)
            if len(cases) % 3 == 1 and residue_rule_alone(d, n, factorint(d)):
                continue
        if 1 <= abs(n) <= 10**4 and n % q == 0 and (n // q) % q:
            cases.append((d, n, q))
    return cases


def _assert_classes_match_diop_DN(cases: list[tuple[int, int]]) -> int:
    """Every fundamental solution from diop_DN lies in a class of solve_all, and
    every class of solve_all holds one of them; returns how many cases solve.

    Solutions (x1, y1), (x2, y2) of x^2 - d*y^2 = N lie in the same class
    {+-U^k * rep} exactly when x1*x2 - d*y1*y2 and x1*y2 - x2*y1 are both
    divisible by |N| (Nagell).
    """
    def same_class(s, r, d, n):
        return (s[0] * r[0] - d * s[1] * r[1]) % n == 0 and (s[0] * r[1] - r[0] * s[1]) % n == 0

    solved = 0
    for d, n in cases:
        theirs = [(int(x), int(y)) for x, y in diop_DN(d, n)]
        ours = solve_all(d, n)
        assert ours.kind == ("indefinite" if theirs else "empty"), (d, n)
        reps = [tuple(s) for s in ours.solutions]
        for s in theirs:
            assert any(same_class(s, r, d, abs(n)) for r in reps), (d, n, s)
        for r in reps:
            assert any(same_class(s, r, d, abs(n)) for s in theirs), (d, n, r)
        solved += bool(reps)
    return solved


def test_solve_all_classes_match_sympy_diop_DN():
    assert _assert_classes_match_diop_DN(_pell_cases(60, seed=2021)) >= 30


def test_solve_all_classes_match_sympy_diop_DN_up_to_a_million():
    assert _assert_classes_match_diop_DN(_large_pell_cases(30, seed=2022)) >= 15


def test_solve_all_classes_match_sympy_diop_DN_on_both_sides_of_the_residue_test():
    """diop_DN referees the cases that the residue test rules out before any
    walk as well as those it leaves to the class search."""
    cases = _coprime_pell_cases(36, seed=2024)
    obstructed = sum(_residue_obstructed(d, n) for d, n in cases)
    assert 12 <= obstructed <= 24
    assert _assert_classes_match_diop_DN(cases) >= 12


def test_solve_all_classes_match_sympy_diop_DN_on_both_sides_of_the_shared_prime_test():
    """diop_DN referees the cases that the q^2 rule at a prime q dividing d
    and N once each rules out before any square root, those the residue rule
    alone rules out, and those left to the class search.  Where the q^2 rule
    fires, `_residue_obstructed` ends the equation."""
    cases = _shared_prime_pell_cases(60, seed=2026)
    fires = [jacobi(-(d // q) * (n // q), q) == -1 for d, n, q in cases]
    silent = [not residue_rule_alone(d, n, factorint(d)) for d, n, _ in cases]
    assert sum(f and r for f, r in zip(fires, silent)) >= 10  # ended by the shared prime
    assert all(_residue_obstructed(d, n) for (d, n, _), f in zip(cases, fires) if f)
    assert sum(r and not f for f, r in zip(fires, silent)) >= 15  # left to the class search
    assert _assert_classes_match_diop_DN([(d, n) for d, n, _ in cases]) >= 15


def test_solve_all_classes_match_sympy_diop_DN_on_both_sides_of_the_mod8_test():
    """diop_DN referees the N that the mod-8 test rules out before any walk as
    well as those it leaves to the class search."""
    cases = _mod8_pell_cases(40, seed=2025)
    ruled_out = sum((n + d - 1) % 8 != 0 for d, n in cases)
    assert 10 <= ruled_out <= 30
    assert all(_residue_obstructed(d, n) for d, n in cases if (n + d - 1) % 8)
    assert _assert_classes_match_diop_DN(cases) >= 5


def test_square_roots_match_sympy_sqrt_mod():
    """Seeded composite m up to 10^12 built from prime powers (2 and 3 up to
    the 12th power, larger primes up to 10^6); d is a random value, a square
    modulo m, or shares a prime power with m."""
    rng = random.Random(2023)
    small = [int(q) for q in sympy.primerange(2, 200)]
    for case in range(60):
        m = 1
        while True:
            q = rng.choice(small) if rng.random() < 0.8 else int(sympy.nextprime(rng.randint(200, 10**6)))
            e = rng.randint(1, 12 if q <= 3 else 3)
            if m * q ** e > 10**12 or (m > 1 and rng.random() < 0.2):
                break
            m *= q ** e
        if m == 1:
            continue
        z = rng.randrange(m)
        if case % 3 == 0:
            d = rng.randint(-10**12, 10**12)
        elif case % 3 == 1:
            d = z * z - m * rng.randint(-10**6, 10**6)
        else:
            q = rng.choice(sorted(_factor(m)))
            d = q ** rng.randint(1, 4) * (z * z + rng.randint(-5, 5))
        want = sorted(r if r <= m // 2 else r - m
                      for r in (int(r) for r in sqrt_mod(d % m, m, all_roots=True)))
        assert _square_roots(d, m, _factor(m)) == want, (d, m)


# ---- the one route to primes, through each of its callers ----

@cache
def _cube_root_shapes(seed: int = 2028) -> tuple[int, ...]:
    """Seeded n <= 10^12 of the shapes p^2, p^2*q and p*q*r for primes p, q, r:
    with the squared p below the cube root of n, above it, and at it, where q
    is the twin prime p + 2 and floor(cbrt(n)) = p."""
    rng = random.Random(seed)

    def prime(lo: int, hi: int) -> int:
        return int(sympy.nextprime(rng.randrange(lo, hi)))

    values = []
    for _ in range(15):
        p = prime(2, 10**6 - 100)
        values.append(p * p)
        p = prime(2, 9000)
        values.append(p * p * prime(p + 1, 10**12 // p**2 - 1000))  # p below the cube root
        p = prime(3, 10**5)
        q = int(sympy.prevprime(rng.randrange(3, min(p, 10**12 // p**2) + 1)))
        values.append(p * p * q)  # p above it
        p = prime(5, 9000)
        while not sympy.isprime(p + 2):
            p = int(sympy.nextprime(p))
        values.append(p * p * (p + 2))  # p at it
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        values.append(prime(2, 10**a) * prime(2, 10**b) * prime(2, 10 ** (11 - a - b)))
        p = prime(2, 9900)
        q = int(sympy.nextprime(p))
        values.append(p * q * int(sympy.nextprime(q)))  # three primes about the cube root
    assert all(1 < n <= 10**12 for n in values)
    return tuple(values)


def test_factor_matches_sympy_factorint():
    """Seeded values: small and signed ones, primes and prime squares near the
    largest d = b^2 + c^2 of the benchmark (b, c up to 10^5), products of two
    primes near its square root, sums of two squares, the shapes about the
    cube root that the squarefree test meets, primes and prime powers about
    `_TRIAL_BOUND`, products of two 12-digit primes, twice a prime just below
    10^12 (a biquadratic target) and the two prime factors of the last psi.
    `_primes` yields the same primes and exponents, smallest first."""
    rng = random.Random(2021)
    top = 2 * 10**10
    values = list(range(-40, 41)) + [2**33, 3**20, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23]
    values += [int(sympy.prevprime(top)), int(sympy.nextprime(top)), int(sympy.prevprime(top // 3))]
    values += [int(sympy.prevprime(isqrt(top))) ** 2,
               int(sympy.prevprime(isqrt(top))) * int(sympy.nextprime(isqrt(top)))]
    values += [rng.randint(1, 10**5) ** 2 + rng.randint(1, 10**5) ** 2 for _ in range(40)]
    values += [rng.randint(-top, top) for _ in range(20)]
    values += [sign * n for n in _cube_root_shapes() for sign in (1, -1)]
    below, above = int(sympy.prevprime(_TRIAL_BOUND)), int(sympy.nextprime(_TRIAL_BOUND))
    values += [below**2, below * above, above**2, above**3, 3 * above**2 * int(sympy.nextprime(above))]
    twelve = [int(sympy.prevprime(rng.randrange(10**11, 10**12))) for _ in range(4)]
    values += [p * q for p, q in zip(twelve, twelve[1:])] + [999999999989 * 999999999959]
    values += [2 * int(sympy.prevprime(10**12)), 1287836182261, 2575672364521]
    for n in values:
        want = {} if abs(n) <= 1 else {int(p): e for p, e in factorint(abs(n)).items()}
        assert _factor(n) == want, n
        assert list(_primes(n)) == sorted(want.items()), n


def test_is_squarefree_matches_sympy_factorint_about_the_cube_root():
    sides = Counter()
    for n in _cube_root_shapes():
        root = int(sympy.integer_nthroot(n, 3)[0])
        squared = [int(p) for p, e in factorint(n).items() if e > 1]
        sides.update("at" if p == root else "below" if p < root else "above" for p in squared)
        assert is_squarefree(n) is is_squarefree(-n) is (not squared), n
    assert min(sides["below"], sides["at"], sides["above"]) >= 10, sides


def test_signed_divisors_match_sympy_divisors_about_the_cube_root():
    for n in _cube_root_shapes():
        want = {int(t) for t in sympy.divisors(n)}
        assert _signed_divisors(n) == _signed_divisors(-n) == want | {-t for t in want}, n


def test_each_psi_is_the_least_composite_that_passes_its_bases():
    """Each bound of the Miller-Rabin table is composite and a strong
    probable prime to every base up to its own, and the next base, where the
    bound rises, catches it; the last bound passes all 13 bases."""
    mr = pytest.importorskip("sympy.ntheory.primetest").mr
    bounds = [psi for _, psi in _WITNESSES]
    for k, (base, psi) in enumerate(_WITNESSES):
        assert not sympy.isprime(psi)
        assert mr(psi, [a for a, _ in _WITNESSES[:k + 1]]), base
        assert _is_probable_prime(psi) is (psi == bounds[-1])
        assert psi == max(bounds[:k + 1])


def test_odd_primes_match_sympy_factorint():
    """Every odd n from 3 to 2*10^4, and seeded products of up to four odd
    prime powers below 10^24, prime squares and cubes among them: the same
    primes and exponents, smallest first."""
    rng = random.Random(2036)
    values = list(range(3, 20001, 2))
    while len(values) < 10**4 + 300:
        n = 1
        for _ in range(rng.randint(1, 4)):
            n *= int(sympy.nextprime(rng.randrange(2, 10 ** rng.randint(1, 6)))) ** rng.randint(1, 3)
        if n % 2 and n < 10**24:
            values.append(n)
    for n in values:
        assert list(_odd_primes(n).items()) == sorted(factorint(n).items()), n


def _reference_obstructed(d: int, n: int) -> bool:
    """The three local rules read off factorint: the mod-8 line, an odd prime
    q of d with q not dividing n and (n/q) = -1, or an odd prime q dividing
    d and n once each with (-(d/q)*(n/q) | q) = -1."""
    if d % 4 == 3 and n % 4 == 2 and (n + d - 1) % 8:
        return True
    primes_of_d, primes_of_n = factorint(d), factorint(abs(n))
    return any(q > 2 and (sympy.jacobi_symbol(n % q, q) == -1 if n % q else
                          e == primes_of_n[q] == 1
                          and sympy.jacobi_symbol(-(d // q) * (n // q) % q, q) == -1)
               for q, e in primes_of_d.items())


def _quartic_root_shapes(count: int, seed: int) -> list[tuple[int, int]]:
    """(d, N) with d = q*m for primes q <= 997 and m, m in [q^3, (q+1)^4/q), so
    that floor(d^(1/4)) = q: q is found by trial division where it is below
    `_TRIAL_BOUND`, and by the split of d above it.  In every other case
    (N/q) = (N/m) = -1, so that the Jacobi symbol of q*m would read +1; the
    rest draw N uniformly."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        q = int(sympy.nextprime(rng.randrange(2, 996)))
        m = int(sympy.nextprime(rng.randrange(q**3, q**3 + 2 * q * q)))
        d = q * m
        if int(sympy.integer_nthroot(d, 4)[0]) != q:
            continue
        n = rng.choice((1, -1)) * rng.randint(1, 10**6)
        if len(cases) % 2 and not (n % q and n % m and jacobi(n, q) == jacobi(n, m) == -1):
            continue
        cases.append((d, n))
    return cases


def _hidden_pair_cases(count: int, seed: int) -> list[tuple[int, int]]:
    """(d, N) with d = s*p*q, s a small odd squarefree part and p < q primes
    above d^(1/4), and (N/p) = (N/q) = -1 with N coprime to d: the Jacobi
    symbol of p*q reads +1, and only its split shows the obstruction.  p has
    3 to 9 digits."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        digits = rng.randint(3, 9)
        p = int(sympy.nextprime(rng.randrange(10 ** (digits - 1), 10**digits)))
        q = int(sympy.nextprime(rng.randrange(p, 2 * p)))
        d = rng.choice((1, 3, 5, 15, 21)) * p * q
        if p <= int(sympy.integer_nthroot(d, 4)[0]):
            continue
        n = rng.choice((1, -1)) * rng.randint(1, 10**6)
        if gcd(n, d) == 1 and jacobi(n, p) == jacobi(n, q) == -1:
            cases.append((d, n))
    return cases


def test_residue_obstructed_matches_a_reference_from_sympy_factorint():
    """Every d of the cube-root shapes against four N each (uniform, twice an
    odd number, a multiple of a prime of d, a value x^2 - d*y^2), d = q*m
    with q = floor(d^(1/4)), d whose two large primes both rule N out, and
    d and N sharing a prime q once each, where the q^2 rule alone ends some."""
    rng = random.Random(2029)
    cases = _quartic_root_shapes(60, seed=2030) + _hidden_pair_cases(30, seed=2035)
    cases += [(d, n) for d, n, _ in _shared_prime_pell_cases(60, seed=2036)]
    for d in _cube_root_shapes():
        x, y = rng.randint(1, 10**6), rng.randint(1, 3)
        cases += [(d, rng.choice((1, -1)) * rng.randint(1, 10**6)),
                  (d, rng.choice((1, -1)) * 2 * (2 * rng.randint(0, 10**5) + 1)),
                  (d, rng.choice(sorted(factorint(d))) * rng.randint(-10**3, 10**3) or 1),
                  (d, x * x - d * y * y or 1)]
    verdicts = Counter(_residue_obstructed(d, n) for d, n in cases)
    for d, n in cases:
        assert _residue_obstructed(d, n) == _reference_obstructed(d, n), (d, n)
    assert min(verdicts.values()) >= 60, verdicts
    q2_alone = sum(_residue_obstructed(d, n) and not residue_rule_alone(d, n, factorint(d))
                   for d, n in cases)
    assert q2_alone >= 20, q2_alone


@given(st.integers(2, 3000), st.integers(-3000, 3000).filter(bool))
@settings(max_examples=200, deadline=None)
def test_a_residue_obstruction_leaves_diop_DN_empty(d, n):
    """Soundness of the complete test: where it rules N out, sympy's diop_DN
    finds no solution of x^2 - d*y^2 = N either."""
    assume(isqrt(d) ** 2 != d and _residue_obstructed(d, n))
    assert diop_DN(d, n) == []


def test_the_split_of_a_cofactor_of_two_12_digit_primes_takes_seconds_at_most():
    """d = p*q near 10^24 with p, q 12-digit primes and (N/p) = (N/q) = -1:
    trial division to `_TRIAL_BOUND` finds nothing, and Pollard-Brent must
    split d itself to see that N is no square modulo p."""
    p, q = 999999999989, 999999999959
    n = next(n for n in range(3, 10**4) if jacobi(n, p) == jacobi(n, q) == -1)
    start = time.perf_counter()
    assert _residue_obstructed(p * q, n)
    assert time.perf_counter() - start < 10


# ---- Legendre's families at the domain edge ----

def _legendre_edge_primes(seed: int = 2028) -> dict[int, int]:
    """The first prime of each Legendre family (1 mod 4, 3 mod 8, 7 mod 8)
    that sympy's randprime draws from [10^11, 10^12) under a fixed seed,
    keyed by its residue; sympy's generator is restored afterwards."""
    state = sympy_random.rng.getstate()
    sympy_random.seed(seed)
    try:
        primes: dict[int, int] = {}
        while len(primes) < 3:
            p = int(sympy.randprime(10**11, 10**12))
            primes.setdefault(1 if p % 4 == 1 else p % 8, p)
    finally:
        sympy_random.rng.setstate(state)
    return primes


@pytest.mark.parametrize("family, solvable, empty, sign", [
    (1, -1, (), -1),
    (3, -2, (2, -1), 1),
    (7, 2, (-2, -1), 1),
], ids=["1mod4", "3mod8", "7mod8"])
def test_legendre_families_hold_at_the_domain_edge(family, solvable, empty, sign):
    """Legendre: for a prime p = 1 mod 4, x^2 - p*y^2 = -1 is solvable; for
    p = 3 mod 8, -2 is and 2 and -1 are not; for p = 7 mod 8, 2 is and -2 and
    -1 are not.  So the least unit has norm -1 exactly for p = 1 mod 4."""
    p = _legendre_edge_primes()[family]
    assert 10**11 <= p < 10**12 and sympy.isprime(p)
    assert (p % 4 if family == 1 else p % 8) == family
    classes = solve_all(p, solvable)
    assert classes.kind == "indefinite" and classes.solutions
    assert all(x * x - p * y * y == solvable for x, y in classes.solutions)
    x, y, s = classes.minimal
    assert s == sign and x * x - p * y * y == sign
    for target in empty:
        assert solve_all(p, target) == SolutionClassSet("empty", ())
