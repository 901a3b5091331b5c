"""Tests for field parameter validation, classification, and integral bases."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq.errors import (
    DegenerateProductError,
    EvenParameterError,
    NonPositiveError,
    NotCoprimeError,
    NotSquarefreeError,
    ValidationError,
)
from hopfq.fields import (
    DERIVED,
    FIRST_INPUT,
    SECOND_INPUT,
    SQUAREFREE_LIMIT,
    BiquadraticParams,
    CyclicQuarticParams,
    canonicalize_biquadratic,
    classify_biquadratic_type,
    classify_cyclic_case,
    integral_basis_biquadratic,
    integral_basis_cyclic,
    is_squarefree,
    validate_cyclic,
)
from hopfq.linalg import det
from hopfq.pell import _factor


def naive_squarefree(n: int) -> bool:
    n = abs(n)
    i = 2
    while i * i <= n:
        if n % (i * i) == 0:
            return False
        i += 1
    return True


# ---- squarefree test ----

def test_is_squarefree_pinned_values():
    assert is_squarefree(10) is True
    assert is_squarefree(18) is False
    assert is_squarefree(-1) is True
    assert is_squarefree(101 * 101) is False
    assert is_squarefree(101 * 103) is True
    assert is_squarefree(2 * 3 * 5 * 7 * 11 * 13) is True


def test_is_squarefree_rejects_zero_and_huge_inputs():
    with pytest.raises(ValidationError):
        is_squarefree(0)
    with pytest.raises(ValidationError):
        is_squarefree(10**12 + 1)


@given(st.integers(-4000, 4000).filter(lambda n: n != 0))
def test_is_squarefree_matches_naive(n):
    assert is_squarefree(n) == naive_squarefree(n)


@pytest.mark.parametrize("n, squarefree", [
    (999983 ** 2, False),
    (999983 * 999979, True),
    (9973 ** 2 * 10007, False),
    (9973 * 10007 ** 2, False),
    (9967 * 10007 ** 2, False),
    (9973 * 10007 * 10009, True),
    (8 * 9973 * 10007, False),
    (10 * 9973 * 10007, True),
    (999999999989, True),
    (10**12, False),
])
def test_is_squarefree_near_its_limit_matches_the_factorisation(n, squarefree):
    """Two primes on either side of 10^4 or one near 10^6 above the small
    primes: what trial division leaves is split by Pollard-Brent."""
    assert is_squarefree(n) is squarefree
    assert squarefree == all(e == 1 for e in _factor(n).values())


# ---- cyclic validation and classification ----

def test_validate_cyclic_pinned_examples():
    assert validate_cyclic(1, 3, 1) == CyclicQuarticParams(1, 3, 1, 10)
    assert validate_cyclic(3, 2, 3) == CyclicQuarticParams(3, 2, 3, 13)


def test_validate_cyclic_rejections():
    with pytest.raises(NotSquarefreeError) as exc:
        validate_cyclic(1, 3, 3)
    assert exc.value.value == 18
    with pytest.raises(NotSquarefreeError):
        validate_cyclic(9, 3, 1)
    with pytest.raises(NotCoprimeError):
        validate_cyclic(5, 1, 2)
    with pytest.raises(NonPositiveError):
        validate_cyclic(1, 0, 1)
    with pytest.raises(NonPositiveError):
        validate_cyclic(1, 3, -1)
    with pytest.raises(EvenParameterError):
        validate_cyclic(2, 3, 1)


def test_classify_cyclic_case_pinned_examples():
    assert classify_cyclic_case(CyclicQuarticParams(1, 3, 1, 10)) == 1
    assert classify_cyclic_case(CyclicQuarticParams(1, 3, 2, 13)) == 2
    assert classify_cyclic_case(CyclicQuarticParams(1, 2, 1, 5)) == 3
    assert classify_cyclic_case(CyclicQuarticParams(3, 2, 3, 13)) == 4
    assert classify_cyclic_case(CyclicQuarticParams(3, 2, 1, 5)) == 5


@given(st.integers(-25, 25), st.integers(1, 25), st.integers(1, 25))
@settings(max_examples=300)
def test_classify_cyclic_case_total_and_single_valued(a, b, c):
    try:
        p = validate_cyclic(a, b, c)
    except ValidationError:
        return
    case = classify_cyclic_case(p)
    matches = []
    if p.d % 2 == 0:
        matches.append(1)
    if p.d % 2 == 1 and p.b % 2 == 1:
        matches.append(2)
    if p.d % 2 == 1 and p.b % 2 == 0 and (p.a + p.b) % 4 == 3:
        matches.append(3)
    if p.d % 2 == 1 and p.b % 2 == 0 and (p.a + p.b) % 4 == 1 and (p.a - p.c) % 4 == 0:
        matches.append(4)
    if p.d % 2 == 1 and p.b % 2 == 0 and (p.a + p.b) % 4 == 1 and (p.a + p.c) % 4 == 0:
        matches.append(5)
    assert matches == [case]


# ---- cyclic integral bases ----

# One field of each case: the basis depends on the case alone.
CASE_FIELDS = {1: (1, 3, 1), 2: (1, 3, 2), 3: (1, 2, 1), 4: (3, 2, 3), 5: (3, 2, 1)}


def _basis_of_case(case: int):
    p = validate_cyclic(*CASE_FIELDS[case])
    assert classify_cyclic_case(p) == case
    return integral_basis_cyclic(p)


def test_integral_basis_cyclic_pinned_rows():
    assert _basis_of_case(1) == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    h, q = Fraction(1, 2), Fraction(1, 4)
    assert _basis_of_case(2)[1] == [h, h, 0, 0]
    assert _basis_of_case(3)[2] == [0, 0, h, h]
    assert _basis_of_case(3)[3] == [0, 0, h, -h]
    assert _basis_of_case(4)[2] == [q, q, q, q]
    assert _basis_of_case(4)[3] == [q, -q, q, -q]
    assert _basis_of_case(5)[2] == [q, q, q, -q]
    assert _basis_of_case(5)[3] == [q, -q, q, q]


def test_cyclic_descriptor_determinants():
    # Index of Z[reference basis] in the ring of integers is the inverse.
    expected = {
        1: Fraction(1),
        2: Fraction(1, 2),
        3: Fraction(-1, 4),
        4: Fraction(-1, 16),
        5: Fraction(1, 16),
    }
    for case, value in expected.items():
        assert det(_basis_of_case(case)) == value


# ---- biquadratic canonicalization ----

def test_two_radicands_that_are_1_mod_4_come_from_no_field():
    """No field's triple has exactly two radicands that are 1 mod 4
    (`_residue_rule`); a hand-built triple with two raises, not a type."""
    p = BiquadraticParams(5, 13, 7, 1, (FIRST_INPUT, SECOND_INPUT, DERIVED))
    with pytest.raises(ValidationError, match="two of the radicands"):
        classify_biquadratic_type(p)


def test_canonicalize_biquadratic_pinned_examples():
    p = canonicalize_biquadratic(5, -2)
    assert (p.m, p.n, p.k, p.d) == (5, -2, -10, 1)
    assert classify_biquadratic_type(p) == "second"
    assert p.origins == (FIRST_INPUT, SECOND_INPUT, DERIVED)

    p = canonicalize_biquadratic(-3, -7)
    assert (p.m, p.n, p.k, p.d) == (-3, -7, 21, 1)
    assert classify_biquadratic_type(p) == "third"

    p = canonicalize_biquadratic(2, 3)
    assert (p.m, p.n, p.k, p.d) == (3, 2, 6, 1)
    assert classify_biquadratic_type(p) == "first"
    assert p.origins == (SECOND_INPUT, FIRST_INPUT, DERIVED)


def test_canonicalize_biquadratic_with_shared_factor():
    p = canonicalize_biquadratic(5, 15)
    assert p.d == 5 and p.m * p.n == p.d * p.d * p.k
    assert set(p.radicands) == {5, 15, 3}


def test_canonicalize_biquadratic_rejections():
    with pytest.raises(NotSquarefreeError):
        canonicalize_biquadratic(4, 3)
    with pytest.raises(DegenerateProductError):
        canonicalize_biquadratic(1, 5)
    with pytest.raises(DegenerateProductError):
        canonicalize_biquadratic(5, 5)
    with pytest.raises(DegenerateProductError):
        canonicalize_biquadratic(0, 7)


valid_radicand = st.integers(-40, 40).filter(
    lambda v: v not in (0, 1) and naive_squarefree(v)
)

# Every prime below 40, so that small radicands share factors, and large primes
# whose products reach the domain edge |v| <= SQUAREFREE_LIMIT.
EDGE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 65537, 999983, 1000003,
               999999937, 1000000007, 999999999959, 999999999989)


def _product_within_limit(primes: list[int]) -> int:
    value = 1
    for q in primes:
        if value * q <= SQUAREFREE_LIMIT:
            value *= q
    return value


def squarefree_over_edge_primes(v: int) -> bool:
    """Whether v is +-1 times a product of distinct EDGE_PRIMES."""
    for q in EDGE_PRIMES:
        if v % q == 0:
            v //= q
            if v % q == 0:
                return False
    return abs(v) == 1


# Signed products of distinct primes up to SQUAREFREE_LIMIT, beside the small grid.
radicand = st.one_of(valid_radicand, st.builds(
    lambda sign, primes: sign * _product_within_limit(primes),
    st.sampled_from((1, -1)),
    st.lists(st.sampled_from(EDGE_PRIMES), min_size=1, max_size=6, unique=True),
))


@given(radicand, radicand)
@settings(max_examples=200)
def test_canonicalize_biquadratic_structure(m_in, n_in):
    if m_in == n_in:
        return
    p = canonicalize_biquadratic(m_in, n_in)
    assert p.d > 0 and p.m % p.d == 0 and p.n % p.d == 0
    assert p.m * p.n == p.d * p.d * p.k
    assert sorted(p.origins) == sorted((FIRST_INPUT, SECOND_INPUT, DERIVED))
    assert {m_in, n_in} <= set(p.radicands)
    for v in p.radicands:
        assert squarefree_over_edge_primes(v)
    kind = classify_biquadratic_type(p)
    residues = [v % 4 for v in p.radicands]
    if kind == "first":
        assert residues == [3, 2, 2]
    elif kind == "second":
        assert residues[0] == 1 and set(residues[1:]) <= {2, 3}
    else:
        assert residues == [1, 1, 1]


@given(radicand, radicand)
@settings(max_examples=120)
def test_canonicalize_biquadratic_exchange_symmetry(m_in, n_in):
    if m_in == n_in:
        return
    p = canonicalize_biquadratic(m_in, n_in)
    q = canonicalize_biquadratic(n_in, m_in)
    assert set(p.radicands) == set(q.radicands)
    kind = classify_biquadratic_type(p)
    assert kind == classify_biquadratic_type(q)
    if kind != "third":  # third type keeps input order by design
        assert p.m == q.m  # the lead radicand is fixed by its residue mod 4


# ---- biquadratic integral bases ----

def test_integral_basis_biquadratic_pinned_rows():
    h, q = Fraction(1, 2), Fraction(1, 4)
    first = integral_basis_biquadratic(canonicalize_biquadratic(2, 3))
    assert first[3] == [0, 0, h, h]
    second = integral_basis_biquadratic(canonicalize_biquadratic(5, -2))
    assert second[1] == [h, h, 0, 0]
    third = integral_basis_biquadratic(canonicalize_biquadratic(-3, -7))
    assert third[3] == [q, q, Fraction(-3, 4), q]


def test_biquadratic_descriptor_determinants():
    expected = {
        "first": (canonicalize_biquadratic(2, 3), Fraction(1, 2)),
        "second": (canonicalize_biquadratic(5, -2), Fraction(1, 4)),
        "third": (canonicalize_biquadratic(-3, -7), Fraction(1, 16)),
    }
    for kind, (p, value) in expected.items():
        assert classify_biquadratic_type(p) == kind
        assert det(integral_basis_biquadratic(p)) == value


@given(valid_radicand, valid_radicand)
@settings(max_examples=120)
def test_descriptor_determinant_is_inverse_power_of_two(m_in, n_in):
    if m_in == n_in:
        return
    p = canonicalize_biquadratic(m_in, n_in)
    value = det(integral_basis_biquadratic(p))
    assert value != 0
    assert abs(value.numerator) == 1
    assert value.denominator & (value.denominator - 1) == 0  # power of two
