"""The integer layout of Polynomial and CliffordPolynomial: one positive denominator over nonzero integer
numerators with gcd 1, so that equality is equality of the Fraction terms; and the ring operations against
a Fraction dict reference written here, sharing no code with the package."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite.clifford import CliffordPolynomial
from dunkl_hermite.poly import Polynomial, _exponents

scalars = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=12)
nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool)


@st.composite
def term_lists(draw, keys):
    """Terms over a few keys, so that keys repeat; zero coefficients, and pairs that cancel."""
    pool = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), scalars), max_size=6))
    for key, c in draw(st.lists(st.tuples(st.sampled_from(pool), nonzero), max_size=2)):
        terms += [(key, c), (key, -c)]
    return draw(st.permutations(terms))


def exponents(m):
    return st.tuples(*[st.integers(0, 2)] * m)


def dict_sum(terms) -> dict:
    total = {}
    for key, c in terms:
        total[key] = total.get(key, 0) + Fraction(c)
    return {key: c for key, c in total.items() if c}


def assert_canonical(den, nums) -> None:
    assert type(den) is int and den > 0
    assert all(type(v) is int and v for v in nums.values())
    assert gcd(den, *nums.values()) == 1
    assert nums or den == 1


@st.composite
def polynomial_pairs(draw):
    m = draw(st.integers(1, 4))
    a, b = draw(term_lists(exponents(m))), draw(term_lists(exponents(m)))
    if draw(st.booleans()):  # b: a's terms, in another order, each split in two, plus a cancelling pair
        b = [(e, h) for e, c in a for h in (Fraction(c, 2), c - Fraction(c, 2))] + b + [(e, -c) for e, c in b]
        b = draw(st.permutations(b))
    return m, a, b


@given(polynomial_pairs(), scalars)
@settings(max_examples=300, deadline=None)
def test_polynomial_layout_and_ring_operations(case, scalar):
    m, a, b = case
    p, q = Polynomial(m, a), Polynomial(m, b)
    for r in (p, q, p + q, p - q, p * q, p * scalar, scalar * p, p - p):
        assert_canonical(r._den, r._nums)
        assert r.terms == {e: Fraction(n, r._den) for e, n in zip(_exponents(m, r._nums), r._nums.values())}
    assert (p == q) == (p.terms == q.terms)
    assert (p == q) == (dict_sum(a) == dict_sum(b))
    assert p.terms == dict_sum(a)
    assert (p + q).terms == dict_sum(a + b)
    assert (p - q).terms == dict_sum(a + [(e, -c) for e, c in b])
    assert (p * scalar).terms == (scalar * p).terms == dict_sum((e, scalar * c) for e, c in a)
    assert (p * q).terms == dict_sum((tuple(x + y for x, y in zip(e, f)), c * d) for e, c in a for f, d in b)
    assert (p - p).terms == {} and (p - p)._den == 1


def blade_sign(a: int, b: int) -> int:
    """Sign of e_A e_B in Cl(0, m), generators in ascending order: every generator j of B passes the
    generators i > j of A, and every shared generator squares to -1."""
    swaps = sum(1 for j in range(8) if b >> j & 1 for i in range(j + 1, 8) if a >> i & 1)
    return (-1) ** (swaps + bin(a & b).count("1"))


def clifford_terms(F: CliffordPolynomial) -> dict:
    """F as {(mask, exponent): Fraction}, read through its blades."""
    return {(mask, e): c for mask, p in F.blades.items() for e, c in p.terms.items()}


def clifford(m, terms) -> CliffordPolynomial:
    """The element of the (mask, exponent) terms, given to the constructor blade by blade."""
    blades = {}
    for (mask, e), c in terms:
        blades.setdefault(mask, []).append((e, c))
    return CliffordPolynomial(m, {mask: Polynomial(m, t) for mask, t in blades.items()})


@st.composite
def clifford_pairs(draw):
    m = draw(st.integers(1, 4))
    keys = st.tuples(st.integers(0, (1 << m) - 1), exponents(m))
    a, b = draw(term_lists(keys)), draw(term_lists(keys))
    if draw(st.booleans()):
        b = [(k, h) for k, c in a for h in (Fraction(c, 3), c - Fraction(c, 3))] + b + [(k, -c) for k, c in b]
    return m, a, b


@given(clifford_pairs(), scalars)
@settings(max_examples=300, deadline=None)
def test_clifford_layout_and_ring_operations(case, scalar):
    m, a, b = case
    F, G = clifford(m, a), clifford(m, b)
    for R in (F, G, F + G, F - G, F * G, F * scalar, scalar * F, F - F):
        assert_canonical(R._den, R._nums)
    assert (F == G) == (clifford_terms(F) == clifford_terms(G))
    assert (F == G) == (dict_sum(a) == dict_sum(b))
    assert clifford_terms(F) == dict_sum(a)
    assert clifford_terms(F + G) == dict_sum(a + b)
    assert clifford_terms(F - G) == dict_sum(a + [(k, -c) for k, c in b])
    assert clifford_terms(F * scalar) == clifford_terms(scalar * F) == dict_sum((k, scalar * c) for k, c in a)
    assert clifford_terms(F * G) == dict_sum(
        ((A ^ B, tuple(x + y for x, y in zip(e, f))), blade_sign(A, B) * c * d) for (A, e), c in a for (B, f), d in b)
    assert clifford_terms(F - F) == {} and (F - F)._den == 1


@st.composite
def mixed_pairs(draw):
    m = draw(st.integers(1, 3))
    a = draw(term_lists(exponents(m)))
    b = draw(term_lists(st.tuples(st.integers(0, (1 << m) - 1), exponents(m))))
    return m, a, b


@given(mixed_pairs())
@settings(max_examples=100, deadline=None)
def test_polynomial_and_clifford_elements_keep_their_types(case):
    """The ring core both element types share refuses an operand of the other type in == + and -, while a
    polynomial times a Clifford element is its scalar blade times it, from either side."""
    m, a, b = case
    p, G = Polynomial(m, a), clifford(m, b)
    F = CliffordPolynomial.from_polynomial(p)
    assert (p == F) is False and (F == p) is False
    for left, right in ((p, F), (F, p)):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right
    assert p * G == G * p == F * G
