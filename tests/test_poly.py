"""Polynomial ring: arithmetic laws, ordering, exact division, JSON."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite.errors import DimensionMismatch, InexactDivision
from dunkl_hermite.poly import (Polynomial, compose_linear, dim_homogeneous,
                                divide_by_linear_form, monomial_basis, parse_rational,
                                rational_str)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=8)


def poly_strategy(m: int, max_deg: int = 3):
    exponent = st.tuples(*[st.integers(min_value=0, max_value=max_deg)] * m)
    return st.dictionaries(exponent, rationals, max_size=5).map(
        lambda terms: Polynomial(m, terms))


def test_rational_strings_round_trip():
    assert rational_str(Fraction(3, 2)) == "3/2"
    assert rational_str(Fraction(-4)) == "-4/1"
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-4/1") == Fraction(-4)
    assert parse_rational("7") == Fraction(7)


def test_zero_terms_are_dropped():
    p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p.coefficient((0, 1)) == 2
    assert not Polynomial(2, {})
    assert Polynomial.zero(2).total_degree() is None


def test_monomial_basis_descending_deglex():
    assert monomial_basis(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert dim_homogeneous(2, 2) == 3
    assert dim_homogeneous(3, 4) == 15


def test_sorted_terms_largest_first():
    p = Polynomial(2, {(0, 2): Fraction(1), (2, 0): Fraction(5), (1, 1): Fraction(-2)})
    assert [e for e, _ in p.sorted_terms()] == [(2, 0), (1, 1), (0, 2)]
    assert p.leading_term() == ((2, 0), Fraction(5))
    assert str(p) == "5*x1^2 - 2*x1*x2 + x2^2"


@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero(2)


@given(poly_strategy(2))
@settings(max_examples=40, deadline=None)
def test_multiplicative_identity_and_power(p):
    one = Polynomial.constant(2, Fraction(1))
    assert p * one == p
    assert p ** 2 == p * p
    assert p ** 0 == one


def test_derivative_and_euler_ingredients():
    p = Polynomial(2, {(3, 1): Fraction(2)})
    assert p.derivative(0) == Polynomial(2, {(2, 1): Fraction(6)})
    assert p.derivative(1) == Polynomial(2, {(3, 0): Fraction(2)})
    assert p.times_variable(0) == Polynomial(2, {(4, 1): Fraction(2)})


def test_homogeneous_components():
    p = Polynomial(2, {(2, 0): Fraction(1), (0, 1): Fraction(3)})
    assert not p.is_homogeneous()
    with pytest.raises(ValueError):
        p.homogeneous_degree()
    parts = dict(p.homogeneous_components())
    assert parts[2] == Polynomial(2, {(2, 0): Fraction(1)})
    assert parts[1] == Polynomial(2, {(0, 1): Fraction(3)})


def test_compose_linear_reflection():
    # substitute x1 -> -x1: odd powers of x1 flip sign
    p = Polynomial(2, {(3, 0): Fraction(1), (2, 1): Fraction(2)})
    matrix = ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert compose_linear(p, matrix) == Polynomial(
        2, {(3, 0): Fraction(-1), (2, 1): Fraction(2)})


def test_compose_linear_swap():
    p = Polynomial(2, {(2, 1): Fraction(1)})
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert compose_linear(p, swap) == Polynomial(2, {(1, 2): Fraction(1)})


def test_divide_by_linear_form_oracle():
    # (x1^3 - x1 x2^2) / (x1) with alpha = (1, 0)
    p = Polynomial(2, {(3, 0): Fraction(1), (1, 2): Fraction(-1)})
    q = divide_by_linear_form(p, (Fraction(1), Fraction(0)))
    assert q == Polynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)})


def test_divide_by_linear_form_inexact():
    p = Polynomial.constant(2, Fraction(1))
    with pytest.raises(InexactDivision):
        divide_by_linear_form(p, (Fraction(1), Fraction(0)))


@given(poly_strategy(2, max_deg=2))
@settings(max_examples=40, deadline=None)
def test_division_inverts_multiplication(p):
    alpha = (Fraction(1), Fraction(-2))
    form = Polynomial(2, {(1, 0): alpha[0], (0, 1): alpha[1]})
    assert divide_by_linear_form(form * p, alpha) == p


def test_json_round_trip_and_order():
    p = Polynomial(2, {(0, 2): Fraction(-4), (2, 0): Fraction(5), (0, 0): Fraction(3, 2)})
    data = p.to_json()
    assert data["m"] == 2
    assert [t["e"] for t in data["terms"]] == [[2, 0], [0, 2], [0, 0]]
    assert data["terms"][0]["c"] == "5/1"
    assert Polynomial.from_json(data) == p


def test_dimension_mismatch_names_both():
    p = Polynomial(2, {(1, 0): Fraction(1)})
    q = Polynomial(3, {(1, 0, 0): Fraction(1)})
    with pytest.raises(DimensionMismatch) as info:
        p + q
    assert "2" in str(info.value) and "3" in str(info.value)


def test_norm_squared():
    assert Polynomial.norm_squared(3) == Polynomial(
        3, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)})


# -- every ring op against a plain dict reference written here ----------------

unit_or_fraction = st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)]) | rationals
scalars = st.sampled_from([0, 1, -1, 2, Fraction(-1), Fraction(0)]) | rationals
entries = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
matrices = st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)


@st.composite
def term_lists(draw):
    """(exponent, coefficient) pairs in 3 variables with repeated keys, some cancelling a drawn pair."""
    pairs = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3), unit_or_fraction), max_size=6))
    if pairs:
        pairs += [(e, -c) for e, c in draw(st.lists(st.sampled_from(pairs), max_size=3))]
    return pairs


def dict_sum(pairs) -> dict:
    """The pairs added key by key into a dict; the zeros dropped at the end."""
    total = {}
    for e, c in pairs:
        total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c != 0}


def shifted(e, axis, by):
    return e[:axis] + (e[axis] + by,) + e[axis + 1:]


def composed(pairs, matrix) -> dict:
    """Each term times one row's linear form per unit of its exponent, multiplied out in dicts."""
    out = []
    for e, c in pairs:
        expansion = {(0, 0, 0): c}
        for j, n in enumerate(e):
            for _ in range(n):
                expansion = dict_sum((shifted(f, k, 1), v * a) for f, v in expansion.items()
                                     for k, a in enumerate(matrix[j]))
        out += expansion.items()
    return dict_sum(out)


def assert_terms(p: Polynomial, expected: dict) -> None:
    assert p.terms == expected
    assert all(type(c) is Fraction for c in p.terms.values())


@given(term_lists(), term_lists(), scalars, st.integers(0, 2), matrices)
@settings(max_examples=200, deadline=None)
def test_ring_ops_equal_a_dict_reference(a, b, scalar, axis, matrix):
    p, q = Polynomial(3, a), Polynomial(3, b)
    assert_terms(p, dict_sum(a))
    assert_terms(p + q, dict_sum(a + b))
    assert_terms(p - q, dict_sum(a + [(e, -c) for e, c in b]))
    assert_terms(p - p, {})
    assert_terms(-p, dict_sum((e, -c) for e, c in a))
    assert_terms(p * scalar, dict_sum((e, scalar * c) for e, c in a))
    assert_terms(scalar * p, dict_sum((e, scalar * c) for e, c in a))
    assert_terms(p * q, dict_sum((tuple(x + y for x, y in zip(e, f)), c * d) for e, c in a for f, d in b))
    assert_terms(p.derivative(axis), dict_sum((shifted(e, axis, -1), e[axis] * c) for e, c in a if e[axis]))
    assert_terms(p.times_variable(axis), dict_sum((shifted(e, axis, 1), c) for e, c in a))
    assert_terms(compose_linear(p, matrix), composed(a, matrix))
