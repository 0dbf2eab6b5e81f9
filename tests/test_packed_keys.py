"""Packed monomial keys: the layout and its order, and every map that moves a key against its exponent-tuple
form in tests/reference_operators.py, exactly."""
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_hermite.clifford import CliffordPolynomial, _diracs, vector_multiply
from dunkl_hermite.groups import builtin_root_system, root_system_from_json, trivial_root_system
from dunkl_hermite.hermite import harmonic_basis
from dunkl_hermite.operators import DunklContext, _leibniz_chain, _orbit_entry, _shifts, conjugated_laplacian
from dunkl_hermite.poly import (_BITS, MAX_DEGREE, Polynomial, _exponents, _keys, _steps, _units, accumulate,
                                linear_extension, monomial_basis, monomial_keys)

from reference_operators import (clifford_product_reference, clifford_terms, clifford_tuple_block,
                                 conjugated_laplacian_reference, deglex_key, derivative_reference,
                                 dirac_image_reference, fractions_of, leibniz_chain_reference, norm_squared_reference,
                                 product_reference, times_variable_reference, tuple_block, vector_map_reference)
from test_dunkl_map import Pinned, f4_json, g2_json

coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=7)
kappa = st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5)

# name -> (number of kappas, builder from the kappas); m <= 5 throughout
SYSTEMS = {
    "z2^3": (3, lambda k: builtin_root_system("z2", 3, k)),
    "a3": (1, lambda k: builtin_root_system("a", 3, k)),
    "b3": (2, lambda k: builtin_root_system("b", 3, k)),
    "G2": (2, lambda k: root_system_from_json(g2_json(*k))),
    "F4": (2, lambda k: root_system_from_json(f4_json(*k))),
}


def exponents(m, max_degree=4):
    return st.lists(st.integers(0, m - 1), max_size=max_degree).map(lambda axes: tuple(axes.count(i) for i in range(m)))


def polynomials(m, max_degree=4, max_terms=5):
    return st.dictionaries(exponents(m, max_degree), coefficient, max_size=max_terms).map(lambda t: Polynomial(m, t))


@st.composite
def contexts(draw):
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    count, build = SYSTEMS[name]
    return name, DunklContext(build([draw(kappa) for _ in range(count)]))


@st.composite
def cliffords(draw, m, max_degree=3):
    blades = {mask: draw(polynomials(m, max_degree, 3))
              for mask in draw(st.lists(st.integers(0, (1 << m) - 1), max_size=3, unique=True))}
    return CliffordPolynomial(m, blades)


# -- the layout ----------------------------------------------------------------

@given(st.integers(1, 5).flatmap(lambda m: st.tuples(exponents(m, 8), exponents(m, 8))))
@settings(max_examples=300, deadline=None)
def test_key_order_is_deglex_order_and_keys_add(pair):
    a, b = pair
    ka, kb = _keys([a, b])
    assert (ka < kb) == (deglex_key(a) < deglex_key(b))
    assert (ka == kb) == (a == b)
    assert ka + kb == _keys([tuple(x + y for x, y in zip(a, b))])[0]
    m = len(a)
    assert ka == sum(a) << _BITS * m | sum(x << _BITS * (m - 1 - i) for i, x in enumerate(a))
    assert _exponents(m, [ka, kb]) == [a, b]


def test_the_fields_hold_the_cap():
    corners = [(MAX_DEGREE, 0, 0), (0, MAX_DEGREE, 0), (0, 0, MAX_DEGREE), (1, MAX_DEGREE - 2, 1), (0, 0, 0)]
    keys = _keys(corners)
    assert _exponents(3, keys) == corners
    assert sorted(keys, reverse=True) == _keys(sorted(corners, key=deglex_key, reverse=True))
    for m in range(1, 6):
        for d in range(4):
            keys = monomial_keys(m, d)
            assert keys == tuple(_keys(monomial_basis(m, d)))
            assert list(keys) == sorted(keys, reverse=True)  # deg-lex largest first, as monomial_basis


def test_the_enumeration_equals_a_filter_of_every_tuple():
    """monomial_basis and monomial_keys against every tuple of range(degree + 1)^m of the degree, reverse-sorted:
    within one degree, deg-lex largest first is lexicographic largest first."""
    for m in range(1, 7):
        for d in range(-1, 9):
            expected = sorted((e for e in product(range(d + 1), repeat=m) if sum(e) == d), reverse=True)
            assert monomial_basis(m, d) == tuple(expected)
            assert monomial_keys(m, d) == tuple(_keys(expected))


def test_the_enumeration_reaches_the_cap_and_refuses_one_past_it():
    keys = monomial_keys(2, MAX_DEGREE)
    assert len(keys) == MAX_DEGREE + 1
    assert _exponents(2, keys[:2] + keys[-1:]) == [(MAX_DEGREE, 0), (MAX_DEGREE - 1, 1), (0, MAX_DEGREE)]
    for enumeration in (monomial_keys, monomial_basis):
        with pytest.raises(ValueError, match=rf"degree {MAX_DEGREE + 1} is past the degree cap {MAX_DEGREE}"):
            enumeration(1, MAX_DEGREE + 1)


def shift_decode(m, keys):
    """The exponent tuples by one shift of the whole key per field: O(m^2) a key."""
    shifts = range(_BITS * (m - 1), -1, -_BITS)
    return [tuple(key >> s & (1 << _BITS) - 1 for s in shifts) for key in keys]


def test_the_byte_decode_equals_the_shift_decode():
    """_exponents reads each key's bytes; every field, from 0 to MAX_DEGREE, and m up to the CLI's 1,200."""
    for m in range(1, 7):
        for d in range(9):
            keys = monomial_keys(m, d)
            assert _exponents(m, keys) == shift_decode(m, keys)
        corners = [tuple(MAX_DEGREE if i == j else 0 for i in range(m)) for j in range(m)]
        corners.append((MAX_DEGREE - m + 1,) + (1,) * (m - 1))
        keys = _keys(corners)
        assert _exponents(m, keys) == shift_decode(m, keys) == corners
    keys = monomial_keys(1200, 1)
    assert _exponents(1200, keys) == shift_decode(1200, keys)
    assert _exponents(1200, keys[-1:]) == [(0,) * 1199 + (1,)]


def test_a_harmonic_basis_in_1200_variables():
    """Degree 1 in m = 1,200, the CLI's dimension cap: the enumeration holds no recursion per variable."""
    assert len(harmonic_basis(DunklContext(trivial_root_system(1200)), 1).elements) == 1200


# -- ring operations -------------------------------------------------------------

@given(st.integers(1, 5).flatmap(lambda m: st.tuples(polynomials(m), polynomials(m), st.integers(0, m - 1))))
@settings(max_examples=200, deadline=None)
def test_ring_maps_equal_their_tuple_forms(case):
    p, q, axis = case
    assert (p * q).terms == product_reference(p, q)
    assert p.derivative(axis).terms == derivative_reference(p, axis)
    assert p.times_variable(axis).terms == times_variable_reference(p, axis)
    assert linear_extension(p.m, [(1, p._block, _shifts(p))]).terms == fractions_of(accumulate([
        (1, tuple_block(p), norm_squared_reference)]))


@given(st.integers(1, 5).flatmap(lambda m: st.tuples(cliffords(m), cliffords(m))))
@settings(max_examples=150, deadline=None)
def test_clifford_maps_equal_their_tuple_forms(case):
    F, G = case
    assert clifford_terms(F * G) == clifford_product_reference(F, G)
    assert clifford_terms(vector_multiply(F)) == fractions_of(accumulate([
        (1, clifford_tuple_block(F), vector_map_reference(F.m))]))


# -- the memo --------------------------------------------------------------------

@given(contexts(), st.data())
@settings(max_examples=40, deadline=None)
def test_leibniz_chains_equal_their_tuple_form(case, data):
    name, ctx = case
    m = ctx.m
    e = data.draw(exponents(m, 4).filter(any))
    key = _keys([e])[0]
    ctx._images[key]  # makes the entries of the context's orbits, which hold the chain set-ups
    units = _units(m)
    steps = [j for j, n in enumerate(e) for _ in range(n)]
    assert _steps(m, key) == steps
    for s, rows, firsts, _ in (chain for _, geometry in ctx._orbits for chain in _orbit_entry(geometry).chains):
        by_axis = tuple(tuple((units.index(unit), a) for unit, a in row) for row in rows)
        packed = _leibniz_chain(key, steps, s, rows, firsts, units)
        assert dict(zip(_exponents(m, packed), packed.values())) == leibniz_chain_reference(
            steps, s, by_axis, firsts), (name, e)


@given(contexts(), st.data())
@settings(max_examples=40, deadline=None)
def test_dirac_images_equal_their_tuple_form(case, data):
    name, ctx = case
    m = ctx.m
    mask, e = data.draw(st.integers(0, (1 << m) - 1)), data.draw(exponents(m, 3))
    den, terms = _diracs(ctx)[_keys([e])[0] << m | mask]
    low = (1 << m) - 1
    packed = {(k & low, f): Fraction(v, den) for (k, v), f in zip(terms, _exponents(m, [k >> m for k, _ in terms]))}
    assert packed == fractions_of(dirac_image_reference(ctx, (mask, e))), (name, mask, e)


@given(contexts(), st.data())
@example(("a3", DunklContext(builtin_root_system("a", 3, [Fraction(1, 2)]))),
         Pinned({"f": Polynomial(3, {(2, 1, 0): 1, (0, 0, 1): Fraction(-3, 2)}), "rate": Fraction(-1, 2)}))
@settings(max_examples=30, deadline=None)
def test_conjugated_laplacian_equals_the_intermediate_polynomials(case, data):
    """One accumulation per axis, then one of the second applications, against m intermediate polynomials."""
    name, ctx = case
    f = data.draw(polynomials(ctx.m, 4, 4), label="f")
    rate = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=4), label="rate")
    assert conjugated_laplacian(ctx, rate, f) == conjugated_laplacian_reference(ctx, rate, f), name
