"""Dunkl operators: derivatives, Laplacian, sl2, conjugation, heat flow."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_hermite.errors import DimensionMismatch, MathPrecondition
from dunkl_hermite.groups import builtin_root_system, trivial_root_system
from dunkl_hermite.hermite import fischer_project
from dunkl_hermite.operators import (DunklContext, WeightedFunction, conjugated_dunkl,
                                     conjugated_laplacian, d_plus_squared_form, degree_weighted, dunkl_derivative,
                                     dunkl_laplacian, euler_operator, heat_semigroup, hermite_shift,
                                     laplace_beltrami, multiply_by_norm_squared, radial_tower, sl2_e, sl2_f,
                                     sl2_h, spherical_shift)
from dunkl_hermite.poly import MAX_DEGREE, Polynomial, monomial_basis

from test_dunkl_map import SYSTEMS, Pinned
from test_hermite import fischer_project_by_composition


def ctx_z2(m, kappas):
    return DunklContext(builtin_root_system("z2", m, kappas))


def test_dunkl_derivative_on_the_line():
    ctx = ctx_z2(1, [1])
    x3 = Polynomial.monomial(1, (3,))
    # derivative part 3x^2 plus difference part 2x^2
    assert dunkl_derivative(ctx, 0, x3) == Polynomial(1, {(2,): Fraction(5)})
    assert dunkl_laplacian(ctx, x3) == Polynomial(1, {(1,): Fraction(10)})


def test_dunkl_derivative_even_function_matches_classical():
    ctx = ctx_z2(1, [Fraction(5, 2)])
    x4 = Polynomial.monomial(1, (4,))
    assert dunkl_derivative(ctx, 0, x4) == Polynomial(1, {(3,): Fraction(4)})


def test_dunkl_derivative_swap_group():
    # single root e1 - e2: T_1 x1 = 1 + kappa
    ctx = DunklContext(builtin_root_system("a", 2, [Fraction(1, 3)]))
    x1 = Polynomial.variable(2, 0)
    assert dunkl_derivative(ctx, 0, x1) == Polynomial.constant(2, Fraction(4, 3))


def test_kappa_zero_reduces_to_partial_derivative():
    ctx = ctx_z2(2, [0, 0])
    for degree in range(5):
        for e in monomial_basis(2, degree):
            p = Polynomial.monomial(2, e)
            for axis in range(2):
                assert dunkl_derivative(ctx, axis, p) == p.derivative(axis)


def test_dunkl_operators_commute_spot_check():
    ctx = DunklContext(builtin_root_system("b", 2, [Fraction(1, 2), Fraction(2, 3)]))
    for degree in range(5):
        for e in monomial_basis(2, degree):
            p = Polynomial.monomial(2, e)
            assert (dunkl_derivative(ctx, 0, dunkl_derivative(ctx, 1, p))
                    == dunkl_derivative(ctx, 1, dunkl_derivative(ctx, 0, p)))


def test_laplacian_of_norm_squared_is_two_mu():
    for family, m, kappas in (("z2", 2, [1, 1]), ("b", 2, [1, 2]), ("a", 3, [1])):
        ctx = DunklContext(builtin_root_system(family, m, kappas))
        expected = Polynomial.constant(m, 2 * ctx.mu)
        assert dunkl_laplacian(ctx, Polynomial.norm_squared(m)) == expected


def test_euler_operator_scales_by_degree():
    p = Polynomial(2, {(2, 1): Fraction(4), (1, 0): Fraction(-1)})
    assert euler_operator(p) == Polynomial(2, {(2, 1): Fraction(12), (1, 0): Fraction(-1)})


def test_sl2_relations_on_monomials():
    ctx = DunklContext(builtin_root_system("b", 2, [Fraction(3, 4), Fraction(1, 2)]))
    for degree in range(5):
        for e in monomial_basis(2, degree):
            f = Polynomial.monomial(2, e)
            assert sl2_h(ctx, sl2_e(f)) - sl2_e(sl2_h(ctx, f)) == 2 * sl2_e(f)
            assert sl2_h(ctx, sl2_f(ctx, f)) - sl2_f(ctx, sl2_h(ctx, f)) == -2 * sl2_f(ctx, f)
            assert sl2_e(sl2_f(ctx, f)) - sl2_f(ctx, sl2_e(f)) == sl2_h(ctx, f)


def test_radial_commutation_lemma():
    ctx = DunklContext(builtin_root_system("a", 3, [Fraction(1, 2)]))
    mu = ctx.mu
    norm2 = Polynomial.norm_squared(3)
    for ell, e in ((2, (2, 0, 0)), (3, (1, 1, 1))):
        R = Polynomial.monomial(3, e)
        for s in (1, 2):
            lhs = dunkl_laplacian(ctx, (norm2 ** s) * R)
            factor = 2 * s * (2 * ell + mu + 2 * s - 2)
            rhs = factor * ((norm2 ** (s - 1)) * R) + (norm2 ** s) * dunkl_laplacian(ctx, R)
            assert lhs == rhs


def test_laplace_beltrami_annihilates_constants_and_eigenvalue():
    ctx = ctx_z2(2, [1, 2])
    mu = ctx.mu
    one = Polynomial.constant(2, Fraction(1))
    assert laplace_beltrami(ctx, one) == Polynomial.zero(2)
    # x1 x2 is Dunkl-harmonic for Z2 x Z2; eigenvalue -ell(mu - 2 + ell), ell = 2
    h = Polynomial.monomial(2, (1, 1))
    assert laplace_beltrami(ctx, h) == (-2 * (mu - 2 + 2)) * h


LB_CONTEXTS = {
    "z2^1": (1, 1, lambda k: builtin_root_system("z2", 1, k)),
    "z2^2": (2, 2, lambda k: builtin_root_system("z2", 2, k)),
    "a3": (3, 1, lambda k: builtin_root_system("a", 3, k)),
    "b2": (2, 2, lambda k: builtin_root_system("b", 2, k)),
    "d4": (4, 1, lambda k: builtin_root_system("d", 4, k)),
    "trivial3": (3, 0, lambda k: trivial_root_system(3)),
}


@st.composite
def context_and_polynomial(draw):
    """A context with drawn multiplicities and a random polynomial mixing degrees 0-4."""
    name = draw(st.sampled_from(sorted(LB_CONTEXTS)))
    m, nk, build = LB_CONTEXTS[name]
    kappas = draw(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4),
                           min_size=nk, max_size=nk))
    exponent = st.lists(st.integers(0, m - 1), max_size=4).map(
        lambda axes: tuple(axes.count(i) for i in range(m)))
    terms = draw(st.dictionaries(exponent, st.fractions(min_value=-5, max_value=5, max_denominator=6),
                                 max_size=6))
    return name, DunklContext(build(kappas)), Polynomial(m, terms)


def dense(m, degrees):
    """Every monomial of the given degrees in m variables, with distinct nonzero coefficients."""
    exponents = [e for d in degrees for e in monomial_basis(m, d)]
    return Polynomial(m, {e: Fraction((-1) ** k * (k + 1), k % 4 + 1) for k, e in enumerate(exponents)})


def pinned_b2():
    """An @example case: b2 at kappas 1/2, 3/4 and a dense polynomial of degrees 0-4, a fresh context per test, so
    that a wrong operator fails on it before any search or shrink."""
    return "b2", DunklContext(builtin_root_system("b", 2, [Fraction(1, 2), Fraction(3, 4)])), dense(2, range(5))


@given(context_and_polynomial())
@example(case=pinned_b2())
@settings(max_examples=60, deadline=None)
def test_laplace_beltrami_equals_the_two_euler_formula(case):
    """L f = |x|^2 Delta f - (mu - 2) E f - E(E f) exactly, on polynomials of mixed degree."""
    name, ctx, f = case
    ef = euler_operator(f)
    expected = Polynomial.norm_squared(ctx.m) * dunkl_laplacian(ctx, f) - (ctx.mu - 2) * ef - euler_operator(ef)
    assert laplace_beltrami(ctx, f) == expected, (name, f)


def euler_by_products(f):
    """E f = sum_i x_i d_i f, through generic products only."""
    out = Polynomial.zero(f.m)
    for i in range(f.m):
        out = out + Polynomial.variable(f.m, i) * f.derivative(i)
    return out


# ell and n of the shifted eigen-operators: the paper's nonnegative integers, and negative and non-integer
# values, whose numerator and denominator the integer degree weights expand by hand
shift_argument = st.one_of(st.integers(min_value=0, max_value=5),
                           st.sampled_from([-1, -3, Fraction(5, 2), Fraction(-5, 3), Fraction(1, 6)]))


@given(context_and_polynomial(), st.integers(min_value=0, max_value=3), shift_argument, shift_argument)
@example(case=pinned_b2(), n=2, ell=2, shift=Fraction(-5, 3))
@settings(max_examples=60, deadline=None)
def test_radial_and_euler_maps_equal_their_product_formulas(case, n, ell, shift):
    """The |x|^2 shift, the radial tower, every function of E and the two shifted eigen-operators
    against the formulas they replace, written with generic products of |x|^2 and x_i."""
    name, ctx, f = case
    norm2, mu = Polynomial.norm_squared(ctx.m), ctx.mu
    assert multiply_by_norm_squared(f) == norm2 * f, (name, f)
    tower = radial_tower(f, n)
    assert len(tower) == n + 1
    for k, layer in enumerate(tower):
        assert layer == norm2 ** k * f, (name, f, k)
    ef, lf = euler_by_products(f), dunkl_laplacian(ctx, f)
    assert euler_operator(f) == ef, (name, f)
    assert sl2_h(ctx, f) == ef + (mu / 2) * f, (name, f)
    assert laplace_beltrami(ctx, f) == norm2 * lf - (mu - 2) * ef - euler_by_products(ef), (name, f)
    assert d_plus_squared_form(ctx, f) == -lf - 4 * (norm2 * f) + 2 * (2 * ef + mu * f), (name, f)
    assert (spherical_shift(ctx, f, ell)
            == norm2 * lf - (mu - 2) * ef - euler_by_products(ef) + ell * (mu - 2 + ell) * f), (name, f, ell)
    assert hermite_shift(ctx, f, shift) == lf - 2 * ef + (2 * shift) * f, (name, f, shift)


def spherical_by_composition(ctx, f, ell, scale=1):
    """scale (L + ell(mu - 2 + ell)) f as |x|^2 times the Laplacian less degree_weighted's Fraction weights."""
    weight = lambda d: (d - ell) * (ctx.mu - 2 + d + ell)
    return (multiply_by_norm_squared(dunkl_laplacian(ctx, f)) - degree_weighted(f, weight)) * scale


@given(context_and_polynomial(), shift_argument, st.sampled_from([1, -1, Fraction(2, 7), Fraction(-5, 3)]))
@example(case=pinned_b2(), ell=Fraction(5, 2), scale=Fraction(2, 7))
@settings(max_examples=60, deadline=None)
def test_spherical_shift_equals_its_composition(case, ell, scale):
    """The scaled shift against the composition it replaces: |x|^2 times the Laplacian, less the degree
    weights, then times the scale as a pass of its own."""
    name, ctx, f = case
    expected = spherical_by_composition(ctx, f, ell, scale)
    assert spherical_shift(ctx, f, ell, scale) == expected, (name, f, ell, scale)
    assert spherical_shift(ctx, f, ell) * scale == expected, (name, f, ell)


@pytest.mark.parametrize("name", ["a3", "b3", "G2"])
def test_degree_weights_equal_their_compositions_on_pinned_inputs(name):
    """Each operator with an integer degree weight against degree_weighted's Fraction path, on one dense
    polynomial of degrees 0-4 and kappas 1/2, 3/4: no drawing and no shrinking, so a wrong weight fails at once."""
    m, nk, build = SYSTEMS[name]
    ctx = DunklContext(build([Fraction(1, 2), Fraction(3, 4)][:nk]))
    f, mu = dense(m, range(5)), ctx.mu
    lf, norm2f = dunkl_laplacian(ctx, f), multiply_by_norm_squared(f)
    assert sl2_h(ctx, f) == degree_weighted(f, lambda d: d + mu / 2)
    assert d_plus_squared_form(ctx, f) == degree_weighted(f, lambda d: 2 * (2 * d + mu)) - lf - 4 * norm2f
    for n in (4, Fraction(-5, 3)):
        assert hermite_shift(ctx, f, n) == lf - degree_weighted(f, lambda d: 2 * (d - n)), n
    for ell in (2, Fraction(5, 2)):
        assert spherical_shift(ctx, f, ell, Fraction(2, 7)) == spherical_by_composition(ctx, f, ell, Fraction(2, 7))
    top = dense(m, [4])
    for i in range(3):
        assert fischer_project(ctx, i, 4, top) == fischer_project_by_composition(ctx, i, 4, top), i


@pytest.mark.parametrize("name", ["a3", "b3", "G2"])
def test_sl2_e_and_f_carry_their_signed_halves(name):
    """sl2_e is |x|^2 f / 2 and sl2_f is -Delta f / 2 on one dense polynomial, and each refuses what its composition
    refuses.  The sl2 suite cannot see either scale: [H, E] = 2E holds for any multiple of E, and [E, F] = H is
    unchanged when E and F both flip sign."""
    m, nk, build = SYSTEMS[name]
    ctx = DunklContext(build([Fraction(1, 2), Fraction(3, 4)][:nk]))
    f = dense(m, range(5))
    assert sl2_e(f) == multiply_by_norm_squared(f) * Fraction(1, 2)
    assert sl2_f(ctx, f) == dunkl_laplacian(ctx, f) * Fraction(-1, 2)
    top = Polynomial.monomial(m, (MAX_DEGREE - 1,) + (0,) * (m - 1))
    with pytest.raises(ValueError, match=rf"degree {MAX_DEGREE + 1} is past the degree cap"):
        sl2_e(top)
    with pytest.raises(DimensionMismatch, match=rf"polynomial in {m + 1} variables vs context dimension {m}"):
        sl2_f(ctx, dense(m + 1, range(3)))


def test_conjugated_dunkl_adds_multiplication_term():
    ctx = ctx_z2(1, [1])
    x2 = Polynomial.monomial(1, (2,))
    plain = dunkl_derivative(ctx, 0, x2)
    assert conjugated_dunkl(ctx, Fraction(-1), 0, x2) == plain - 2 * Polynomial.monomial(1, (3,))


def test_conjugated_laplacian_on_constants():
    ctx = ctx_z2(2, [Fraction(1, 2), Fraction(1, 2)])
    one = Polynomial.constant(2, Fraction(1))
    # (T_i - 2x_i)^2 applied to 1 gives 4|x|^2 - 2mu
    expected = 4 * Polynomial.norm_squared(2) - Polynomial.constant(2, 2 * ctx.mu)
    assert conjugated_laplacian(ctx, Fraction(-1), one) == expected


@st.composite
def mixed_degree(draw, m):
    """A polynomial with nonzero parts in two different degrees of 0-4."""
    low, high = sorted(draw(st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True)))
    coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    return sum((Polynomial(m, draw(st.dictionaries(st.sampled_from(monomial_basis(m, d)), coefficient,
                                                    min_size=1, max_size=4))) for d in (low, high)),
               Polynomial.zero(m))


def small_mixed(m):
    """x_0^2 x_(m-1) - 3/2 x_1 + 2: parts in degrees 0, 1 and 3."""
    return Polynomial(m, {(2,) + (0,) * (m - 2) + (1,): 1, (0, 1) + (0,) * (m - 2): Fraction(-3, 2), (0,) * m: 2})


# one small input per system, run before any drawn one
SL2_PINNED = Pinned({label: value for name, m, kappas in (("a3", 3, [Fraction(1, 2)]),
                                                          ("b3", 3, [Fraction(1, 2), Fraction(3, 4)]),
                                                          ("z2^2", 2, [Fraction(1, 2), Fraction(3, 4)]),
                                                          ("G2", 3, [Fraction(1, 2), Fraction(3, 4)]))
                     for label, value in ((f"{name} kappas", kappas), (f"{name} p", small_mixed(m)),
                                          (f"{name} a", Fraction(-2, 3)))})


@pytest.mark.parametrize("name", ["a3", "b3", "z2^2", "G2"])
@given(data=st.data())
@example(data=SL2_PINNED)
@settings(max_examples=15, deadline=None)
def test_conjugated_laplacian_is_the_sl2_closed_form(name, data):
    """sum_i (T_i + 2a x_i)^2 = Delta + 2a(2E + mu) + 4a^2 |x|^2 by sum_i (T_i x_i + x_i T_i) = 2E + mu, so at
    a = -1 its negative is the recursion step: the relation hermite-eq's Rodrigues check depends on.  The
    package computes the left side as squared conjugated Dunkl operators, never from this form."""
    m, nk, build = SYSTEMS[name]
    kappas = data.draw(st.lists(st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5),
                                min_size=nk, max_size=nk), label=f"{name} kappas")
    ctx = DunklContext(build(kappas))
    p = data.draw(mixed_degree(m), label=f"{name} p")
    a = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=7), label=f"{name} a")
    closed = (dunkl_laplacian(ctx, p) + (2 * a) * (2 * euler_operator(p) + ctx.mu * p)
              + (4 * a * a) * multiply_by_norm_squared(p))
    assert conjugated_laplacian(ctx, a, p) == closed, (name, kappas, a, p)
    assert -conjugated_laplacian(ctx, Fraction(-1), p) == d_plus_squared_form(ctx, p), (name, kappas, p)


def test_heat_semigroup_on_norm_squared():
    ctx = DunklContext(builtin_root_system("b", 2, [1, 2]))
    result = heat_semigroup(ctx, Polynomial.norm_squared(2))
    assert result == Polynomial.norm_squared(2) - Polynomial.constant(2, ctx.mu / 2)


def test_heat_semigroup_inverse():
    ctx = ctx_z2(2, [1, Fraction(1, 2)])
    for degree in range(7):
        for e in monomial_basis(2, degree):
            p = Polynomial.monomial(2, e)
            cooled = heat_semigroup(ctx, p, Fraction(-1, 4))
            assert heat_semigroup(ctx, cooled, Fraction(1, 4)) == p


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@example(a=3, b=3)  # the top-degree monomial, run before any drawn one
@settings(max_examples=16, deadline=None)
def test_heat_semigroup_additive_in_rate(a, b):
    ctx = ctx_z2(2, [1, 1])
    p = Polynomial.monomial(2, (a, b))
    two_steps = heat_semigroup(ctx, heat_semigroup(ctx, p, Fraction(-1, 8)), Fraction(-1, 8))
    assert two_steps == heat_semigroup(ctx, p, Fraction(-1, 4))


def test_weighted_function_laplacian_of_gaussian():
    ctx = ctx_z2(2, [1, 2])
    gaussian = WeightedFunction(Polynomial.constant(2, Fraction(1)), Fraction(-1, 2))
    result = gaussian.laplacian(ctx)
    assert result.gaussian_rate == Fraction(-1, 2)
    expected = Polynomial.norm_squared(2) - Polynomial.constant(2, ctx.mu)
    assert result.polynomial_part == expected


def test_weighted_function_rate_mismatch():
    a = WeightedFunction(Polynomial.constant(1, Fraction(1)), Fraction(-1, 2))
    b = WeightedFunction(Polynomial.constant(1, Fraction(1)), Fraction(-1, 4))
    with pytest.raises(MathPrecondition):
        a - b
