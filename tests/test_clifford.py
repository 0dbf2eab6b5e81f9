"""Clifford layer: blade products, Dirac operator, monogenics."""
import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite.clifford import (CliffordPolynomial, blade_product, d_plus,
                                    d_plus_squared_scalar, dunkl_dirac, monogenic_basis,
                                    vector_multiply)
from dunkl_hermite.groups import builtin_root_system, root_system_from_json, trivial_root_system
from dunkl_hermite.operators import DunklContext, dunkl_derivative, dunkl_laplacian, euler_operator
from dunkl_hermite.poly import Polynomial, dim_homogeneous, monomial_basis, monomial_keys
from reference_operators import dunkl_dirac_reference
from test_dunkl_map import Marker, collector_off, custom_g2, g2_json, mark_orbit_maps
from test_kernel_bases import dirac_kernel


def classical(m):
    return DunklContext(trivial_root_system(m))


def test_blade_product_signs():
    assert blade_product(0b01, 0b01) == (-1, 0)          # e1 e1 = -1
    assert blade_product(0b01, 0b10) == (1, 0b11)        # e1 e2 = e12
    assert blade_product(0b10, 0b01) == (-1, 0b11)       # e2 e1 = -e12
    assert blade_product(0b11, 0b10) == (-1, 0b01)       # e12 e2 = -e1
    assert blade_product(0b11, 0b11) == (-1, 0)          # e12 e12 = -1
    assert blade_product(0, 0b101) == (1, 0b101)
    assert blade_product(0b101, 0) == (1, 0b101)


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=7))
@settings(max_examples=100, deadline=None)
def test_blade_product_associative(a, b, c):
    s1, ab = blade_product(a, b)
    s2, left = blade_product(ab, c)
    s3, bc = blade_product(b, c)
    s4, right = blade_product(a, bc)
    assert (s1 * s2, left) == (s3 * s4, right)


def test_vector_variable_squares_to_minus_norm():
    for m in (1, 2, 3):
        x = CliffordPolynomial.vector_variable(m)
        assert x * x == CliffordPolynomial.from_polynomial(-Polynomial.norm_squared(m))


def test_clifford_product_mixed_blades():
    x = CliffordPolynomial.vector_variable(2)
    e1 = CliffordPolynomial.unit_blade(2, 0b01)
    product = x * e1
    assert product.blade(0) == -Polynomial.variable(2, 0)
    assert product.blade(0b11) == -Polynomial.variable(2, 1)


def test_dirac_of_vector_variable_classical():
    for m in (2, 3):
        ctx = classical(m)
        x = CliffordPolynomial.vector_variable(m)
        expected = CliffordPolynomial.from_polynomial(Polynomial.constant(m, Fraction(-m)))
        assert dunkl_dirac(ctx, x) == expected


def test_dirac_of_scalar_coordinate_on_the_line():
    ctx = DunklContext(builtin_root_system("z2", 1, [1]))
    x1 = CliffordPolynomial.from_polynomial(Polynomial.variable(1, 0))
    result = dunkl_dirac(ctx, x1)
    assert result.blade(0b01) == Polynomial.constant(1, ctx.mu)
    assert result.blade(0) == Polynomial.zero(1)


def test_dirac_squared_is_minus_laplacian():
    ctx = DunklContext(builtin_root_system("b", 2, [Fraction(1, 2), Fraction(1, 3)]))
    for mask in range(4):
        for degree in range(4):
            for e in monomial_basis(2, degree):
                F = CliffordPolynomial(2, {mask: Polynomial.monomial(2, e)})
                lhs = dunkl_dirac(ctx, dunkl_dirac(ctx, F))
                rhs = F.apply_scalar_operator(lambda p: -dunkl_laplacian(ctx, p))
                assert lhs == rhs


def test_anticommutator_identity():
    ctx = DunklContext(builtin_root_system("a", 3, [Fraction(2, 3)]))
    for mask in (0, 0b001, 0b011, 0b111):
        for e in ((1, 0, 0), (1, 1, 1), (2, 0, 1)):
            F = CliffordPolynomial(3, {mask: Polynomial.monomial(3, e)})
            lhs = dunkl_dirac(ctx, vector_multiply(F)) + vector_multiply(dunkl_dirac(ctx, F))
            rhs = F.apply_scalar_operator(lambda p: -(2 * euler_operator(p) + ctx.mu * p))
            assert lhs == rhs


def test_d_plus_squared_scalar_form():
    ctx = DunklContext(builtin_root_system("z2", 2, [1, 2]))
    for mask in range(4):
        for e in ((0, 0), (1, 0), (2, 1)):
            F = CliffordPolynomial(2, {mask: Polynomial.monomial(2, e)})
            assert d_plus(ctx, d_plus(ctx, F)) == d_plus_squared_scalar(ctx, F)


def test_d_plus_on_constants():
    ctx = classical(2)
    one = CliffordPolynomial.from_polynomial(Polynomial.constant(2, Fraction(1)))
    assert d_plus(ctx, one) == 2 * CliffordPolynomial.vector_variable(2)


def test_monogenic_basis_degree_one_classical():
    ctx = classical(2)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    basis = monogenic_basis(ctx, 1)
    assert basis == [
        CliffordPolynomial(2, {0b01: x2, 0b10: x1}),
        CliffordPolynomial(2, {0b01: x1, 0b10: -x2}),
        CliffordPolynomial(2, {0: x2, 0b11: x1}),
        CliffordPolynomial(2, {0: x1, 0b11: -x2}),
    ]


def test_monogenic_dimension_classical():
    # kernel of the surjective Dirac map on blade-valued homogeneous polynomials
    for m in (2, 3):
        ctx = classical(m)
        for ell in (1, 2, 3):
            expected = (2 ** m) * (dim_homogeneous(m, ell) - dim_homogeneous(m, ell - 1))
            assert len(monogenic_basis(ctx, ell)) == expected


def test_monogenics_are_annihilated_dunkl_case():
    ctx = DunklContext(builtin_root_system("z2", 2, [Fraction(1, 2), Fraction(3, 4)]))
    for ell in (1, 2):
        basis = monogenic_basis(ctx, ell)
        assert basis
        for M in basis:
            assert not dunkl_dirac(ctx, M)


def test_json_round_trip():
    F = CliffordPolynomial(2, {0: Polynomial.variable(2, 0),
                               0b11: -3 * Polynomial.norm_squared(2)})
    data = F.to_json()
    assert [b["mask"] for b in data["blades"]] == [0, 3]
    assert CliffordPolynomial.from_json(data) == F


def test_zero_blades_are_dropped():
    F = CliffordPolynomial(2, {0b01: Polynomial.zero(2)})
    assert not F
    assert F.max_degree() is None


RELABEL_GROUPS = (("z2", 2, 2), ("a", 3, 1), ("b", 2, 2), ("d", 3, 1))


@st.composite
def relabel_cases(draw):
    """A random-kappa context and an element of at most 3 blades and degree <= 3."""
    family, m, orbits = draw(st.sampled_from(RELABEL_GROUPS))
    kappas = [Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3))) for _ in range(orbits)]
    ctx = DunklContext(builtin_root_system(family, m, kappas))
    exponents = [e for d in range(4) for e in monomial_basis(m, d)]
    blades = {}
    for mask in draw(st.lists(st.integers(0, (1 << m) - 1), max_size=3, unique=True)):
        terms = draw(st.dictionaries(st.sampled_from(exponents), st.integers(-3, 3), max_size=3))
        blades[mask] = Polynomial(m, terms)
    return ctx, CliffordPolynomial(m, blades)


@given(relabel_cases())
@settings(max_examples=40, deadline=None)
def test_relabels_match_the_clifford_products(case):
    """D, x and D+ act by blade relabels; each equals the product it replaces."""
    ctx, F = case
    m = ctx.m
    dirac = CliffordPolynomial.zero(m)
    for i in range(m):
        dirac = dirac + CliffordPolynomial.unit_blade(m, 1 << i) * F.apply_scalar_operator(
            lambda p, axis=i: dunkl_derivative(ctx, axis, p))
    assert dunkl_dirac(ctx, F) == dirac
    assert vector_multiply(F) == CliffordPolynomial.vector_variable(m) * F
    assert d_plus(ctx, F) == -dunkl_dirac(ctx, F) + 2 * vector_multiply(F)


G2_EXPONENTS = [e for d in range(4) for e in monomial_basis(3, d)]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_clifford_operators_on_g2(data):
    """G2, where no reflection is a signed permutation: D, x and D+ against the Clifford products,
    and the blade view rebuilds the element."""
    kappas = [data.draw(st.fractions(min_value=0, max_value=3, max_denominator=4)) for _ in range(2)]
    ctx = DunklContext(root_system_from_json(g2_json(*kappas)))
    masks = data.draw(st.lists(st.integers(0, 7), max_size=3, unique=True))
    F = CliffordPolynomial(3, {mask: Polynomial(3, data.draw(st.dictionaries(
        st.sampled_from(G2_EXPONENTS), st.fractions(min_value=-3, max_value=3, max_denominator=5), max_size=3)))
        for mask in masks})
    dirac = CliffordPolynomial.zero(3)
    for i in range(3):
        dirac = dirac + CliffordPolynomial.unit_blade(3, 1 << i) * F.apply_scalar_operator(
            lambda p, axis=i: dunkl_derivative(ctx, axis, p))
    assert dunkl_dirac(ctx, F) == dirac
    assert vector_multiply(F) == CliffordPolynomial.vector_variable(3) * F
    assert d_plus(ctx, F) == -dunkl_dirac(ctx, F) + 2 * vector_multiply(F)
    assert CliffordPolynomial(3, F.blades) == F


def test_g2_monogenics_are_annihilated():
    ctx = DunklContext(root_system_from_json(g2_json(Fraction(1, 2), Fraction(2, 3))))
    for degree in range(3):
        basis = monogenic_basis(ctx, degree)
        assert basis == dirac_kernel(ctx, degree)
        for M in basis:
            assert not dunkl_dirac(ctx, M)


# Nonzero kappas on z2^3, a2 (in R^3), b2, and G2 from JSON, whose reflections are not signed permutations:
# the number of kappas and the root system they build.
REFERENCE_GROUPS = {
    "z2^3": (3, lambda k: builtin_root_system("z2", 3, k)),
    "a2": (1, lambda k: builtin_root_system("a", 3, k)),
    "b2": (2, lambda k: builtin_root_system("b", 2, k)),
    "g2": (2, lambda k: root_system_from_json(g2_json(*k))),
}
POSITIVE_KAPPA = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)


def reference_context(name, kappas):
    count, build = REFERENCE_GROUPS[name]
    return DunklContext(build(kappas[:count]))


@st.composite
def reference_cases(draw):
    """A reference group with drawn nonzero kappas and an element of at most 3 blades and degree <= 3."""
    name = draw(st.sampled_from(sorted(REFERENCE_GROUPS)))
    ctx = reference_context(name, [draw(POSITIVE_KAPPA) for _ in range(REFERENCE_GROUPS[name][0])])
    m = ctx.m
    exponents = [e for d in range(4) for e in monomial_basis(m, d)]
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    blades = {mask: Polynomial(m, draw(st.dictionaries(st.sampled_from(exponents), coefficient, max_size=3)))
              for mask in draw(st.lists(st.integers(0, (1 << m) - 1), max_size=3, unique=True))}
    return name, ctx, CliffordPolynomial(m, blades)


@given(reference_cases())
@settings(max_examples=60, deadline=None)
def test_memoized_dirac_equals_the_per_axis_reference(case):
    """D, x and D+ each as one image per term, against the per-axis sum of signed T_i images; the second
    application reads every image from the memo."""
    name, ctx, F = case
    reference = dunkl_dirac_reference(ctx, F)
    x = CliffordPolynomial.vector_variable(ctx.m)
    for _ in range(2):
        assert dunkl_dirac(ctx, F) == reference, name
        assert vector_multiply(F) == x * F, name
        assert d_plus(ctx, F) == 2 * (x * F) - reference, name


def as_fractions(den, terms) -> dict:
    return {key: Fraction(v, den) for key, v in terms}


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_monogenic_columns_come_from_the_memo_and_equal_the_reference(name):
    """Every column of the Dirac matrix is the memo's block for its key, equal to the reference D of the unit
    term, and every basis element is annihilated by the reference."""
    ctx = reference_context(name, [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)])
    m = ctx.m
    for degree in range(3):
        basis = monogenic_basis(ctx, degree)
        for mask in range(1 << m):
            for e, key in zip(monomial_basis(m, degree), monomial_keys(m, degree)):
                assert key << m | mask in ctx._diracs  # the Clifford key of x^e e_A
                reference = dunkl_dirac_reference(ctx, CliffordPolynomial(m, {mask: Polynomial.monomial(m, e)}))
                assert as_fractions(*ctx._diracs[key << m | mask]) == as_fractions(*reference._block), (
                    name, mask, e)
        for M in basis:
            assert not dunkl_dirac_reference(ctx, M)


def test_a_dropped_context_frees_its_dirac_memo():
    """The Dirac memo lives in the context: once the context is dropped, nothing keeps it or the memo alive.  Its
    fill binds the T memo, not the context, so with T, Delta and D filled a context is freed by reference counts
    alone, without the cycle collector, and so are a custom system's geometry and its orbit entries' S and L maps."""
    ctx = reference_context("b2", [Fraction(1, 2), Fraction(1, 3)])
    F = CliffordPolynomial(2, {0b01: Polynomial.monomial(2, (2, 1))})
    d_plus(ctx, dunkl_dirac(ctx, F))
    assert monogenic_basis(ctx, 2)
    assert len(ctx._diracs) > 1
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None
    with collector_off():
        for build, custom in ((lambda: builtin_root_system("b", 2, [Fraction(1, 2), Fraction(1, 3)]), False),
                              (lambda: custom_g2(Fraction(5, 17)), True)):
            ctx = DunklContext(build())
            F = CliffordPolynomial(ctx.m, {0b01: Polynomial.monomial(ctx.m, (2, 1) + (0,) * (ctx.m - 2))})
            dunkl_dirac(ctx, F)
            dunkl_laplacian(ctx, F.blade(0b01))
            assert ctx._images and ctx._laplacians and ctx._diracs
            ctx._diracs[-1] = Marker()
            refs = [weakref.ref(ctx), weakref.ref(ctx._diracs[-1])] + (mark_orbit_maps(ctx) if custom else [])
            del ctx
            assert len(refs) == (2 + 1 + 4 if custom else 2) and all(ref() is None for ref in refs)
