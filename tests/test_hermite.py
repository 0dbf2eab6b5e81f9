"""Harmonics, Fischer decomposition, and the three Hermite constructions."""
import gc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite.errors import DimensionMismatch, MathPrecondition
from dunkl_hermite.groups import builtin_root_system, custom_root_system, trivial_root_system
from dunkl_hermite.hermite import (HARMONIC_CACHE_SIZE, HermiteRecord, _harmonic_basis_cached,
                                   ch_laguerre, ch_recursion, ch_rodrigues,
                                   coefficient_recursions_check, eigenspace_checks,
                                   fischer_decompose, fischer_project, harmonic_basis,
                                   harmonic_dimension_classical, laguerre_poly,
                                   mu_is_degenerate, proportionality_constant, rosler_hermite,
                                   weighted_eigenfunction_check)
from dunkl_hermite.linalg import solve_in_frame
from dunkl_hermite.operators import DunklContext, degree_weighted, dunkl_laplacian, multiply_by_norm_squared
from dunkl_hermite.poly import Polynomial, monomial_basis


def ctx_for(family, m, kappas):
    return DunklContext(builtin_root_system(family, m, kappas))


def test_mu_degeneracy_predicate():
    assert mu_is_degenerate(Fraction(0))
    assert mu_is_degenerate(Fraction(-2))
    assert mu_is_degenerate(Fraction(-6))
    assert not mu_is_degenerate(Fraction(-1))
    assert not mu_is_degenerate(Fraction(1, 2))
    assert not mu_is_degenerate(Fraction(2))


def test_harmonic_basis_depends_on_multiplicities():
    ctx = ctx_for("z2", 2, [Fraction(1, 2), Fraction(3, 4)])
    assert harmonic_basis(ctx, 2).elements == (
        Polynomial(2, {(1, 1): Fraction(1)}),
        Polynomial(2, {(2, 0): Fraction(5), (0, 2): Fraction(-4)}),
    )
    ctx = ctx_for("z2", 2, [1, 2])
    assert harmonic_basis(ctx, 2).elements == (
        Polynomial(2, {(1, 1): Fraction(1)}),
        Polynomial(2, {(2, 0): Fraction(5), (0, 2): Fraction(-3)}),
    )


def test_harmonic_basis_elements_are_harmonic():
    ctx = ctx_for("b", 2, [Fraction(1, 3), Fraction(2)])
    for ell in range(5):
        elements = harmonic_basis(ctx, ell).elements
        assert len(elements) == harmonic_dimension_classical(2, ell)
        for h in elements:
            assert not dunkl_laplacian(ctx, h)


def test_harmonic_dimension_classical_values():
    assert [harmonic_dimension_classical(2, ell) for ell in range(5)] == [1, 2, 2, 2, 2]
    assert [harmonic_dimension_classical(3, ell) for ell in range(4)] == [1, 3, 5, 7]


def test_degenerate_mu_is_refused_by_fischer():
    system = custom_root_system([(Fraction(1),)], {(Fraction(1),): Fraction(-3, 2)})
    ctx = DunklContext(system)
    assert ctx.mu == -2
    # the Laplacian kernel itself stays well defined at degenerate mu
    assert harmonic_basis(ctx, 1).elements
    with pytest.raises(MathPrecondition) as info:
        fischer_decompose(ctx, Polynomial.monomial(1, (2,)))
    assert "mu" in str(info.value) and "-2" in str(info.value)
    with pytest.raises(MathPrecondition):
        fischer_project(ctx, 0, 2, Polynomial.monomial(1, (2,)))
    with pytest.raises(MathPrecondition):
        eigenspace_checks(ctx, 2)


def test_fischer_decompose_oracle():
    ctx = DunklContext(trivial_root_system(2))
    p = Polynomial(2, {(2, 0): Fraction(1)})
    parts = fischer_decompose(ctx, p)
    assert parts == [
        (0, Polynomial(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)})),
        (1, Polynomial(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})),
    ]


def test_fischer_project_matches_decomposition():
    ctx = ctx_for("z2", 2, [1, 2])
    p = Polynomial(2, {(2, 0): Fraction(1)})
    away = fischer_project(ctx, 1, 2, p)
    parts = dict(fischer_decompose(ctx, p))
    assert away == parts[1]
    assert fischer_project(ctx, 0, 2, p) == parts[0]


def fischer_project_by_composition(ctx, i, degree, p):
    """fischer_project's product of shifted spherical operators, each as |x|^2 times the Laplacian less the
    degree weights, then times 1/denominator: three passes per factor."""
    out = p
    for l in range(degree // 2 + 1):
        if l != i:
            ell = degree - 2 * l
            shifted = multiply_by_norm_squared(dunkl_laplacian(ctx, out)) - degree_weighted(
                out, lambda d: (d - ell) * (ctx.mu - 2 + d + ell))
            out = shifted * (1 / Fraction(2 * (i - l) * (2 * degree - 2 * i - 2 * l + ctx.mu - 2)))
    return out


PROJECTION_GROUPS = (("z2", 2, 2), ("b", 2, 2), ("a", 3, 1), ("d", 3, 1))


@given(st.sampled_from(PROJECTION_GROUPS), st.data())
@settings(max_examples=40, deadline=None)
def test_fischer_project_equals_its_composition(group, data):
    family, m, orbits = group
    kappas = [data.draw(st.fractions(min_value=0, max_value=3, max_denominator=4)) for _ in range(orbits)]
    ctx = ctx_for(family, m, kappas)
    degree = data.draw(st.integers(min_value=0, max_value=5))
    p = Polynomial(m, data.draw(st.dictionaries(st.sampled_from(monomial_basis(m, degree)), st.fractions(
        min_value=-4, max_value=4, max_denominator=6), max_size=4)))
    for i in range(degree // 2 + 1):
        assert fischer_project(ctx, i, degree, p) == fischer_project_by_composition(ctx, i, degree, p), (group, i, p)


def test_fischer_project_refuses_a_non_homogeneous_input():
    ctx = ctx_for("z2", 2, [1, 2])
    mixed = Polynomial(2, {(2, 0): Fraction(1), (1, 0): Fraction(1)})
    with pytest.raises(MathPrecondition, match="homogeneous"):
        fischer_project(ctx, 0, 2, mixed)


def test_fischer_components_are_radial_times_harmonic():
    ctx = ctx_for("b", 2, [Fraction(1, 2), 1])
    norm2 = Polynomial.norm_squared(2)
    for degree in range(5):
        for e in monomial_basis(2, degree):
            p = Polynomial.monomial(2, e)
            total = Polynomial.zero(2)
            for i, part in fischer_decompose(ctx, p):
                total = total + part
                stripped = part
                for _ in range(i):
                    # divide out one |x|^2 factor; exactness is part of the claim
                    lower = monomial_basis(2, stripped.homogeneous_degree() - 2)
                    frame = [norm2 * Polynomial.monomial(2, f) for f in lower]
                    coords = solve_in_frame(frame, stripped)
                    stripped = sum((c * Polynomial.monomial(2, f)
                                    for c, f in zip(coords, lower)), Polynomial.zero(2))
                assert not dunkl_laplacian(ctx, stripped)
            assert total == p


def test_fischer_decompose_zero_polynomial():
    ctx = DunklContext(trivial_root_system(2))
    assert fischer_decompose(ctx, Polynomial.zero(2)) == []


def test_fischer_decompose_input_errors_are_dunkl_errors():
    ctx = ctx_for("b", 2, [1, 2])
    with pytest.raises(MathPrecondition, match="needs a homogeneous polynomial"):
        fischer_decompose(ctx, Polynomial(2, {(2, 0): 1, (1, 0): 1}))
    with pytest.raises(DimensionMismatch):
        fischer_decompose(ctx, Polynomial(3, {(2, 0, 0): 1}))
    with pytest.raises(DimensionMismatch):
        fischer_decompose(ctx, Polynomial.zero(3))


def test_harmonic_cache_is_bounded():
    """Entries of dropped contexts are retired once the bound is reached."""
    for k in range(HARMONIC_CACHE_SIZE // 2 + 10):  # three degrees each: past the bound
        ctx = ctx_for("z2", 1, [Fraction(k + 1, 7)])
        for degree in range(3):
            assert len(harmonic_basis(ctx, degree).elements) == (1 if degree < 2 else 0)
    del ctx
    gc.collect()
    assert _harmonic_basis_cached.cache_info().maxsize == HARMONIC_CACHE_SIZE
    assert _harmonic_basis_cached.cache_info().currsize <= HARMONIC_CACHE_SIZE


def test_hermite_table_low_orders():
    ctx = ctx_for("b", 2, [Fraction(1, 2), Fraction(3, 4)])
    mu = ctx.mu
    for ell in (0, 1, 2):
        for h in harmonic_basis(ctx, ell).elements:
            assert ch_recursion(ctx, 0, h).radial_coeffs == (Fraction(1),)
            assert ch_recursion(ctx, 1, h).radial_coeffs == (2 * (2 * ell + mu), Fraction(-4))
            assert ch_recursion(ctx, 2, h).radial_coeffs == (
                4 * (2 * ell + mu + 2) * (2 * ell + mu),
                -16 * (2 * ell + mu + 2), Fraction(16))


def test_hermite_t0_is_the_harmonic():
    ctx = ctx_for("z2", 2, [1, 1])
    h = harmonic_basis(ctx, 2).elements[0]
    record = ch_recursion(ctx, 0, h)
    assert record.polynomial == h


def test_three_constructions_agree():
    for family, m, kappas in (("z2", 1, [Fraction(1, 2)]), ("a", 3, [1]),
                              ("b", 2, [Fraction(1, 3), Fraction(5, 4)])):
        ctx = ctx_for(family, m, kappas)
        for ell in (0, 1):
            for h in harmonic_basis(ctx, ell).elements:
                for t in (0, 1, 2, 3):
                    rec = ch_recursion(ctx, t, h)
                    rod = ch_rodrigues(ctx, t, h)
                    lag = ch_laguerre(ctx, t, ell, h)
                    assert rec.polynomial == rod.polynomial == lag.polynomial
                    assert rec.radial_coeffs == rod.radial_coeffs == lag.radial_coeffs


def test_rejects_non_harmonic_factor():
    ctx = ctx_for("z2", 2, [1, 1])
    with pytest.raises(MathPrecondition) as info:
        ch_recursion(ctx, 1, Polynomial(2, {(2, 0): Fraction(1)}))
    assert "not Dunkl-harmonic" in str(info.value)
    with pytest.raises(MathPrecondition):
        ch_recursion(ctx, 1, Polynomial.zero(2))
    with pytest.raises(MathPrecondition):
        ch_recursion(ctx, 1, Polynomial(2, {(1, 1): Fraction(1), (0, 0): Fraction(1)}))


def test_laguerre_polynomial_values():
    assert laguerre_poly(2, Fraction(3)) == (Fraction(10), Fraction(-5), Fraction(1, 2))
    assert laguerre_poly(0, Fraction(-7)) == (Fraction(1),)
    assert laguerre_poly(1, Fraction(1, 2)) == (Fraction(3, 2), Fraction(-1))


def test_laguerre_pole_is_refused():
    with pytest.raises(MathPrecondition) as info:
        laguerre_poly(2, Fraction(-1))
    assert "pole" in str(info.value)
    with pytest.raises(MathPrecondition):
        laguerre_poly(3, Fraction(-3))
    # just outside the pole set is fine
    assert laguerre_poly(2, Fraction(-5, 2))


def test_ch_laguerre_radial_oracle():
    ctx = ctx_for("z2", 2, [1, 1])
    h = harmonic_basis(ctx, 1).elements[0]
    record = ch_laguerre(ctx, 2, 1, h)
    assert record.radial_coeffs == (Fraction(320), Fraction(-160), Fraction(16))


def test_coefficient_recursions_hold_along_the_ladder():
    ctx = ctx_for("b", 2, [Fraction(1, 2), Fraction(2, 3)])
    h = harmonic_basis(ctx, 1).elements[1]
    records = [ch_recursion(ctx, t, h) for t in range(4)]
    for prev, cur in zip(records, records[1:]):
        check = coefficient_recursions_check(prev, cur)
        assert check.ok
        assert check.step_failures == ()
        assert check.internal_failures == ()


def test_injected_off_by_one_fault_is_caught_exactly():
    ctx = ctx_for("z2", 2, [1, 1])
    h = harmonic_basis(ctx, 1).elements[0]
    good_prev = ch_recursion(ctx, 0, h)
    good = ch_recursion(ctx, 1, h)
    faulty = replace(good, radial_coeffs=(good.radial_coeffs[0] + 1, good.radial_coeffs[1]))
    check = coefficient_recursions_check(good_prev, faulty)
    assert not check.ok
    assert check.step_failures == ((0, Fraction(1)),)
    assert check.internal_failures == ((0, Fraction(-4)),)


def test_recursion_check_rejects_non_consecutive():
    ctx = ctx_for("z2", 2, [1, 1])
    h = harmonic_basis(ctx, 1).elements[0]
    with pytest.raises(MathPrecondition):
        coefficient_recursions_check(ch_recursion(ctx, 0, h), ch_recursion(ctx, 2, h))


def test_hermite_record_json_round_trip():
    ctx = ctx_for("z2", 1, [Fraction(1, 2)])
    record = ch_recursion(ctx, 2, Polynomial.variable(1, 0))
    data = record.to_json()
    assert data["radial_coeffs"][-1] == "16/1"
    rebuilt = HermiteRecord.from_json(data)
    assert rebuilt == record


def test_rosler_hermite_examples():
    ctx = ctx_for("z2", 2, [1, 2])
    x1 = Polynomial.variable(2, 0)
    assert rosler_hermite(ctx, x1) == 2 * x1
    norm2 = Polynomial.norm_squared(2)
    assert rosler_hermite(ctx, norm2) == 4 * norm2 - Polynomial.constant(2, 2 * ctx.mu)
    h = harmonic_basis(ctx, 2).elements[0]
    assert rosler_hermite(ctx, h) == 4 * h


def test_rosler_hermite_refuses_a_non_homogeneous_input():
    ctx = ctx_for("z2", 2, [1, 2])
    mixed = Polynomial(2, {(2, 0): Fraction(1), (0, 0): Fraction(1)})
    with pytest.raises(MathPrecondition, match="homogeneous"):
        rosler_hermite(ctx, mixed)


def test_proportionality_constant_oracle():
    ctx = ctx_for("z2", 2, [1, 1])
    one = Polynomial.constant(2, Fraction(1))
    assert proportionality_constant(ctx, 1, 2, one) == Fraction(-1)


def test_proportionality_constant_harmonic_independent():
    ctx = ctx_for("b", 2, [Fraction(1, 2), Fraction(3, 2)])
    for n, i in ((2, 0), (3, 0), (4, 1), (5, 2)):
        values = {proportionality_constant(ctx, i, n, h)
                  for h in harmonic_basis(ctx, n - 2 * i).elements}
        assert len(values) == 1


def test_proportionality_degree_mismatch():
    ctx = ctx_for("z2", 2, [1, 1])
    with pytest.raises(MathPrecondition):
        proportionality_constant(ctx, 0, 2, Polynomial.variable(2, 0))


def test_weighted_eigenfunction_equation():
    ctx = ctx_for("b", 2, [1, 2])
    q = rosler_hermite(ctx, Polynomial.monomial(2, (2, 0)))
    check = weighted_eigenfunction_check(ctx, q)
    assert check.ok
    assert check.eigenvalue == -(4 + ctx.mu)
    assert not check.residual


def test_weighted_eigenfunction_rejects_bad_input():
    ctx = ctx_for("z2", 2, [1, 1])
    with pytest.raises(MathPrecondition):
        weighted_eigenfunction_check(ctx, Polynomial.monomial(2, (2, 0)))


def test_eigenspace_ranks_match_full_polynomial_space():
    ctx = ctx_for("z2", 2, [1, 1])
    report = eigenspace_checks(ctx, 3)
    assert report.ok
    assert report.expected_rank == 4
    assert (report.heat_family_rank, report.hermite_family_rank,
            report.combined_rank) == (4, 4, 4)
    empty = eigenspace_checks(ctx, -1)  # no polynomial has a negative degree: both families are empty
    assert empty.ok and (empty.cases, empty.combined_rank, empty.expected_rank) == (0, 0, 0)
