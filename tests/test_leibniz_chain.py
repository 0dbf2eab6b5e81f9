"""The orbit entries' Leibniz chain: d_alpha x^e from d_alpha x_j in integers, against the whole-polynomial
reference, and the per-root set-up that is its only division, run once per root while a geometry holds it."""
from fractions import Fraction

import pytest

from dunkl_hermite import groups, operators
from dunkl_hermite.errors import InexactDivision
from dunkl_hermite.groups import builtin_root_system, custom_root_system, root_system_from_json
from dunkl_hermite.hermite import harmonic_basis
from dunkl_hermite.operators import DunklContext, dunkl_derivative
from dunkl_hermite.poly import Polynomial, monomial_basis

from reference_operators import dunkl_derivative_reference
from test_dunkl_map import E1, SWAP, entries, f4_json, g2_json, inject_substitution, private_registry


def _chains(ctx):
    """The chain set-ups (s, rows, C, t) of the context's active roots, orbit by orbit, as the entries kept in the
    geometries of its active orbits hold them."""
    return [chain for _, geometry in ctx._orbits for chain in geometry.entry.chains]


def _mismatches(ctx, degrees):
    """(checks, mismatches) of T_i x^e against the reference over every axis and monomial."""
    checks = [(i, Polynomial.monomial(ctx.m, e)) for d in degrees for e in monomial_basis(ctx.m, d)
              for i in range(ctx.m)]
    return len(checks), sum(dunkl_derivative(ctx, i, x) != dunkl_derivative_reference(ctx, i, x)
                            for i, x in checks)


def test_rescaled_rational_b2_matches_the_reference():
    """B2 with roots of norm 1/9 and 50/49: d_alpha x_j = 6 and 7/5 carry the denominator t = 5."""
    half = Fraction(5, 7)
    system = custom_root_system([(Fraction(1, 3), 0), (0, Fraction(1, 3)), (half, half), (half, -half)],
                                [((Fraction(1, 3), 0), Fraction(5, 4)), ((half, half), Fraction(-7, 9))])
    ctx = DunklContext(system)
    assert _mismatches(ctx, range(8)) == (72, 0)
    assert [t for *_, t in _chains(ctx)] == [1, 1, 5, 5]


@pytest.mark.parametrize("data, scale", [(g2_json(Fraction(2, 3), Fraction(-5, 4)), 3),
                                         (f4_json(Fraction(3, 7), Fraction(5, 2)), 2)])
def test_generic_reflections_match_the_reference_at_degree_five(data, scale):
    """G2 and F4: the generic reflections have denominators s = 3 and 2."""
    ctx = DunklContext(root_system_from_json(data))
    assert _mismatches(ctx, [5])[1] == 0
    assert {s for s, *_ in _chains(ctx)} == {1, scale}


def test_swap_substitution_raises_at_degree_two(monkeypatch):
    """x_0 - x_1 is not divisible by x_0, so the set-up refuses the swap for x_0^2 as for x_0."""
    inject_substitution(monkeypatch, E1, SWAP)
    ctx = DunklContext(builtin_root_system("z2", 2, [1, 1]))
    with pytest.raises(InexactDivision):
        dunkl_derivative(ctx, 0, Polynomial.monomial(2, (2, 0)))


def test_swap_substitution_raises_after_the_true_reflection_was_cached(monkeypatch):
    """e_1's true orbit entry, kept first, does not stand in for an injected swap, a refused set-up is refused
    again on every call and keeps no entry, and the true entry is the one the next context reads."""
    x0_squared = Polynomial.monomial(2, (2, 0))
    ctx = DunklContext(builtin_root_system("z2", 2, [1, 1]))
    dunkl_derivative(ctx, 0, x0_squared)
    true_entries = [geometry.entry for _, geometry in ctx._orbits]
    inject_substitution(monkeypatch, E1, SWAP)
    for _ in range(2):
        ctx = DunklContext(builtin_root_system("z2", 2, [1, 1]))
        with pytest.raises(InexactDivision):
            dunkl_derivative(ctx, 0, x0_squared)
        assert not ctx._images and entries(groups._GEOMETRIES) == []
    monkeypatch.undo()
    ctx = DunklContext(builtin_root_system("z2", 2, [1, 1]))
    assert _mismatches(ctx, range(5)) == (30, 0)
    assert all(geometry.entry is old for (_, geometry), old in zip(ctx._orbits, true_entries))


@pytest.mark.parametrize("degree", [1, 4])
def test_a_cold_context_divides_m_times_per_active_root(monkeypatch, degree):
    """The set-up of a cold geometry divides m times per active root; a second context with the same
    roots and other multiplicities divides no more."""
    calls = []
    divide = operators.divide_by_linear_form
    monkeypatch.setattr(operators, "divide_by_linear_form", lambda p, alpha: calls.append(1) or divide(p, alpha))
    private_registry(monkeypatch)
    for kappas in [(1, Fraction(1, 2)), (Fraction(-2, 3), 5)]:
        ctx = DunklContext(root_system_from_json(g2_json(*kappas)))
        for d in range(degree, degree + 2):
            for e in monomial_basis(3, d):
                dunkl_derivative(ctx, 0, Polynomial.monomial(3, e))
        assert len(calls) == 3 * len(_chains(ctx)) == 18  # the second context adds none
    assert _mismatches(ctx, [degree])[1] == 0


def test_a_cold_harmonic_basis_divides_m_times_per_active_root(monkeypatch):
    """Harmonic bases reach the orbit entries through the Laplacian alone, which reads no T_i: a cold context
    still divides m times per active root, and a second context with other multiplicities divides no more."""
    calls = []
    divide = operators.divide_by_linear_form
    monkeypatch.setattr(operators, "divide_by_linear_form", lambda p, alpha: calls.append(1) or divide(p, alpha))
    private_registry(monkeypatch)
    for kappas in [(1, Fraction(1, 2)), (Fraction(-2, 3), 5)]:
        ctx = DunklContext(root_system_from_json(g2_json(*kappas)))
        assert [len(harmonic_basis(ctx, d).elements) for d in range(5)] == [1, 3, 5, 7, 9]
        assert not ctx._images
        assert len(calls) == 3 * len(_chains(ctx)) == 18  # the second context adds none
