"""The memo's Leibniz chain: d_alpha x^e from d_alpha x_j in integers, against the whole-polynomial
reference, and the per-root set-up that is its only division."""
from fractions import Fraction

import pytest

from dunkl_hermite import operators
from dunkl_hermite.errors import InexactDivision
from dunkl_hermite.groups import builtin_root_system, custom_root_system, root_system_from_json
from dunkl_hermite.operators import DunklContext, _dunkl_derivative_reference, dunkl_derivative
from dunkl_hermite.poly import Polynomial, monomial_basis

from test_dunkl_map import f4_json, g2_json


def _mismatches(ctx, degrees):
    """(checks, mismatches) of T_i x^e against the reference over every axis and monomial."""
    checks = [(i, Polynomial.monomial(ctx.m, e)) for d in degrees for e in monomial_basis(ctx.m, d)
              for i in range(ctx.m)]
    return len(checks), sum(dunkl_derivative(ctx, i, x) != _dunkl_derivative_reference(ctx, i, x)
                            for i, x in checks)


def test_rescaled_rational_b2_matches_the_reference():
    """B2 with roots of norm 1/9 and 50/49: d_alpha x_j = 6 and 7/5 carry the denominator t = 5."""
    half = Fraction(5, 7)
    system = custom_root_system([(Fraction(1, 3), 0), (0, Fraction(1, 3)), (half, half), (half, -half)],
                                [((Fraction(1, 3), 0), Fraction(5, 4)), ((half, half), Fraction(-7, 9))])
    ctx = DunklContext(system)
    assert _mismatches(ctx, range(8)) == (72, 0)
    assert [t for *_, t in ctx._chains] == [1, 1, 5, 5]


@pytest.mark.parametrize("data, scale", [(g2_json(Fraction(2, 3), Fraction(-5, 4)), 3),
                                         (f4_json(Fraction(3, 7), Fraction(5, 2)), 2)])
def test_generic_reflections_match_the_reference_at_degree_five(data, scale):
    """G2 and F4: the generic reflections have denominators s = 3 and 2."""
    ctx = DunklContext(root_system_from_json(data))
    assert _mismatches(ctx, [5])[1] == 0
    assert {s for _, s, *_ in ctx._chains} == {1, scale}


def test_swap_substitution_raises_at_degree_two():
    """x_0 - x_1 is not divisible by x_0, so the set-up refuses the swap for x_0^2 as for x_0."""
    ctx = DunklContext(builtin_root_system("z2", 2, [1, 1]))
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    ctx._active = (((Fraction(1), Fraction(0)), Fraction(1), swap, None),)
    with pytest.raises(InexactDivision):
        dunkl_derivative(ctx, 0, Polynomial.monomial(2, (2, 0)))


@pytest.mark.parametrize("degree", [1, 4])
def test_a_cold_context_divides_m_times_per_active_root(monkeypatch, degree):
    calls = []
    divide = operators.divide_by_linear_form
    monkeypatch.setattr(operators, "divide_by_linear_form", lambda p, alpha: calls.append(1) or divide(p, alpha))
    ctx = DunklContext(root_system_from_json(g2_json(1, Fraction(1, 2))))
    for d in range(degree, degree + 2):
        for e in monomial_basis(3, d):
            dunkl_derivative(ctx, 0, Polynomial.monomial(3, e))
    assert len(calls) == 3 * len(ctx._active) == 18
