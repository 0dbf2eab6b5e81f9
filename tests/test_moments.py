"""Exact Gaussian moments and Hermite-function orthogonality."""
from fractions import Fraction

import pytest

from dunkl_hermite.errors import MathPrecondition
from dunkl_hermite.groups import builtin_root_system
from dunkl_hermite.moments import (MomentValue, gamma_half_integer, inner_product,
                                   orthogonality_report, weighted_moment)
from dunkl_hermite.operators import DunklContext
from dunkl_hermite.poly import Polynomial


def test_gamma_at_half_integers():
    # Gamma(n + 1/2) / sqrt(pi)
    assert gamma_half_integer(0) == 1
    assert gamma_half_integer(1) == Fraction(1, 2)
    assert gamma_half_integer(2) == Fraction(3, 4)
    assert gamma_half_integer(3) == Fraction(15, 8)


def test_odd_moments_vanish():
    value = weighted_moment((3, 2), [1, 1])
    assert value.is_zero
    assert value.pi_power == Fraction(1)


def test_even_moment_oracle():
    # integral of x^2 exp(-x^2) = sqrt(pi)/2
    value = weighted_moment((2,), [0])
    assert value.coefficient == Fraction(1, 2)
    assert value.pi_power == Fraction(1, 2)


def test_moment_with_weight():
    # weight |x|^{2 kappa} shifts the exponent: integral of x^2 |x|^2 e^{-x^2}
    assert weighted_moment((2,), [1]) == weighted_moment((4,), [0])


def test_moment_requires_integer_kappas():
    with pytest.raises(MathPrecondition) as info:
        weighted_moment((2,), [Fraction(1, 2)])
    assert "integer" in str(info.value)
    with pytest.raises(MathPrecondition):
        weighted_moment((2,), [-1])


@pytest.mark.parametrize("exponent", [1.5, Fraction(1, 2)])
def test_moment_refuses_a_non_integer_exponent(exponent):
    """a % 2 is truthy for both, so the moment used to come back as 0."""
    with pytest.raises(ValueError, match="exponent must be an integer"):
        weighted_moment([exponent], [0])


def test_inner_product_of_constants():
    one = Polynomial.constant(1, Fraction(1))
    value = inner_product(one, one, [1])
    assert value.coefficient == Fraction(1, 2)
    assert value.pi_power == Fraction(1, 2)


def test_inner_product_checks_kappas_once_even_for_a_zero_product():
    x = Polynomial.variable(1, 0)
    assert inner_product(x, x, [0]) == weighted_moment((2,), [0])
    with pytest.raises(MathPrecondition, match="integer"):
        inner_product(Polynomial.zero(1), x, [Fraction(1, 2)])


def test_moment_addition_guards_pi_power():
    a = MomentValue(Fraction(1), Fraction(1))
    b = MomentValue(Fraction(1), Fraction(3, 2))
    with pytest.raises(MathPrecondition):
        a + b


def test_inner_product_hermite_functions_orthogonal():
    from dunkl_hermite.hermite import ch_recursion, harmonic_basis
    for kappa in (0, 1, 2):
        ctx = DunklContext(builtin_root_system("z2", 1, [kappa]))
        one = harmonic_basis(ctx, 0).elements[0]
        ch2 = ch_recursion(ctx, 1, one).polynomial
        value = inner_product(one, ch2, [kappa])
        assert value.is_zero


def test_orthogonality_report_small_line():
    ctx = DunklContext(builtin_root_system("z2", 1, [1]))
    report = orthogonality_report(ctx, 5)
    assert report.ok
    assert not report.violations
    assert not report.nonpositive_diagonal
    assert len(report.entries) == 21


def test_orthogonality_report_plane():
    ctx = DunklContext(builtin_root_system("z2", 2, [2, 1]))
    report = orthogonality_report(ctx, 5)
    assert report.ok
    assert len(report.entries) == 231
    # diagonal entries carry positive coefficients
    diag = [e for e in report.entries if e.left == e.right]
    assert diag and all(e.value.coefficient > 0 for e in diag)


def test_orthogonality_entry_json_shape():
    ctx = DunklContext(builtin_root_system("z2", 1, [0]))
    report = orthogonality_report(ctx, 2)
    entry = report.entries[0].to_json()
    assert set(entry) == {"left", "right", "value_coeff", "pi_power"}
    assert set(entry["left"]) == {"t", "ell", "h_index"}


def test_non_axis_group_is_refused():
    ctx = DunklContext(builtin_root_system("a", 2, [1]))
    with pytest.raises(MathPrecondition) as info:
        orthogonality_report(ctx, 2)
    assert "single axis" in str(info.value)


def test_non_integer_multiplicity_group_is_refused():
    ctx = DunklContext(builtin_root_system("z2", 1, [Fraction(1, 2)]))
    with pytest.raises(MathPrecondition) as info:
        orthogonality_report(ctx, 2)
    assert "integer" in str(info.value)
