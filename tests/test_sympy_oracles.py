"""laguerre_poly and weighted_moment against sympy, an oracle sharing no code with the package."""
import itertools
from fractions import Fraction

import pytest

from dunkl_hermite.errors import MathPrecondition
from dunkl_hermite.hermite import laguerre_poly
from dunkl_hermite.moments import weighted_moment

sp = pytest.importorskip("sympy")


def to_fraction(value) -> Fraction:
    assert value.is_Rational, value  # sympy evaluates these exactly; anything else is a failure
    return Fraction(int(value.p), int(value.q))


# positive, zero and negative parameters; the negative ones avoid the poles {-1, ..., -t} for t <= 6
LAGUERRE_PARAMETERS = [Fraction(0), Fraction(1), Fraction(5, 2), Fraction(7, 3), Fraction(-1, 2),
                       Fraction(-5, 3), Fraction(-13, 2), Fraction(-7), Fraction(-9)]


@pytest.mark.parametrize("a", LAGUERRE_PARAMETERS, ids=str)
def test_laguerre_poly_matches_sympy(a):
    x = sp.Symbol("x")
    for t in range(7):
        if a.denominator == 1 and -t <= a <= -1:
            continue
        expected = sp.Poly(sp.assoc_laguerre(t, sp.Rational(a.numerator, a.denominator), x), x)
        coefficients = [to_fraction(c) for c in reversed(expected.all_coeffs())]
        assert laguerre_poly(t, a) == tuple(coefficients), (t, a)


def test_laguerre_poles_are_refused():
    for t in range(1, 7):
        for a in range(-t, 0):
            with pytest.raises(MathPrecondition, match="pole"):
                laguerre_poly(t, Fraction(a))
        laguerre_poly(t, Fraction(-t - 1))  # just below the poles


def gamma_oracle(a: int, kappa: int):
    """Integral over R of x^a |x|^{2 kappa} exp(-x^2), divided by sqrt(pi): Gamma((a + 2 kappa + 1)/2)
    for even a, 0 for odd a."""
    if a % 2:
        return sp.Integer(0)
    return sp.gamma(sp.Rational(a + 2 * kappa + 1, 2)) / sp.sqrt(sp.pi)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_weighted_moment_matches_sympy_gamma(m):
    for kappas in itertools.product(range(3), repeat=m):
        for exponents in itertools.product(range(5), repeat=m):
            value = weighted_moment(exponents, kappas)
            expected = sp.Mul(*(gamma_oracle(a, k) for a, k in zip(exponents, kappas)))
            assert value.pi_power == Fraction(m, 2)
            assert value.coefficient == to_fraction(expected), (exponents, kappas)
            if any(a % 2 for a in exponents):
                assert value.is_zero
