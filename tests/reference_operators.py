"""Whole-polynomial reference forms of the memoized Dunkl and Dirac maps, for exact comparison.

T_i f is reflected and divided as a whole polynomial through compose_linear for every root, and
D F is the per-axis sum of the signed images T_i(x^e) e_i e_A, one part per axis.  The package
computes both through per-context memos; the tests compare the two exactly.
"""
from typing import Callable

from dunkl_hermite.clifford import CliffordPolynomial, _flat, blade_product
from dunkl_hermite.clifford import _check as _check_clifford
from dunkl_hermite.operators import DunklContext, _check, dunkl_images
from dunkl_hermite.poly import Block, Exponent, Polynomial, accumulate, compose_linear, divide_by_linear_form


def dunkl_derivative_reference(ctx: DunklContext, axis: int, f: Polynomial) -> Polynomial:
    """T_axis f reflected and divided as a whole polynomial, through compose_linear for every root."""
    _check(ctx, f, axis)
    out = f.derivative(axis)
    if not f:
        return out
    for alpha, kappa, refl in ctx._active:
        if not alpha[axis]:
            continue
        difference = f - compose_linear(f, refl)
        if difference:
            out = out + (kappa * alpha[axis]) * divide_by_linear_form(difference, alpha)
    return out


def dunkl_dirac_reference(ctx: DunklContext, F: CliffordPolynomial) -> CliffordPolynomial:
    """D F as the per-axis sum of the signed images T_i(x^e) e_i e_A, one part per axis."""
    _check_clifford(ctx, F)

    def signed(i: int) -> Callable[[tuple[int, Exponent]], Block]:
        def image(key):
            sign, mask = blade_product(1 << i, key[0])
            den, terms = dunkl_images(ctx, key[1])[i]
            return den, [((mask, f), sign * v) for f, v in terms]
        return image
    return _flat(F.m, accumulate([(1, F._block, signed(i)) for i in range(F.m)]))
