"""Reference forms of the package's operators, for exact comparison.

Whole-polynomial forms of the memoized maps: T_i f is reflected and divided as a whole polynomial through
compose_linear for every root, the Dunkl Laplacian is sum_i T_i T_i, D F is the per-axis sum of e_i T_i F,
and the conjugated Laplacian is built from m intermediate polynomials.  The package computes them through
per-context memos, fused passes and, for the Laplacian, the kappa-free pieces L_O of its orbits.

Exponent-tuple forms of the key arithmetic: the package keys a monomial by one packed int (see poly), and
the functions below are the same maps on exponent tuples and (blade mask, exponent) pairs, read and
written through the public terms; the tests compare the two exactly.
"""
from fractions import Fraction
from math import lcm
from operator import add
from typing import Callable, Iterable

from dunkl_hermite.clifford import CliffordPolynomial, blade_product
from dunkl_hermite.clifford import _check as _check_clifford
from dunkl_hermite.operators import DunklContext, _check, _dunkl_map, conjugated_dunkl, dunkl_derivative
from dunkl_hermite.poly import (Block, Exponent, Polynomial, accumulate, compose_linear, divide_by_linear_form,
                                linear_extension)


def dunkl_derivative_reference(ctx: DunklContext, axis: int, f: Polynomial) -> Polynomial:
    """T_axis f reflected and divided as a whole polynomial, through compose_linear for every root."""
    _check(ctx, f, axis)
    out = f.derivative(axis)
    if not f:
        return out
    system = ctx.root_system
    for alpha, kappa, refl in zip(system.positive_roots, system.multiplicities, ctx.reflections):
        if not kappa or not alpha[axis]:
            continue
        difference = f - compose_linear(f, refl)
        if difference:
            out = out + (kappa * alpha[axis]) * divide_by_linear_form(difference, alpha)
    return out


def dunkl_laplacian_reference(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """sum_i T_i (T_i f), both steps read from the context's memo of the Dunkl map, one monomial of f at a time."""
    def image(key: int) -> Block:
        den, nums = accumulate((1, first, _dunkl_map(ctx, i)) for i, first in enumerate(ctx._images[key]))
        return den, nums.items()
    return linear_extension(f.m, [(1, _check(ctx, f), image)])


def dunkl_dirac_reference(ctx: DunklContext, F: CliffordPolynomial) -> CliffordPolynomial:
    """D F as the per-axis sum of e_i (T_i F), T_i acting blade-wise, through the public operations."""
    _check_clifford(ctx, F)
    out = CliffordPolynomial.zero(F.m)
    for i in range(F.m):
        out = out + CliffordPolynomial.unit_blade(F.m, 1 << i) * F.apply_scalar_operator(
            lambda p, i=i: dunkl_derivative(ctx, i, p))
    return out


def conjugated_laplacian_reference(ctx: DunklContext, rate: Fraction, f: Polynomial) -> Polynomial:
    """sum_i (T_i + 2 rate x_i)^2 f, through the m intermediate polynomials (T_i + 2 rate x_i) f and the public
    conjugated_dunkl and +."""
    out = Polynomial.zero(f.m)
    for i in range(ctx.m):
        out = out + conjugated_dunkl(ctx, rate, i, conjugated_dunkl(ctx, rate, i, f))
    return out


# -- exponent-tuple forms ----------------------------------------------------

def deglex_key(exponents: Exponent) -> tuple[int, Exponent]:
    """Sort key realizing the deg-lex order on exponent tuples (ascending; reverse for canonical)."""
    return (sum(exponents), exponents)


def tuple_block(p: Polynomial) -> Block:
    """The block of p keyed by exponent tuples, read through its public terms."""
    return p._den, [(e, int(c * p._den)) for e, c in p.terms.items()]


def clifford_tuple_block(F: CliffordPolynomial) -> Block:
    """The block of F keyed by (blade mask, exponent) pairs, read through its public blades."""
    return F._den, [((mask, e), int(c * F._den)) for mask, p in F.blades.items() for e, c in p.terms.items()]


def clifford_terms(F: CliffordPolynomial) -> dict:
    """F as {(mask, exponent): Fraction}, read through its blades."""
    return {(mask, e): c for mask, p in F.blades.items() for e, c in p.terms.items()}


def fractions_of(block: tuple[int, Iterable]) -> dict:
    """{key: Fraction} of a block (den, integer terms)."""
    den, terms = block
    return {key: Fraction(v, den) for key, v in (terms.items() if isinstance(terms, dict) else terms)}


def product_reference(p: Polynomial, q: Polynomial) -> dict:
    den, factor = tuple_block(q)
    return fractions_of(accumulate([(1, tuple_block(p), lambda e: (den, [
        (tuple(map(add, e, f)), c) for f, c in factor]))]))


def derivative_reference(p: Polynomial, axis: int) -> dict:
    return fractions_of(accumulate([(1, tuple_block(p), lambda e: (1, (
        ((e[:axis] + (e[axis] - 1,) + e[axis + 1:], e[axis]),) if e[axis] else ())))]))


def times_variable_reference(p: Polynomial, axis: int) -> dict:
    return fractions_of(accumulate([(1, tuple_block(p), lambda e: (1, (
        (e[:axis] + (e[axis] + 1,) + e[axis + 1:], 1),)))]))


def norm_squared_reference(e: Exponent) -> Block:
    """x^e -> |x|^2 x^e, the sum over the axes i of x_i^2 x^e."""
    return 1, tuple((e[:i] + (e[i] + 2,) + e[i + 1:], 1) for i in range(len(e)))


def leibniz_chain_reference(steps: list[int], s: int, rows: tuple, firsts: tuple[int, ...]) -> dict[Exponent, int]:
    """t s^(K-1) d_alpha x^e with rows[j] = ((k, (s R)_jk), ...) by axis index k."""
    g, q = {(0,) * len(rows): 1}, {}
    for k, j in enumerate(steps):
        if k:
            g, product = {}, g
            for f, v in product.items():
                for i, a in rows[steps[k - 1]]:
                    fi = f[:i] + (f[i] + 1,) + f[i + 1:]
                    g[fi] = g.get(fi, 0) + a * v
        q = {f[:j] + (f[j] + 1,) + f[j + 1:]: s * v for f, v in q.items()}
        if firsts[j]:
            for f, v in g.items():
                q[f] = q.get(f, 0) + firsts[j] * v
    return q


def dirac_image_reference(ctx: DunklContext, key: tuple[int, Exponent]) -> Block:
    """D(x^e e_A) for the key (A, e) as one block over the common denominator of the T_i x^e."""
    mask, e = key
    x = Polynomial.monomial(ctx.m, e)
    images = [tuple_block(dunkl_derivative(ctx, i, x)) for i in range(ctx.m)]
    den = lcm(*(d for d, _ in images))
    terms = []
    for i, (d, nums) in enumerate(images):
        sign, target = blade_product(1 << i, mask)
        sign *= den // d
        terms += [((target, f), sign * v) for f, v in nums]
    return den, tuple(terms)


def vector_map_reference(m: int) -> Callable[[tuple[int, Exponent]], Block]:
    """(A, e) -> x x^e e_A = sum_i sign(e_i e_A) x_i x^e e_(A xor 2^i)."""
    axes = range(m)

    def image(key: tuple[int, Exponent]) -> Block:
        mask, e = key
        return 1, [((target, e[:i] + (e[i] + 1,) + e[i + 1:]), sign)
                   for i in axes for sign, target in (blade_product(1 << i, mask),)]
    return image


def clifford_product_reference(F: CliffordPolynomial, G: CliffordPolynomial) -> dict:
    den, factor = clifford_tuple_block(G)
    return fractions_of(accumulate([(1, clifford_tuple_block(F), lambda key: (den, [
        ((mask, tuple(map(add, key[1], e))), sign * c)
        for (b, e), c in factor for sign, mask in (blade_product(key[0], b),)]))]))
