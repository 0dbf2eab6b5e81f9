"""Dunkl operators and the operator calculus built on them.

For a root system R+ with multiplicities kappa, the Dunkl operator along
axis i sends f to

    df/dx_i  +  sum over alpha in R+ of  kappa_alpha * alpha_i * (f - f o r_alpha) / <alpha, x>

where r_alpha is the reflection in the hyperplane orthogonal to alpha.  The
difference f - f o r_alpha vanishes on that hyperplane, so the division is
exact; a remainder aborts loudly.  By the twisted Leibniz rule d_alpha(f g) =
d_alpha(f) (g o r_alpha) + f d_alpha(g), a monomial's quotient follows from
the coordinates' in integers.  The operators are linear, so each context
computes the images of a monomial once and applies them to any polynomial
term by term.  Everything downstream (Laplacian, Euler operator, sl2 action,
Gaussian conjugation, heat semigroup) is assembled from these exact pieces.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Iterable

from .errors import DimensionMismatch, MathPrecondition
from .groups import Matrix, RootSystem, Vector, reflection_matrix
from .poly import (Block, Exponent, Polynomial, ScalarLike, accumulate, compose_linear, divide_by_linear_form,
                   exact, linear_extension)


class DunklContext:
    """A root system, its reflections, and a lazily filled memo of the Dunkl map.

    The images T_1 x^e, ..., T_m x^e and Delta x^e of a monomial, the Dirac image
    D(x^e e_A) of a Clifford term, and the Fischer frame of a degree with its factor
    are computed on first use and kept in the memo, the images as integer numerators
    over one denominator each; the memo lives and dies with the context.
    """

    __slots__ = ("root_system", "reflections", "_active", "_chains", "_images", "_laplacians", "_diracs",
                 "_fischer", "__weakref__")

    def __init__(self, root_system: RootSystem):
        self.root_system = root_system
        self.reflections: tuple[Matrix, ...] = tuple(map(_reflection, root_system.positive_roots))
        # roots with kappa = 0 contribute nothing and are skipped up front
        self._active: tuple[tuple[Vector, Fraction, Matrix], ...] = tuple(
            root for root in zip(root_system.positive_roots, root_system.multiplicities, self.reflections) if root[1])
        self._chains = None  # per active root, derived from _active on the memo's first fill
        self._images: dict[Exponent, tuple[Block, ...]] = {}
        self._laplacians: dict[Exponent, Block] = {}
        self._diracs: dict[tuple[int, Exponent], Block] = {}  # filled by clifford.dirac_image
        self._fischer: dict[int, tuple] = {}  # degree -> (frame, its factor), filled by hermite._fischer_factor

    @property
    def m(self) -> int:
        return self.root_system.m

    @property
    def mu(self) -> Fraction:
        return self.root_system.mu

    @property
    def gamma(self) -> Fraction:
        return self.root_system.gamma

    def __repr__(self) -> str:
        return f"DunklContext(m={self.m}, roots={len(self.root_system.positive_roots)}, mu={self.mu})"


# The per-root caches below hold kappa-free geometry shared by every context of the process.  Their
# keys come from custom root systems too, which can vary without limit, hence the bound.
_ROOT_CACHE_SIZE = 1024


@lru_cache(maxsize=_ROOT_CACHE_SIZE)
def _reflection(alpha: Vector) -> Matrix:
    return reflection_matrix(alpha)


@lru_cache(maxsize=_ROOT_CACHE_SIZE)
def _chain_setup(m: int, alpha: Vector, refl: Matrix) -> tuple:
    """(s, the rows of the integer matrix s R, C, t) with C_j / t = d_alpha x_j, divided by compose_linear
    and divide_by_linear_form: a substitution that is not alpha's reflection raises here (and is not
    cached), and once every x_j - R x_j divides, every x^e - x^e o R does, by the Leibniz rule."""
    s = lcm(*(a.denominator for row in refl for a in row))
    firsts = [divide_by_linear_form(x - compose_linear(x, refl), alpha).coefficient((0,) * m)
              for x in (Polynomial.variable(m, j) for j in range(m))]
    t = lcm(*(c.denominator for c in firsts))
    rows = tuple(tuple((k, int(a * s)) for k, a in enumerate(row) if a) for row in refl)
    return s, rows, tuple(int(c * t) for c in firsts), t


def _leibniz_chain(steps: list[int], s: int, rows: tuple, firsts: tuple[int, ...]) -> dict[Exponent, int]:
    """t s^(K-1) d_alpha x^e for e = sum of eps_j over the K steps j: Q <- s x_j Q + C_j G, G <- (s R)_j G,
    so that G stays s^k (x^(e_k) o r_alpha)."""
    g, q = {(0,) * len(rows): 1}, {}
    for k, j in enumerate(steps):
        if k:  # G takes the previous step's row here, so the last step builds no G it never reads
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


def dunkl_images(ctx: DunklContext, e: Exponent) -> tuple[Block, ...]:
    """T_1 x^e, ..., T_m x^e as blocks (den, ((exponent, int), ...)), memoized: one Leibniz chain per root
    in integers, and per axis one accumulation of the derivative and every root's weighted quotient."""
    images = ctx._images.get(e)
    if images is None:
        if ctx._chains is None:
            ctx._chains = tuple((tuple(kappa * a for a in alpha), *_chain_setup(ctx.m, alpha, refl))
                                for alpha, kappa, refl in ctx._active)
        steps = [j for j, n in enumerate(e) for _ in range(n)]
        quotients = [(weights, q, t * s ** (len(steps) - 1)) for weights, s, rows, firsts, t in ctx._chains
                     for q in (_leibniz_chain(steps, s, rows, firsts),) if q]
        images = []
        for i, n in enumerate(e):
            parts = [(n, (1, ((e[:i] + (n - 1,) + e[i + 1:], 1),)), None)] if n else []
            parts += [(weights[i], (den, q.items()), None) for weights, q, den in quotients if weights[i]]
            den, nums = accumulate(parts)
            # kept as term tuples, not Polynomials: the memo is most of what a context holds
            images.append((den, tuple(nums.items())))
        images = ctx._images[e] = tuple(images)
    return images


def laplacian_image(ctx: DunklContext, e: Exponent) -> Block:
    """Delta x^e = sum_i T_i (T_i x^e) as a block, memoized; both steps read the memo of T_i."""
    image = ctx._laplacians.get(e)
    if image is None:
        den, nums = accumulate((1, first, lambda f, i=i: dunkl_images(ctx, f)[i])
                               for i, first in enumerate(dunkl_images(ctx, e)))
        image = ctx._laplacians[e] = (den, tuple(nums.items()))
    return image


def dunkl_derivative(ctx: DunklContext, axis: int, f: Polynomial) -> Polynomial:
    """Apply the Dunkl operator along one axis (0-based)."""
    return linear_extension(f.m, [(1, _check(ctx, f, axis), lambda e: dunkl_images(ctx, e)[axis])])


def dunkl_laplacian(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """Sum over axes of the squared Dunkl operator."""
    return linear_extension(f.m, [(1, _check(ctx, f), lambda e: laplacian_image(ctx, e))])


def _weighted(weight: Callable[[int], ScalarLike]) -> Callable[[Exponent], Block]:
    """x^e -> weight(|e|) x^e, the weight made exact (a float is refused) once per degree."""
    weights: dict[int, tuple[int, int]] = {}

    def image(e: Exponent) -> Block:
        d = sum(e)
        w = weights.get(d)
        if w is None:
            w = exact(weight(d))
            w = weights[d] = (w.denominator, w.numerator)
        return w[0], ((e, w[1]),)
    return image


def _shifts(axes: Iterable[int], by: int) -> Callable[[Exponent], Block]:
    """x^e -> the sum over the axes i of x_i^by x^e: exponent shifts; |x|^2 for all axes and by = 2."""
    return lambda e: (1, tuple((e[:i] + (e[i] + by,) + e[i + 1:], 1) for i in axes))


def degree_weighted(f: Polynomial, weight: Callable[[int], ScalarLike]) -> Polynomial:
    """x^e maps to weight(|e|) * x^e: any function of the Euler operator, as a diagonal map."""
    return linear_extension(f.m, [(1, f._block, _weighted(weight))])


def radial_tower(f: Polynomial, n: int) -> list[Polynomial]:
    """[f, |x|^2 f, ..., |x|^{2n} f], each one shift of the one before."""
    tower = [f]
    for _ in range(n):
        tower.append(multiply_by_norm_squared(tower[-1]))
    return tower


def euler_operator(f: Polynomial) -> Polynomial:
    """Degree-weighting operator: x^e maps to |e| * x^e."""
    return degree_weighted(f, lambda d: d)


def multiply_by_norm_squared(f: Polynomial) -> Polynomial:
    """|x|^2 f: x^e maps to the sum over i of x^(e + 2 eps_i), an exponent shift per axis."""
    return linear_extension(f.m, [(1, f._block, _shifts(range(f.m), 2))])


def sl2_e(f: Polynomial) -> Polynomial:
    """Raising element: multiplication by |x|^2 / 2."""
    return multiply_by_norm_squared(f) * Fraction(1, 2)


def sl2_f(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """Lowering element: -1/2 times the Dunkl Laplacian."""
    return dunkl_laplacian(ctx, f) * Fraction(-1, 2)


def sl2_h(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """Neutral element: Euler operator plus mu/2."""
    _check(ctx, f)
    return degree_weighted(f, lambda d, half=ctx.mu / 2: d + half)


def spherical_shift(ctx: DunklContext, f: Polynomial, ell: ScalarLike, scale: ScalarLike = 1) -> Polynomial:
    """scale (L + ell(mu - 2 + ell)) f, L = |x|^2 Delta - E(mu - 2 + E); degree d weighs (d - ell)(mu - 2 + d + ell).

    Two accumulations: Delta f, then its |x|^2 shift less the degree weights of f, both times scale.  Shifting
    Delta f rather than each term's image shifts every monomial of Delta f once, however many images share it."""
    ell = exact(ell)
    weight = _weighted(lambda d, shift=ctx.mu - 2 + ell: (d - ell) * (shift + d))
    lf = dunkl_laplacian(ctx, f)
    return linear_extension(f.m, [(scale, lf._block, _shifts(range(f.m), 2)), (-scale, f._block, weight)])


def hermite_shift(ctx: DunklContext, f: Polynomial, n: ScalarLike) -> Polynomial:
    """(Delta - 2E + 2n) f, zero on the Hermite elements of total degree n."""
    n = exact(n)
    block = _check(ctx, f)
    return linear_extension(f.m, [(1, block, lambda e: laplacian_image(ctx, e)),
                                  (-1, block, _weighted(lambda d: 2 * (d - n)))])


def laplace_beltrami(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """|x|^2 Delta - E(mu - 2 + E) with E the Euler operator; degree preserving."""
    return spherical_shift(ctx, f, 0)


def d_plus_squared_form(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """-Delta f - 4|x|^2 f + 2(2E + mu) f, the scalar form of the squared raising operator (D+)^2."""
    block = _check(ctx, f)
    return linear_extension(f.m, [(1, block, _weighted(lambda d, mu=ctx.mu: 2 * (2 * d + mu))),
                                  (-1, block, lambda e: laplacian_image(ctx, e)), (-4, block, _shifts(range(f.m), 2))])


def _conjugated(ctx: DunklContext, rate: Fraction, axis: int, f: Polynomial) -> list:
    """The parts of T_i f + 2 * rate * x_i f."""
    block = _check(ctx, f, axis)
    return [(1, block, lambda e: dunkl_images(ctx, e)[axis]),
            (2 * exact(rate), block, _shifts((axis,), 1))]


def conjugated_dunkl(ctx: DunklContext, rate: Fraction, axis: int, f: Polynomial) -> Polynomial:
    """Dunkl operator conjugated by exp(rate * |x|^2): T_i + 2 * rate * x_i."""
    return linear_extension(f.m, _conjugated(ctx, rate, axis, f))


def conjugated_laplacian(ctx: DunklContext, rate: Fraction, f: Polynomial) -> Polynomial:
    """Dunkl Laplacian conjugated by exp(rate * |x|^2): sum of squared conjugated operators."""
    return linear_extension(f.m, [part for i in range(ctx.m)
                                  for part in _conjugated(ctx, rate, i, conjugated_dunkl(ctx, rate, i, f))])


def heat_semigroup(ctx: DunklContext, f: Polynomial, rate: Fraction = Fraction(-1, 4)) -> Polynomial:
    """exp(rate * Delta) f as the finite sum over rate^n Delta^n f / n!.

    The series terminates because each Laplacian application drops the degree
    by two.  rate = -1/4 gives the semigroup used by the Hermite construction;
    rate = +1/4 is its inverse on polynomials.
    """
    _check(ctx, f)
    rate = exact(rate)
    parts, power, factor, n = [], f, Fraction(1), 0
    while power:
        parts.append((factor, power._block, None))
        n += 1
        power, factor = dunkl_laplacian(ctx, power), factor * rate / n
    return linear_extension(f.m, parts)


@dataclass(frozen=True)
class WeightedFunction:
    """A polynomial times a Gaussian exp(gaussian_rate * |x|^2).

    Operator application happens on the polynomial part through Gaussian
    conjugation, which is exactly the product rule for the Gaussian factor.
    """

    polynomial_part: Polynomial
    gaussian_rate: Fraction

    def dunkl(self, ctx: DunklContext, axis: int) -> "WeightedFunction":
        return WeightedFunction(conjugated_dunkl(ctx, self.gaussian_rate, axis, self.polynomial_part),
                                self.gaussian_rate)

    def laplacian(self, ctx: DunklContext) -> "WeightedFunction":
        return WeightedFunction(conjugated_laplacian(ctx, self.gaussian_rate, self.polynomial_part),
                                self.gaussian_rate)

    def times_norm_squared(self) -> "WeightedFunction":
        return WeightedFunction(multiply_by_norm_squared(self.polynomial_part), self.gaussian_rate)

    def scale(self, c) -> "WeightedFunction":
        return WeightedFunction(self.polynomial_part * exact(c), self.gaussian_rate)

    def __sub__(self, other: "WeightedFunction") -> "WeightedFunction":
        if self.gaussian_rate != other.gaussian_rate:
            raise MathPrecondition("cannot combine weighted functions with different Gaussian rates")
        return WeightedFunction(self.polynomial_part - other.polynomial_part, self.gaussian_rate)


def _check(ctx: DunklContext, f: Polynomial, axis: int = 0):
    """The block of f, once f has the context's dimension and axis is one of its axes."""
    if f.m != ctx.m:
        raise DimensionMismatch(f"dimension mismatch: polynomial in {f.m} variables vs context dimension {ctx.m}")
    if not 0 <= axis < ctx.m:
        raise DimensionMismatch(f"axis {axis} out of range for dimension {ctx.m}")
    return f._block
