"""Dunkl operators and the operator calculus built on them.

For a root system R+ with multiplicities kappa, the Dunkl operator along
axis i sends f to

    df/dx_i  +  sum over alpha in R+ of  kappa_alpha * alpha_i * (f - f o r_alpha) / <alpha, x>

where r_alpha is the reflection in the hyperplane orthogonal to alpha.  The
difference f - f o r_alpha vanishes on that hyperplane, so the division is
exact; a remainder aborts loudly.  By the twisted Leibniz rule d_alpha(f g) =
d_alpha(f) (g o r_alpha) + f d_alpha(g), a monomial's quotient follows from
the coordinates' in integers.  kappa is constant on each orbit O of R+ under
the reflections, so T_i = d/dx_i + sum over the orbits of kappa_O S_(O,i) with
S_(O,i) f = sum over alpha in O of alpha_i (f - f o r_alpha) / <alpha, x>, which
does not depend on kappa.  So the Dunkl Laplacian sum_i T_i^2 is affine in
kappa: Delta_kappa = Delta + sum over the orbits of kappa_O L_O with
L_O = sum_i (d_i S_(O,i) + S_(O,i) d_i), since the kappa-quadratic part
sum_i S_(O,i) S_(O',i), summed over the pairs of orbits, vanishes (Dunkl,
Trans. AMS 311, 1989; Roesler, LNM 1817, 2003).  Every kept image is one
poly._Memo, a map that fills itself on a miss, so reading it is a subscript.
S_(O,i) x^e and L_O x^e are kept per orbit, in the geometry of the orbit's
roots (_orbit_entry), and shared by every context whose root system has that
orbit, whatever its kappa, for as long as one such root system lives;
T_i x^e, Delta_kappa x^e and D(x^e e_A) depend on kappa and are kept per
context.  The operators are linear, so they apply these images to any
polynomial term by term.  Everything downstream (Laplacian, Euler operator,
sl2 action, Gaussian conjugation, heat semigroup) is assembled from these
exact pieces.  The functions of the Euler operator E on that path are
affine in mu = p/q and in a rational argument a/b, so each weighs degree d
by one integer over one fixed denominator (_degree_image), with no Fraction
per degree: sl2_h by (2qd + p) / 2q, d_plus_squared_form by 2(2qd + p) / q,
hermite_shift by 2(a - db) / b for n = a/b, and spherical_shift (and
laplace_beltrami, its ell = 0 case) subtracts
(db - a)((d - 2)qb + aq + pb) / qb^2 for ell = a/b.  degree_weighted keeps
the Fraction path for any weight.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Callable, NamedTuple

from .errors import DimensionMismatch, MathPrecondition
from .groups import Matrix, RootSystem, Vector, _Geometry
from .poly import (Block, Polynomial, ScalarLike, _check_axis, _check_degree, _degree_shift, _derivative_map,
                   _exponents, _Memo, _steps, _units, accumulate, compose_linear, divide_by_linear_form, exact,
                   linear_extension)


class DunklContext:
    """A root system, its reflections, and the memos of the Dunkl map, each filled on first read (see poly._Memo).

    _images maps the monomial key of x^e to (T_1 x^e, ..., T_m x^e), _laplacians to Delta x^e, and _diracs, made by
    clifford on first use, the Clifford key of x^e e_A to D(x^e e_A); each image is integer numerators over one
    denominator, and the memos live and die with the context.  kappa is constant on each orbit O of roots, so
    T_i x^e = d_i x^e + sum over the orbits of kappa_O S_(O,i) x^e, and Delta x^e = the classical Laplacian of x^e
    + sum over the orbits of kappa_O L_O x^e, read from no T_i.  The (kappa, geometry) pair of each orbit with
    kappa != 0 is bound at construction (_orbits); the kappa-free maps S_(O,i) and L_O, and the reflections, live
    in the orbit's geometry (see groups and _orbit_entry), shared by every context with the same roots whatever its
    kappa, while one of their root systems lives.  The fills bind m and _orbits, never the context, so a dropped
    context is freed at once.
    """

    __slots__ = ("root_system", "reflections", "_orbits", "_images", "_laplacians", "_diracs", "_fischer",
                 "__weakref__")

    def __init__(self, root_system: RootSystem):
        self.root_system = root_system
        geometry, kappas, m = root_system._geometry, root_system.multiplicities, root_system.m
        self.reflections: tuple[Matrix, ...] = geometry.reflections
        # kappa is orbit-constant, and a zero one adds nothing
        self._orbits = tuple((kappas[orbit[0]], geometry.part(orbit)) for orbit in root_system.orbits
                             if kappas[orbit[0]])
        self._images = _Memo(partial(_dunkl_fill, m, self._orbits))
        self._laplacians = _Memo(partial(_laplacian_fill, m, self._orbits))
        self._diracs = None  # a _Memo of the T memo, made by clifford, which operators cannot import
        # degree -> (frame, its factor), filled by hermite._fischer_factor; not a _Memo, since its fill reads the
        # context itself, and a memo that does is a cycle
        self._fischer: dict[int, tuple] = {}

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


def _chain_setup(m: int, alpha: Vector, refl: Matrix) -> tuple:
    """(s, the rows of the integer matrix s R, C, t) with C_j / t = d_alpha x_j, divided by compose_linear
    and divide_by_linear_form: a substitution that is not alpha's reflection raises here, and once every
    x_j - R x_j divides, every x^e - x^e o R does, by the Leibniz rule.  Row j holds (the key of x_k,
    (s R)_jk) for the nonzero entries."""
    s = lcm(*(a.denominator for row in refl for a in row))
    firsts = [divide_by_linear_form(x - compose_linear(x, refl), alpha).coefficient((0,) * m)
              for x in (Polynomial.variable(m, j) for j in range(m))]
    t = lcm(*(c.denominator for c in firsts))
    units = _units(m)
    rows = tuple(tuple((units[k], int(a * s)) for k, a in enumerate(row) if a) for row in refl)
    return s, rows, tuple(int(c * t) for c in firsts), t


class _OrbitEntry(NamedTuple):
    """The kappa-free part of the Dunkl map on one orbit O of roots, kept in the geometry of O's roots (see
    _orbit_entry) and so shared by every root system that has the orbit, whatever its kappa.

    axes holds, per axis i where some root of the orbit is nonzero, (i, ((r, alpha_i), ...)) over the roots r
    with alpha_i != 0 (an integer alpha_i as an int); chains holds _chain_setup per root.  blocks and laplacians are
    memos (poly._Memo) of the monomial key of x^e: blocks to the nonzero S_(O,i) x^e = sum over the orbit's roots of
    alpha_i d_alpha x^e as ((i, block), ...), filled by _orbit_blocks from (m, axes, chains); laplacians to
    L_O x^e = sum_i (d_i S_(O,i) + S_(O,i) d_i) x^e as one block, filled by _orbit_laplacian from (m, axes, blocks).
    Neither fill holds the entry."""
    axes: tuple
    chains: tuple
    blocks: _Memo
    laplacians: _Memo


def _orbit_entry(geometry: _Geometry) -> _OrbitEntry:
    """The entry of the geometry's roots as one orbit, made on first use and kept in the geometry, its maps empty
    until read.  A root's set-up is made once, in its own geometry's entry.  A set-up that raises keeps nothing."""
    entry = geometry.entry
    if entry is None:
        m, roots = geometry.m, geometry.roots
        chains = ((_chain_setup(m, roots[0], geometry.reflections[0]),) if len(roots) == 1 else
                  tuple(_orbit_entry(geometry.part((r,))).chains[0] for r in range(len(roots))))
        axes = []
        for i in range(m):
            weights = tuple((r, int(alpha[i]) if alpha[i].denominator == 1 else alpha[i])
                            for r, alpha in enumerate(roots) if alpha[i])
            if weights:  # an axis where every root of the orbit is 0 has no S_i
                axes.append((i, weights))
        axes = tuple(axes)
        blocks = _Memo(partial(_orbit_blocks, m, axes, chains))
        entry = geometry.entry = _OrbitEntry(axes, chains, blocks, _Memo(partial(_orbit_laplacian, m, axes, blocks)))
    return entry


def _leibniz_chain(key: int, steps: list[int], s: int, rows: tuple, firsts: tuple, units: tuple) -> dict:
    """t s^(K-1) d_alpha x^e for e = sum of eps_j over the K steps j and key the key of x^e, by the Leibniz rule:
    the sum over the steps k of s^(K-1-k) C_(j_k) G_k x^(e - e_(k+1)), where e_k is the sum of the first k steps and
    G <- (s R)_j G keeps G_k = s^k (x^(e_k) o r_alpha).  units[j] is the key of x_j: the factor x^(e - e_(k+1)) adds
    its key, which is key less the units of the first k + 1 steps."""
    g, q = {0: 1}, {}
    offset, scale = key, s ** (len(steps) - 1)
    for k, j in enumerate(steps):
        if k:  # G takes the previous step's row here, so the last step builds no G it never reads
            g, product, row = {}, g, rows[steps[k - 1]]
            get = g.get
            for f, v in product.items():
                for unit, a in row:
                    f_unit = f + unit
                    g[f_unit] = get(f_unit, 0) + a * v
            scale //= s
        offset -= units[j]
        c = firsts[j] * scale
        if c:
            get = q.get
            for f, v in g.items():
                f_offset = f + offset
                q[f_offset] = get(f_offset, 0) + c * v
    return q


def _orbit_blocks(m: int, axes: tuple, chains: tuple, key: int) -> tuple:
    """The fill of an orbit entry's blocks: the nonzero S_i x^e of the orbit as ((i, block), ...), by one Leibniz
    chain per root, then per axis one accumulation of the roots' quotients weighted by alpha_i."""
    steps = _steps(m, key)
    lift, units = len(steps) - 1, _units(m)
    quotients = [(t * s ** lift, q.items()) if q else None for s, rows, firsts, t in chains
                 for q in (_leibniz_chain(key, steps, s, rows, firsts, units),)]
    blocks = []
    for i, weights in axes:
        parts = [(w, quotients[r], None) for r, w in weights if quotients[r]]
        if len(parts) == 1 and parts[0][0] == 1:  # one root with alpha_i = 1, as in z2 and B's short orbit
            blocks.append((i, parts[0][1]))
        elif parts:
            den, nums = accumulate(parts)
            if nums:
                blocks.append((i, (den, tuple(nums.items()))))
    return tuple(blocks)


def _orbit_laplacian(m: int, axes: tuple, blocks: _Memo, key: int) -> Block:
    """The fill of an orbit entry's laplacians: L_O x^e = sum_i d_i (S_(O,i) x^e) + e_i S_(O,i) x^(e - eps_i), one
    accumulation of the derivative of each block S_(O,i) x^e and of the orbit's blocks one degree down."""
    parts = [(1, block, _derivative_map(m, i)) for i, block in blocks[key]]
    for i, _ in axes:  # S_(O,i) is 0 on the other axes; d_i x^e is e_i x^(e - eps_i), or nothing
        for down, n in _derivative_map(m, i)(key)[1]:
            parts += [(n, block, None) for j, block in blocks[down] if j == i]
    den, nums = accumulate(parts)
    return den, tuple(nums.items())


def _dunkl_fill(m: int, orbits: tuple, key: int) -> tuple[Block, ...]:
    """The fill of a context's T memo: T_1 x^e, ..., T_m x^e as blocks (den, ((key, int), ...)), per axis one
    accumulation of the derivative and the kappa-weighted blocks S_(O,i) x^e of the active orbits."""
    units, e = _units(m), _exponents(m, (key,))[0]
    parts = [[(n, (1, ((key - units[i], 1),)), None)] if n else [] for i, n in enumerate(e)]
    for kappa, geometry in orbits:
        for i, block in _orbit_entry(geometry).blocks[key]:
            parts[i].append((kappa, block, None))
    # kept as term tuples, not Polynomials: the memo is most of what a context holds
    return tuple((den, tuple(nums.items())) for den, nums in map(accumulate, parts))


def _laplacian_fill(m: int, orbits: tuple, key: int) -> Block:
    """The fill of a context's Delta memo: one accumulation of the classical Delta x^e and kappa_O L_O x^e over the
    active orbits, L_O x^e read from the orbit entry."""
    units, e = _units(m), _exponents(m, (key,))[0]
    parts = [(1, (1, [(key - 2 * units[i], n * (n - 1)) for i, n in enumerate(e) if n > 1]), None)]
    parts += [(kappa, _orbit_entry(geometry).laplacians[key], None) for kappa, geometry in orbits]
    den, nums = accumulate(parts)
    return den, tuple(nums.items())


def _dunkl_map(ctx: DunklContext, axis: int) -> Callable[[int], Block]:
    """key -> T_axis of the key's monomial, read from the context's memo."""
    images = ctx._images
    return lambda key: images[key][axis]


def dunkl_derivative(ctx: DunklContext, axis: int, f: Polynomial) -> Polynomial:
    """Apply the Dunkl operator along one axis (0-based)."""
    return linear_extension(f.m, [(1, _check(ctx, f, axis), _dunkl_map(ctx, axis))])


def dunkl_laplacian(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """Sum over axes of the squared Dunkl operator."""
    return linear_extension(f.m, [(1, _check(ctx, f), ctx._laplacians.__getitem__)])


def _degree_image(m: int, den: int, weight: Callable[[int], int]) -> Callable[[int], Block]:
    """x^e -> weight(|e|) / den x^e in m variables, for an integer weight of the degree over one fixed den > 0."""
    shift = _degree_shift(m)
    return lambda key: (den, ((key, weight(key >> shift)),))


def _ratio(value: ScalarLike) -> tuple[int, int]:
    """(a, b) with value = a / b and b > 0: an int is (value, 1), anything else goes through exact, which refuses a
    float."""
    if type(value) is int:
        return value, 1
    value = exact(value)
    return value.numerator, value.denominator


def _shifts(f: Polynomial) -> Callable[[int], Block]:
    """x^e -> |x|^2 x^e, the sum over the axes i of x^(e + 2 eps_i), for the terms of f: one key addition per axis.
    Refuses a degree past the cap first."""
    _check_degree((f.total_degree() or 0) + 2)
    offsets = [2 * unit for unit in _units(f.m)]
    return lambda key: (1, [(key + offset, 1) for offset in offsets])


def degree_weighted(f: Polynomial, weight: Callable[[int], ScalarLike]) -> Polynomial:
    """x^e maps to weight(|e|) * x^e: any function of the Euler operator, as a diagonal map, the weight made exact
    (a float is refused) once per degree."""
    weights, shift = _Memo(lambda d: ((w := exact(weight(d))).denominator, w.numerator)), _degree_shift(f.m)

    def image(key: int) -> Block:
        den, num = weights[key >> shift]
        return den, ((key, num),)
    return linear_extension(f.m, [(1, f._block, image)])


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
    return linear_extension(f.m, [(1, f._block, _shifts(f))])


_HALF, _MINUS_HALF = Fraction(1, 2), Fraction(-1, 2)


def sl2_e(f: Polynomial) -> Polynomial:
    """Raising element: multiplication by |x|^2 / 2, the shift and the 1/2 in one accumulation."""
    return linear_extension(f.m, [(_HALF, f._block, _shifts(f))])


def sl2_f(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """Lowering element: -1/2 times the Dunkl Laplacian, in one accumulation."""
    return linear_extension(f.m, [(_MINUS_HALF, _check(ctx, f), ctx._laplacians.__getitem__)])


def sl2_h(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """Neutral element: Euler operator plus mu/2; with mu = p/q, degree d weighs (2qd + p) / 2q."""
    block, (p, q) = _check(ctx, f), _ratio(ctx.mu)
    return linear_extension(f.m, [(1, block, _degree_image(f.m, 2 * q, lambda d: 2 * q * d + p))])


def spherical_shift(ctx: DunklContext, f: Polynomial, ell: ScalarLike, scale: ScalarLike = 1) -> Polynomial:
    """scale (L + ell(mu - 2 + ell)) f, L = |x|^2 Delta - E(mu - 2 + E); degree d weighs (d - ell)(mu - 2 + d + ell).

    With mu = p/q and ell = a/b that weight is (db - a)(qbd + (a - 2b)q + pb) / qb^2, one integer over one
    denominator.  Two accumulations: Delta f, then its |x|^2 shift less the degree weights of f, both times scale.
    Shifting Delta f rather than each term's image shifts every monomial of Delta f once, however many images
    share it."""
    (a, b), (p, q) = _ratio(ell), _ratio(ctx.mu)
    qb, c = q * b, (a - 2 * b) * q + p * b
    weight = _degree_image(f.m, qb * b, lambda d: (a - d * b) * (qb * d + c))  # subtracted, so negated
    lf = dunkl_laplacian(ctx, f)
    return linear_extension(f.m, [(scale, lf._block, _shifts(lf)), (scale, f._block, weight)])


def hermite_shift(ctx: DunklContext, f: Polynomial, n: ScalarLike) -> Polynomial:
    """(Delta - 2E + 2n) f, zero on the Hermite elements of total degree n; with n = a/b, degree d weighs
    -2(d - n) = 2(a - db) / b."""
    a, b = _ratio(n)
    block = _check(ctx, f)
    return linear_extension(f.m, [(1, block, ctx._laplacians.__getitem__),
                                  (1, block, _degree_image(f.m, b, lambda d: 2 * (a - d * b)))])


def laplace_beltrami(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """|x|^2 Delta - E(mu - 2 + E) with E the Euler operator; degree preserving.  The ell = 0 spherical shift: with
    mu = p/q, E(mu - 2 + E) weighs degree d by d(qd + p - 2q) / q."""
    return spherical_shift(ctx, f, 0)


def d_plus_squared_form(ctx: DunklContext, f: Polynomial) -> Polynomial:
    """-Delta f - 4|x|^2 f + 2(2E + mu) f, the scalar form of the squared raising operator (D+)^2; with mu = p/q,
    degree d weighs 2(2qd + p) / q."""
    block, (p, q) = _check(ctx, f), _ratio(ctx.mu)
    return linear_extension(f.m, [(1, block, _degree_image(f.m, q, lambda d: 2 * (2 * q * d + p))),
                                  (-1, block, ctx._laplacians.__getitem__),
                                  (-4, block, _shifts(f))])


def _conjugated(ctx: DunklContext, weight: Fraction, axis: int, block: Block) -> list:
    """The parts of (T_axis + weight x_axis) on a block: the T memo's image, and the key of x_axis added to each
    key."""
    unit = _units(ctx.m)[axis]
    return [(1, block, _dunkl_map(ctx, axis)), (weight, block, lambda key: (1, ((key + unit, 1),)))]


def conjugated_dunkl(ctx: DunklContext, rate: Fraction, axis: int, f: Polynomial) -> Polynomial:
    """Dunkl operator conjugated by exp(rate * |x|^2): T_i + 2 * rate * x_i."""
    block, weight = _check(ctx, f, axis), 2 * exact(rate)
    _check_degree((f.total_degree() or 0) + 1)
    return linear_extension(f.m, _conjugated(ctx, weight, axis, block))


def conjugated_laplacian(ctx: DunklContext, rate: Fraction, f: Polynomial) -> Polynomial:
    """Dunkl Laplacian conjugated by exp(rate * |x|^2): sum of squared conjugated operators T_i + 2 rate x_i.

    A sum of squares on purpose, not the affine form of dunkl_laplacian: hermite's Rodrigues side reads this and
    its recursion side the affine Laplacian, so their agreement compares the two ways of computing it.  One
    accumulation per axis for the first applications, then one of all the second applications."""
    block, m = _check(ctx, f), ctx.m
    _check_degree((f.total_degree() or 0) + 2)
    weight, seconds = 2 * exact(rate), []
    for i in range(m):
        den, nums = accumulate(_conjugated(ctx, weight, i, block))
        seconds += _conjugated(ctx, weight, i, (den, nums.items()))
    return linear_extension(m, seconds)


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
    _check_axis(ctx.m, axis)
    return f._block
