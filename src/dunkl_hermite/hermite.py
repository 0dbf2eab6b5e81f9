"""Clifford-Hermite polynomials by three routes, plus Fischer decomposition.

A Hermite element of index (t, ell) is a radial polynomial of degree t in
|x|^2 times a Dunkl-harmonic polynomial of degree ell.  Three independent
constructions, the routes of _CONSTRUCTIONS, read one checked harmonic and
its radial tower |x|^{2i} h (_checked), and are cross-checked:

  recursion: t-fold application of the scalar square of the raising operator,
  rodrigues: Gaussian conjugation of the t-th Laplacian power,
  laguerre:  closed-form radial profile from a generalized Laguerre polynomial.

The same module carries the Fischer decomposition of homogeneous polynomials
into harmonic layers, the heat-semigroup Hermite family, and the exact
verdict-producing checks that tie all of these together; the roesler suite
and orthogonality_report read one adapted basis of them (_adapted_basis).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Sequence

from .errors import DimensionMismatch, MathPrecondition
from .linalg import FrameFactor, _eliminate, _sparse_rows, kernel_basis
from .operators import (DunklContext, WeightedFunction, conjugated_laplacian, d_plus_squared_form,
                        dunkl_laplacian, heat_semigroup, hermite_shift, radial_tower, spherical_shift)
from .poly import (Polynomial, dim_homogeneous, exact, json_int, linear_extension, monomial_basis, monomial_keys,
                   parse_rational, rational_str)


def mu_is_degenerate(mu: Fraction) -> bool:
    """True when mu lies in {0, -2, -4, ...}, where Fischer theory fails."""
    mu = exact(mu)
    return mu.denominator == 1 and mu <= 0 and mu.numerator % 2 == 0


def _require_mu(ctx: DunklContext, what: str) -> None:
    if mu_is_degenerate(ctx.mu):
        raise MathPrecondition(f"{what} requires mu not in -2N; got mu = {ctx.mu}")


@dataclass(frozen=True)
class HarmonicBasis:
    """Canonical basis of the Dunkl-harmonic polynomials of one degree."""

    degree: int
    elements: tuple[Polynomial, ...]


# Keyed on a weak reference, so the cache does not keep a context (and its memo) alive.  An
# entry of a dropped context is never hit again; the bound evicts those, and lies far above
# the number of bases a computation revisits (a few degrees of a few live contexts).
HARMONIC_CACHE_SIZE = 256


@lru_cache(maxsize=HARMONIC_CACHE_SIZE)
def _harmonic_basis_cached(ctx_ref: "weakref.ref[DunklContext]", degree: int) -> HarmonicBasis:
    ctx = ctx_ref()
    basis = monomial_keys(ctx.m, degree)
    vectors = kernel_basis([ctx._laplacians[key] for key in basis], basis)
    return HarmonicBasis(degree=degree, elements=tuple(Polynomial._new(ctx.m, (1, v)) for v in vectors))  # content 1


def harmonic_basis(ctx: DunklContext, degree: int) -> HarmonicBasis:
    """Kernel of the Dunkl Laplacian on the homogeneous component of one degree."""
    if degree < 0:
        raise MathPrecondition(f"degree must be >= 0, got {degree}")
    return _harmonic_basis_cached(weakref.ref(ctx), degree)


def harmonic_dimension_classical(m: int, degree: int) -> int:
    """dim of degree-d harmonics expected from the Fischer count."""
    return dim_homogeneous(m, degree) - dim_homogeneous(m, degree - 2)


# -- Fischer decomposition -------------------------------------------------

def fischer_frame(ctx: DunklContext, degree: int) -> list[tuple[int, int, Polynomial]]:
    """Basis (i, harmonic index, |x|^{2i} h) of the degree-k component."""
    return [(i, j, radial_tower(h, i)[i]) for i in range(degree // 2 + 1)
            for j, h in enumerate(harmonic_basis(ctx, degree - 2 * i).elements)]


def _fischer_factor(ctx: DunklContext, degree: int) -> tuple[list[tuple[int, int, Polynomial]], FrameFactor]:
    entry = ctx._fischer.get(degree)
    if entry is None:
        frame = fischer_frame(ctx, degree)
        entry = ctx._fischer[degree] = (frame, FrameFactor([q for _, _, q in frame]))
    return entry


def fischer_decompose(ctx: DunklContext, p: Polynomial) -> list[tuple[int, Polynomial]]:
    """Split homogeneous p into its |x|^{2i} x harmonic layers (nonzero ones only).

    The frame of each degree is factored once per context and reused.  With p = t/den, coordinate c
    times q_c = nums(q_c) / den_c is dot_c nums(q_c) / (pivot_c den) (FrameFactor): the frame's
    denominators cancel, so a layer sums integer scales, each pivot's sign moved into its scale.
    """
    if p.m != ctx.m:
        raise DimensionMismatch(
            f"dimension mismatch: polynomial in {p.m} variables vs context dimension {ctx.m}")
    if not p.is_homogeneous():
        raise MathPrecondition("Fischer decomposition needs a homogeneous polynomial; "
                               "split the input into homogeneous parts first")
    _require_mu(ctx, "Fischer decomposition")
    if not p:
        return []
    frame, factor = _fischer_factor(ctx, p.homogeneous_degree())
    parts: dict[int, list] = {}
    for (i, _, q), (_, pivot, _), dot in zip(frame, factor.pivots, factor._dots(p)):
        if dot:
            scale = dot if pivot > 0 else -dot  # every block's denominator positive, as accumulate reads it
            parts.setdefault(i, []).append((scale, (abs(pivot) * p._den, q._nums.items()), None))
    layers = [(i, linear_extension(ctx.m, parts[i])) for i in sorted(parts)]
    return [(i, layer) for i, layer in layers if layer]


def fischer_project(ctx: DunklContext, i: int, degree: int, p: Polynomial) -> Polynomial:
    """Projection onto the |x|^{2i} harmonic layer via the spherical operator.

    Built as the product over l != i of
        (L + (k-2l)(mu-2+k-2l)) / (2(i-l)(2k-2i-2l+mu-2))
    where L = |x|^2 Delta - E(mu-2+E); every denominator is checked.  With mu = p/q each factor's scale is
    q / N for the integer N = 2(i-l)((2k-2i-2l-2)q + p), one Fraction per factor.
    """
    _require_mu(ctx, "Fischer projection")
    if not p.is_homogeneous():
        raise MathPrecondition("Fischer projection needs a homogeneous polynomial")
    if p and p.homogeneous_degree() != degree:
        raise MathPrecondition(
            f"polynomial of degree {p.homogeneous_degree()} fed to projection on degree {degree}")
    if not 0 <= i <= degree // 2:
        raise MathPrecondition(f"layer index {i} out of range for degree {degree}")
    mu = ctx.mu
    out = p
    for l in range(degree // 2 + 1):
        if l == i:
            continue
        denominator = 2 * (i - l) * ((2 * degree - 2 * i - 2 * l - 2) * mu.denominator + mu.numerator)
        if denominator == 0:
            raise MathPrecondition(
                f"projection denominator vanishes at (i={i}, l={l}, mu={mu})")
        out = spherical_shift(ctx, out, degree - 2 * l, Fraction(mu.denominator, denominator))
    return out


# -- Hermite records and the three constructions ----------------------------

@dataclass(frozen=True)
class HermiteRecord:
    """One Hermite element: radial profile coefficients and the full polynomial.

    radial_coeffs[i] multiplies |x|^{2i} * harmonic; index 0 first; the top
    coefficient always equals (-4)^t.
    """

    t: int
    ell: int
    mu: Fraction
    harmonic: Polynomial
    radial_coeffs: tuple[Fraction, ...]
    polynomial: Polynomial

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "ell": self.ell,
            "mu": rational_str(self.mu),
            "radial_coeffs": [rational_str(c) for c in self.radial_coeffs],
            "harmonic": self.harmonic.to_json(),
            "polynomial": self.polynomial.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "HermiteRecord":
        return cls(
            t=json_int(data["t"], "t"),
            ell=json_int(data["ell"], "ell"),
            mu=parse_rational(data["mu"]),
            harmonic=Polynomial.from_json(data["harmonic"]),
            radial_coeffs=tuple(parse_rational(c) for c in data["radial_coeffs"]),
            polynomial=Polynomial.from_json(data["polynomial"]),
        )


def _validated_harmonic(ctx: DunklContext, harmonic: Polynomial) -> int:
    if not harmonic:
        raise MathPrecondition("harmonic factor must be nonzero")
    if not harmonic.is_homogeneous():
        raise MathPrecondition("harmonic factor must be homogeneous")
    if dunkl_laplacian(ctx, harmonic):
        raise MathPrecondition("polynomial is not Dunkl-harmonic: its Laplacian is nonzero")
    return harmonic.homogeneous_degree()


def _radial_sum(tower: Sequence[Polynomial], coords: Sequence[Fraction]) -> Polynomial:
    """sum_i coords[i] |x|^{2i} h over the tower [h, |x|^2 h, ...]."""
    return linear_extension(tower[0].m, [(c, layer._block, None) for c, layer in zip(coords, tower)])


def _radial_coordinates(tower: Sequence[Polynomial], target: Polynomial) -> list[Fraction]:
    """Coordinates of target in the tower of a nonzero homogeneous h: layer i has its own degree, so coordinate i
    is one ratio of integers at the layer's leading key, and one exact reconstruction checks membership."""
    coords = [Fraction(target._nums.get(key, 0) * layer._den, num * target._den)
              for layer in tower for key, num in (max(layer._nums.items()),)]
    if _radial_sum(tower, coords) != target:
        raise MathPrecondition("target polynomial is not in the span of the frame")
    return coords


def _checked(ctx: DunklContext, ts: Sequence[int], harmonic: Polynomial) -> tuple[int, list[Polynomial]]:
    """The one check behind every route: t < 0 refused for the first t in ts (ascending), then the harmonic checked
    once; returns its degree and its radial tower |x|^{2i} * harmonic, i up to the last t."""
    if ts[0] < 0:
        raise MathPrecondition(f"index t must be >= 0, got {ts[0]}")
    return _validated_harmonic(ctx, harmonic), radial_tower(harmonic, ts[-1])


def _iterated(ctx: DunklContext, ts: Sequence[int], ell: int, tower: Sequence[Polynomial],
              step: Callable[[DunklContext, Polynomial], Polynomial]) -> list[HermiteRecord]:
    """The records t in ts of step applied t times to tower[0], in one loop; only they read tower coordinates."""
    iterates = [tower[0]]
    for _ in range(ts[-1]):
        iterates.append(step(ctx, iterates[-1]))
    return [HermiteRecord(t=t, ell=ell, mu=ctx.mu, harmonic=tower[0], polynomial=iterates[t],
                          radial_coeffs=tuple(_radial_coordinates(tower[:t + 1], iterates[t]))) for t in ts]


def _recursion(ctx: DunklContext, ts: Sequence[int], ell: int, tower: Sequence[Polynomial]) -> list[HermiteRecord]:
    return _iterated(ctx, ts, ell, tower, d_plus_squared_form)


def _rodrigues(ctx: DunklContext, ts: Sequence[int], ell: int, tower: Sequence[Polynomial]) -> list[HermiteRecord]:
    return _iterated(ctx, ts, ell, tower, lambda ctx, p: -conjugated_laplacian(ctx, -1, p))


def laguerre_poly(t: int, a: Fraction) -> tuple[Fraction, ...]:
    """Coefficients (constant first) of the generalized Laguerre polynomial L_t^a.

    Gamma-function ratios are evaluated as exact rising products; parameters a
    in {-1, ..., -t} collapse those products and are refused.
    """
    if t < 0:
        raise MathPrecondition(f"index t must be >= 0, got {t}")
    a = exact(a)
    if a.denominator == 1 and -t <= a <= -1:
        raise MathPrecondition(f"Laguerre parameter pole: a = {a} lies in {{-1, ..., -{t}}}")
    coeffs = []
    for i in range(t + 1):
        rising = Fraction(1)
        for j in range(i + 1, t + 1):
            rising *= a + j
        sign = -1 if i & 1 else 1
        coeffs.append(sign * rising / (factorial(i) * factorial(t - i)))
    return tuple(coeffs)


def _laguerre(ctx: DunklContext, ts: Sequence[int], ell: int, tower: Sequence[Polynomial]) -> list[HermiteRecord]:
    """Each closed-form radial profile of ch_laguerre summed over tower[:t + 1]."""
    radials = [tuple(4 ** t * factorial(t) * c for c in laguerre_poly(t, ctx.mu / 2 + ell - 1)) for t in ts]
    return [HermiteRecord(t=t, ell=ell, mu=ctx.mu, harmonic=tower[0], radial_coeffs=radial,
                          polynomial=_radial_sum(tower[:t + 1], radial)) for t, radial in zip(ts, radials)]


# The three constructions as routes (ctx, ts, ell, tower) -> the records t in ts, fed by one _checked harmonic.  Callers
# read a route here at call time, and each route reads its step from the module globals at call time.
_CONSTRUCTIONS = {"recursion": _recursion, "rodrigues": _rodrigues, "laguerre": _laguerre}


def ch_recursion(ctx: DunklContext, t: int, harmonic: Polynomial) -> HermiteRecord:
    """t-fold application of the scalar operator -Delta - 4|x|^2 + 2(2E + mu)."""
    return _CONSTRUCTIONS["recursion"](ctx, (t,), *_checked(ctx, (t,), harmonic))[0]


def ch_rodrigues(ctx: DunklContext, t: int, harmonic: Polynomial) -> HermiteRecord:
    """t-fold application of the Gaussian-conjugated negated Laplacian.

    exp(|x|^2) (-Delta)^t exp(-|x|^2) acts on polynomials as the t-th power of
    the negated Laplacian conjugated at rate -1; no symbolic exponentials.
    """
    return _CONSTRUCTIONS["rodrigues"](ctx, (t,), *_checked(ctx, (t,), harmonic))[0]


def ch_laguerre(ctx: DunklContext, t: int, ell: int, harmonic: Polynomial) -> HermiteRecord:
    """Closed-form radial profile 2^{2t} t! L_t^{mu/2 + ell - 1}(|x|^2) times the harmonic."""
    actual, tower = _checked(ctx, (t,), harmonic)
    if actual != ell:
        raise MathPrecondition(f"harmonic has degree {actual}, expected ell = {ell}")
    return _CONSTRUCTIONS["laguerre"](ctx, (t,), ell, tower)[0]


def _adapted_basis(ctx: DunklContext, top: int) -> list[list[tuple[tuple[int, int, int], Polynomial, HermiteRecord]]]:
    """Per degree n <= top, entries ((t, ell, j), |x|^{2t} h_j, recursion record (t, ell) of h_j), 2t + ell = n, t then
    j; one check, tower and recursion family t = 0..(top - ell)//2 per harmonic, the route read at call time."""
    families = [[(checked[1], _CONSTRUCTIONS["recursion"](ctx, ts, *checked))
                 for h in harmonic_basis(ctx, ell).elements for checked in (_checked(ctx, ts, h),)]
                for ell in range(top + 1) for ts in (range((top - ell) // 2 + 1),)]
    return [[((t, n - 2 * t, j), tower[t], records[t]) for t in range(n // 2 + 1)
             for j, (tower, records) in enumerate(families[n - 2 * t])] for n in range(top + 1)]


@dataclass(frozen=True)
class RecursionCheck:
    """Exact verdict for the two radial-coefficient recurrences."""

    ok: bool
    step_failures: tuple[tuple[int, Fraction], ...]   # (i, residual) linking t-1 to t
    internal_failures: tuple[tuple[int, Fraction], ...]  # (i, residual) within one record


def coefficient_recursions_check(previous: HermiteRecord, current: HermiteRecord) -> RecursionCheck:
    """Check the step recurrence against the previous record and the internal
    two-term recurrence of the current record; residuals are exact rationals."""
    if current.t != previous.t + 1:
        raise MathPrecondition(f"records are not consecutive: t = {previous.t} then {current.t}")
    if current.ell != previous.ell or current.mu != previous.mu:
        raise MathPrecondition("records belong to different (ell, mu) families")
    ell, mu, t = current.ell, current.mu, current.t

    def coeff(record: HermiteRecord, i: int) -> Fraction:
        return record.radial_coeffs[i] if 0 <= i < len(record.radial_coeffs) else Fraction(0)

    step = []
    for i in range(t + 1):
        expected = (-(2 * i + 2) * (2 * ell + mu + 2 * i) * coeff(previous, i + 1)
                    + 2 * (2 * ell + 4 * i + mu) * coeff(previous, i)
                    - 4 * coeff(previous, i - 1))
        residual = coeff(current, i) - expected
        if residual:
            step.append((i, residual))
    internal = []
    for i in range(t + 1):
        lhs = -2 * (2 * t - 2 * i) * coeff(current, i)
        rhs = (2 * i + 2) * (2 * ell + mu + 2 * i) * coeff(current, i + 1)
        residual = lhs - rhs
        if residual:
            internal.append((i, residual))
    return RecursionCheck(ok=not step and not internal,
                          step_failures=tuple(step), internal_failures=tuple(internal))


# -- heat-semigroup Hermite family ------------------------------------------

def rosler_hermite(ctx: DunklContext, p: Polynomial) -> Polynomial:
    """2^n exp(-Delta/4) p for homogeneous p of degree n."""
    if not p or not p.is_homogeneous():
        raise MathPrecondition("input must be a nonzero homogeneous polynomial")
    n = p.homogeneous_degree()
    return (Fraction(2) ** n) * heat_semigroup(ctx, p)


@dataclass(frozen=True)
class EigenspaceReport:
    """Verdict of the eigenvalue and span checks for one total degree."""

    degree: int
    cases: int
    failures: tuple[dict, ...]
    heat_family_rank: int
    hermite_family_rank: int
    combined_rank: int
    expected_rank: int

    @property
    def ok(self) -> bool:
        return (not self.failures
                and self.heat_family_rank == self.expected_rank
                and self.hermite_family_rank == self.expected_rank
                and self.combined_rank == self.expected_rank)


def _span_rank(polys: Sequence[Polynomial]) -> int:
    return len(_eliminate(_sparse_rows([q._nums.items() for q in polys]), len(polys)))  # one step per pivot


def eigenspace_checks(ctx: DunklContext, degree: int) -> EigenspaceReport:
    """(Delta - 2E) q = -2n q for both Hermite families of total degree n,
    plus the rank comparison showing the two families span the same dimension."""
    _require_mu(ctx, "eigenspace comparison")
    hermite_family = [ch_recursion(ctx, t, h).polynomial for t in range(degree // 2 + 1)
                      for h in harmonic_basis(ctx, degree - 2 * t).elements]
    return _eigenspace(ctx, degree, hermite_family)[0]


def _eigenspace(ctx: DunklContext, degree: int, hermite_family: list) -> tuple[EigenspaceReport, list[Polynomial]]:
    """eigenspace_checks on a given Hermite family: its report and the heat images of the monomials of the degree."""
    heat_family = [rosler_hermite(ctx, Polynomial.monomial(ctx.m, e))
                   for e in monomial_basis(ctx.m, degree)]
    failures = []
    for label, family in (("heat", heat_family), ("hermite", hermite_family)):
        for q in family:
            residual = hermite_shift(ctx, q, degree)
            if residual:
                failures.append({"family": label, "input": q.to_json(), "residual": residual.to_json()})
    expected = dim_homogeneous(ctx.m, degree)
    return EigenspaceReport(degree=degree, cases=len(heat_family) + len(hermite_family), failures=tuple(failures),
                            heat_family_rank=_span_rank(heat_family),
                            hermite_family_rank=_span_rank(hermite_family),
                            combined_rank=_span_rank(heat_family + hermite_family), expected_rank=expected), heat_family


def proportionality_constant(ctx: DunklContext, i: int, n: int, harmonic: Polynomial) -> Fraction:
    """Exact constant c with 2^n exp(-Delta/4)(|x|^{2i} H) = c * (radial Hermite profile) * H.

    Computed by coefficient comparison; failure to be exactly proportional is
    a hard error.  The constant depends only on (i, n, mu), never on which
    basis harmonic is supplied.
    """
    ell = _validated_harmonic(ctx, harmonic)
    if ell != n - 2 * i:
        raise MathPrecondition(f"harmonic degree {ell} does not match n - 2i = {n - 2 * i}")
    if i < 0:
        raise MathPrecondition(f"index t must be >= 0, got {i}")
    tower = radial_tower(harmonic, i)
    return _proportionality(ctx, i, n, tower[i], _CONSTRUCTIONS["recursion"](ctx, (i,), ell, tower)[0])


def _proportionality(ctx: DunklContext, i: int, n: int, frame: Polynomial, record: HermiteRecord) -> Fraction:
    """proportionality_constant from the built frame element |x|^{2i} h and recursion record (i, ell) of h."""
    heat_image = rosler_hermite(ctx, frame)
    hermite = record.polynomial
    lead_exp, lead_coeff = hermite.leading_term()
    c = heat_image.coefficient(lead_exp) / lead_coeff
    if heat_image - c * hermite:
        raise MathPrecondition(
            f"heat image of |x|^{{{2 * i}}} * harmonic is not proportional to the Hermite element "
            f"(i={i}, n={n})")
    return c


@dataclass(frozen=True)
class WeightedCheck:
    """Verdict of the Gaussian-weighted eigenfunction equation for one input."""

    ok: bool
    degree: int
    eigenvalue: Fraction
    residual: Polynomial


def weighted_eigenfunction_check(ctx: DunklContext, q: Polynomial) -> WeightedCheck:
    """Check (Delta - |x|^2) (q exp(-|x|^2/2)) = -(2n + mu) q exp(-|x|^2/2).

    The input must already satisfy the unweighted eigenvalue equation at its
    top degree n; this is verified first.
    """
    if not q:
        raise MathPrecondition("input must be nonzero")
    n = q.total_degree()
    precondition = hermite_shift(ctx, q, n)
    if precondition:
        raise MathPrecondition(f"input does not satisfy the degree-{n} eigenvalue equation; residual {precondition}")
    weighted = WeightedFunction(q, Fraction(-1, 2))
    lhs = weighted.laplacian(ctx) - weighted.times_norm_squared()
    eigenvalue = -(2 * n + ctx.mu)
    residual = lhs.polynomial_part - eigenvalue * q
    return WeightedCheck(ok=not residual, degree=n, eigenvalue=eigenvalue, residual=residual)
