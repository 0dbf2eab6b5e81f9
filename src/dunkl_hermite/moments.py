"""Exact Gaussian moments and Hermite-function orthogonality reports.

Restricted by design to coordinate-hyperplane root systems (each positive
root supported on a single axis) with nonnegative *integer* multiplicities:
there the weight factorizes as the product of |x_i|^{2 kappa_i} and every
moment of x^a weight exp(-|x|^2) is an exact rational multiple of pi^{m/2},
through Gamma(n + 1/2) = (2n)! / (4^n n!) * sqrt(pi).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .errors import DimensionMismatch, MathPrecondition
from .hermite import _adapted_basis
from .operators import DunklContext
from .poly import Polynomial, exact, json_int, rational_str


@dataclass(frozen=True)
class MomentValue:
    """An exact number of the form coefficient * pi^pi_power."""

    coefficient: Fraction
    pi_power: Fraction

    def __add__(self, other: "MomentValue") -> "MomentValue":
        if self.pi_power != other.pi_power:
            raise MathPrecondition(f"cannot add values with pi powers {self.pi_power} and {other.pi_power}")
        return MomentValue(self.coefficient + other.coefficient, self.pi_power)

    def scale(self, c: Fraction) -> "MomentValue":
        return MomentValue(self.coefficient * exact(c), self.pi_power)

    @property
    def is_zero(self) -> bool:
        return not self.coefficient

    def to_json(self) -> dict:
        return {"value_coeff": rational_str(self.coefficient), "pi_power": rational_str(self.pi_power)}


def gamma_half_integer(n: int) -> Fraction:
    """Gamma(n + 1/2) / sqrt(pi) = (2n)! / (4^n n!) for integer n >= 0."""
    if n < 0:
        raise MathPrecondition(f"Gamma(n + 1/2) with n = {n} < 0 is outside the supported range")
    return Fraction(factorial(2 * n), 4 ** n * factorial(n))


def _check_kappas(kappas: Sequence) -> list[int]:
    clean = []
    for kappa in kappas:
        kappa = exact(kappa)
        if kappa.denominator != 1 or kappa < 0:
            raise MathPrecondition(
                f"moment evaluation needs nonnegative integer multiplicities, got {kappa}")
        clean.append(int(kappa))
    return clean


def weighted_moment(exponents: Sequence[int], kappas: Sequence) -> MomentValue:
    """Integral of x^a * prod |x_i|^{2 kappa_i} * exp(-|x|^2) over R^m."""
    if len(exponents) != len(kappas):
        raise DimensionMismatch(f"dimension mismatch: {len(exponents)} vs {len(kappas)}")
    for a in exponents:
        json_int(a, "exponent")
    return MomentValue(_moment(exponents, _check_kappas(kappas)), Fraction(len(exponents), 2))


def _moment(exponents: Sequence[int], kappas: Sequence[int]) -> Fraction:
    """The coefficient of pi^(m/2) in weighted_moment, for multiplicities already checked to be nonnegative
    integers."""
    coefficient = Fraction(1)
    for a, kappa in zip(exponents, kappas):
        if a < 0:
            raise MathPrecondition(f"negative exponent {a}")
        if a % 2:
            return Fraction(0)
        coefficient *= gamma_half_integer(a // 2 + kappa)
    return coefficient


def inner_product(f: Polynomial, g: Polynomial, kappas: Sequence) -> MomentValue:
    """Exact weighted Gaussian pairing of two polynomials: one sum of the moments of the terms of f g."""
    if f.m != g.m:
        raise DimensionMismatch(f"dimension mismatch: {f.m} vs {g.m}")
    if len(kappas) != f.m:
        raise DimensionMismatch(f"dimension mismatch: {len(kappas)} multiplicities vs dimension {f.m}")
    kappas = _check_kappas(kappas)  # checked once here; _moment trusts them for every product term
    return MomentValue(sum((c * _moment(e, kappas) for e, c in (f * g).terms.items()), Fraction(0)),
                       Fraction(f.m, 2))


def axis_multiplicities(ctx: DunklContext) -> list[Fraction]:
    """Per-axis kappa for a coordinate-hyperplane root system; refuses others.

    Axes with no root get kappa = 0.  Roots may carry any nonzero scale; only
    their direction matters here.
    """
    kappas = [Fraction(0)] * ctx.m
    for alpha, kappa in zip(ctx.root_system.positive_roots, ctx.root_system.multiplicities):
        support = [i for i, c in enumerate(alpha) if c]
        if len(support) != 1:
            raise MathPrecondition(
                "orthogonality requires a coordinate-hyperplane root system; "
                f"root {tuple(str(c) for c in alpha)} is not supported on a single axis")
        kappas[support[0]] = kappa
    return kappas


@dataclass(frozen=True)
class OrthogonalityEntry:
    left: tuple[int, int, int]    # (t, ell, harmonic index)
    right: tuple[int, int, int]
    value: MomentValue

    def to_json(self) -> dict:
        t1, l1, h1 = self.left
        t2, l2, h2 = self.right
        return {
            "left": {"t": t1, "ell": l1, "h_index": h1},
            "right": {"t": t2, "ell": l2, "h_index": h2},
            **self.value.to_json(),
        }


@dataclass(frozen=True)
class OrthogonalityReport:
    """All pairings of Hermite functions up to a total degree.

    Distinct (t, ell) pairs must vanish and land in violations otherwise;
    same-(t, ell) off-diagonal values are recorded without assertion, and the
    diagonal must be strictly positive.
    """

    max_total_degree: int
    entries: tuple[OrthogonalityEntry, ...]
    violations: tuple[OrthogonalityEntry, ...]
    nonpositive_diagonal: tuple[OrthogonalityEntry, ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.nonpositive_diagonal

    def to_json(self) -> dict:
        return {
            "max_total_degree": self.max_total_degree,
            "entries": [e.to_json() for e in self.entries],
            "violations": [e.to_json() for e in self.violations],
            "nonpositive_diagonal": [e.to_json() for e in self.nonpositive_diagonal],
        }


def orthogonality_report(ctx: DunklContext, max_total_degree: int) -> OrthogonalityReport:
    """Pair every Hermite element with 2t + ell <= max degree under the
    weighted Gaussian inner product (Hermite functions pair with the plain
    weight once both Gaussians are accounted for), in the order total, t, harmonic: the adapted basis, read once."""
    kappas = axis_multiplicities(ctx)
    _check_kappas(kappas)
    labeled = [(key, record.polynomial) for entries in _adapted_basis(ctx, max_total_degree)
               for key, _, record in entries]
    entries, violations, nonpositive = [], [], []
    for a, (key_a, poly_a) in enumerate(labeled):
        for key_b, poly_b in labeled[a:]:
            value = inner_product(poly_a, poly_b, kappas)
            entry = OrthogonalityEntry(left=key_a, right=key_b, value=value)
            entries.append(entry)
            if key_a == key_b:
                if value.coefficient <= 0:
                    nonpositive.append(entry)
            elif key_a[:2] != key_b[:2] and not value.is_zero:
                violations.append(entry)
    return OrthogonalityReport(max_total_degree=max_total_degree, entries=tuple(entries),
                               violations=tuple(violations), nonpositive_diagonal=tuple(nonpositive))
