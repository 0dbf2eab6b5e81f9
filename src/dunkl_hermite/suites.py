"""Seeded verification suites producing exact, machine-checkable verdicts.

Each suite sweeps a fixed set of reflection groups with deterministic
multiplicity draws and checks one family of operator or polynomial
identities; a failure carries the exact residual, never a norm.  A suite is
one row of SUITES: a builder for its seeded group cases, the check run on each
case and, for two suites, a check run on the fixed kappa = 0 cases.  One
driver, run_suite, runs every row.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import sub
from typing import Callable, Iterable, Iterator, Sequence

from .clifford import (CliffordPolynomial, d_plus, d_plus_squared_scalar, dunkl_dirac,
                       monogenic_basis, vector_multiply)
from .errors import DunklError
from .groups import builtin_root_system
from .hermite import (_CONSTRUCTIONS, _adapted_basis, _checked, _eigenspace, _proportionality, _require_mu,
                      coefficient_recursions_check, fischer_decompose, fischer_project, harmonic_basis,
                      harmonic_dimension_classical, weighted_eigenfunction_check)
from .moments import orthogonality_report
from .operators import (DunklContext, degree_weighted, dunkl_derivative, dunkl_laplacian, hermite_shift, radial_tower,
                        sl2_e, sl2_f, sl2_h, spherical_shift)
from .poly import Polynomial, monomial_basis, rational_str

SUITE_NAMES = ("commute", "sl2", "lemma1", "anticommutator", "dplus2", "fischer",
               "hermite-eq", "diffeq", "roesler", "orthogonality")


@dataclass(frozen=True)
class Profile:
    """Degree and sweep caps; desk is the full battery, ci a fast subset."""

    name: str
    max_deg: int = 6
    clifford_deg: int = 5
    radial_power_max: int = 3
    lemma_ell_max: int = 4
    t_max: int = 3
    ell_max: int = 3
    construction_draws: int = 5
    operator_draws: int = 2
    fischer_degree_max: int = 6
    eigen_degree_max: int = 5
    span_degree_max: int = 4
    orthogonality_degree_max: int = 5
    orthogonality_kappas: tuple[int, ...] = (0, 1, 2)
    orthogonality_m_max: int = 2


DESK = Profile(name="desk")
CI = Profile(name="ci", max_deg=4, clifford_deg=3, radial_power_max=2, lemma_ell_max=3,
             t_max=2, ell_max=2, construction_draws=2, operator_draws=1,
             fischer_degree_max=4, eigen_degree_max=3, span_degree_max=3,
             orthogonality_degree_max=3, orthogonality_kappas=(0, 1), orthogonality_m_max=1)

PROFILES = {"desk": DESK, "ci": CI}


@dataclass
class SuiteVerdict:
    """Outcome of one suite: case count, exact failures, wall time."""

    suite: str
    cases: int
    failures: list[dict]
    wall_time_ms: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"suite": self.suite, "cases": self.cases, "failures": self.failures}


def _run_cases(worker: Callable, cases: Sequence) -> list:
    """Evaluate the group cases of one suite, in order.

    run_suite calls this by its module name, never inlined: the bench rebinds it to time each group
    case, and an inlined loop would leave battery-ci without latency samples."""
    return [worker(case) for case in cases]


def draw_kappas(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    """count multiplicities in [0, 3] with denominator at most 4."""
    out = []
    for _ in range(count):
        den = rng.choice((1, 2, 3, 4))
        out.append(Fraction(rng.randint(0, 3 * den), den))
    return tuple(out)


@dataclass(frozen=True)
class GroupCase:
    label: str
    family: str
    m: int
    kappas: tuple[Fraction, ...]

    def context(self) -> DunklContext:
        return DunklContext(builtin_root_system(self.family, self.m, self.kappas))

    def describe(self) -> dict:
        return {"group": self.label, "kappa": [rational_str(k) for k in self.kappas]}


OPERATOR_GROUPS = (("z2^2", "z2", 2, 2), ("a2", "a", 3, 1), ("b2", "b", 2, 2))
CONSTRUCTION_GROUPS = (("z2^1", "z2", 1, 1),) + OPERATOR_GROUPS


def group_cases(groups: Iterable[tuple], seed: int, draws: int) -> list[GroupCase]:
    """Deterministic multiplicity draws per group, after kappa = 0, which comes first."""
    rng = random.Random(seed)
    cases = []
    for label, family, m, orbit_count in groups:
        picks: list[tuple[Fraction, ...]] = [(Fraction(0),) * orbit_count]
        seen = set(picks)
        while len(picks) < draws + 1:
            kappas = draw_kappas(rng, orbit_count)
            if kappas in seen:
                continue
            seen.add(kappas)
            picks.append(kappas)
        for kappas in picks:
            cases.append(GroupCase(label=label, family=family, m=m, kappas=kappas))
    return cases


def _scalar_inputs(m: int, max_deg: int) -> list[Polynomial]:
    return [Polynomial.monomial(m, e) for d in range(max_deg + 1) for e in monomial_basis(m, d)]


# -- per-case checks ------------------------------------------------------------
# Each check takes (sweep, context, profile) and reports through the sweep.

class Sweep:
    """Check count and failure records of one group case.

    A failure record is {group, kappa, identity, **detail, residual}; it is
    built, and its detail serialized, only when a check fails.
    """

    def __init__(self, case: GroupCase) -> None:
        self.case = case
        self.cases = 0
        self.failures: list[dict] = []

    def check(self, identity: str, residual, **detail) -> None:
        """One exact check; it fails when the residual is nonzero."""
        self.cases += 1
        if residual:
            self.fail(identity, **detail, residual=residual)

    def expect(self, identity: str, ok: bool, **detail) -> None:
        """One check that fails when ok is false."""
        self.cases += 1
        if not ok:
            self.fail(identity, **detail)

    def fail(self, identity: str, **detail) -> None:
        self.failures.append({**self.case.describe(), "identity": identity,
                              **{key: _json(value) for key, value in detail.items()}})


def _json(value):
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


def _commute(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """Dunkl operators commute pairwise on every monomial up to the cap."""
    for f in _scalar_inputs(ctx.m, profile.max_deg):
        for i in range(ctx.m):
            for j in range(i + 1, ctx.m):
                s.check(f"[T{i + 1}, T{j + 1}] = 0",
                        dunkl_derivative(ctx, i, dunkl_derivative(ctx, j, f))
                        - dunkl_derivative(ctx, j, dunkl_derivative(ctx, i, f)), input=f)


def _sl2(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """[H, E] = 2E, [H, F] = -2F, [E, F] = H on every monomial up to the cap."""
    for f in _scalar_inputs(ctx.m, profile.max_deg):
        ef, ff, hf = sl2_e(f), sl2_f(ctx, f), sl2_h(ctx, f)
        s.check("[H, E] = 2E", sl2_h(ctx, ef) - sl2_e(hf) - 2 * ef, input=f)
        s.check("[H, F] = -2F", sl2_h(ctx, ff) - sl2_f(ctx, hf) + 2 * ff, input=f)
        s.check("[E, F] = H", sl2_e(ff) - sl2_f(ctx, ef) - hf, input=f)


def _lemma1(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """Laplacian of a radial power times a homogeneous polynomial splits into
    the two-term commutation formula; checked on monomials and on computed
    harmonics (where the second term drops)."""
    top = profile.radial_power_max
    for ell in range(profile.lemma_ell_max + 1):
        inputs = [Polynomial.monomial(ctx.m, e) for e in monomial_basis(ctx.m, ell)]
        inputs.extend(harmonic_basis(ctx, ell).elements)
        towers = [(R, radial_tower(R, top), radial_tower(dunkl_laplacian(ctx, R), top)) for R in inputs]
        for k in range(1, top + 1):  # the radial power outside, the inputs inside: the record order
            factor = 2 * k * (2 * ell + ctx.mu + 2 * k - 2)
            for R, radial, laplacian in towers:
                lhs = dunkl_laplacian(ctx, radial[k])
                s.check("radial commutation", lhs - (factor * radial[k - 1] + laplacian[k]), s=k, ell=ell, input=R)


def _clifford_inputs(m: int, max_deg: int) -> list[CliffordPolynomial]:
    scalars = _scalar_inputs(m, max_deg)
    return [CliffordPolynomial(m, {mask: p}) for mask in range(1 << m) for p in scalars]


def _anticommutator(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """{D, x} = -(2E + mu) on every monomial-blade up to the Clifford cap."""
    for F in _clifford_inputs(ctx.m, profile.clifford_deg):
        lhs = dunkl_dirac(ctx, vector_multiply(F)) + vector_multiply(dunkl_dirac(ctx, F))
        rhs = F.apply_scalar_operator(lambda p: degree_weighted(p, lambda d, mu=ctx.mu: -(2 * d + mu)))
        s.check("{D, x} = -(2E + mu)", lhs - rhs, input=F)


def _dplus2(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """(D+)^2 equals its scalar expansion and D^2 = -Delta."""
    for F in _clifford_inputs(ctx.m, profile.clifford_deg):
        s.check("(D+)^2 scalar expansion",
                d_plus(ctx, d_plus(ctx, F)) - d_plus_squared_scalar(ctx, F), input=F)
        s.check("D^2 = -Delta", dunkl_dirac(ctx, dunkl_dirac(ctx, F))
                + F.apply_scalar_operator(lambda p: dunkl_laplacian(ctx, p)), input=F)


def _classical_odd_ladder(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """Odd powers of D+ on monogenics at kappa = 0 give the classical table."""
    for ell in range(3):
        for M in monogenic_basis(ctx, ell):
            xM = vector_multiply(M)
            s.check("classical D+ M = 2 x M", d_plus(ctx, M) - 2 * xM, ell=ell, input=M)
            s.check("classical D+^3 M = 8 x^3 M + 4(2 ell + m + 2) x M",
                    d_plus(ctx, d_plus(ctx, d_plus(ctx, M)))
                    - 8 * vector_multiply(vector_multiply(xM)) - (4 * (2 * ell + ctx.m + 2)) * xM,
                    ell=ell, input=M)


def _fischer(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """Projection operators sum to the identity, are idempotent and mutually
    annihilating, decompositions reassemble, and harmonic dimensions match the
    classical count."""
    for degree in range(profile.fischer_degree_max + 1):
        expected = harmonic_dimension_classical(ctx.m, degree)
        actual = len(harmonic_basis(ctx, degree).elements)
        s.expect("harmonic dimension", actual == expected,
                 degree=degree, expected=expected, actual=actual)
        layers = range(degree // 2 + 1)
        for e in monomial_basis(ctx.m, degree):
            p = Polynomial.monomial(ctx.m, e)
            projections = [fischer_project(ctx, i, degree, p) for i in layers]
            s.check("sum of projections = id", reduce(sub, projections, p), input=p)
            parts = fischer_decompose(ctx, p)
            s.check("decomposition reassembles", reduce(sub, (q for _, q in parts), p), input=p)
            layer_map = dict(parts)
            for i in layers:
                s.check("projection agrees with decomposition",
                        projections[i] - layer_map.get(i, Polynomial.zero(ctx.m)), layer=i, input=p)
            for i, j in product(layers, repeat=2):
                image = fischer_project(ctx, j, degree, projections[i])
                s.check("projections idempotent and orthogonal",
                        image - projections[i] if i == j else image, layers=[i, j], input=p)


_TABLE_RADIALS = {
    0: lambda ell, mu: (Fraction(1),),
    1: lambda ell, mu: (2 * (2 * ell + mu), Fraction(-4)),
    2: lambda ell, mu: (4 * (2 * ell + mu + 2) * (2 * ell + mu),
                        -16 * (2 * ell + mu + 2), Fraction(16)),
}


def _harmonics(ctx: DunklContext, ell_max: int) -> Iterator[tuple[int, int, Polynomial]]:
    """(ell, index, harmonic) over the harmonic bases of degrees 0..ell_max."""
    return ((ell, i, h) for ell in range(ell_max + 1)
            for i, h in enumerate(harmonic_basis(ctx, ell).elements))


def _hermite_eq(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """The three constructions agree exactly; small indices match the closed
    table; both radial recurrences hold.  The three are one family each from one check of each harmonic."""
    ts = range(profile.t_max + 1)
    for ell, h_index, h in _harmonics(ctx, profile.ell_max):
        checked = _checked(ctx, ts, h)
        recs, rods, lags = (route(ctx, ts, *checked) for route in _CONSTRUCTIONS.values())
        for t, rec, rod, lag in zip(ts, recs, rods, lags):
            at = {"t": t, "ell": ell, "h_index": h_index}
            s.expect("construction equivalence", rec == rod == lag,
                     **at, recursion=rec, rodrigues=rod, laguerre=lag)
            s.expect("top radial coefficient", rec.radial_coeffs[-1] == Fraction(-4) ** t,
                     **at, radial=rec.radial_coeffs)
            if t in _TABLE_RADIALS:
                s.expect("closed radial table", rec.radial_coeffs == _TABLE_RADIALS[t](ell, ctx.mu),
                         **at, radial=rec.radial_coeffs)
            if t:
                check = coefficient_recursions_check(recs[t - 1], rec)
                s.expect("radial recurrences", check.ok, **at,
                         step=check.step_failures, internal=check.internal_failures)


def _classical_reduction(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """kappa = 0 gives the classical radial table with mu = m."""
    for ell, _, h in _harmonics(ctx, min(profile.ell_max, 2)):
        for rec in _CONSTRUCTIONS["recursion"](ctx, range(3), *_checked(ctx, range(3), h)):
            s.expect("classical reduction", rec.radial_coeffs == _TABLE_RADIALS[rec.t](ell, Fraction(ctx.m)),
                     t=rec.t, ell=ell, radial=rec.radial_coeffs)


def _diffeq(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """Each Hermite element satisfies (Delta - 2E) CH = -2(2t + ell) CH and is
    an eigenvector of the spherical operator at -ell(mu - 2 + ell)."""
    ts = range(profile.t_max + 1)
    for ell, h_index, h in _harmonics(ctx, profile.ell_max):
        for rec in _CONSTRUCTIONS["recursion"](ctx, ts, *_checked(ctx, ts, h)):
            t, ch = rec.t, rec.polynomial
            s.check("(Delta - 2E) CH = -2(2t + ell) CH", hermite_shift(ctx, ch, 2 * t + ell),
                    t=t, ell=ell, h_index=h_index)
            s.check("spherical eigenvalue -ell(mu - 2 + ell)", spherical_shift(ctx, ch, ell),
                    t=t, ell=ell, h_index=h_index)


def _roesler(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """Heat-semigroup Hermite family: eigenvalue equations (plain and
    Gaussian-weighted), equal spans with the Clifford-Hermite family, and
    elementwise proportionality on the adapted basis, built once for both degree caps."""
    _require_mu(ctx, "eigenspace comparison")
    basis = _adapted_basis(ctx, max(profile.eigen_degree_max, profile.span_degree_max))
    for n in range(profile.eigen_degree_max + 1):
        report, heat_family = _eigenspace(ctx, n, [record.polynomial for _, _, record in basis[n]])
        s.cases += report.cases + 1
        for failure in report.failures:
            s.fail("(Delta - 2E) eigenvalue", n=n, **failure)
        ranks = (report.heat_family_rank, report.hermite_family_rank, report.combined_rank)
        if any(rank != report.expected_rank for rank in ranks):
            s.fail("span ranks", n=n, heat_rank=ranks[0], hermite_rank=ranks[1],
                   combined_rank=ranks[2], expected=report.expected_rank)
        for e, q in zip(monomial_basis(ctx.m, n), heat_family):
            check = weighted_eigenfunction_check(ctx, q)
            s.expect("weighted eigenfunction", check.ok, n=n, input=e, residual=check.residual)
    # elementwise proportionality on the adapted basis, constants harmonic-independent
    for n in range(profile.span_degree_max + 1):
        for i in range(n // 2 + 1):
            entries = [(frame, record) for (t, _, _), frame, record in basis[n] if t == i]
            s.cases += len(entries)
            constants = {_proportionality(ctx, i, n, frame, record) for frame, record in entries}
            if len(constants) > 1:
                s.fail("proportionality constant", n=n, i=i,
                       constants=sorted(rational_str(c) for c in constants))
            if n == 2 and i == 1 and constants != {Fraction(-1)}:
                s.fail("constant at (i=1, n=2)", constants=sorted(rational_str(c) for c in constants))


def _orthogonality(s: Sweep, ctx: DunklContext, profile: Profile) -> None:
    """Hermite functions with distinct (t, ell) are orthogonal for the
    coordinate-hyperplane groups with small integer multiplicities."""
    report = orthogonality_report(ctx, profile.orthogonality_degree_max)
    s.cases += len(report.entries)
    for entry in report.violations:
        s.fail("distinct (t, ell) orthogonal", **entry.to_json())
    for entry in report.nonpositive_diagonal:
        s.fail("positive diagonal", **entry.to_json())


# -- the table and its driver ----------------------------------------------------

def _operator_cases(profile: Profile, seed: int) -> list[GroupCase]:
    return group_cases(OPERATOR_GROUPS, seed, profile.operator_draws)


def _construction_cases(profile: Profile, seed: int) -> list[GroupCase]:
    return group_cases(CONSTRUCTION_GROUPS, seed, profile.operator_draws)


def _hermite_cases(profile: Profile, seed: int) -> list[GroupCase]:
    return group_cases(CONSTRUCTION_GROUPS, seed, profile.construction_draws)


def _orthogonality_cases(profile: Profile, seed: int) -> list[GroupCase]:
    """Every small integer multiplicity vector on z2^m; the seed is not used."""
    return [GroupCase(f"z2^{m}", "z2", m, tuple(Fraction(k) for k in kappas))
            for m in range(1, profile.orthogonality_m_max + 1)
            for kappas in product(profile.orthogonality_kappas, repeat=m)]


@dataclass(frozen=True)
class Suite:
    """One row of the battery: the seeded group cases, the check run on each,
    and an optional check run afterwards on each of KAPPA_ZERO_CASES."""

    cases: Callable
    check: Callable
    fixed: Callable | None = None


KAPPA_ZERO_CASES = tuple(GroupCase(f"z2^{m}", "z2", m, (Fraction(0),) * m) for m in (2, 3))


def largest_m(profile: Profile) -> int:
    """The largest m the profile's suites sweep: of its orthogonality cases, the group tables and KAPPA_ZERO_CASES."""
    return max(profile.orthogonality_m_max, *(group[2] for group in CONSTRUCTION_GROUPS),
               *(case.m for case in KAPPA_ZERO_CASES))


SUITES = {
    "commute": Suite(_operator_cases, _commute),
    "sl2": Suite(_construction_cases, _sl2),
    "lemma1": Suite(_operator_cases, _lemma1),
    "anticommutator": Suite(_operator_cases, _anticommutator),
    "dplus2": Suite(_operator_cases, _dplus2, fixed=_classical_odd_ladder),
    "fischer": Suite(_construction_cases, _fischer),
    "hermite-eq": Suite(_hermite_cases, _hermite_eq, fixed=_classical_reduction),
    "diffeq": Suite(_hermite_cases, _diffeq),
    "roesler": Suite(_construction_cases, _roesler),
    "orthogonality": Suite(_orthogonality_cases, _orthogonality),
}


def _sweep(check: Callable, case: GroupCase, profile: Profile) -> Sweep:
    """Run one check on one case; a check that raises is one failed check, and
    the suite goes on with the next case."""
    sweep = Sweep(case)
    ctx = case.context()
    try:
        check(sweep, ctx, profile)
    except DunklError as exc:
        sweep.expect("check raised", False, error=f"{type(exc).__name__}: {exc}")
    return sweep


def run_suite(name: str, profile: Profile, seed: int) -> SuiteVerdict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES} (run_all runs every one)")
    started = time.perf_counter()
    suite = SUITES[name]
    sweeps = list(_run_cases(lambda case: _sweep(suite.check, case, profile),
                             suite.cases(profile, seed)))
    if suite.fixed:
        sweeps.extend(_sweep(suite.fixed, case, profile) for case in KAPPA_ZERO_CASES)
    return SuiteVerdict(suite=name, cases=sum(sweep.cases for sweep in sweeps),
                        failures=[f for sweep in sweeps for f in sweep.failures],
                        wall_time_ms=round((time.perf_counter() - started) * 1000, 3))


def run_all(profile: Profile, seed: int) -> list[SuiteVerdict]:
    return [run_suite(name, profile, seed) for name in SUITE_NAMES]
