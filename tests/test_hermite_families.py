"""One checked harmonic and one radial tower per harmonic: one hermite._checked followed by one route of
hermite._CONSTRUCTIONS, against the public constructions, and the callers that share the check (hermite-eq, the
proportionality constant, the CLI, the roesler suite's one adapted basis), with the three constructions kept three
computations, and verdict-power rows that each must fail a named suite."""
import json
from fractions import Fraction

import pytest

from dunkl_hermite import cli, hermite, moments, operators, suites
from dunkl_hermite.errors import MathPrecondition
from dunkl_hermite.groups import builtin_root_system
from dunkl_hermite.hermite import (_checked, ch_laguerre, ch_recursion, ch_rodrigues, harmonic_basis,
                                   proportionality_constant)
from dunkl_hermite.linalg import solve_in_frame
from dunkl_hermite.operators import DunklContext, conjugated_laplacian, d_plus_squared_form, radial_tower
from dunkl_hermite.poly import Polynomial, dim_homogeneous
from dunkl_hermite.suites import CI, Sweep

from test_dunkl_map import SYSTEMS

# iterated route -> (the public construction, the step its loop applies)
FAMILIES = {"recursion": (ch_recursion, d_plus_squared_form),
            "rodrigues": (ch_rodrigues, lambda ctx, p: -conjugated_laplacian(ctx, -1, p))}


def records_of(ctx, ts, h, route):
    """The records t in ts of one route from one check, as the package's callers read them."""
    return hermite._CONSTRUCTIONS[route](ctx, ts, *_checked(ctx, ts, h))


def context(name: str) -> DunklContext:
    m, nk, build = SYSTEMS[name]
    return DunklContext(build([Fraction(1, 2), Fraction(3, 4)][:nk]))


@pytest.mark.parametrize("name", ["a3", "b3", "G2"])
def test_every_record_of_a_family_equals_the_public_construction(name):
    """Each record t = 0..3 of one route equals the public construction at t; an iterated route's record is the step
    folded t times over the harmonic with its coordinates by the frame solve."""
    ctx = context(name)
    for ell in range(3):
        for h in harmonic_basis(ctx, ell).elements:
            for route, (construct, step) in FAMILIES.items():
                family, out = records_of(ctx, range(4), h, route), h
                assert [record.t for record in family] == [0, 1, 2, 3]
                for t, record in enumerate(family):
                    assert record == construct(ctx, t, h), (ell, t)
                    assert (record.ell, record.mu, record.harmonic, record.polynomial) == (ell, ctx.mu, h, out)
                    assert list(record.radial_coeffs) == solve_in_frame(radial_tower(h, t), out)
                    out = step(ctx, out)
                assert records_of(ctx, range(1, 4, 2), h, route) == [family[1], family[3]]
            laguerre = records_of(ctx, range(4), h, "laguerre")
            assert laguerre == [ch_laguerre(ctx, t, ell, h) for t in range(4)]
            assert records_of(ctx, range(1, 4, 2), h, "laguerre") == [laguerre[1], laguerre[3]]


def refusal(call) -> str:
    with pytest.raises(MathPrecondition) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("name", ["a3", "b3", "G2"])
def test_the_loop_refuses_as_the_public_constructions_do(name):
    """t < 0 is refused before the harmonic is checked; a zero, a non-homogeneous and a non-harmonic factor are each
    refused with their own message, by the one check every route reads and by both iterated public constructions."""
    ctx = context(name)
    x1 = Polynomial.variable(ctx.m, 0)
    not_harmonic = x1 * x1 * x1 * x1
    cases = [(-1, not_harmonic, "index t must be >= 0, got -1"),
             (2, Polynomial.zero(ctx.m), "harmonic factor must be nonzero"),
             (2, x1 + Polynomial.constant(ctx.m, 1), "harmonic factor must be homogeneous"),
             (2, not_harmonic, "polynomial is not Dunkl-harmonic: its Laplacian is nonzero")]
    for t, h, message in cases:
        assert refusal(lambda: _checked(ctx, range(t, 3), h)) == message
        for construct, _ in FAMILIES.values():
            assert refusal(lambda: construct(ctx, t, h)) == message


def test_laguerre_and_the_proportionality_constant_keep_their_refusal_order():
    """ch_laguerre refuses t < 0 first, then the factor, then its degree against ell.  proportionality_constant checks
    the factor first, then its degree against n - 2i, then i.  A float t or i is a TypeError, raised only after the
    factor has been checked."""
    ctx = DunklContext(builtin_root_system("b", 2, [Fraction(1, 2), Fraction(3, 4)]))
    h = harmonic_basis(ctx, 1).elements[0]
    x1 = Polynomial.variable(ctx.m, 0)
    bad = x1 * x1 * x1 * x1
    not_harmonic = "polynomial is not Dunkl-harmonic: its Laplacian is nonzero"
    cases = [(lambda: ch_laguerre(ctx, -1, 4, bad), "index t must be >= 0, got -1"),
             (lambda: ch_laguerre(ctx, 2, 1, Polynomial.zero(ctx.m)), "harmonic factor must be nonzero"),
             (lambda: ch_laguerre(ctx, 1, 5, h), "harmonic has degree 1, expected ell = 5"),
             (lambda: proportionality_constant(ctx, -1, 2, bad), not_harmonic),
             (lambda: proportionality_constant(ctx, 1, 5, h), "harmonic degree 1 does not match n - 2i = 3"),
             (lambda: proportionality_constant(ctx, -1, -1, h), "index t must be >= 0, got -1"),
             (lambda: ch_recursion(ctx, 1.0, bad), not_harmonic),
             (lambda: ch_rodrigues(ctx, 1.0, bad), not_harmonic),
             (lambda: ch_laguerre(ctx, 1.0, 1, bad), not_harmonic),
             (lambda: proportionality_constant(ctx, 0.5, 2, bad), not_harmonic)]
    for call, message in cases:
        assert refusal(call) == message
    for call in (lambda: ch_recursion(ctx, 1.0, h), lambda: ch_rodrigues(ctx, 1.0, h),
                 lambda: ch_laguerre(ctx, 1.0, 1, h), lambda: proportionality_constant(ctx, 0.5, 2, h),
                 lambda: proportionality_constant(ctx, 1.0, 3, h)):
        with pytest.raises(TypeError):
            call()


def hermite_eq_case():
    """The last ci hermite-eq case at seed 7: b2 with drawn, nonzero multiplicities."""
    case = suites._hermite_cases(CI, 7)[-1]
    assert case.label == "b2" and all(case.kappas)
    return case


# hermite name -> key of its count: the harmonic check, the radial tower, the Laguerre profile, each iterated step
COUNTED = {"_validated_harmonic": "checks", "radial_tower": "towers", "laguerre_poly": "profiles",
           "d_plus_squared_form": "recursion", "conjugated_laplacian": "rodrigues"}


def counts(monkeypatch, names=COUNTED) -> dict:
    """Live call counts of the named hermite functions, through every name hermite or suites binds to one."""
    out = dict.fromkeys(names.values(), 0)

    def counted(fn, key):
        def counting(*args):
            out[key] += 1
            return fn(*args)
        return counting

    for name, key in names.items():
        original = getattr(hermite, name)
        wrapper = counted(original, key)
        for module in (hermite, suites):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return out


def test_hermite_eq_builds_each_family_once_per_harmonic(monkeypatch):
    """hermite-eq runs all three routes from one check and one tower per harmonic (one check and one tower per
    family and per Laguerre t took 2 + t_max + 1 of each); each iterated family still takes t_max steps per harmonic
    and the Laguerre route one profile per t, so the three stay three computations."""
    case = hermite_eq_case()
    ctx = case.context()
    harmonics = sum(len(harmonic_basis(ctx, ell).elements) for ell in range(CI.ell_max + 1))
    calls = counts(monkeypatch)
    sweep = Sweep(case)
    suites._hermite_eq(sweep, ctx, CI)
    assert sweep.failures == [] and sweep.cases > 0
    assert calls == {"checks": harmonics, "towers": harmonics, "profiles": harmonics * (CI.t_max + 1),
                     "recursion": harmonics * CI.t_max, "rodrigues": harmonics * CI.t_max}


def test_roesler_builds_each_heat_image_and_each_hermite_element_once(monkeypatch):
    """roesler reads one adapted basis up to top = max(eigen, span) degree: one check, one tower and one recursion
    family per harmonic of degree ell <= top, (top - ell) // 2 steps each, and one heat image per monomial of each
    eigen degree, which the weighted check reads, plus one per proportionality entry (the eigenspace report rebuilt
    each element from t = 0 per degree, the proportionality constant again, and the weighted check its heat images)."""
    case = next(case for case in suites._construction_cases(CI, 7) if case.label == "a2" and all(case.kappas))
    ctx = case.context()
    top = max(CI.eigen_degree_max, CI.span_degree_max)
    sizes = [len(harmonic_basis(ctx, ell).elements) for ell in range(top + 1)]
    calls = counts(monkeypatch, {"rosler_hermite": "heat", "_checked": "checks", "radial_tower": "towers",
                                 "d_plus_squared_form": "recursion"})
    sweep = Sweep(case)
    suites._roesler(sweep, ctx, CI)
    assert sweep.failures == [] and sweep.cases > 0
    heat = (sum(dim_homogeneous(ctx.m, n) for n in range(CI.eigen_degree_max + 1))
            + sum(sizes[n - 2 * i] for n in range(CI.span_degree_max + 1) for i in range(n // 2 + 1)))
    assert calls == {"heat": heat, "checks": sum(sizes), "towers": sum(sizes),
                     "recursion": sum(size * ((top - ell) // 2) for ell, size in enumerate(sizes))}


def test_the_proportionality_constant_checks_once_and_builds_one_tower(monkeypatch):
    """The heat input |x|^{2i} h is the top layer of the tower the Hermite element reads: one check, one tower and i
    recursion steps (its own check and tower and those of ch_recursion took two of each)."""
    ctx = DunklContext(builtin_root_system("b", 2, [Fraction(1, 2), Fraction(3, 4)]))
    h = harmonic_basis(ctx, 1).elements[0]
    expected = proportionality_constant(ctx, 2, 5, h)
    calls = counts(monkeypatch)
    assert proportionality_constant(ctx, 2, 5, h) == expected
    assert calls == {"checks": 1, "towers": 1, "profiles": 0, "recursion": 2, "rodrigues": 0}


def test_the_cli_runs_every_construction_from_one_check(monkeypatch, capsys):
    """hermite --construction all checks its harmonic once and builds one tower for the three routes (each public
    construction took one of each)."""
    calls = counts(monkeypatch)
    argv = ["hermite", "--group", "b", "--m", "2", "--kappa", "1/2,3/4", "--t", "2", "--ell", "1",
            "--construction", "all"]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["agree"] is True
    assert calls == {"checks": 1, "towers": 1, "profiles": 1, "recursion": 2, "rodrigues": 2}


def mutated(name: str):
    """The named operator plus the identity: f maps to op(f) + f."""
    original = getattr(operators, name)
    return original, lambda *args: original(*args) + args[-1]


# verdict power: operator -> the family its mutant must break, alone, in "construction equivalence"
MUTANTS = {"conjugated_laplacian": "rodrigues", "d_plus_squared_form": "recursion"}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_mutant_of_either_step_fails_construction_equivalence(monkeypatch, name):
    """A wrong conjugated Laplacian breaks the Rodrigues side only, a wrong (D+)^2 form the recursion side only: the
    two families stay two computations, and hermite-eq's agreement check catches either."""
    original, mutant = mutated(name)
    for module in (operators, hermite, moments, suites):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant)
    case = hermite_eq_case()
    sweep = Sweep(case)
    suites._hermite_eq(sweep, case.context(), CI)
    failed = [f for f in sweep.failures if f["identity"] == "construction equivalence"]
    assert failed and all(f["t"] > 0 for f in failed)
    broken, kept = MUTANTS[name], ({"recursion", "rodrigues"} - {MUTANTS[name]}).pop()
    for f in failed:
        assert f[kept]["polynomial"] == f["laguerre"]["polynomial"] != f[broken]["polynomial"], f["t"]


def test_a_scaled_tower_fails_construction_equivalence(monkeypatch):
    """Layer i of every radial tower scaled by 2^i: the recursion and Rodrigues coordinates shrink by 2^-i while the
    Laguerre polynomial grows by 2^i in layer i, so hermite-eq's agreement check fails at every t > 0 of every
    harmonic.  One shared tower cannot make the three sides agree by construction."""
    original = hermite.radial_tower
    monkeypatch.setattr(hermite, "radial_tower",
                        lambda f, n: [2 ** i * layer for i, layer in enumerate(original(f, n))])
    case = hermite_eq_case()
    ctx = case.context()
    sweep = Sweep(case)
    suites._hermite_eq(sweep, ctx, CI)
    failed = [(f["ell"], f["h_index"], f["t"]) for f in sweep.failures if f["identity"] == "construction equivalence"]
    assert failed == [(ell, h_index, t) for ell, h_index, _ in suites._harmonics(ctx, CI.ell_max)
                      for t in range(1, CI.t_max + 1)]


def roesler_tally(verdict) -> tuple:
    """Case count and failure count per identity; a raised check is keyed by its message up to the first ';'."""
    keys = [f["identity"] if f["identity"] != "check raised" else f["error"].partition(";")[0]
            for f in verdict.failures]
    return verdict.cases, {key: keys.count(key) for key in sorted(set(keys))}


def test_a_negated_heat_rate_fails_the_eigenvalue_and_span_checks(monkeypatch):
    """exp(+Delta/4) in place of exp(-Delta/4): the heat family leaves the eigenspace, so ci roesler at seed 7 fails
    the eigenvalue and span checks, and the weighted check refuses its degree-2 inputs by its precondition (a path no
    failure-records scenario reaches)."""
    original = hermite.heat_semigroup
    monkeypatch.setattr(hermite, "heat_semigroup", lambda ctx, f, rate=Fraction(-1, 4): original(ctx, f, -rate))
    assert roesler_tally(suites.run_suite("roesler", CI, 7)) == (156, {
        "(Delta - 2E) eigenvalue": 19,
        "MathPrecondition: input does not satisfy the degree-2 eigenvalue equation": 8,
        "span ranks": 8})


def test_a_wrong_recursion_step_fails_the_eigenvalue_span_and_proportionality_checks(monkeypatch):
    """(D+)^2 form plus the identity, where hermite reads it: the adapted basis leaves the eigenspace, so ci roesler at
    seed 7 fails the eigenvalue and span checks, and the first proportionality constant with i = 1 of every case
    raises."""
    original = hermite.d_plus_squared_form
    monkeypatch.setattr(hermite, "d_plus_squared_form", lambda ctx, f: original(ctx, f) + f)
    assert roesler_tally(suites.run_suite("roesler", CI, 7)) == (354, {
        "(Delta - 2E) eigenvalue": 24,
        "MathPrecondition: heat image of |x|^{2} * harmonic is not proportional to the Hermite element "
        "(i=1, n=2)": 8,
        "span ranks": 16})
