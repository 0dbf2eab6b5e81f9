"""One Hermite family per harmonic: hermite._records, the loop behind ch_recursion and ch_rodrigues, against the
public constructions, and hermite-eq's use of it (each family built once per harmonic, the two kept apart)."""
from fractions import Fraction

import pytest

from dunkl_hermite import hermite, moments, operators, suites
from dunkl_hermite.errors import MathPrecondition
from dunkl_hermite.hermite import _records, _rodrigues_step, ch_recursion, ch_rodrigues, harmonic_basis
from dunkl_hermite.linalg import solve_in_frame
from dunkl_hermite.operators import DunklContext, d_plus_squared_form, radial_tower
from dunkl_hermite.poly import Polynomial
from dunkl_hermite.suites import CI, Sweep

from test_dunkl_map import SYSTEMS

# family -> (the public construction, the step its loop applies)
FAMILIES = {"recursion": (ch_recursion, d_plus_squared_form), "rodrigues": (ch_rodrigues, _rodrigues_step)}


def context(name: str) -> DunklContext:
    m, nk, build = SYSTEMS[name]
    return DunklContext(build([Fraction(1, 2), Fraction(3, 4)][:nk]))


@pytest.mark.parametrize("name", ["a3", "b3", "G2"])
def test_every_record_of_a_family_equals_the_public_construction(name):
    """Each record t = 0..3 of one loop equals the public construction at t, and the step folded t times over the
    harmonic with its coordinates by the frame solve."""
    ctx = context(name)
    for ell in range(3):
        for h in harmonic_basis(ctx, ell).elements:
            for construct, step in FAMILIES.values():
                family, out = _records(ctx, range(4), h, step), h
                assert [record.t for record in family] == [0, 1, 2, 3]
                for t, record in enumerate(family):
                    assert record == construct(ctx, t, h), (ell, t)
                    assert (record.ell, record.mu, record.harmonic, record.polynomial) == (ell, ctx.mu, h, out)
                    assert list(record.radial_coeffs) == solve_in_frame(radial_tower(h, t), out)
                    out = step(ctx, out)
                assert _records(ctx, range(1, 4, 2), h, step) == [family[1], family[3]]


def refusal(call) -> str:
    with pytest.raises(MathPrecondition) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("name", ["a3", "b3", "G2"])
def test_the_loop_refuses_as_the_public_constructions_do(name):
    """t < 0 is refused before the harmonic is checked; a zero, a non-homogeneous and a non-harmonic factor are each
    refused with their own message, by the loop and by both public constructions."""
    ctx = context(name)
    x1 = Polynomial.variable(ctx.m, 0)
    not_harmonic = x1 * x1 * x1 * x1
    cases = [(-1, not_harmonic, "index t must be >= 0, got -1"),
             (2, Polynomial.zero(ctx.m), "harmonic factor must be nonzero"),
             (2, x1 + Polynomial.constant(ctx.m, 1), "harmonic factor must be homogeneous"),
             (2, not_harmonic, "polynomial is not Dunkl-harmonic: its Laplacian is nonzero")]
    for t, h, message in cases:
        for construct, step in FAMILIES.values():
            assert refusal(lambda: _records(ctx, range(t, 3), h, step)) == message
            assert refusal(lambda: construct(ctx, t, h)) == message


def hermite_eq_case():
    """The last ci hermite-eq case at seed 7: b2 with drawn, nonzero multiplicities."""
    case = suites._hermite_cases(CI, 7)[-1]
    assert case.label == "b2" and all(case.kappas)
    return case


def test_hermite_eq_builds_each_family_once_per_harmonic(monkeypatch):
    """Each family takes t_max steps per harmonic (one rebuild per t took t_max (t_max + 1) / 2) and checks the
    harmonic once; ch_laguerre still checks it once per t."""
    case = hermite_eq_case()
    ctx = case.context()
    harmonics = sum(len(harmonic_basis(ctx, ell).elements) for ell in range(CI.ell_max + 1))
    steps = {"recursion": 0, "rodrigues": 0}
    checks = []

    def counted(family, step):
        def counting(ctx, p):
            steps[family] += 1
            return step(ctx, p)
        return counting

    def validated(ctx, h, original=hermite._validated_harmonic):
        checks.append(h)
        return original(ctx, h)

    monkeypatch.setattr(suites, "d_plus_squared_form", counted("recursion", d_plus_squared_form))
    monkeypatch.setattr(suites, "_rodrigues_step", counted("rodrigues", _rodrigues_step))
    monkeypatch.setattr(hermite, "_validated_harmonic", validated)
    sweep = Sweep(case)
    suites._hermite_eq(sweep, ctx, CI)
    assert sweep.failures == [] and sweep.cases > 0
    assert steps == {"recursion": harmonics * CI.t_max, "rodrigues": harmonics * CI.t_max}
    assert len(checks) == harmonics * (2 + CI.t_max + 1)


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
