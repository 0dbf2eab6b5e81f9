"""Acceptance gate: eight exact criteria, one pass/fail line each.

Every check is an identity in rational arithmetic; there is no tolerance
anywhere.  The shared desk-profile suites run once per module and individual
criteria assert on the relevant identity classes.  Run with -s to see the
per-criterion lines.
"""
import hashlib
import json
from fractions import Fraction

from dunkl_hermite.clifford import d_plus, monogenic_basis, vector_multiply
from dunkl_hermite.groups import trivial_root_system
from dunkl_hermite.hermite import ch_recursion, harmonic_basis, proportionality_constant
from dunkl_hermite.operators import DunklContext
from dunkl_hermite.poly import Polynomial
from dunkl_hermite.suites import (CONSTRUCTION_GROUPS, DESK, SUITE_NAMES, group_cases,
                                  run_suite)

SEED = 7
_VERDICTS = {}


def verdict(name):
    if name not in _VERDICTS:
        _VERDICTS[name] = run_suite(name, DESK, SEED)
    return _VERDICTS[name]


def report(num, name, failures, cases):
    ok = not failures
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - "
    line += f"{cases} exact checks, {len(failures)} failures"
    print(line)
    assert ok, f"criterion {num} failed: {failures[:3]}"


def failures_with(verdicts, identities):
    out = []
    for v in verdicts:
        out.extend(f for f in v.failures if f.get("identity") in identities)
    return out


def test_criterion_1_explicit_low_order_table():
    """t = 0, 1, 2 reproduce the closed radial forms coefficient for coefficient."""
    failures, cases = [], 0
    for case in group_cases(CONSTRUCTION_GROUPS, SEED, DESK.construction_draws):
        ctx = case.context()
        mu = ctx.mu
        norm2 = Polynomial.norm_squared(ctx.m)
        for ell in range(DESK.ell_max + 1):
            for h in harmonic_basis(ctx, ell).elements:
                b = 2 * ell + mu
                expected = (
                    h,
                    (2 * b) * h + (-4) * (norm2 * h),
                    (4 * (b + 2) * b) * h
                    + (-16 * (b + 2)) * (norm2 * h)
                    + 16 * (norm2 * norm2 * h),
                )
                for t, wanted in enumerate(expected):
                    cases += 1
                    got = ch_recursion(ctx, t, h).polynomial
                    if got != wanted:
                        failures.append({"group": case.label, "t": t, "ell": ell,
                                         "got": got.to_json(), "expected": wanted.to_json()})
    report(1, "explicit forms at t <= 2", failures, cases)


def test_criterion_2_triple_construction_equivalence():
    """Recursion, Rodrigues and Laguerre agree for all seeded groups, t <= 3, ell <= 3."""
    v = verdict("hermite-eq")
    failures = failures_with([v], {"construction equivalence"})
    report(2, "recursion = Rodrigues = Laguerre", failures, v.cases)


def test_criterion_3_operator_identity_suite():
    """Commutativity, sl2, radial commutation, anticommutator, both Dirac squares."""
    names = ("commute", "sl2", "lemma1", "anticommutator", "dplus2")
    verdicts = [verdict(name) for name in names]
    failures = [f for v in verdicts for f in v.failures]
    report(3, "operator identities, deg <= 6 (Clifford <= 5)",
           failures, sum(v.cases for v in verdicts))


def test_criterion_4_eigenstructure():
    """Second-order equation for CH, heat-family eigenvalue, weighted equation,
    and the spherical operator eigenvalue."""
    failures = failures_with(
        [verdict("diffeq"), verdict("roesler")],
        {"(Delta - 2E) CH = -2(2t + ell) CH", "spherical eigenvalue -ell(mu - 2 + ell)",
         "(Delta - 2E) eigenvalue", "weighted eigenfunction"})
    report(4, "eigenvalue equations", failures,
           verdict("diffeq").cases + verdict("roesler").cases)


def test_criterion_5_fischer_machinery():
    """Projections sum to the identity, are orthogonal idempotents, components
    reassemble, harmonic dimensions match, for k <= 6 and m <= 3."""
    v = verdict("fischer")
    report(5, "Fischer decomposition, k <= 6, m <= 3", v.failures, v.cases)


def test_criterion_6_families_span_and_proportionality():
    """Heat family and Hermite family span equal spaces with elementwise exact
    proportionality on the adapted basis; constant at (i=1, n=2, H=1) is -1."""
    v = verdict("roesler")
    failures = failures_with(
        [v], {"span ranks", "proportionality constant", "constant at (i=1, n=2)"})
    # pin the normalization directly as well
    for label, family, m, orbit_count in CONSTRUCTION_GROUPS:
        ctx = group_cases(((label, family, m, orbit_count),), SEED, 1)[1].context()
        c = proportionality_constant(ctx, 1, 2, Polynomial.constant(ctx.m, Fraction(1)))
        if c != Fraction(-1):
            failures.append({"group": label, "identity": "constant at (i=1, n=2)",
                             "constant": str(c)})
    report(6, "equal spans with exact proportionality", failures, v.cases)


def test_criterion_7_orthogonality():
    """Distinct (t, ell) Hermite functions are orthogonal with exactly zero
    inner product; diagonal values are positive."""
    v = verdict("orthogonality")
    report(7, "orthogonality, m <= 2, kappa in {0,1,2}, 2t + ell <= 5", v.failures, v.cases)


def test_criterion_8_classical_reduction():
    """With no reflection weight the even polynomials reduce to the classical
    table (mu = m) and the odd ladder holds on monogenics, m = 2, 3."""
    failures = failures_with(
        [verdict("hermite-eq"), verdict("dplus2")],
        {"classical reduction", "classical D+ M = 2 x M",
         "classical D+^3 M = 8 x^3 M + 4(2 ell + m + 2) x M"})
    cases = 0
    for m in (2, 3):
        ctx = DunklContext(trivial_root_system(m))
        for ell in (0, 1, 2):
            for M in monogenic_basis(ctx, ell):
                cases += 2
                xM = vector_multiply(M)
                if d_plus(ctx, M) != 2 * xM:
                    failures.append({"m": m, "ell": ell, "identity": "first odd power"})
                x3M = vector_multiply(vector_multiply(xM))
                expected = 8 * x3M + (4 * (2 * ell + m + 2)) * xM
                if d_plus(ctx, d_plus(ctx, d_plus(ctx, M))) != expected:
                    failures.append({"m": m, "ell": ell, "identity": "third odd power"})
    report(8, "classical limit, m = 2, 3", failures, cases)


DESK_CASES = {"commute": 924, "sl2": 1323, "lemma1": 972, "anticommutator": 1848,
              "dplus2": 3816, "fischer": 6354, "hermite-eq": 2730, "diffeq": 1536,
              "roesler": 1218, "orthogonality": 2142}


def test_every_suite_ran_clean():
    """Any suite the criteria above did not already pull in still has to pass,
    and every suite runs exactly its desk number of checks."""
    failures, cases = [], {}
    for name in SUITE_NAMES:
        v = verdict(name)
        cases[name] = v.cases
        failures.extend(v.failures)
    print(f"full battery: {sum(cases.values())} exact checks, {len(failures)} failures")
    assert not failures
    assert cases == DESK_CASES
    assert sum(cases.values()) == 22863


# sha256 of `verify --suite all --profile desk --seed 7` stdout; the CLI writes exactly these
# bytes, so the full battery's records are pinned without a second run
DESK_VERDICT_SHA256 = "138018de5c24a90a03ce8dbdc89cd140f4fe4551c4384d599355a369ec55ee27"


def test_desk_verdict_bytes_are_pinned():
    text = json.dumps({"suites": [verdict(name).to_json() for name in SUITE_NAMES]}, separators=(",", ":"))
    assert hashlib.sha256((text + "\n").encode()).hexdigest() == DESK_VERDICT_SHA256
