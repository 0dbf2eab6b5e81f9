"""Failure records under injected faults, pinned byte for byte.

Every suite passes on working code, so a clean battery never shows the shape
of a failure record.  Each scenario here injects a fault through a
module-level name, runs all ten suites at a tiny profile and compares the
sha256 of each verdict's JSON (key order included) with a digest recorded
from the runner-per-suite implementation.  A suite that raises is pinned by
its exception type and message.
"""
import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from dunkl_hermite import hermite, suites
from dunkl_hermite.operators import DunklContext
from dunkl_hermite.poly import Polynomial
from dunkl_hermite.suites import SUITE_NAMES, Profile, run_suite

TINY = Profile(name="tiny", max_deg=2, clifford_deg=2, radial_power_max=2, lemma_ell_max=2,
               t_max=2, ell_max=2, construction_draws=1, operator_draws=1,
               fischer_degree_max=3, eigen_degree_max=2, span_degree_max=2,
               orthogonality_degree_max=2, orthogonality_kappas=(0, 1), orthogonality_m_max=1)
SEED = 7


def _shift_mu(mp):
    """Every mu-dependent formula sees mu + 1/3."""
    mp.setattr(DunklContext, "mu", property(lambda self: self.root_system.mu + Fraction(1, 3)))


def _perturb_axis_one(mp):
    """T_2 picks up x_1 f, which breaks [T_1, T_2] = 0."""
    original = suites.dunkl_derivative

    def perturbed(ctx, i, f):
        out = original(ctx, i, f)
        return out + Polynomial.variable(ctx.m, 0) * f if i == 1 else out

    mp.setattr(suites, "dunkl_derivative", perturbed)


def _break_roesler_reports(mp):
    """One fault per roesler record kind: eigenvalue, span ranks, weighted
    eigenfunction, proportionality constant and the constant at (1, 2)."""
    eigen, weighted, constant = suites._eigenspace, suites.weighted_eigenfunction_check, suites._proportionality

    def eigen_faulty(ctx, n, hermite_family):
        report, heat_family = eigen(ctx, n, hermite_family)
        if n == 1:
            bogus = {"family": "heat", "input": Polynomial.constant(ctx.m, 1).to_json(),
                     "residual": Polynomial.variable(ctx.m, 0).to_json()}
            report = replace(report, failures=report.failures + (bogus,))
        if n == 2:
            report = replace(report, heat_family_rank=report.heat_family_rank + 1)
        return report, heat_family

    def weighted_faulty(ctx, q):
        check = weighted(ctx, q)
        if check.degree == 1:
            check = replace(check, ok=False, residual=check.residual + Polynomial.constant(ctx.m, 1))
        return check

    def constant_faulty(ctx, i, n, frame, record):
        lead, _ = record.harmonic.leading_term()
        return constant(ctx, i, n, frame, record) + (1 if lead[0] == 0 else 0)

    mp.setattr(suites, "_eigenspace", eigen_faulty)
    mp.setattr(suites, "weighted_eigenfunction_check", weighted_faulty)
    mp.setattr(suites, "_proportionality", constant_faulty)


def _break_remaining_kinds(mp):
    """Faults for the record kinds the scenarios above leave clean: the Dirac
    squares and the fixed kappa = 0 odd ladder, the Fischer reassembly and
    dimension checks, the top radial coefficient and the positive diagonal."""
    names = ("d_plus", "dunkl_dirac", "harmonic_dimension_classical", "fischer_decompose",
             "fischer_project", "orthogonality_report")
    d_plus, dirac, dimension, decompose, project, orthogonality = (getattr(suites, n) for n in names)
    recursion = hermite._CONSTRUCTIONS["recursion"]

    def d_plus_faulty(ctx, F):
        return d_plus(ctx, F) + F

    def dirac_faulty(ctx, F):
        out = dirac(ctx, F)
        return out + F if F.m == 2 else out

    def decompose_faulty(ctx, p):
        return decompose(ctx, p) + [(0, Polynomial.constant(ctx.m, 1))]

    def project_faulty(ctx, i, degree, p):
        out = project(ctx, i, degree, p)
        return out + p if i == 1 else out

    def recursion_faulty(ctx, ts, ell, tower):
        """The recursion route's record t = 2 with its top radial coefficient off by one; the other routes untouched."""
        return [replace(rec, radial_coeffs=rec.radial_coeffs[:-1] + (rec.radial_coeffs[-1] + 1,)) if rec.t == 2
                else rec for rec in recursion(ctx, ts, ell, tower)]

    def orthogonality_faulty(ctx, degree):
        report = orthogonality(ctx, degree)
        return replace(report, nonpositive_diagonal=report.entries[:2])

    for name, fn in zip(names, (d_plus_faulty, dirac_faulty, lambda m, d: dimension(m, d) + 1,
                                decompose_faulty, project_faulty, orthogonality_faulty)):
        mp.setattr(suites, name, fn)
    mp.setitem(hermite._CONSTRUCTIONS, "recursion", recursion_faulty)


SCENARIOS = {"mu": _shift_mu, "axis-one": _perturb_axis_one, "roesler": _break_roesler_reports,
             "remaining": _break_remaining_kinds}


def scenario_outcomes(name: str) -> dict:
    """{suite: sha256 of the verdict JSON, or the raised exception} under one fault."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        SCENARIOS[name](mp)
        for suite in SUITE_NAMES:
            try:
                verdict = run_suite(suite, TINY, SEED)
            except Exception as exc:  # pinned below like any other outcome
                out[suite] = f"{type(exc).__name__}: {exc}"
                continue
            out[suite] = hashlib.sha256(json.dumps(verdict.to_json()).encode()).hexdigest()
    return out


# Recorded from the runner-per-suite suites.py; never regenerate from newer code.
EXPECTED = {
    "axis-one": {
        "commute": "a8fd5eaeb295dfa09c80c975d562e03ac4376ac7aff947216faf6473a7fe369c",
        "sl2": "21b08a8f857de120fbb6c8dbb57eb771444e50939b8ac914be15f13a9f2c886b",
        "lemma1": "024b4dd17929c6b56fbf1077dbfd5ab0e05e857fe1e426672a060fc54b10c1ff",
        "anticommutator": "5faeb071b839bfcce13780f535ff643b11c4f8027f3c854d6f499b39e745bcb1",
        "dplus2": "c6a7d193b1ac1f0289af9351952e8f4069ce2baf964c57c26562b37f5d545d14",
        "fischer": "b23deaef80d0395321a1ebd26fa7bb3f7adfdbb62f2db843633ce6b1dfef1ee8",
        "hermite-eq": "5ad19dd8788deee5d0e53ef8df10f1b52616dadb62d0dd6d1e97877fa90dc8de",
        "diffeq": "422900558be0c25ce732f4dddae18480dc32bbd5b795dc969226662aad57c5cb",
        "roesler": "b21c3fd98f357df6f3bb5bd570a628ce6791321f1da10fea78ef27738b71f5c3",
        "orthogonality": "9adb97e6a9cbbf2669ca381f6ea3acf5d4e62a9601ac81afbf7bf4b8535fef40",
    },
    "mu": {
        "commute": "46f268750ae07861ad1ce32497918451e1f0804a10efb19667dd2099b2c87c3e",
        "sl2": "a1fe2354871fdf304d9576985afd4e48b23d911948e961d9257bedb316747435",
        "lemma1": "8c9d63b65e18ec5247de58e98ab8171dc4094d83c45658bf03d062faa8ee8bc2",
        "anticommutator": "ce17f44d9314b3bbf811d00e1739f937ee5658c7e3c2871505ac7b4f3031eb51",
        "dplus2": "073fe62e9b903e0b2b4e144795a68689df75a2e6a79e2b55797b40ed3630d5c6",
        "fischer": "5028b77aa67c858ddf70acafb0caf22ccc7d75ea0428e81f4374871aa1f543c2",
        "hermite-eq": "bfafba1ba15f0f618f26d84dc5f2160fd99492022f1653cfc140bc2b428921b4",
        "diffeq": "19b2f0b177a9078b93357abef2e6a4618448df1adacb1bbb96501574800e0fb9",
        # the one digest from newer code: the MathPrecondition raised here is
        # recorded as a "check raised" failure instead of losing the verdict
        "roesler": "ee79de585af7f2f191ef189b7800d32344c09bc203a44ef1c3164beda2604e96",
        "orthogonality": "2c00e40edff22b1a3843a1092ef4053df80661a599f90a2a67ad5bb9f2a60613",
    },
    "remaining": {
        "commute": "46f268750ae07861ad1ce32497918451e1f0804a10efb19667dd2099b2c87c3e",
        "sl2": "21b08a8f857de120fbb6c8dbb57eb771444e50939b8ac914be15f13a9f2c886b",
        "lemma1": "024b4dd17929c6b56fbf1077dbfd5ab0e05e857fe1e426672a060fc54b10c1ff",
        "anticommutator": "afec6df60bc56069a7600f13eb30e3ecc8d6b6a812bf232c654eacac088de2a6",
        "dplus2": "1c647814c322b8453c83176e55d915ee0abe6ac2cb707f878082b382668f93b3",
        "fischer": "59fa09ea9c3f3b72782b799d393faa2a9f06cc5942890c0220568287d52df4ea",
        "hermite-eq": "b8bac054c03d9201dcb8e2390bba8dcccd38605531ff45178c66e224d99ce15a",
        "diffeq": "422900558be0c25ce732f4dddae18480dc32bbd5b795dc969226662aad57c5cb",
        "roesler": "b21c3fd98f357df6f3bb5bd570a628ce6791321f1da10fea78ef27738b71f5c3",
        "orthogonality": "6bed1800555b8556edcc611eb663a9789ab6c3fdf3c11701b9f30336ca105640",
    },
    "roesler": {
        "commute": "46f268750ae07861ad1ce32497918451e1f0804a10efb19667dd2099b2c87c3e",
        "sl2": "21b08a8f857de120fbb6c8dbb57eb771444e50939b8ac914be15f13a9f2c886b",
        "lemma1": "024b4dd17929c6b56fbf1077dbfd5ab0e05e857fe1e426672a060fc54b10c1ff",
        "anticommutator": "5faeb071b839bfcce13780f535ff643b11c4f8027f3c854d6f499b39e745bcb1",
        "dplus2": "c6a7d193b1ac1f0289af9351952e8f4069ce2baf964c57c26562b37f5d545d14",
        "fischer": "b23deaef80d0395321a1ebd26fa7bb3f7adfdbb62f2db843633ce6b1dfef1ee8",
        "hermite-eq": "5ad19dd8788deee5d0e53ef8df10f1b52616dadb62d0dd6d1e97877fa90dc8de",
        "diffeq": "422900558be0c25ce732f4dddae18480dc32bbd5b795dc969226662aad57c5cb",
        "roesler": "2d316fbbff4a0fcfbbdaa1de9101bb647fbf4c6da1747adfc09add3013610fb1",
        "orthogonality": "9adb97e6a9cbbf2669ca381f6ea3acf5d4e62a9601ac81afbf7bf4b8535fef40",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_failure_records_are_pinned(name):
    assert scenario_outcomes(name) == EXPECTED[name]
