"""Suite runner plumbing: determinism, profiles, the suite table."""
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from dunkl_hermite import suites
from dunkl_hermite.suites import (CI, DESK, PROFILES, SUITE_NAMES, SUITES, draw_kappas,
                                  group_cases, run_suite)


def test_profiles_registered():
    assert PROFILES == {"desk": DESK, "ci": CI}
    assert DESK.max_deg == 6 and DESK.clifford_deg == 5
    assert CI.max_deg < DESK.max_deg


def test_draws_are_deterministic():
    a = draw_kappas(random.Random(7), 4)
    b = draw_kappas(random.Random(7), 4)
    assert a == b
    assert all(0 <= k <= 3 for k in a)


def test_group_cases_include_kappa_zero_first():
    cases = group_cases((("z2^2", "z2", 2, 2),), seed=7, draws=2)
    assert len(cases) == 3
    assert all(k == 0 for k in cases[0].kappas)
    assert cases[1].kappas != cases[2].kappas


def test_unknown_suite_name():
    with pytest.raises(ValueError):
        run_suite("nonsense", CI, 7)


def test_all_is_no_suite_name_and_the_refusal_says_so():
    """'all' is what run_all and the CLI's --suite take; run_suite names one suite, and its refusal offers no 'all'."""
    with pytest.raises(ValueError) as exc:
        run_suite("all", CI, 7)
    assert str(exc.value) == f"unknown suite 'all'; expected one of {SUITE_NAMES} (run_all runs every one)"


def test_suite_verdict_shape_and_seed_stability():
    v1 = run_suite("commute", CI, 7)
    v2 = run_suite("commute", CI, 7)
    assert v1.ok
    assert json.dumps(v1.to_json()) == json.dumps(v2.to_json())
    data = v1.to_json()
    assert set(data) == {"suite", "cases", "failures"}


def test_all_suite_names_have_runners():
    assert tuple(SUITES) == SUITE_NAMES
    assert all(callable(row.cases) and callable(row.check) for row in SUITES.values())
    assert {name for name, row in SUITES.items() if row.fixed} == {"dplus2", "hermite-eq"}


_REIMPORT = textwrap.dedent("""
    import gc, sys, weakref
    import dunkl_hermite
    refs = [weakref.ref(dunkl_hermite.suites.SuiteVerdict),
            weakref.ref(dunkl_hermite.operators.DunklContext),
            weakref.ref(dunkl_hermite.Polynomial)]
    for name in [n for n in sys.modules if n.split(".")[0] == "dunkl_hermite"]:
        del sys.modules[name]
    del dunkl_hermite
    import dunkl_hermite
    gc.collect()
    print([ref() is None for ref in refs])
""")


def test_reimport_releases_the_old_package():
    """Nothing process-wide (a typing alias cache, say) keeps a dropped copy of
    the package alive; runs in a child so this process keeps its modules."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[True, True, True]"


def test_run_suite_sends_every_group_case_through_run_cases(monkeypatch):
    """The bench times each group case by rebinding suites._run_cases; an inlined loop would bypass it."""
    expected = run_suite("commute", CI, 7)
    seen = []
    original = suites._run_cases

    def recorder(worker, cases):
        cases = list(cases)
        seen.extend(cases)
        return original(worker, cases)

    monkeypatch.setattr(suites, "_run_cases", recorder)
    verdict = run_suite("commute", CI, 7)
    assert seen == list(SUITES["commute"].cases(CI, 7)) and seen
    assert json.dumps(verdict.to_json()) == json.dumps(expected.to_json())
