"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q

They use trimmed inputs so that the whole file runs in well under a minute.
"""
from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SKIP, Tracer  # noqa: E402
from workloads import WORKLOADS, Hooks, Op, UnitResult, dense_terms, run_ops  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

pytestmark = pytest.mark.skipif(not run.use_source(), reason="package source not found")


def _small(name: str, seed: int = 7) -> dict:
    """The workload's seeded inputs, cut down to a few cheap ops."""
    data = WORKLOADS[name].inputs(seed)
    if name == "generic-roots":
        g2, f4 = data["systems"][:2]
        return {"systems": [dict(g2, laplacian_max=2),
                            dict(f4, degrees=(0, 1, 2), polys=[dense_terms(random.Random(seed), 4, 2)])]}
    if name == "cli-requests":
        return {"requests": data["requests"][:9]}
    if name == "kernels":
        return dict(data, z2_harmonic_degrees=(4,), z2_monogenic_degrees=(1,), trivial_degrees=(3,),
                    b3=[dict(data["b3"][0], polys=data["b3"][0]["polys"][:3])])
    return data


def _render(data) -> str:
    return repr(data)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    make = WORKLOADS[name].inputs
    assert _render(make(7)) == _render(make(7))
    assert _render(make(7)) != _render(make(11))
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); from workloads import WORKLOADS; "
            f"print(repr(WORKLOADS[{name!r}].inputs(7)))")
    other_process = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                   check=True, timeout=60)
    assert other_process.stdout.strip() == _render(make(7))


def test_generic_inputs_are_not_signed_permutations():
    from fractions import Fraction
    data = WORKLOADS["generic-roots"].inputs(7)
    for system in data["systems"]:
        roots = [[Fraction(c) for c in r] for r in system["json"]["positive_roots"]]
        # r_a = I - 2 a a^T / <a, a> has an entry outside {-1, 0, 1} for some root
        assert any((2 * a * b / sum(x * x for x in r)).denominator != 1
                   for r in roots for a in r for b in r)


def _counts(tracer: Tracer) -> dict:
    return {name: stat[0] for name, stat in tracer.stats.items()} | dict(tracer.counters)


@pytest.mark.parametrize("name", ["generic-roots", "kernels", "cli-requests"])
def test_traced_counts_repeat_and_outputs_match_untraced(name):
    workload = WORKLOADS[name]
    data = _small(name)
    dh, prepared, _, _ = run.set_up(workload, data)
    untraced = workload.execute(dh, prepared, Hooks())
    first, _, traced = run.traced_rep(workload, data)
    second, _, again = run.traced_rep(workload, data)
    assert untraced.failed == traced.failed == again.failed == 0
    assert untraced.digests == traced.digests == again.digests
    assert _counts(first) == _counts(second)
    assert first.span_count == second.span_count > 0
    if name == "generic-roots":
        assert _counts(first)["poly.compose_linear"] > 0


def test_tracer_rebinds_every_alias():
    workload = WORKLOADS["kernels"]
    tracer, dh, _ = run.traced_rep(workload, _small("kernels"))
    modules = [m for key, m in sys.modules.items() if key.startswith(run.PACKAGE + ".")]
    unwrapped = []
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            defined_in = getattr(obj, "__module__", "") or ""
            if (callable(obj) and not isinstance(obj, type) and defined_in.startswith(run.PACKAGE + ".")
                    and f"{defined_in.rpartition('.')[2]}.{obj.__name__}" not in SKIP
                    and layer != "__main__"):
                if getattr(getattr(obj, "__code__", None), "co_name", None) != "traced":
                    unwrapped.append(f"{mod.__name__}.{attr}")
    assert unwrapped == []
    assert dh.operators.compose_linear.__code__.co_name == "traced"
    assert dh.Polynomial.__rmul__.__code__.co_name == "traced"
    assert dh.cli._CONSTRUCTIONS["laguerre"].__code__.co_name == "traced"


def test_fresh_import_is_untraced():
    run.traced_rep(WORKLOADS["kernels"], _small("kernels"))
    dh = run.load_package()
    assert dh.operators.compose_linear.__code__.co_name == "compose_linear"


def test_raising_or_wrong_ops_count_as_failed():
    def ops():
        yield Op("ok", lambda: 1, lambda out: out == 1, lambda out: out)
        yield Op("wrong", lambda: 2, lambda out: out == 1, lambda out: out)
        yield Op("raises", lambda: 1 // 0, lambda out: True, lambda out: out)
        yield Op("check raises", lambda: {}, lambda out: out["missing"], lambda out: out)
    result = run_ops(ops(), Hooks())
    assert (result.attempted, result.failed) == (4, 3)
    assert run.count_failed(result, [result.digests[0], "x", "y", "z"]) == 3
    assert run.count_failed(UnitResult(attempted=3, digests=["a"] * 3), ["a", "b", "a"]) == 1


def test_battery_traces_each_suite_and_counts_raising_or_short_suites_as_failed():
    from types import SimpleNamespace
    events = []

    class Recorder(Hooks):
        def begin(self, op_id):
            events.append(("begin", op_id))

        def end(self):
            events.append(("end",))

    def run_suite(name, profile, seed):
        if name == "sl2":
            raise RuntimeError("suite crashed")
        dh.suites._run_cases(lambda case: case, [1, 2])
        cases = workloads.CI_SUITE_CASES[name] - (name == "commute")
        return SimpleNamespace(cases=cases, failures=[], wall_time_ms=1.0, to_json=lambda: {"suite": name})

    loop = object()
    dh = SimpleNamespace(suites=SimpleNamespace(_run_cases=loop), run_suite=run_suite)
    data = {"profile": None, "batteries": [dict.fromkeys(workloads.CI_SUITE_CASES, 0)]}
    result = workloads.battery_execute(dh, data, Recorder())
    assert dh.suites._run_cases is loop
    assert result.attempted == sum(workloads.CI_SUITE_CASES.values())
    assert result.failed == workloads.CI_SUITE_CASES["commute"] + workloads.CI_SUITE_CASES["sl2"]
    assert result.digests[1] == "failed" and result.digests[0] != "failed"
    assert len(result.latencies) == 2 * 9 and len(result.work) == 10
    # every suite is traced from entry to exit: begin, its cases' begins, then end
    assert events.count(("end",)) == 10
    assert events[:4] == [("begin", 0), ("begin", 0), ("begin", 1), ("end",)]


def test_cli_usage_error_is_a_failed_request_not_a_crash():
    dh = run.load_package()
    code, out = workloads._cli_call(dh, {"argv": ["hermite", "--no-such-flag"], "stdin": ""})
    assert code != 0 and out == ""


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    names = [name for name, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in run.END_TO_END + run.PER_LAYER:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "kernels", "--seed", "7",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
