"""Benchmark of the dunkl_hermite package: seeded workloads, exact checks, metrics as JSON.

    python3 bench/run.py --workload battery-ci --seed 7 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The package is imported from ``src/`` next to this directory; a
checkout without it exits 2 before printing a result.

``--trace 0`` runs the workload's fixed, seeded work ``--seconds // nominal``
times (at least once; the nominal is the time of one repetition on the
reference box) and prints the end-to-end metrics.  Every repetition re-imports
the package, so module caches start cold and set-up is sampled each time;
set-up is sampled at least twenty times in all.  Times are reference seconds:
raw seconds scaled by an interleaved speed probe (see speed.py).  ``--trace 1``
runs the work once untraced and once traced, prints the per-layer metrics in
raw seconds, and writes the spans to ``.bench_out/spans-<workload>-<seed>.jsonl``.
``--workload all`` runs each workload in a process of its own, one after the
other.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, PACKAGE, Tracer  # noqa: E402
from workloads import CI_SUITE_CASES, WORKLOADS, Hooks, UnitResult  # noqa: E402

SETUP_SAMPLES = 20

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"),
)

CLI_KINDS = ("group-info", "hermite", "decompose")
PER_LAYER = (
    ("poly.compose_linear.calls", "count"), ("poly.compose_linear.self_s", "s"),
    ("poly.divide_by_linear_form.calls", "count"), ("poly.divide_by_linear_form.self_s", "s"),
    ("poly.divide_per_compose", "ratio"),
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"), ("poly.add.calls", "count"),
    ("poly.self_s", "s"),
    ("operators.dunkl_derivative.calls", "count"), ("operators.dunkl_derivative.total_s", "s"),
    ("operators.dunkl_laplacian.calls", "count"), ("operators.dunkl_laplacian.total_s", "s"),
    ("operators.self_s", "s"),
    ("linalg.reduced_row_echelon.calls", "count"), ("linalg.reduced_row_echelon.self_s", "s"),
    ("linalg.rref_cells", "count"), ("linalg.kernel_vectors.self_s", "s"),
    ("linalg.materialize_on_degree.total_s", "s"), ("linalg.self_s", "s"),
    ("clifford.dunkl_dirac.calls", "count"), ("clifford.dunkl_dirac.total_s", "s"),
    ("clifford.monogenic_basis.total_s", "s"), ("clifford.self_s", "s"),
    ("hermite.harmonic_basis.calls", "count"),
    ("hermite.harmonic_cache.hits", "count"), ("hermite.harmonic_cache.misses", "count"),
    ("hermite.harmonic_cache.hit_ratio", "ratio"),
    ("hermite.fischer_project.total_s", "s"), ("hermite.ch_recursion.total_s", "s"),
    ("hermite.ch_rodrigues.total_s", "s"), ("hermite.ch_laguerre.total_s", "s"),
    ("hermite.self_s", "s"),
    ("groups.custom_root_system.calls", "count"), ("groups.custom_root_system.total_s", "s"),
    ("groups.self_s", "s"),
    ("moments.inner_product.calls", "count"), ("moments.self_s", "s"),
) + tuple((f"suites.{suite}.wall_s", "s") for suite in CI_SUITE_CASES) + tuple(
    (f"cli.{kind}.p50_ms", "ms") for kind in CLI_KINDS) + (
    ("cli.self_s", "s"),
) + tuple((f"{layer}.self_share", "ratio") for layer in LAYERS) + (
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def use_source() -> bool:
    """Put ``src/`` first on the import path; False when the checkout has no package source."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # the thread pool is slower than serial on this code; measure the default serial path
    os.environ.pop("DUNKL_NUM_THREADS", None)
    return True


def load_package():
    """Import the package and its command line afresh: drop every cached module of it first."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return package


def set_up(workload, data):
    """Import the package and build the workload's inputs; returns (dh, prepared, start, end)."""
    gc.collect()
    start = time.perf_counter()
    dh = load_package()
    prepared = workload.prepare(dh, data)
    return dh, prepared, start, time.perf_counter()


def quantiles(samples: list[float]) -> tuple[float, float]:
    """(p50, p90) of the samples, inclusive method."""
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return deciles[4], deciles[8]


def pinned_digests(workload: str, seed: int):
    """Per-op output digests pinned for this workload and seed, or None."""
    path = HERE / "pinned.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(str(seed), {}).get(workload)


def count_failed(result: UnitResult, pinned) -> int:
    """Failed checks plus ops whose output digest differs from the pinned one."""
    if pinned is None:
        return result.failed
    if len(pinned) != len(result.digests):
        return max(result.attempted, len(pinned))
    return result.failed + sum(1 for got, want in zip(result.digests, pinned)
                               if got != want and got != "failed")


def measure(workload, seed: int, seconds: int) -> dict:
    """End-to-end metrics over ``seconds // nominal_s`` repetitions (at least one).

    The repetition count depends on the arguments only, so every run of a
    workload measures the same work.  Times are in reference seconds (speed.py).
    """
    data = workload.inputs(seed)
    pinned = pinned_digests(workload.name, seed)
    probe = SpeedProbe()
    repetitions = max(1, int(seconds // workload.nominal_s))
    setups, walls, raw_walls, latencies, reps = [], [], [], [], []
    for index in range(max(repetitions, SETUP_SAMPLES)):
        probe.probe()
        dh, prepared, start, end = set_up(workload, data)
        probe.probe()
        setups.append(probe.seconds(start, end))
        if index < repetitions:
            result = workload.execute(dh, prepared, probe)
            probe.probe()
            reps.append(result)
            walls.append(sum(probe.seconds(a, b) for a, b in result.work))
            raw_walls.append(result.wall_s)
            latencies.extend(probe.seconds(s, s + d) for _, s, d in result.latencies)
        del dh, prepared
    p50, p90 = quantiles(latencies)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(count_failed(rep, pinned) for rep in reps)
    print(f"{workload.name} seed {seed}: {len(reps)} repetitions, {attempted} ops, {failed} failed, "
          f"{len(latencies)} latency samples ({len(reps[0].latencies)} per repetition), "
          f"{len(setups)} set-up samples, {len(probe.probes)} speed probes, raw wall "
          f"{statistics.median(raw_walls):.3f} s; pinned digests: "
          f"{'yes' if pinned else 'none for this seed'}", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(rep.attempted / wall for rep, wall in zip(reps, walls)),
        "op_p50_ms": p50 * 1000,
        "op_p90_ms": p90 * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return _result(attempted, failed, values, END_TO_END)


def _cache_info(dh):
    """cache_info() of the harmonic basis cache, under the tracer's wrapper if there is one."""
    fn = dh.hermite._harmonic_basis_cached
    if not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    return fn.cache_info()


def layer_metrics(tracer: Tracer, dh, reference: UnitResult, traced: UnitResult) -> dict:
    """Per-layer values: counts and self times from the traced run, latencies from the untraced one."""
    stats, layer_self = tracer.stats, tracer.layer_self
    total_self = sum(layer_self.values()) or 1.0
    values = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = stats[base][0] if base in stats else 0
        elif field == "total_s":
            values[name] = stats[base][1] if base in stats else 0.0
        elif field == "self_s":
            values[name] = layer_self.get(base, 0.0) if base in LAYERS else (
                stats[base][2] if base in stats else 0.0)
        elif field == "self_share":
            values[name] = layer_self.get(base, 0.0) / total_self
    compose = values["poly.compose_linear.calls"]
    values["poly.divide_per_compose"] = (values["poly.divide_by_linear_form.calls"] / compose
                                         if compose else 0.0)
    values["linalg.rref_cells"] = tracer.counters.get("linalg.rref_cells", 0)
    info = _cache_info(dh)
    hits, misses = info.hits, info.misses
    values["hermite.harmonic_cache.hits"] = hits
    values["hermite.harmonic_cache.misses"] = misses
    values["hermite.harmonic_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    suite_walls = reference.details.get("suite_wall_s", {})
    for suite in CI_SUITE_CASES:
        values[f"suites.{suite}.wall_s"] = suite_walls.get(suite, 0.0)
    for kind in CLI_KINDS:
        samples = [s for k, _, s in reference.latencies if k == kind]
        values[f"cli.{kind}.p50_ms"] = statistics.median(samples) * 1000 if samples else 0.0
    values["trace.wall_s"] = traced.wall_s
    values["trace.untraced_wall_s"] = reference.wall_s
    values["trace.overhead_s"] = traced.wall_s - reference.wall_s
    values["trace.spans"] = tracer.span_count
    return values


def traced_rep(workload, data):
    """One repetition on a fresh import with the tracer installed; returns (tracer, dh, result)."""
    dh, prepared, _, _ = set_up(workload, data)
    tracer = Tracer()
    tracer.install(dh)
    return tracer, dh, workload.execute(dh, prepared, tracer)


def trace(workload, seed: int) -> dict:
    data = workload.inputs(seed)
    pinned = pinned_digests(workload.name, seed)
    dh, prepared, _, _ = set_up(workload, data)
    reference = workload.execute(dh, prepared, Hooks())
    del dh, prepared
    tracer, dh, traced = traced_rep(workload, data)
    failed = count_failed(reference, pinned) + count_failed(traced, pinned)
    # tracing must not change what the program computes
    failed += sum(1 for a, b in zip(reference.digests, traced.digests) if a != b)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    print(f"{workload.name} seed {seed}: traced {traced.attempted} ops, {tracer.span_count} spans "
          f"written to {spans_path.relative_to(ROOT)}", file=sys.stderr)
    values = layer_metrics(tracer, dh, reference, traced)
    return _result(reference.attempted + traced.attempted, failed, values, PER_LAYER)


def _result(attempted: int, failed: int, values: dict, declared) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared}}


def run_all_workloads(args) -> dict:
    """Each workload in its own process, so caches and peak memory do not carry over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not use_source():
        print(f"error: package source not found at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all_workloads(args)
    elif args.trace:
        result = trace(WORKLOADS[args.workload], args.seed)
    else:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
