"""The traced bench run end to end: one short generic-roots run of bench/run.py with --trace 1 on a copy of the
checkout's bench/ and src/, so that a rename in the package that the tracer or the cache counters read fails here
rather than only in a bench run."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_traced_generic_roots_run_is_correct_and_reports_every_layer(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "generic-roots", "--seed", "7",
                           "--seconds", "1", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    names = [layer["name"] for layer in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert [name for name in names if name not in metrics] == []
    assert all(metrics[f"hermite.harmonic_cache.{name}"]["value"] > 0 for name in ("hits", "misses", "hit_ratio"))
    assert metrics["operators.dunkl_laplacian.calls"]["value"] > 0
