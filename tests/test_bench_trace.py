"""Short bench runs end to end, each on a copy of the checkout's bench/ and src/: a generic-roots run with --trace 1,
so that a rename in the package that the tracer or the cache counters read fails here rather than only in a bench
run, and an untraced cli-requests run, whose request outputs the bench checks against its pinned digests."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tmp_path, workload: str, seed: int, trace: int):
    """One --seconds 1 run of bench/run.py on a copy of bench/ and src/: the process and its result line, which
    must be correct with no failed op."""
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return proc, result


def test_a_traced_generic_roots_run_is_correct_and_reports_every_layer(tmp_path):
    _, result = run_bench(tmp_path, "generic-roots", 7, trace=1)
    metrics = result["metrics"]
    names = [layer["name"] for layer in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert [name for name in names if name not in metrics] == []
    assert all(metrics[f"hermite.harmonic_cache.{name}"]["value"] > 0 for name in ("hits", "misses", "hit_ratio"))
    assert metrics["operators.dunkl_laplacian.calls"]["value"] > 0


def test_an_untraced_cli_requests_run_is_correct_and_matches_its_pinned_digests(tmp_path):
    proc, _ = run_bench(tmp_path, "cli-requests", 11, trace=0)
    assert "pinned digests: yes" in proc.stderr
