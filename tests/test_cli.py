"""Command line contract: outputs, exit codes, determinism."""
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# suites and the errors are taken at import, with main: after a test that re-imports the package,
# this file must still patch the suites module that main calls and raise the class it catches
from dunkl_hermite import suites
from dunkl_hermite.cli import main
from dunkl_hermite.errors import MathPrecondition

# sha256 of `verify --suite all --profile ci --seed 7` stdout; a change to any check,
# draw, count or record shows up here
CI_VERDICT_SHA256 = "1b7fb41ea9c49ba615042c7ac12c7e3b2dcf62e9ea3b42c4c2adc79403800a99"


def run_fresh(*argv, stdin=""):
    """argv in a new `python -m dunkl_hermite` process that imports the package from the same tree."""
    src = str(Path(suites.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "dunkl_hermite", *argv], input=stdin,
                          capture_output=True, text=True, env=env)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_info_z2(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--group", "z2", "--m", "2",
                           "--kappa", "1,1")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == "6/1"
    assert data["gamma"] == "2/1"
    assert data["orbits"] == [[0], [1]]


def test_group_info_b2(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--group", "b", "--m", "2",
                           "--kappa", "1,2")
    assert code == 0
    assert json.loads(out)["mu"] == "14/1"


def test_group_info_from_file(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "m": 1, "positive_roots": [["1"]],
        "multiplicities": [{"orbit_rep": ["1"], "kappa": "3/2"}]}))
    code, out, _ = run_cli(capsys, "group-info", "--group-file", str(path))
    assert code == 0
    assert json.loads(out)["mu"] == "4/1"


def test_group_info_parallel_roots_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "m": 2, "positive_roots": [["1", "0"], ["2", "0"]],
        "multiplicities": [{"orbit_rep": ["1", "0"], "kappa": "1"}]}))
    code, out, err = run_cli(capsys, "group-info", "--group-file", str(path))
    assert code == 2
    assert out == ""
    assert "not reduced" in err


def test_missing_group_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "group-info")
    assert code == 1
    assert "--group" in err


def test_unreadable_group_file_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "group-info", "--group-file",
                           str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err


def test_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "group-info", "--group-file", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_hermite_radial_table_entry(capsys):
    code, out, _ = run_cli(capsys, "hermite", "--group", "z2", "--m", "1",
                           "--kappa", "0", "--t", "1", "--ell", "0")
    assert code == 0
    data = json.loads(out)
    assert data["radial_coeffs"] == ["2/1", "-4/1"]
    assert data["mu"] == "1/1"
    assert data["polynomial"]["terms"][0] == {"c": "-4/1", "e": [2]}


def test_hermite_t0_returns_harmonic(capsys):
    code, out, _ = run_cli(capsys, "hermite", "--group", "z2", "--m", "2",
                           "--kappa", "1,1", "--t", "0", "--ell", "2")
    assert code == 0
    data = json.loads(out)
    assert data["radial_coeffs"] == ["1/1"]
    assert data["polynomial"] == data["harmonic"]


def test_hermite_construction_all_agrees(capsys):
    code, out, _ = run_cli(capsys, "hermite", "--group", "b", "--m", "2",
                           "--kappa", "1/2,3/4", "--t", "2", "--ell", "1",
                           "--h-index", "1", "--construction", "all")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert set(data["constructions"]) == {"recursion", "rodrigues", "laguerre"}
    polys = {json.dumps(rec["polynomial"]) for rec in data["constructions"].values()}
    assert len(polys) == 1


def test_hermite_h_index_out_of_range(capsys):
    code, _, err = run_cli(capsys, "hermite", "--group", "z2", "--m", "1",
                           "--kappa", "0", "--t", "1", "--ell", "0", "--h-index", "3")
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("argv", [
    ["--group", "z2", "--m", "1", "--kappa", "1", "--t", "-1", "--ell", "2"],  # an empty degree-2 basis
    ["--group", "b", "--m", "2", "--kappa", "1,1", "--t", "-1", "--ell", "1"],
    ["--group", "b", "--m", "2", "--kappa", "1,1", "--t", "-1", "--ell", "1", "--h-index", "5"],
])
def test_hermite_negative_t_exits_3_before_any_basis(capsys, monkeypatch, argv):
    """A negative t is refused with the library's message before the basis, so before --h-index is checked."""
    def started(*args):
        raise AssertionError("a harmonic basis was built")
    monkeypatch.setitem(main.__globals__, "harmonic_basis", started)  # the cli module main runs in
    code, out, err = run_cli(capsys, "hermite", *argv)
    assert (code, out, err) == (3, "", "dunkl-hermite: error: index t must be >= 0, got -1\n")


B2 = ["--group", "b", "--m", "2", "--kappa", "1,1"]


# (argv, exit code, message, the work the refusal comes before: (main or a function of the module holding it, name))
NEGATIVE_VALUES = [
    (["group-info", "--group", "b", "--m", "-1", "--kappa", "1,1"], 2, "dimension must be >= 1, got -1",
     ("builtin_root_system", "_builtin_geometry")),
    (["hermite", *B2, "--t", "1", "--ell", "-1"], 3, "degree must be >= 0, got -1",
     ("harmonic_basis", "_harmonic_basis_cached")),
    (["verify", "--profile", "ci", "--max-deg", "-1"], 1, "--max-deg must be nonnegative", ("main", "run_suite")),
    (["hermite", *B2, "--t", "1", "--ell", "0", "--h-index", "-1"], 2,
     "--h-index -1 out of range: the degree-0 harmonic basis has 1 elements", ("main", "_checked")),
]


@pytest.mark.parametrize("argv, code, message, work", NEGATIVE_VALUES)
def test_negative_values_exit_with_their_codes_before_the_work(capsys, monkeypatch, argv, code, message, work):
    """A negative --m, --ell, --max-deg or --h-index is refused with its exit code and one error line, and no output."""
    owner, name = work
    def started(*args):
        raise AssertionError(f"{name} was called")
    module = main.__globals__ if owner == "main" else main.__globals__[owner].__globals__
    monkeypatch.setitem(module, name, started)
    assert run_cli(capsys, *argv) == (code, "", f"dunkl-hermite: error: {message}\n")


def test_decompose_square_two_components(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"m": 2, "terms": [{"c": "1/1", "e": [2, 0]}]}))
    code, out, _ = run_cli(capsys, "decompose", "--group", "trivial", "--m", "2",
                           "--poly-file", str(path))
    assert code == 0
    data = json.loads(out)
    assert [c["i"] for c in data["components"]] == [0, 1]
    harmonic_part = data["components"][0]["component"]
    assert harmonic_part["terms"] == [{"c": "1/2", "e": [2, 0]},
                                      {"c": "-1/2", "e": [0, 2]}]


def test_decompose_harmonic_single_component(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"m": 2, "terms": [{"c": "1/1", "e": [1, 1]}]}))
    code, out, _ = run_cli(capsys, "decompose", "--group", "z2", "--m", "2",
                           "--kappa", "1,2", "--poly-file", str(path))
    assert code == 0
    data = json.loads(out)
    assert len(data["components"]) == 1
    assert data["components"][0]["i"] == 0


def test_decompose_degenerate_mu_exit_3(capsys, tmp_path):
    group = tmp_path / "mu2.json"
    group.write_text(json.dumps({
        "m": 1, "positive_roots": [["1"]],
        "multiplicities": [{"orbit_rep": ["1"], "kappa": "-3/2"}]}))
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"m": 1, "terms": [{"c": "1/1", "e": [2]}]}))
    code, out, err = run_cli(capsys, "decompose", "--group-file", str(group),
                             "--poly-file", str(poly))
    assert code == 3
    assert out == ""
    assert "mu" in err and "-2" in err


def test_decompose_dimension_mismatch_exit_2(capsys, tmp_path):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"m": 3, "terms": [{"c": "1/1", "e": [2, 0, 0]}]}))
    code, _, err = run_cli(capsys, "decompose", "--group", "trivial", "--m", "2",
                           "--poly-file", str(poly))
    assert code == 2
    assert "m = 3" in err


def test_decompose_mixed_degrees_exit_3(capsys, tmp_path):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"m": 2, "terms": [
        {"c": "1/1", "e": [2, 0]}, {"c": "1/1", "e": [1, 0]}]}))
    code, _, err = run_cli(capsys, "decompose", "--group", "trivial", "--m", "2",
                           "--poly-file", str(poly))
    assert code == 3
    assert "homogeneous" in err


def test_verify_single_suite_exit_0(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "commute", "--profile", "ci")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "commute"
    assert data["failures"] == []
    assert data["cases"] > 0
    # timing goes to stderr only
    assert "ms" in err
    assert "wall_time_ms" not in data


def test_verify_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "verify", "--suite", "lemma1", "--profile", "ci")
    _, second, _ = run_cli(capsys, "verify", "--suite", "lemma1", "--profile", "ci")
    assert first == second


def test_verify_seed_changes_draws_not_verdict(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "commute",
                             "--profile", "ci", "--seed", "1")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "commute",
                             "--profile", "ci", "--seed", "2")
    assert code1 == code2 == 0
    assert json.loads(out1)["failures"] == json.loads(out2)["failures"] == []


def test_verify_max_deg_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "commute",
                           "--profile", "ci", "--max-deg", "2")
    assert code == 0
    small = json.loads(out)["cases"]
    _, out_full, _ = run_cli(capsys, "verify", "--suite", "commute", "--profile", "ci")
    assert small < json.loads(out_full)["cases"]


def test_verify_records_a_check_that_raises(capsys, monkeypatch):
    """A check that raises is one failed check in the verdict, not an aborted run."""
    def raising(ctx, i, n, frame, record):
        raise MathPrecondition("injected fault")

    monkeypatch.setattr(suites, "_proportionality", raising)
    code, out, _ = run_cli(capsys, "verify", "--suite", "roesler", "--profile", "ci")
    assert code == 4
    records = json.loads(out)["failures"]
    assert records
    assert all(r["identity"] == "check raised" and r["error"] == "MathPrecondition: injected fault"
               for r in records)


def test_verify_unknown_suite_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 1


def test_unknown_command_usage_error(capsys):
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1


def test_pretty_flag_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--group", "z2", "--m", "1",
                           "--kappa", "1", "--pretty")
    assert code == 0
    assert out.startswith("{\n  ")
    assert json.loads(out)["mu"] == "3/1"


def test_main_calls_in_one_process_answer_like_fresh_processes(capsys, monkeypatch):
    """main() calls in one process share its cached geometry and root set-up; each call still gives
    the exit code and output of its own process, and --pretty does not carry over into the next call."""
    poly = json.dumps({"m": 3, "terms": [{"c": "1/1", "e": [2, 1, 0]}, {"c": "-3/2", "e": [0, 0, 3]}]})
    requests = [
        (["group-info", "--group", "b", "--m", "3", "--kappa", "1,1/2"], ""),
        (["--pretty", "group-info", "--group", "d", "--m", "3", "--kappa", "2"], ""),
        (["hermite", "--group", "z2", "--m", "2"], ""),  # --t and --ell missing: exit 1
        (["hermite", "--group", "a", "--m", "3", "--kappa", "1/3", "--t", "1", "--ell", "1",
          "--construction", "all"], ""),
        (["decompose", "--group", "b", "--m", "3", "--kappa", "1,2", "--poly-file", "-"], poly),
        (["group-info", "--group", "d", "--m", "3", "--kappa", "2"], ""),
    ]
    results = []
    for argv, stdin in requests:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        results.append(run_cli(capsys, *argv))
        fresh = run_fresh(*argv, stdin=stdin)
        assert results[-1] == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code for code, _, _ in results] == [0, 0, 1, 0, 0, 0]
    assert results[1][1].startswith("{\n  ") and results[-1][1].startswith('{"m":3,')


@pytest.mark.parametrize("argv", [["--help"], ["hermite", "--help"], ["nonsense", "hermite"],
                                  ["verify", "--suite", "bogus"],
                                  ["hermite", "--group", "z2", "--m", "2", "--kappa", "1,1", "--ell", "1"]])
def test_help_and_usage_errors_in_one_process_answer_like_fresh_processes(capsys, monkeypatch, argv):
    """Help and usage errors leave main by argparse's SystemExit, with the code and bytes of a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width; a fresh process has no terminal
    fresh = run_fresh(*argv)
    assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert fresh.returncode == (0 if "--help" in argv else 1)


def test_console_entry_point_runs():
    result = run_fresh("group-info", "--group", "a", "--m", "3", "--kappa", "1")
    assert result.returncode == 0
    assert json.loads(result.stdout)["mu"] == "9/1"


def test_ci_verdict_bytes_are_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--profile", "ci", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CI_VERDICT_SHA256
