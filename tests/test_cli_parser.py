"""main reads a plain argv from the flag table with no parser at all: that reading is argparse's, or it
declines, and every argv of the bench's cli-requests traffic is plain.  argparse reads every other argv with the one
parser of every command; its help texts are pinned byte for byte, its usage errors line for line."""
import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite import cli

# argvs for the plain reader: every flag of every command and every default, --pretty before and after the command,
# abbreviated flags, flag values that name another command, help requests and usage errors
ARGVS = [
    ["group-info"],
    ["group-info", "--group", "b", "--m", "3", "--kappa", "1,1/2", "--group-file", "g.json"],
    ["--pretty", "group-info", "--group", "z2", "--m", "2"],
    ["group-info", "--group", "d", "--m", "3", "--pretty"],
    ["--pre", "group-info", "--gr", "a", "--m", "3", "--kap", "1", "--pre"],
    ["hermite", "--t", "1", "--ell", "0"],
    ["hermite", "--group", "a", "--m", "3", "--kappa", "1/3", "--group-file", "g.json", "--t", "2", "--ell", "1",
     "--h-index", "1", "--construction", "laguerre", "--pretty"],
    ["--pretty", "hermite", "--t=1", "--ell=2", "--cons", "all"],
    ["hermite", "--t", "0", "--ell", "1", "--h-i", "2", "--construction", "rodrigues", "--pre"],
    ["hermite", "--group-file", "verify", "--t", "1", "--ell", "0"],
    ["decompose", "--poly-file", "verify"],
    ["decompose", "--group", "b", "--m", "2", "--kappa", "1,1", "--group-file", "g.json", "--poly-file", "-",
     "--pretty"],
    ["--pretty", "decompose", "--poly", "hermite", "--group-file", "group-info"],
    ["verify"],
    ["verify", "--suite", "sl2", "--profile", "ci", "--seed", "11", "--max-deg", "6", "--pretty"],
    ["--pre", "verify", "--max", "3", "--prof", "desk", "--su", "all"],
    ["--help"],
    ["-h", "hermite"],
    ["group-info", "--help"],
    ["hermite", "--help"],
    ["decompose", "-h"],
    ["verify", "--help"],
    [],
    ["--pretty"],
    ["nonsense"],
    ["nonsense", "hermite"],
    ["hermite"],
    ["hermite", "--ell", "1"],
    ["hermite", "--t", "1", "--ell", "1", "--poly-file", "p.json"],
    ["hermite", "--t", "x", "--ell", "1"],
    ["hermite", "--t", "1", "--ell", "1", "--construction", "verify"],
    ["decompose", "--poly-file"],
    ["verify", "--suite", "bogus"],
    ["verify", "--suite", "hermite"],
    ["--pretty=1", "verify"],
]


def test_main_reads_a_flag_value_naming_a_command_as_that_value(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = ["decompose", "--group", "b", "--m", "2", "--kappa", "1,1", "--poly-file", "verify"]
    assert cli.main(argv) == cli.EXIT_INVALID_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("dunkl-hermite: error: cannot read verify: ")


# one argv of each cli-requests shape of the bench: group-info with --kappa, hermite --construction all, decompose
# reading its polynomial on standard input
REQUEST_SHAPES = [
    ["group-info", "--group", "d", "--m", "3", "--kappa", "1/2"],
    ["hermite", "--group", "b", "--m", "2", "--kappa", "1/2,3", "--t", "2", "--ell", "1", "--h-index", "1",
     "--construction", "all"],
    ["decompose", "--group", "b", "--m", "3", "--kappa", "1,1/3", "--poly-file", "-"],
]

# one valid value of every option in the table
VALID = {"--group": "b", "--m": "2", "--kappa": "1,1", "--group-file": "g.json", "--t": "1", "--ell": "0",
         "--h-index": "0", "--construction": "all", "--poly-file": "-", "--suite": "sl2", "--profile": "ci",
         "--seed": "11", "--max-deg": "6"}
FLAGS = [(command, option) for command, (_, flags, _) in cli.COMMANDS.items() for option, _ in flags]


def full(argv):
    """vars() of argparse's namespace, or the exit code of its usage error or help request."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def agrees(argv):
    plain = cli._plain_args(argv)
    return plain is None or vars(plain) == full(argv)


@pytest.mark.parametrize("argv", ARGVS + REQUEST_SHAPES)
def test_the_plain_reading_is_the_full_parser_s_or_none(argv):
    assert agrees(argv)


@pytest.mark.parametrize("command, option", FLAGS)
def test_every_option_of_the_table_is_read_plain_with_a_valid_value(command, option):
    required = [token for name, kwargs in cli.COMMANDS[command][1] if kwargs.get("required") and name != option
                for token in (name, VALID[name])]
    argv = [command, *required, option, VALID[option]]
    plain = cli._plain_args(argv)
    assert plain is not None and vars(plain) == full(argv)


# tokens an edit puts into a plain argv: options and commands, help, abbreviations, = forms, odd and invalid values,
# negative numbers, - and the empty string
TOKENS = [*VALID, *cli.COMMANDS, "--pretty", "-h", "--help", "--gr", "--h-i", "--pre", "--cons", "--t=1", "--group=b",
          "--pretty=1", "--", "-", "", "-1", "-3", " 5", "+4", "1_000", "1.5", "x", "bogus", "nonsense", "laguerre",
          "desk", "hermite-eq", "z2"]


def valid_value(kwargs):
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    if kwargs.get("type") is int:
        return st.integers(0, 40).map(str)
    return st.sampled_from(["1,1/2", "g.json", "-", "verify", "3"])


@st.composite
def argvs(draw):
    """A plain argv (--pretty, a command, distinct options of it with valid values, every required one among them),
    then as often as not an edit or two: a token of TOKENS inserted or put in place of one, or one deleted (None)."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = dict(cli.COMMANDS[command][1])
    options = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    options += [option for option, kwargs in flags.items() if kwargs.get("required") and option not in options]
    argv = ["--pretty"] * draw(st.integers(0, 2)) + [command]
    for option in draw(st.permutations(options)):
        argv += [option, draw(valid_value(flags[option]))] + ["--pretty"] * (draw(st.integers(0, 3)) // 3)
    edits = st.tuples(st.integers(0, len(argv) - 1), st.booleans(), st.sampled_from([None, *TOKENS]))
    for index, replace, token in draw(st.lists(edits, max_size=2)):
        argv[index:index + replace] = [] if token is None else [token]
    return argv


@given(argvs())
@settings(max_examples=300, deadline=None)
def test_the_plain_reading_of_any_token_list_is_the_full_parser_s_or_none(argv):
    assert agrees(argv)


@pytest.mark.parametrize("argv", REQUEST_SHAPES + [["--pretty", *argv, "--pretty"] for argv in REQUEST_SHAPES])
def test_main_builds_no_parser_for_a_plain_request(monkeypatch, capsys, argv):
    def built(*args):
        raise AssertionError("a parser was built")
    monkeypatch.setattr(cli, "build_parser", built)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"m": 3, "terms": [{"c": "1/2", "e": [2, 1, 0]}]}'))
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("{")


@pytest.mark.parametrize("argv", ARGVS)
def test_main_reads_argv_as_the_full_parser_does(monkeypatch, capsys, argv):
    """main hands the command's handler the full parser's namespace, or exits with the full parser's code, standard
    output and standard error: a plain argv read from the table and any other read by argparse alike."""
    expected = full(argv)
    if not isinstance(expected, dict):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        expected = (expected, *capsys.readouterr())
    read = []
    commands = {name: (help_text, flags, lambda args, handler=handler: read.append({**vars(args), "handler": handler})
                       or ({}, cli.EXIT_OK))
                for name, (help_text, flags, handler) in cli.COMMANDS.items()}
    monkeypatch.setattr(cli, "COMMANDS", commands)
    try:
        assert cli.main(argv) == cli.EXIT_OK
    except SystemExit as exc:
        assert (exc.code, *capsys.readouterr()) == expected
    else:
        assert read == [expected]


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["group-info", "--group", "b", "--m", "2", "--kap", "1,1"], 0),
    (["hermite", "--group", "b", "--m", "2", "--kappa", "1,1", "--t", "-1", "--ell", "1"], 3),
])
def test_main_builds_the_parser_for_help_an_abbreviation_and_a_negative_value(monkeypatch, capsys, argv, code):
    calls, build_parser = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *args: calls.append(args) or build_parser(*args))
    try:
        assert cli.main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    assert calls == [()]


@pytest.mark.parametrize("argv, last_line", [
    (["hermite", "--ell", "1"], "dunkl-hermite hermite: error: the following arguments are required: --t"),
    (["verify", "--suite", "bogus"], "dunkl-hermite verify: error: argument --suite: invalid choice: 'bogus' (choose "
                                     "from 'commute', 'sl2', 'lemma1', 'anticommutator', 'dplus2', 'fischer', "
                                     "'hermite-eq', 'diffeq', 'roesler', 'orthogonality', 'all')"),
    (["group-info", "--gr", "b"], "dunkl-hermite group-info: error: ambiguous option: --gr could match --group, "
                                  "--group-file"),
    (["nonsense"], "dunkl-hermite: error: argument COMMAND: invalid choice: 'nonsense' (choose from 'group-info', "
                   "'hermite', 'decompose', 'verify')"),
])
def test_a_usage_error_names_the_parser_that_read_it(capsys, argv, last_line):
    """argparse's usage errors exit 1 and end with the prog of the parser that read the bad token: the command's
    for its flags, the top level's for the command; main's own error lines name the top level only."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err.splitlines()[-1]) == (cli.EXIT_USAGE, "", last_line)


# sha256 of main's standard output for each help request, at argparse's 80 columns
HELP_SHA256 = {
    "": "81890778a5b3009d1825103a2efbcb2883676c1d2a915b13afc9396a95fcdf66",
    "group-info": "b6a5dd9a17a50a50ca4aca1a1a6b400413da8f925d03bb8527f00a073955ecc7",
    "hermite": "caec234b8977d2df0f4a2ea8bc55afa52ce8fd9211f2c4f083fddd3a9bd2d3f0",
    "decompose": "22e437f4a0dfef57f67d42e470a3d10f4fb5278e5acea2711a1042ed8f14c18f",
    "verify": "0e90acbe29574aadb5b3108e09ce72bdf100a84645f9855296ab2a1df71319e3",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_every_help_text_is_pinned_byte_for_byte(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", HELP_SHA256[command])


def bench_workloads():
    """bench/workloads.py, loaded from its file: it imports nothing of the package or of bench/."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [7, 11])
def test_every_bench_request_is_read_plain(seed):
    """Each argv of the bench's cli-requests workload is read from the flag table, so none of them builds a parser."""
    requests = bench_workloads().cli_inputs(seed)["requests"]
    declined = [request["argv"] for request in requests if cli._plain_args(list(request["argv"])) is None]
    assert requests and declined == []
