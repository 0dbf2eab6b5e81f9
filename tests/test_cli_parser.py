"""main builds the flags of one command only: the parser of the command that argv names reads every argv exactly as
the parser of every command does, its help texts included, so the choice changes no output.  And main reads a plain
argv from the flag table with no parser at all: that reading is the full parser's, or it declines."""
import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite import cli

# (argv, the command main picks for it): every flag of every command and every default, --pretty before and after
# the command, abbreviated flags, flag values that name another command, and usage errors
ARGVS = [
    (["group-info"], "group-info"),
    (["group-info", "--group", "b", "--m", "3", "--kappa", "1,1/2", "--group-file", "g.json"], "group-info"),
    (["--pretty", "group-info", "--group", "z2", "--m", "2"], "group-info"),
    (["group-info", "--group", "d", "--m", "3", "--pretty"], "group-info"),
    (["--pre", "group-info", "--gr", "a", "--m", "3", "--kap", "1", "--pre"], "group-info"),
    (["hermite", "--t", "1", "--ell", "0"], "hermite"),
    (["hermite", "--group", "a", "--m", "3", "--kappa", "1/3", "--group-file", "g.json", "--t", "2", "--ell", "1",
      "--h-index", "1", "--construction", "laguerre", "--pretty"], "hermite"),
    (["--pretty", "hermite", "--t=1", "--ell=2", "--cons", "all"], "hermite"),
    (["hermite", "--t", "0", "--ell", "1", "--h-i", "2", "--construction", "rodrigues", "--pre"], "hermite"),
    (["hermite", "--group-file", "verify", "--t", "1", "--ell", "0"], "hermite"),
    (["decompose", "--poly-file", "verify"], "decompose"),
    (["decompose", "--group", "b", "--m", "2", "--kappa", "1,1", "--group-file", "g.json", "--poly-file", "-",
      "--pretty"], "decompose"),
    (["--pretty", "decompose", "--poly", "hermite", "--group-file", "group-info"], "decompose"),
    (["verify"], "verify"),
    (["verify", "--suite", "sl2", "--profile", "ci", "--seed", "11", "--max-deg", "6", "--pretty"], "verify"),
    (["--pre", "verify", "--max", "3", "--prof", "desk", "--su", "all"], "verify"),
    (["--help"], None),
    (["-h", "hermite"], "hermite"),
    (["group-info", "--help"], "group-info"),
    (["hermite", "--help"], "hermite"),
    (["decompose", "-h"], "decompose"),
    (["verify", "--help"], "verify"),
    ([], None),
    (["--pretty"], None),
    (["nonsense"], None),
    (["nonsense", "hermite"], "hermite"),
    (["hermite"], "hermite"),
    (["hermite", "--ell", "1"], "hermite"),
    (["hermite", "--t", "1", "--ell", "1", "--poly-file", "p.json"], "hermite"),
    (["hermite", "--t", "x", "--ell", "1"], "hermite"),
    (["hermite", "--t", "1", "--ell", "1", "--construction", "verify"], "hermite"),
    (["decompose", "--poly-file"], "decompose"),
    (["verify", "--suite", "bogus"], "verify"),
    (["verify", "--suite", "hermite"], "verify"),
    (["--pretty=1", "verify"], "verify"),
]


def parse(capsys, parser, argv):
    """vars() of the namespace, or the exit code and output of a usage error or a help request."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv, command", ARGVS)
def test_the_parser_of_the_named_command_reads_argv_as_the_full_parser_does(capsys, argv, command):
    assert cli._command_in(argv) == command
    assert parse(capsys, cli.build_parser(command), argv) == parse(capsys, cli.build_parser(), argv)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_the_top_level_help_of_every_command_s_parser_is_the_full_one(command):
    assert cli.build_parser(command).format_help() == cli.build_parser().format_help()


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
    """vars() of the full parser's namespace, or the exit code of its usage error or help request."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def agrees(argv):
    plain = cli._plain_args(argv)
    return plain is None or vars(plain) == full(argv)


@pytest.mark.parametrize("argv", [argv for argv, _ in ARGVS] + REQUEST_SHAPES)
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


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["group-info", "--group", "b", "--m", "2", "--kap", "1,1"], 0),
    (["hermite", "--group", "b", "--m", "2", "--kappa", "1,1", "--t", "-1", "--ell", "1"], 3),
])
def test_main_builds_the_parser_for_help_an_abbreviation_and_a_negative_value(monkeypatch, capsys, argv, code):
    calls, build_parser = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: calls.append(command) or build_parser(command))
    try:
        assert cli.main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    assert calls == [cli._command_in(argv)]


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
