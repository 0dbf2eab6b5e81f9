"""main builds the flags of one command only: the parser of the command that argv names reads every argv exactly as
the parser of every command does, its help texts included, so the choice changes no output."""
import pytest

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
