"""Command line surface: group info, Hermite tables, Fischer decomposition,
and the verification suites, all as deterministic JSON on standard output.

Exit codes: 0 success, 1 usage, 2 invalid input data, 3 mathematical
precondition violated, 4 verification failures.

main reads a plain argv (--pretty, a command, its exact options with one value each) from COMMANDS and builds no
parser; argparse reads every other argv.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from math import comb

from .errors import DimensionMismatch, InvalidRootSystem, MathPrecondition
from .groups import (BUILTIN_FAMILIES, RootSystem, builtin_root_system,
                     root_system_from_json)
from .hermite import _CONSTRUCTIONS, _checked, fischer_decompose, harmonic_basis
from .operators import DunklContext
from .poly import MAX_DEGREE, Polynomial, parse_rational, rational_str
from .suites import PROFILES, SUITE_NAMES, largest_m, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4

PROG = "dunkl-hermite"

# Every command refuses a request whose monomial estimate is past this before its work starts.  verify: the monomials
# of degree <= max-deg in the largest m of the profile's groups, times 2^m blades for the Clifford work; with m = 3
# the largest accepted is --max-deg 34 (7,770 monomials, estimate 62,160), and the desk battery then runs in about
# half a minute.  hermite and decompose: the monomials of the top degree in m, the columns of the harmonic bases
# they build; b2 takes every degree up to the degree cap (65,535, which has 65,536 monomials).
MONOMIAL_CAP = 1 << 16
# hermite and decompose refuse a root system in more coordinates than this before its Dunkl context is built: a monomial
# key of m variables holds 16 (m + 1) bits, the keys of the m axes 16 m^2, and a custom root's reflection m^2 entries.
# At m = DIMENSION_CAP, hermite --group trivial --t 0 --ell 1 takes about a second on a shared 2-core box.
DIMENSION_CAP = 1200


class UsageError(Exception):
    """Flag combinations argparse alone cannot reject."""


class InputDataError(Exception):
    """Unreadable or malformed input files and values."""


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    """The JSON at path (- for stdin); a non-integer number stays text, so parse_rational reads every digit."""
    try:
        if path == "-":
            return json.loads(sys.stdin.read(), parse_float=str)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_float=str)
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digits int reads
        raise InputDataError(f"{path} is not valid JSON: {exc}") from exc


def _resolve_group(args: argparse.Namespace) -> RootSystem:
    if args.group_file and args.group:
        raise UsageError("use either --group or --group-file, not both")
    if args.group_file:
        return root_system_from_json(_load_json(args.group_file))
    if not args.group:
        raise UsageError("a root system is required: pass --group or --group-file")
    if args.m is None:
        raise UsageError("--group needs --m")
    if args.kappa:
        try:
            kappas = [parse_rational(part) for part in args.kappa.split(",")]
        except ValueError as exc:
            raise InputDataError(f"cannot parse --kappa {args.kappa!r}: {exc}") from exc
    else:
        kappas = []
    return builtin_root_system(args.group, args.m, kappas)


def _emit(payload, pretty: bool) -> None:
    if pretty:
        text = json.dumps(payload, indent=2)
    else:
        text = json.dumps(payload, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def cmd_group_info(args: argparse.Namespace) -> tuple[dict, int]:
    system = _resolve_group(args)
    payload = system.to_json()
    payload["orbits"] = [list(orbit) for orbit in system.orbits]
    payload["gamma"] = rational_str(system.gamma)
    payload["mu"] = rational_str(system.mu)
    return payload, EXIT_OK


def _refuse_past_monomial_cap(m: int, degree: int) -> None:
    """Refuse a request whose monomials of the degree in m variables are past MONOMIAL_CAP, before any basis is
    built.  Their count C(degree + m - 1, k), k = min(degree, m - 1), is built up one exact factor at a time and left
    as soon as it is past the cap, so a huge m costs nothing, and the count named is a lower bound."""
    count, n = 1, degree + m - 1
    for i in range(min(degree, m - 1)):
        count = count * (n - i) // (i + 1)
        if count > MONOMIAL_CAP:
            raise MathPrecondition(f"the monomials of degree {degree} in m = {m} number at least {count}, "
                                   f"past the monomial cap {MONOMIAL_CAP}")


def _context(system: RootSystem) -> DunklContext:
    """The Dunkl context of system, refused past DIMENSION_CAP coordinates before it is built."""
    if system.m > DIMENSION_CAP:
        raise MathPrecondition(f"m = {system.m} is past the dimension cap {DIMENSION_CAP}")
    return DunklContext(system)


def _refuse_a_recursion_past_monomial_cap(m: int, t: int, ell: int) -> None:
    """Refuse a hermite request whose recursion cannot finish, before any basis is built.  Its estimate: step
    s = 1..t works on the monomials of degrees ell, ell + 2, ..., ell + 2s in m, summed over the steps one exact
    term at a time and left as soon as the sum is past MONOMIAL_CAP, so the sum named is a lower bound.  b2 takes
    t up to 56 at ell = 1, z2^3 up to 22.  Each term is at most the top degree's count, already under the cap."""
    if ell < 0:
        return  # harmonic_basis refuses a negative degree
    total, step = 0, comb(ell + m - 1, m - 1)
    for s in range(1, t + 1):
        step += comb(ell + 2 * s + m - 1, m - 1)
        total += step
        if total > MONOMIAL_CAP:
            raise MathPrecondition(f"the recursion to t = {t} from degree {ell} in m = {m} takes an estimated "
                                   f"{total} or more monomial terms, past the monomial cap {MONOMIAL_CAP}")


def cmd_hermite(args: argparse.Namespace) -> tuple[dict, int]:
    system = _resolve_group(args)
    degree = args.ell + 2 * max(args.t, 0)  # the record's degree; refused before any basis is built
    if degree > MAX_DEGREE:
        raise MathPrecondition(f"degree ell + 2t = {degree} is past the degree cap {MAX_DEGREE}")
    _refuse_past_monomial_cap(system.m, degree)
    _refuse_a_recursion_past_monomial_cap(system.m, args.t, args.ell)
    if args.t < 0:  # the library's refusal, before any basis, so that --h-index is not checked first
        raise MathPrecondition(f"index t must be >= 0, got {args.t}")
    ctx = _context(system)
    basis = harmonic_basis(ctx, args.ell).elements
    if not 0 <= args.h_index < len(basis):
        raise InputDataError(
            f"--h-index {args.h_index} out of range: the degree-{args.ell} "
            f"harmonic basis has {len(basis)} elements")
    names = tuple(_CONSTRUCTIONS) if args.construction == "all" else (args.construction,)
    checked = _checked(ctx, (args.t,), basis[args.h_index])  # one check and one tower for every construction run
    records = {name: _CONSTRUCTIONS[name](ctx, (args.t,), *checked)[0] for name in names}
    if args.construction != "all":
        return records[args.construction].to_json(), EXIT_OK
    agree = all(rec == records["recursion"] for rec in records.values())
    payload = {"constructions": {name: rec.to_json() for name, rec in records.items()},
               "agree": agree}
    return payload, EXIT_OK if agree else EXIT_VERIFICATION


def cmd_decompose(args: argparse.Namespace) -> tuple[dict, int]:
    ctx = _context(_resolve_group(args))
    try:
        poly = Polynomial.from_json(_load_json(args.poly_file))
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise InputDataError(f"bad polynomial JSON: {exc}") from exc
    if poly.m != ctx.m:
        raise InputDataError(
            f"polynomial has m = {poly.m} but the root system has m = {ctx.m}")
    _refuse_past_monomial_cap(ctx.m, poly.total_degree() or 0)
    components = fischer_decompose(ctx, poly)
    payload = {"components": [{"i": i, "component": part.to_json()}
                              for i, part in components]}
    return payload, EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    profile = PROFILES[args.profile]
    if args.max_deg is not None:
        if args.max_deg < 0:
            raise UsageError("--max-deg must be nonnegative")
        if args.max_deg > MAX_DEGREE:
            raise UsageError(f"--max-deg {args.max_deg} is past the degree cap {MAX_DEGREE}")
        m = largest_m(profile)
        estimate = comb(args.max_deg + m, m) << m
        if estimate > MONOMIAL_CAP:
            raise UsageError(f"--max-deg {args.max_deg} asks for an estimated {estimate} monomial inputs "
                             f"(degree <= {args.max_deg} in m = {m}, times 2^{m}), past the cap {MONOMIAL_CAP}")
        profile = dataclasses.replace(
            profile, max_deg=args.max_deg,
            clifford_deg=min(profile.clifford_deg, args.max_deg))
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    verdicts = []
    for name in names:
        verdict = run_suite(name, profile, args.seed)
        print(f"{name}: {verdict.cases} cases, {len(verdict.failures)} failures, "
              f"{verdict.wall_time_ms:.1f} ms", file=sys.stderr)
        verdicts.append(verdict)
    failures = sum(len(v.failures) for v in verdicts)
    if args.suite == "all":
        payload = {"suites": [v.to_json() for v in verdicts]}
    else:
        payload = verdicts[0].to_json()
    return payload, EXIT_OK if failures == 0 else EXIT_VERIFICATION


# (option, its add_argument keywords): each command's flags, read by build_parser and by _plain_args
_GROUP_FLAGS = (
    ("--group", {"choices": BUILTIN_FAMILIES, "help": "builtin family of positive root systems"}),
    ("--m", {"type": int, "help": "number of variables"}),
    ("--kappa", {"help": "comma-separated multiplicities, one per orbit"}),
    ("--group-file", {"help": "path to a root system JSON file"}),
)

# command name -> (its line in the top-level help, its flags, its handler)
COMMANDS = {
    "group-info": ("roots, orbits, gamma and mu of a group", _GROUP_FLAGS, cmd_group_info),
    "hermite": ("one Clifford-Hermite polynomial as JSON", _GROUP_FLAGS + (
        ("--t", {"type": int, "required": True, "help": "Hermite index (half the degree rise)"}),
        ("--ell", {"type": int, "required": True, "help": "degree of the harmonic factor"}),
        ("--h-index", {"type": int, "default": 0, "help": "which basis harmonic of degree ell (default 0)"}),
        ("--construction", {"choices": (*_CONSTRUCTIONS, "all"), "default": "recursion"}),
    ), cmd_hermite),
    "decompose": ("Fischer decomposition of a polynomial", _GROUP_FLAGS + (
        ("--poly-file", {"required": True, "help": "polynomial JSON file, or - for standard input"}),
    ), cmd_decompose),
    "verify": ("run a verification suite", (
        ("--suite", {"choices": SUITE_NAMES + ("all",), "default": "all"}),
        ("--profile", {"choices": tuple(PROFILES), "default": "desk"}),
        ("--seed", {"type": int, "default": 7, "help": "seed for the multiplicity draws (default 7)"}),
        ("--max-deg", {"type": int, "default": None, "help": "override the profile's polynomial degree cap"}),
    ), cmd_verify),
}


def build_parser() -> _Parser:
    """The parser of every command and its flags."""
    parser = _Parser(prog=PROG,
                     description="Exact Dunkl operator calculus and Clifford-Hermite polynomials")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, flags, handler) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for option, kwargs in flags:
            sub.add_argument(option, **kwargs)
        # SUPPRESS keeps a subcommand-level default from clobbering the top-level flag
        sub.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS, help="indent the JSON output")
        sub.set_defaults(handler=handler)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse makes of a plain argv, else None.  Plain: --pretty any number of times, a command,
    then --pretty or an exact option of the command with its value (- or not starting with -, of its type, among its
    choices), no option twice and every required one present.  -h, --opt=value and negative numbers are not plain."""
    tokens = iter(argv)
    pretty, command = False, next(tokens, None)
    while command == "--pretty":
        pretty, command = True, next(tokens, None)
    if command not in COMMANDS:
        return None
    _, flags, handler = COMMANDS[command]
    table, values = dict(flags), {}
    for token in tokens:
        if token == "--pretty":
            pretty = True
            continue
        value = next(tokens, None)
        if token not in table or token in values or value is None or (value[:1] == "-" and value != "-"):
            return None
        kwargs = table[token]
        try:
            value = kwargs.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        values[token] = value
    if any(kwargs.get("required") and option not in values for option, kwargs in flags):
        return None
    args = argparse.Namespace(pretty=pretty, command=command, handler=handler)
    for option, kwargs in flags:
        setattr(args, option[2:].replace("-", "_"), values.get(option, kwargs.get("default")))
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        payload, code = args.handler(args)
    except UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputDataError, InvalidRootSystem) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except MathPrecondition as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(payload, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
