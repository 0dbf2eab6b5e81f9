"""The library degree cap: every operation that builds a monomial key of a larger degree accepts a result of
degree MAX_DEGREE and refuses one of MAX_DEGREE + 1 with a ValueError naming both, before it builds a key.
Only monomials, in a context without roots, so that no case starts real work.  The CLI refuses a request past
the cap before its work starts: the work is patched to raise, so a request at the cap reaches it and one past
the cap does not.  So does a builtin family whose roots are too many to validate, a hermite request whose
recursion's estimated terms are too many, and a hermite or decompose request in more coordinates than the CLI's
dimension cap."""
import json
from fractions import Fraction
from math import comb

import pytest

from dunkl_hermite import cli, groups

from dunkl_hermite.clifford import CliffordPolynomial, d_plus, vector_multiply
from dunkl_hermite.groups import trivial_root_system
from dunkl_hermite.operators import DunklContext, conjugated_dunkl, conjugated_laplacian, multiply_by_norm_squared
from dunkl_hermite.poly import MAX_DEGREE, Polynomial


def x(n: int, m: int = 1) -> Polynomial:
    """x_1^n in m variables."""
    return Polynomial.monomial(m, (n,) + (0,) * (m - 1))


def clifford(n: int) -> CliffordPolynomial:
    return CliffordPolynomial(1, {1: x(n)})


def ctx() -> DunklContext:
    return DunklContext(trivial_root_system(1))


RATE = Fraction(-1, 2)
# name -> (the operation on the degree of its input, the rise it makes)
OPERATIONS = {
    "constructor": (x, 0),
    "product": (lambda n: x(n) * x(1), 1),
    "power": (lambda n: x(1) ** n, 0),
    "times_variable": (lambda n: x(n).times_variable(0), 1),
    "multiply_by_norm_squared": (lambda n: multiply_by_norm_squared(x(n)), 2),
    "conjugated_dunkl": (lambda n: conjugated_dunkl(ctx(), RATE, 0, x(n)), 1),
    "conjugated_laplacian": (lambda n: conjugated_laplacian(ctx(), RATE, x(n)), 2),
    "vector_multiply": (lambda n: vector_multiply(clifford(n)), 1),
    "d_plus": (lambda n: d_plus(ctx(), clifford(n)), 1),
    "clifford_product": (lambda n: clifford(n) * clifford(1), 1),
}


def degree(out) -> int:
    return out.total_degree() if isinstance(out, Polynomial) else out.max_degree()


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_an_operation_reaches_the_cap_and_refuses_one_past_it(name):
    operation, rise = OPERATIONS[name]
    assert degree(operation(MAX_DEGREE - rise)) == MAX_DEGREE
    with pytest.raises(ValueError, match=rf"degree {MAX_DEGREE + 1} is past the degree cap {MAX_DEGREE}"):
        operation(MAX_DEGREE + 1 - rise)


def test_the_cap_holds_in_every_field():
    p = Polynomial(3, {(MAX_DEGREE, 0, 0): 1, (0, MAX_DEGREE, 0): 2, (0, 0, MAX_DEGREE): 3, (0, 0, 0): 4})
    assert p.terms == {(MAX_DEGREE, 0, 0): 1, (0, MAX_DEGREE, 0): 2, (0, 0, MAX_DEGREE): 3, (0, 0, 0): 4}
    assert [e for e, _ in p.sorted_terms()] == [(MAX_DEGREE, 0, 0), (0, MAX_DEGREE, 0), (0, 0, MAX_DEGREE), (0, 0, 0)]
    assert p.coefficient((0, MAX_DEGREE, 0)) == 2 and p.coefficient((MAX_DEGREE + 1, 0, 0)) == 0
    with pytest.raises(ValueError, match=rf"degree {MAX_DEGREE + 1} is past"):
        Polynomial(3, {(1, MAX_DEGREE - 1, 1): 1})
    with pytest.raises(ValueError, match=rf"degree {2 * MAX_DEGREE} is past"):
        x(MAX_DEGREE, 2) * Polynomial.monomial(2, (0, MAX_DEGREE))


class WorkStarted(Exception):
    """Raised by the patched work of a CLI request."""


def _start(*args, **kwargs):
    raise WorkStarted


@pytest.mark.parametrize("t, ell", [(0, MAX_DEGREE + 1), (1, MAX_DEGREE - 1), (-1, MAX_DEGREE + 1),
                                    (MAX_DEGREE // 2 + 1, 0)])
def test_a_hermite_request_past_the_cap_exits_3_before_any_basis(capsys, monkeypatch, t, ell):
    monkeypatch.setattr(cli, "harmonic_basis", _start)
    argv = ["hermite", "--group", "b", "--m", "2", "--kappa", "1,1", "--t", str(t), "--ell", str(ell)]
    assert cli.main(argv) == cli.EXIT_PRECONDITION
    out, err = capsys.readouterr()
    degree = ell + 2 * max(t, 0)
    assert out == "" and err == (f"dunkl-hermite: error: degree ell + 2t = {degree} is past the degree cap "
                                 f"{MAX_DEGREE}\n")


B2 = ["--group", "b", "--m", "2", "--kappa", "1,1"]
Z2_1 = ["--group", "z2", "--m", "1", "--kappa", "1"]


# A recursion step that reaches the degree cap is accepted only in one variable, where each degree has one monomial:
# in b2 the estimate of its terms is past the monomial cap (test_a_recursion_past_its_estimate_exits_3).
@pytest.mark.parametrize("group, t, ell", [(B2, 0, MAX_DEGREE), (Z2_1, 1, MAX_DEGREE - 2)],
                         ids=["0-65535", "z2-m1-t1-ell65533"])
def test_a_hermite_request_at_the_cap_reaches_the_work(monkeypatch, group, t, ell):
    monkeypatch.setattr(cli, "harmonic_basis", _start)
    with pytest.raises(WorkStarted):
        cli.main(["hermite", *group, "--t", str(t), "--ell", str(ell)])


def test_verify_max_deg_past_the_cap_exits_1_before_any_suite(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", _start)
    assert cli.main(["verify", "--profile", "ci", "--max-deg", str(MAX_DEGREE + 1)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == (f"dunkl-hermite: error: --max-deg {MAX_DEGREE + 1} is past the degree cap "
                                 f"{MAX_DEGREE}\n")


# --max-deg -> the estimate of its monomial inputs: degree <= max-deg in m = 3 variables, times 2^3 blades
ESTIMATES = {34: 62160, 35: 67488, 1000: 1341348008, MAX_DEGREE: 375317148991488}


@pytest.mark.parametrize("profile", ["ci", "desk"])
@pytest.mark.parametrize("max_deg", [35, 1000, MAX_DEGREE])
def test_verify_max_deg_past_the_monomial_cap_exits_1_before_any_suite(capsys, monkeypatch, profile, max_deg):
    """At the degree cap, --max-deg would never finish; past the estimate cap it is refused with its estimate."""
    monkeypatch.setattr(cli, "run_suite", _start)
    assert cli.main(["verify", "--profile", profile, "--max-deg", str(max_deg)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == (f"dunkl-hermite: error: --max-deg {max_deg} asks for an estimated "
                                 f"{ESTIMATES[max_deg]} monomial inputs (degree <= {max_deg} in m = 3, times 2^3), "
                                 f"past the cap 65536\n")


@pytest.mark.parametrize("args", [["--profile", "ci"], ["--profile", "desk"], ["--max-deg", "34"], ["--max-deg", "0"]])
def test_verify_defaults_and_the_largest_estimate_under_the_cap_reach_the_suites(monkeypatch, args):
    assert cli.MONOMIAL_CAP == 65536 and ESTIMATES[34] <= 65536 < ESTIMATES[35]
    monkeypatch.setattr(cli, "run_suite", _start)
    with pytest.raises(WorkStarted):
        cli.main(["verify", *args])


# (argv, the degree of the request, m, the monomial count past the cap that the refusal names: the first partial
# product C(n, k) of C(degree + m - 1, .) past it).  z2^3 has 65,341 monomials of degree 360 and 65,703 of 361;
# trivial in m = 10^9 is refused as fast as in m = 1000: neither its roots nor the count visit the m axes.
PAST_THE_MONOMIAL_CAP = [
    (["hermite", "--group", "trivial", "--m", "1000", "--t", "1", "--ell", "3"], 5, 1000, 1004 * 1003 // 2),
    (["hermite", "--group", "trivial", "--m", str(10 ** 9), "--t", "1", "--ell", "3"], 5, 10 ** 9, 10 ** 9 + 4),
    (["hermite", "--group", "z2", "--m", "3", "--kappa", "1,1,1", "--t", "0", "--ell", "361"], 361, 3, 65703),
    (["hermite", "--group", "z2", "--m", "3", "--kappa", "1,1,1", "--t", "180", "--ell", "1"], 361, 3, 65703),
    (["decompose", "--group", "trivial", "--m", "1000"], 3, 1000, 1002 * 1001 // 2),
    (["decompose", "--group", "z2", "--m", "3", "--kappa", "1,1,1"], 361, 3, 65703),
]
AT_THE_MONOMIAL_CAP = [
    (["hermite", "--group", "z2", "--m", "3", "--kappa", "1,1,1", "--t", "0", "--ell", "360"], 360),
    (["decompose", "--group", "z2", "--m", "3", "--kappa", "1,1,1"], 360),
    (["decompose", "--group", "b", "--m", "2", "--kappa", "1,1"], MAX_DEGREE),
]


def _request(monkeypatch, tmp_path, argv, degree, m):
    """argv with its work patched to raise; a decompose reads x_1^degree in m variables."""
    monkeypatch.setattr(cli, "harmonic_basis", _start)
    monkeypatch.setattr(cli, "fischer_decompose", _start)
    if argv[0] == "decompose":
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(x(degree, m).to_json()))
        argv = argv + ["--poly-file", str(path)]
    return cli.main(argv)


@pytest.mark.parametrize("argv, degree, m, count", PAST_THE_MONOMIAL_CAP)
def test_a_request_past_the_monomial_cap_exits_3_before_any_basis(capsys, monkeypatch, tmp_path, argv, degree, m,
                                                                  count):
    """hermite and decompose refuse a top degree whose monomials in m are past the cap verify uses, naming a lower
    bound of the count, however large m is."""
    assert _request(monkeypatch, tmp_path, argv, degree, m) == cli.EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and err == (f"dunkl-hermite: error: the monomials of degree {degree} in m = {m} number at least "
                                 f"{count}, past the monomial cap {cli.MONOMIAL_CAP}\n")


# explicit ids keep each case's test name when a case leaves the list
@pytest.mark.parametrize("argv, degree", AT_THE_MONOMIAL_CAP, ids=["argv0-360", "argv2-360", "argv3-65535"])
def test_a_request_at_the_monomial_cap_reaches_the_work(monkeypatch, tmp_path, argv, degree):
    with pytest.raises(WorkStarted):
        _request(monkeypatch, tmp_path, argv, degree, int(argv[4]))


# family -> the number of its positive roots in m coordinates, and the largest m of the family whose n roots
# take at most groups.BUILTIN_REFLECTION_CAP coordinate reflections, n^2 m, to validate
ROOTS = {"z2": lambda m: m, "a": lambda m: m * (m - 1) // 2, "b": lambda m: m * m, "d": lambda m: m * (m - 1)}
LARGEST = {"z2": 40, "a": 12, "b": 9, "d": 9}


def group_info(family: str, m: int) -> int:
    kappas = ",".join(["1"] * {"z2": m, "b": 2}.get(family, 1))
    return cli.main(["group-info", "--group", family, "--m", str(m), "--kappa", kappas])


@pytest.mark.parametrize("family, m", [(f, m + 1) for f, m in sorted(LARGEST.items())] + [("b", 16), ("d", 1000)])
def test_a_builtin_family_past_the_reflection_cap_exits_2_before_its_geometry(capsys, monkeypatch, family, m):
    monkeypatch.setattr(groups, "_builtin_geometry", _start)
    assert group_info(family, m) == cli.EXIT_INVALID_INPUT
    out, err = capsys.readouterr()
    n = ROOTS[family](m)
    assert out == "" and err == (f"dunkl-hermite: error: family {family!r} with m={m} has {n} positive roots: "
                                 f"validating them takes {n * n * m} coordinate reflections, past the cap 65536\n")


@pytest.mark.parametrize("family", sorted(LARGEST))
def test_the_largest_builtin_family_under_the_cap_reaches_its_geometry(monkeypatch, family):
    m = LARGEST[family]
    assert ROOTS[family](m) ** 2 * m <= groups.BUILTIN_REFLECTION_CAP == 65536 < ROOTS[family](m + 1) ** 2 * (m + 1)
    monkeypatch.setattr(groups, "_builtin_geometry", _start)
    with pytest.raises(WorkStarted):
        group_info(family, m)


def recursion_estimate(m: int, t: int, ell: int) -> int:
    """The refusal's estimate of a hermite recursion's terms: over the steps s = 1..t, the monomials in m of the
    degrees ell, ell + 2, ..., ell + 2s."""
    return sum(comb(ell + 2 * j + m - 1, m - 1) for s in range(1, t + 1) for j in range(s + 1))


Z2_3 = ["--group", "z2", "--m", "3", "--kappa", "1,1,1"]
# (group, m, t, ell, the estimate the refusal names: that of the first step count past the cap).  b2 t = 32,767 at
# ell = 1 and z2^3 t = 179 at ell = 2 pass the degree cap and the top degree's monomial cap, and never finish.
PAST_THE_RECURSION_ESTIMATE = [
    (B2, 2, 57, 1, recursion_estimate(2, 57, 1)),
    (B2, 2, MAX_DEGREE // 2, 1, recursion_estimate(2, 57, 1)),
    (B2, 2, 1, MAX_DEGREE - 2, recursion_estimate(2, 1, MAX_DEGREE - 2)),
    (Z2_3, 3, 23, 1, recursion_estimate(3, 23, 1)),
    (Z2_3, 3, 23, 2, recursion_estimate(3, 23, 2)),
    (Z2_3, 3, 179, 2, recursion_estimate(3, 23, 2)),
    (Z2_1, 1, 361, 0, recursion_estimate(1, 361, 0)),
]
# (group, m, t, ell) of the largest t accepted: b2 at ell = 1 takes about 3 s on a 2-core box
AT_THE_RECURSION_ESTIMATE = [(B2, 2, 56, 1), (Z2_3, 3, 22, 1), (Z2_3, 3, 22, 2), (Z2_1, 1, 360, 0)]


@pytest.mark.parametrize("group, m, t, ell, estimate", PAST_THE_RECURSION_ESTIMATE,
                         ids=[f"{group[1]}-m{m}-t{t}-ell{ell}" for group, m, t, ell, _ in PAST_THE_RECURSION_ESTIMATE])
def test_a_recursion_past_its_estimate_exits_3(capsys, monkeypatch, group, m, t, ell,
                                                                         estimate):
    """After the degree cap and the top degree's monomial cap, a hermite request whose recursion's estimated terms
    are past the monomial cap is refused, naming the estimate at the first step past it."""
    assert estimate > cli.MONOMIAL_CAP
    monkeypatch.setattr(cli, "harmonic_basis", _start)
    argv = ["hermite", *group, "--t", str(t), "--ell", str(ell)]
    assert cli.main(argv) == cli.EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and err == (f"dunkl-hermite: error: the recursion to t = {t} from degree {ell} in m = {m} "
                                 f"takes an estimated {estimate} or more monomial terms, past the monomial cap "
                                 f"{cli.MONOMIAL_CAP}\n")


@pytest.mark.parametrize("group, m, t, ell", AT_THE_RECURSION_ESTIMATE,
                         ids=[f"{group[1]}-m{m}-t{t}-ell{ell}" for group, m, t, ell in AT_THE_RECURSION_ESTIMATE])
def test_the_largest_recursion_under_its_estimate_reaches_the_work(monkeypatch, group, m, t, ell):
    assert recursion_estimate(m, t, ell) <= cli.MONOMIAL_CAP < recursion_estimate(m, t + 1, ell)
    monkeypatch.setattr(cli, "harmonic_basis", _start)
    with pytest.raises(WorkStarted):
        cli.main(["hermite", *group, "--t", str(t), "--ell", str(ell)])


def _dimension_request(tmp_path, command: str, source: str, m: int) -> list[str]:
    """command on the trivial group in m, or on a --group-file of the one root e_1 in m coordinates; hermite at t = 0
    and ell = 1, decompose of x_1."""
    if source == "trivial":
        group = ["--group", "trivial", "--m", str(m)]
    else:
        e1 = [1] + [0] * (m - 1)
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"m": m, "positive_roots": [e1], "multiplicities": [{"orbit_rep": e1, "kappa": 1}]}))
        group = ["--group-file", str(path)]
    if command == "hermite":
        return ["hermite", *group, "--t", "0", "--ell", "1"]
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(x(1, m).to_json()))
    return ["decompose", *group, "--poly-file", str(path)]


@pytest.mark.parametrize("source", ["trivial", "one-root"])
@pytest.mark.parametrize("command", ["hermite", "decompose"])
def test_a_dimension_past_the_cap_exits_3_before_the_context(capsys, monkeypatch, tmp_path, command, source):
    """hermite and decompose refuse m past the dimension cap once the root system is read, before its Dunkl context
    (a custom root's reflection is an m x m matrix) and any monomial key (16 (m + 1) bits each) is built."""
    m = cli.DIMENSION_CAP + 1
    monkeypatch.setattr(cli, "DunklContext", _start)
    assert cli.main(_dimension_request(tmp_path, command, source, m)) == cli.EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and err == f"dunkl-hermite: error: m = {m} is past the dimension cap {cli.DIMENSION_CAP}\n"


@pytest.mark.parametrize("source", ["trivial", "one-root"])
@pytest.mark.parametrize("command", ["hermite", "decompose"])
def test_a_dimension_at_the_cap_reaches_the_context(monkeypatch, tmp_path, command, source):
    monkeypatch.setattr(cli, "DunklContext", _start)
    with pytest.raises(WorkStarted):
        cli.main(_dimension_request(tmp_path, command, source, cli.DIMENSION_CAP))


def test_a_billion_variables_are_refused_after_the_monomial_count(capsys, monkeypatch):
    """One monomial of degree 0 passes the monomial cap in any m; the dimension cap refuses m = 10^9 next."""
    monkeypatch.setattr(cli, "DunklContext", _start)
    assert cli.main(["hermite", "--group", "trivial", "--m", str(10 ** 9), "--t", "0", "--ell", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"dunkl-hermite: error: m = {10 ** 9} is past the dimension cap {cli.DIMENSION_CAP}\n"


def test_group_info_takes_any_dimension(capsys):
    assert cli.main(["group-info", "--group", "trivial", "--m", str(10 ** 9)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["m"] == 10 ** 9
