"""Malformed numbers and fields in CLI arguments and JSON inputs exit 2 with one error line.

Each case used to escape as a traceback (ZeroDivisionError, KeyError, a bare
ValueError) or was silently coerced by int() into a different input.
"""
import json
import sys
from fractions import Fraction

import pytest

from dunkl_hermite import cli
from dunkl_hermite.cli import main
from dunkl_hermite.clifford import CliffordPolynomial
from dunkl_hermite.errors import InvalidRootSystem
from dunkl_hermite.groups import (builtin_root_system, custom_root_system, orbit_decomposition,
                                  trivial_root_system)
from dunkl_hermite.hermite import HermiteRecord, laguerre_poly, mu_is_degenerate
from dunkl_hermite.linalg import matrix_rank
from dunkl_hermite.moments import MomentValue, weighted_moment
from dunkl_hermite.operators import (DunklContext, WeightedFunction, conjugated_laplacian, heat_semigroup, hermite_shift,
                                     spherical_shift)
from dunkl_hermite.poly import (Polynomial, accumulate, compose_linear, divide_by_linear_form, parse_rational,
                                rational_str)

from test_degree_cap import _start


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(code, out, err, *fragments):
    assert code == 2
    assert out == ""
    assert err.startswith("dunkl-hermite: error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err, (fragment, err)


def test_parse_rational_refuses_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    assert parse_rational(" -4/6 ") == parse_rational("-2/3")


def test_kappa_with_zero_denominator_exit_2(capsys):
    result = run_cli(capsys, "group-info", "--group", "z2", "--m", "1", "--kappa", "1/0")
    assert_input_error(*result, "--kappa", "zero denominator")


def decompose(capsys, tmp_path, poly):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poly))
    return run_cli(capsys, "decompose", "--group", "z2", "--m", "2", "--kappa", "1,1",
                   "--poly-file", str(path))


def test_polynomial_coefficient_with_zero_denominator_exit_2(capsys, tmp_path):
    result = decompose(capsys, tmp_path, {"m": 2, "terms": [{"c": "1/0", "e": [1, 0]}]})
    assert_input_error(*result, "bad polynomial JSON", "zero denominator")


@pytest.mark.parametrize("exponent", [[1.5, 0.7], [True, False], [1.0, 0], ["1", 0]])
def test_non_integer_exponents_exit_2(capsys, tmp_path, exponent):
    """int() used to turn these into x1 and answer for x1 with exit 0. The constructor refuses
    them too, with ValueError: a bool exponent written back by to_json is JSON from_json refuses."""
    result = decompose(capsys, tmp_path, {"m": 2, "terms": [{"c": "1", "e": exponent}]})
    assert_input_error(*result, "exponent must be an integer")
    with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
        Polynomial(2, {tuple(exponent): 1})


@pytest.mark.parametrize("m", [2.9, True, "2"])
def test_non_integer_polynomial_dimension_exit_2(capsys, tmp_path, m):
    result = decompose(capsys, tmp_path, {"m": m, "terms": [{"c": "1", "e": [1, 0]}]})
    assert_input_error(*result, "m must be an integer")


def test_integer_fields_still_parse(capsys, tmp_path):
    code, out, _ = decompose(capsys, tmp_path, {"m": 2, "terms": [{"c": "1", "e": [1, 0]}]})
    assert code == 0
    assert json.loads(out)["components"][0]["i"] == 0


GOOD_SYSTEM = {"m": 2, "positive_roots": [["1", "0"]],
               "multiplicities": [{"orbit_rep": ["1", "0"], "kappa": "1"}]}


@pytest.mark.parametrize("change, fragments", [
    ({"m": "x"}, ("bad m", "m must be an integer")),
    ({"m": 2.9}, ("bad m", "m must be an integer")),
    ({"m": True}, ("bad m", "m must be an integer")),
    ({"positive_roots": [["1/0", "0"]]}, ("bad positive_roots", "zero denominator")),
    ({"positive_roots": [["one", "0"]]}, ("bad positive_roots",)),
    ({"positive_roots": 5}, ("bad positive_roots",)),
    ({"multiplicities": [{"orbit_rep": ["1", "0"]}]}, ("bad multiplicities", "missing key 'kappa'")),
    ({"multiplicities": [{"kappa": "1"}]}, ("bad multiplicities", "missing key 'orbit_rep'")),
    ({"multiplicities": [{"orbit_rep": ["1", "0"], "kappa": "1/0"}]},
     ("bad multiplicities", "zero denominator")),
    ({"multiplicities": [{"orbit_rep": ["0", "1"], "kappa": "1"}]}, ("not a root of the system",)),
    ({"positive_roots": []}, ("multiplicities given", "positive_roots is empty")),
])
def test_root_system_json_faults_exit_2(capsys, tmp_path, change, fragments):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({**GOOD_SYSTEM, **change}))
    result = run_cli(capsys, "group-info", "--group-file", str(path))
    assert_input_error(*result, *fragments)


def test_root_system_json_must_be_an_object(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text("[1, 2]")
    result = run_cli(capsys, "group-info", "--group-file", str(path))
    assert_input_error(*result, "needs keys m, positive_roots, multiplicities")


def test_empty_root_system_without_multiplicities_is_trivial(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"m": 3, "positive_roots": [], "multiplicities": []}))
    code, out, _ = run_cli(capsys, "group-info", "--group-file", str(path))
    assert code == 0
    assert json.loads(out)["mu"] == "3/1"


def clifford_json(m=2, mask=1):
    return {"m": m, "blades": [{"mask": mask, "poly": Polynomial.variable(2, 0).to_json()}]}


def test_clifford_json_integer_fields():
    assert CliffordPolynomial.from_json(clifford_json()).blade(1) == Polynomial.variable(2, 0)
    for bad in (clifford_json(mask=1.0), clifford_json(mask=True), clifford_json(mask="1"),
                clifford_json(mask=[1])):
        with pytest.raises(ValueError, match="mask must be an integer"):
            CliffordPolynomial.from_json(bad)
    for bad in (clifford_json(m=2.0), clifford_json(m=True)):
        with pytest.raises(ValueError, match="m must be an integer"):
            CliffordPolynomial.from_json(bad)
    for mask in (1.5, True):  # the constructor checks masks too; int() made {1.5: x1} the e1 blade
        with pytest.raises(ValueError, match="mask must be an integer"):
            CliffordPolynomial(2, {mask: Polynomial.variable(2, 0)})


def hermite_json(**change):
    harmonic = Polynomial.constant(1, 1).to_json()
    return {"t": 0, "ell": 0, "mu": "1/1", "harmonic": harmonic, "radial_coeffs": ["1/1"],
            "polynomial": harmonic, **change}


def test_hermite_record_json_integer_fields():
    assert HermiteRecord.from_json(hermite_json()).t == 0
    for field in ("t", "ell"):
        for value in (0.0, False, "0", 1.5):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                HermiteRecord.from_json(hermite_json(**{field: value}))


@pytest.mark.parametrize("m", [True, 2.0, "2"], ids=repr)
def test_non_integer_dimension_is_refused_by_every_constructor(m):
    """A bool or float dimension used to be kept (Polynomial, the root systems), written back as
    JSON `"m": true`, or escape as a bare TypeError (CliffordPolynomial, builtin_root_system)."""
    with pytest.raises(ValueError, match="m must be an integer"):
        Polynomial(m, {(1, 0): 1})
    with pytest.raises(ValueError, match="m must be an integer"):
        CliffordPolynomial(m, {1: Polynomial.variable(2, 0)})
    for build in (lambda: builtin_root_system("z2", m, [1, 1]), lambda: builtin_root_system("b", m, [1, 1]),
                  lambda: trivial_root_system(m)):
        with pytest.raises(InvalidRootSystem, match="m must be an integer"):
            build()


def test_integer_dimensions_still_build():
    assert Polynomial(2, {(1, 0): 1}).to_json()["m"] == 2
    assert CliffordPolynomial(2, {1: Polynomial.variable(2, 0)}).m == 2
    assert builtin_root_system("z2", 2, [1, 1]).m == trivial_root_system(2).m == 2
    for build in (lambda: builtin_root_system("z2", 0, []), lambda: trivial_root_system(0)):
        with pytest.raises(InvalidRootSystem, match="dimension must be >= 1, got 0"):
            build()


X = Polynomial.variable(1, 0)
Z2 = DunklContext(builtin_root_system("z2", 1, [1]))
FLOAT_INPUTS = {
    "coefficient": lambda: Polynomial(1, {(1,): 0.1}), "zero": lambda: Polynomial(1, {(1,): 0.0}),
    "constant": lambda: Polynomial.constant(2, 0.5), "monomial": lambda: Polynomial.monomial(1, (1,), 0.5),
    "compose_linear": lambda: compose_linear(X, [[0.5]]), "divisor": lambda: divide_by_linear_form(X, [0.5]),
    "heat_rate": lambda: heat_semigroup(Z2, X, 0.1), "conjugation_rate": lambda: conjugated_laplacian(Z2, -0.5, X),
    "weighted_scale": lambda: WeightedFunction(X, -1).scale(0.5), "laguerre": lambda: laguerre_poly(1, 0.5),
    "matrix": lambda: matrix_rank([[1, 0.5]]),
    "moment_kappa": lambda: weighted_moment([2, 0], [1.0, 0]),
    "moment_scale": lambda: MomentValue(Fraction(1), Fraction(1, 2)).scale(0.1),
    "rational_str": lambda: rational_str(0.1), "mu_is_degenerate": lambda: mu_is_degenerate(-2.0),
}
FLOAT_ROOT_SYSTEMS = {
    "builtin_kappa": lambda: builtin_root_system("z2", 1, [0.1]),
    "root": lambda: custom_root_system([[1.0, 0]], {(1, 0): 1}),
    "kappa": lambda: custom_root_system([[1, 0]], {(1, 0): 0.5}),
    "orbit_rep": lambda: custom_root_system([[1, 0]], {(1, 0.0): 1}),
    "orbit_decomposition": lambda: orbit_decomposition([(1.0, 0.1), (0.1, 1.0)]),
}


@pytest.mark.parametrize("name", FLOAT_INPUTS)
def test_floats_are_refused(name):
    """Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10: a float is never read as exact."""
    with pytest.raises(ValueError, match="inexact float"):
        FLOAT_INPUTS[name]()


# A float 0.5 passed where a derived weight, or no term at all, would otherwise meet the gate first.
FLOAT_ARGUMENTS = {
    "accumulate_scale": lambda: accumulate([(0.5, [((1,), Fraction(1))], None)]),
    "spherical_shift": lambda: spherical_shift(Z2, X, 0.5),
    "spherical_shift_of_zero": lambda: spherical_shift(Z2, Polynomial.zero(1), 0.5),
    "hermite_shift": lambda: hermite_shift(Z2, X, 0.5),
    "hermite_shift_of_zero": lambda: hermite_shift(Z2, Polynomial.zero(1), 0.5),
    "spherical_shift_scale": lambda: spherical_shift(Z2, X, 1, 0.5),
    "spherical_shift_scale_of_zero": lambda: spherical_shift(Z2, Polynomial.zero(1), 1, 0.5),
}


@pytest.mark.parametrize("name", FLOAT_ARGUMENTS)
def test_a_float_argument_is_refused_as_passed(name):
    """The error names the value passed, not a weight derived from it, and a zero polynomial does not skip it."""
    with pytest.raises(ValueError, match=r"inexact float 0\.5;"):
        FLOAT_ARGUMENTS[name]()


@pytest.mark.parametrize("shift", [spherical_shift, hermite_shift])
def test_a_float_argument_is_refused_before_a_dimension_mismatch(shift):
    """ell and n are read before the polynomial: a float one is named even when the polynomial's dimension is
    wrong too."""
    with pytest.raises(ValueError, match=r"inexact float 0\.5;"):
        shift(Z2, Polynomial.variable(2, 0), 0.5)


@pytest.mark.parametrize("name", FLOAT_ROOT_SYSTEMS)
def test_float_roots_and_kappas_are_refused(name):
    with pytest.raises(InvalidRootSystem, match="inexact float"):
        FLOAT_ROOT_SYSTEMS[name]()


def test_ints_fractions_and_strings_are_still_exact():
    assert Polynomial(1, {(1,): "1/10"}) == Polynomial.monomial(1, (1,), Fraction(1, 10))
    assert Polynomial.constant(2, "1/2") == Polynomial.constant(2, Fraction(1, 2))
    assert compose_linear(X, [["1/2"]]) == Polynomial(1, {(1,): Fraction(1, 2)})
    assert divide_by_linear_form(X, ["1/2"]) == Polynomial.constant(1, 2)
    assert builtin_root_system("z2", 1, ["1/10"]).mu == Fraction(6, 5)
    assert custom_root_system([["1", 0]], {(1, 0): Fraction(1, 2)}).multiplicities == (Fraction(1, 2),)


def test_json_numbers_are_read_as_written(capsys, tmp_path):
    """A JSON number with a fraction part reaches parse_rational as its text, not as a rounded float."""
    path = tmp_path / "group.json"
    path.write_text('{"m": 2, "positive_roots": [["1", "0"]], '
                    '"multiplicities": [{"orbit_rep": ["1", "0"], "kappa": 0.12345678901234567890123}]}')
    code, out, _ = run_cli(capsys, "group-info", "--group-file", str(path))
    assert code == 0
    kappa = json.loads(out)["multiplicities"][0]["kappa"]
    assert Fraction(kappa) == Fraction(12345678901234567890123, 10 ** 23)


def test_json_coefficient_is_read_as_written(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"m": 2, "terms": [{"c": 0.1, "e": [1, 0]}]}')
    code, out, _ = run_cli(capsys, "decompose", "--group", "z2", "--m", "2", "--kappa", "1,1",
                           "--poly-file", str(path))
    assert code == 0
    assert json.loads(out)["components"] == [
        {"i": 0, "component": Polynomial.monomial(2, (1, 0), Fraction(1, 10)).to_json()}]


def test_parse_rational_refuses_a_float():
    with pytest.raises(ValueError, match="inexact float"):
        parse_rational(0.5)
    assert parse_rational("0.5") == parse_rational(1) / 2


LIMIT = sys.get_int_max_str_digits()  # the most digits int reads or prints


# (text, its id): an exponent past the limit, then a numerator or a denominator of one digit more
PAST_THE_DIGIT_LIMIT = [(f"1e{LIMIT + 1}", "1e(limit+1)"), ("1e9999999", "1e9999999"), ("1e9_999_999", "underscores"),
                        (f"-1e-{LIMIT + 1}", "-1e-(limit+1)"), (f"0e{LIMIT + 1}", "0e(limit+1)"),
                        (f"1e{LIMIT}", "1e(limit)"), (f"1e-{LIMIT}", "1e-(limit)"), (f"{'9' * LIMIT}.5", "9s.5")]


@pytest.mark.parametrize("text", [text for text, _ in PAST_THE_DIGIT_LIMIT], ids=[i for _, i in PAST_THE_DIGIT_LIMIT])
def test_parse_rational_refuses_a_number_int_cannot_print(text):
    """An exponent past the limit is refused before 10**exponent is built; a number built with a numerator or
    denominator past the limit, once built.  int() itself refuses a plain digit string past it."""
    with pytest.raises(ValueError, match=rf"needs more than the {LIMIT} digits an int prints"):
        parse_rational(text)


@pytest.mark.parametrize("text", [f"1e{LIMIT - 1}", f"-1e-{LIMIT - 1}", f"{'9' * LIMIT}/{'7' * LIMIT}"],
                         ids=["1e(limit-1)", "-1e-(limit-1)", "9s/7s"])
def test_parse_rational_takes_a_number_of_the_limit_s_digits(text):
    value = parse_rational(text)
    assert Fraction(rational_str(value)) == value


def test_a_kappa_int_cannot_print_exits_2_before_the_group(capsys, monkeypatch):
    monkeypatch.setattr(cli, "builtin_root_system", _start)
    result = run_cli(capsys, "group-info", "--group", "b", "--m", "2", "--kappa", f"1e{LIMIT + 1},1")
    assert_input_error(*result, "cannot parse --kappa", "digits an int prints")


def test_a_json_kappa_int_cannot_print_exits_2_before_the_context(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "DunklContext", _start)
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"m": 1, "positive_roots": [["1"]],
                                "multiplicities": [{"orbit_rep": ["1"], "kappa": f"1e{LIMIT + 1}"}]}))
    result = run_cli(capsys, "hermite", "--group-file", str(path), "--t", "0", "--ell", "0")
    assert_input_error(*result, "bad multiplicities", "digits an int prints")


def test_a_json_coefficient_int_cannot_print_exits_2_before_the_decomposition(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "fischer_decompose", _start)
    result = decompose(capsys, tmp_path, {"m": 2, "terms": [{"c": f"1e{LIMIT + 1}", "e": [1, 0]}]})
    assert_input_error(*result, "bad polynomial JSON", "digits an int prints")


@pytest.mark.parametrize("command", ["group-info", "decompose"])
def test_a_json_integer_past_the_digit_limit_exits_2_before_it_is_read(capsys, monkeypatch, tmp_path, command):
    """json refuses an integer of more digits than int reads with a plain ValueError, not a JSONDecodeError."""
    monkeypatch.setattr(cli, "root_system_from_json", _start)
    monkeypatch.setattr(cli.Polynomial, "from_json", _start)
    path = tmp_path / "big.json"
    path.write_text('{"m": 1' + "0" * LIMIT + "}")
    if command == "group-info":
        result = run_cli(capsys, "group-info", "--group-file", str(path))
    else:
        result = run_cli(capsys, "decompose", "--group", "trivial", "--m", "1", "--poly-file", str(path))
    assert_input_error(*result, "is not valid JSON", "Exceeds the limit")


def test_a_file_that_is_not_utf8_exits_2(capsys, monkeypatch, tmp_path):
    """A UnicodeDecodeError is a ValueError too, and read as invalid JSON."""
    monkeypatch.setattr(cli, "root_system_from_json", _start)
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"m": 1, "name": "\xff"}')
    assert_input_error(*run_cli(capsys, "group-info", "--group-file", str(path)), "is not valid JSON", "utf-8")
