"""The package's public surface: __all__ is pinned name by name, and test-only code stays in the tests."""
import ast
import re

import dunkl_hermite

from test_exactness import SOURCES

PUBLIC = [
    "BUILTIN_FAMILIES", "CliffordPolynomial", "DimensionMismatch", "DunklContext", "DunklError",
    "HarmonicBasis", "HermiteRecord", "InexactDivision", "InvalidRootSystem", "MathPrecondition",
    "MomentValue", "OperatorMatrix", "OrthogonalityReport", "PROFILES", "Polynomial", "Profile",
    "RecursionCheck", "RootSystem", "SUITE_NAMES", "SuiteVerdict", "WeightedFunction",
    "builtin_root_system", "ch_laguerre", "ch_recursion", "ch_rodrigues",
    "coefficient_recursions_check", "compose_linear", "conjugated_dunkl", "conjugated_laplacian",
    "custom_root_system", "d_plus", "d_plus_squared_scalar", "dim_homogeneous",
    "divide_by_linear_form", "dunkl_derivative", "dunkl_dirac", "dunkl_laplacian",
    "eigenspace_checks", "euler_operator", "fischer_decompose", "fischer_frame", "fischer_project",
    "gamma_half_integer", "harmonic_basis", "harmonic_dimension_classical", "heat_semigroup",
    "inner_product", "kernel_vectors", "laguerre_poly", "laplace_beltrami", "materialize_on_degree",
    "matrix_rank", "monogenic_basis", "monomial_basis", "mu_is_degenerate",
    "multiply_by_norm_squared", "orbit_decomposition", "orthogonality_report", "parse_rational",
    "proportionality_constant", "rational_nullspace", "rational_str", "reduced_row_echelon",
    "reflection_matrix", "root_system_from_json", "rosler_hermite", "run_all", "run_suite",
    "sl2_e", "sl2_f", "sl2_h", "solve_in_frame", "trivial_root_system", "vector_multiply",
    "weighted_eigenfunction_check", "weighted_moment",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 76
    assert sorted(dunkl_hermite.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(dunkl_hermite, name) is not None, name


def test_no_reference_operator_lives_in_the_package():
    """Slow reference forms that only the tests compare against live in tests/reference_operators.py."""
    found = [f"{path.name}: {node.name}" for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.endswith("_reference")]
    assert found == []


# Exponent tuples are read and written only at the boundary: the constructor, terms, coefficient, JSON and
# printing.  Everywhere else a monomial is its packed key, and a key moves by integer addition.
TUPLE_BOUNDARY = {"__init__", "terms", "coefficient", "to_json", "from_json", "__str__", "monomial_basis"}
TUPLE_KEY_BUILDS = [re.compile(r"\[\s*:\s*\w+\s*\]\s*\+\s*\("), re.compile(r"tuple\(\s*map\(\s*add\b")]


def test_no_key_is_built_as_a_tuple_outside_the_boundary():
    found = []
    for path in SOURCES:
        text = path.read_text()
        boundary = {line for node in ast.walk(ast.parse(text)) if isinstance(node, ast.FunctionDef)
                    and node.name in TUPLE_BOUNDARY for line in range(node.lineno, node.end_lineno + 1)}
        found += [f"{path.name}:{number}: {line.strip()}" for number, line in enumerate(text.splitlines(), 1)
                  if number not in boundary and any(pattern.search(line) for pattern in TUPLE_KEY_BUILDS)]
    assert found == []


def test_one_raw_constructor():
    """Elements are built without validation in one place, poly._Element._new: object.__new__ appears nowhere
    else in the package, so a second raw constructor cannot come back beside it."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        found += [(path.name, [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno])
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "__new__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert found == [("poly.py", ["_new"])]
