"""The harmonic and monogenic bases, read from the Dunkl memo through one coefficient builder,
against kernels of matrices built by applying the public operators to every basis element."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite.clifford import CliffordPolynomial, dunkl_dirac, monogenic_basis
from dunkl_hermite.groups import builtin_root_system
from dunkl_hermite.hermite import harmonic_basis
from dunkl_hermite.linalg import (_sparse_rows, kernel_basis, kernel_vectors, materialize_on_degree,
                                  rational_nullspace)
from dunkl_hermite.operators import DunklContext, dunkl_laplacian
from dunkl_hermite.poly import Polynomial, monomial_basis, monomial_keys

from test_dunkl_map import SYSTEMS, kappa


def draw_context(data, build, nk):
    return DunklContext(build(data.draw(st.lists(kappa, min_size=nk, max_size=nk))))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_harmonic_basis_equals_the_public_nullspace(name, data):
    m, nk, build = SYSTEMS[name]
    ctx = draw_context(data, build, nk)
    for d in range(4 if name == "F4" else 6):
        matrix = materialize_on_degree(lambda p: dunkl_laplacian(ctx, p), m, d, codomain_degree=d - 2)
        expected = [Polynomial(m, dict(zip(monomial_basis(m, d), vec))) for vec in rational_nullspace(matrix)]
        assert list(harmonic_basis(ctx, d).elements) == expected, (name, d)


def dirac_kernel(ctx, degree):
    """Kernel of D on degree-d Clifford polynomials from a matrix filled here: column (A, e) holds
    the coefficients of D(x^e e_A), blade-mask-major, monomials deg-lex largest first."""
    m = ctx.m
    columns = [(mask, e) for mask in range(1 << m) for e in monomial_basis(m, degree)]
    rows = [(mask, f) for mask in range(1 << m) for f in monomial_basis(m, degree - 1)]
    images = [dunkl_dirac(ctx, CliffordPolynomial(m, {mask: Polynomial.monomial(m, e)})) for mask, e in columns]
    matrix = [[image.blade(mask).coefficient(f) for image in images] for mask, f in rows]
    basis = []
    for vec in kernel_vectors(matrix, len(columns)):
        blades = {}
        for (mask, e), v in zip(columns, vec):
            if v:
                blades.setdefault(mask, {})[e] = v
        basis.append(CliffordPolynomial(m, {mask: Polynomial(m, terms) for mask, terms in blades.items()}))
    return basis


CLIFFORD_SYSTEMS = {
    "z2^2": (2, lambda k: builtin_root_system("z2", 2, k)),
    "a3": (1, lambda k: builtin_root_system("a", 3, k)),
    "b2": (2, lambda k: builtin_root_system("b", 2, k)),
}


@pytest.mark.parametrize("name", sorted(CLIFFORD_SYSTEMS))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_monogenic_basis_equals_the_kernel_of_the_dirac_matrix(name, data):
    nk, build = CLIFFORD_SYSTEMS[name]
    ctx = draw_context(data, build, nk)
    for d in range(4):
        assert monogenic_basis(ctx, d) == dirac_kernel(ctx, d), (name, d)


def test_sparse_rows_place_each_term_by_row_key():
    # rows keyed by the terms' own keys, in order of first appearance
    columns = [[((1, (1, 0)), 2)], [], [((0, (0, 1)), -1), ((1, (1, 0)), 5)]]
    rows = _sparse_rows(columns)
    assert rows == {(1, (1, 0)): {0: 2, 2: 5}, (0, (0, 1)): {2: -1}}
    assert list(rows) == [(1, (1, 0)), (0, (0, 1))]
    assert _sparse_rows([[], []]) == {}


def test_kernel_basis_names_the_column_keys():
    # a + 2b - c = 0 as blocks 3/3, 2/1 and -2/2: free columns b and c, each vector's leading entry
    # made positive, the kernel of the true columns and not of the numerators [3, 2, -2]
    columns = [(3, [("r", 3)]), (1, [("r", 2)]), (2, [("r", -2)])]
    assert kernel_basis(columns, ["a", "b", "c"]) == [{"a": 2, "b": -1}, {"a": 1, "c": 1}]
    assert kernel_basis(columns, ["a", "b", "c"]) == [
        {k: v for k, v in zip("abc", vec) if v} for vec in kernel_vectors([[1, 2, -1]], 3)]


@st.composite
def blocks(draw):
    """Up to 8 columns of blocks (den, integer terms) over eight (blade mask, exponent) keys, some
    left empty; so few keys make rows overlap, so that some rows cancel and the pivot rows leave
    their first-appearance order."""
    keys = st.tuples(st.integers(0, 1), st.tuples(st.integers(0, 1), st.integers(0, 1)))
    nonzero = st.integers(-20, 20).filter(bool)
    columns = draw(st.lists(st.tuples(st.integers(1, 12), st.dictionaries(keys, nonzero, max_size=5)),
                            min_size=1, max_size=8))
    return [(den, list(terms.items())) for den, terms in columns]


@given(blocks(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_kernel_basis_does_not_depend_on_the_row_order(columns, random):
    """Reordering the terms inside each block reorders the rows, and so the pivot rows; every
    vector must still be annihilated by the true columns, numerators over denominators."""
    basis = kernel_basis(columns, range(len(columns)))
    permuted = [(den, random.sample(terms, len(terms))) for den, terms in columns]
    assert kernel_basis(permuted, range(len(columns))) == basis
    for vec in basis:
        image = {}
        for j, v in vec.items():
            den, terms = columns[j]
            for key, c in terms:
                image[key] = image.get(key, 0) + Fraction(c, den) * v
        assert not any(image.values()), vec


def test_harmonic_kernel_does_not_depend_on_the_row_order():
    ctx = DunklContext(builtin_root_system("b", 3, [Fraction(1, 2), Fraction(2, 3)]))
    for d in (4, 5):
        basis = monomial_keys(3, d)
        images = [ctx._laplacians[key] for key in basis]  # the memo's blocks (den, integer terms)
        assert kernel_basis([(den, terms[::-1]) for den, terms in images], basis) == kernel_basis(images, basis)
