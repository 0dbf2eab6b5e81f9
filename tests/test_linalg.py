"""Exact linear algebra: RREF, kernels, operator matrices, frames."""
from fractions import Fraction

import pytest

from dunkl_hermite.errors import DimensionMismatch, MathPrecondition
from dunkl_hermite.groups import builtin_root_system
from dunkl_hermite.linalg import (kernel_vectors, materialize_on_degree, matrix_rank,
                                  rational_nullspace, reduced_row_echelon, solve_in_frame)
from dunkl_hermite.operators import DunklContext, dunkl_laplacian
from dunkl_hermite.poly import Polynomial


def laplacian_operator(ctx):
    return lambda p: dunkl_laplacian(ctx, p)


def test_classical_laplacian_matrix_on_quadratics():
    ctx = DunklContext(builtin_root_system("trivial", 2, []))
    op = materialize_on_degree(laplacian_operator(ctx), 2, 2)
    # basis x1^2, x1 x2, x2^2 -> constants; row is (2, 0, 2)
    assert op.domain_degree == 2 and op.codomain_degree == 0
    assert op.entries == ((Fraction(2), Fraction(0), Fraction(2)),)


def test_dunkl_laplacian_matrix_entry():
    # Z2 on the line with kappa = 1: Delta x^3 = 10 x
    ctx = DunklContext(builtin_root_system("z2", 1, [1]))
    op = materialize_on_degree(laplacian_operator(ctx), 1, 3)
    assert op.entries == ((Fraction(10),),)


def test_materialize_rejects_mixed_degree_image():
    shift = lambda p: p + Polynomial.constant(2, Fraction(1))
    with pytest.raises(MathPrecondition) as info:
        materialize_on_degree(shift, 2, 2)
    assert "x^[2, 0]" in str(info.value)


def test_materialize_zero_operator():
    zero = lambda p: Polynomial.zero(2)
    op = materialize_on_degree(zero, 2, 3)
    assert op.nrows == 0 and op.ncols == 4


def test_matrix_vector_against_direct_application():
    ctx = DunklContext(builtin_root_system("b", 2, [Fraction(1, 2), Fraction(3, 4)]))
    op = materialize_on_degree(laplacian_operator(ctx), 2, 4)
    from dunkl_hermite.poly import monomial_basis
    for e in monomial_basis(2, 4):
        image = dunkl_laplacian(ctx, Polynomial.monomial(2, e))
        coords = op.apply_vector([Fraction(1) if f == e else Fraction(0)
                                  for f in monomial_basis(2, 4)])
        rebuilt = sum((c * Polynomial.monomial(2, f)
                       for c, f in zip(coords, monomial_basis(2, 2))),
                      Polynomial.zero(2))
        assert rebuilt == image


def test_rref_unique_form():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    echelon, pivots = reduced_row_echelon(rows)
    assert echelon[0] == [Fraction(1), Fraction(2)]
    assert all(not any(row) for row in echelon[1:])
    assert pivots == [0]
    assert matrix_rank(rows) == 1


def test_dense_functions_refuse_rows_of_another_length():
    # ragged rows used to raise a bare IndexError or be truncated to the shortest row
    for call in (lambda: reduced_row_echelon([[1, 2], [3]]), lambda: matrix_rank([[1], [2, 3]]),
                 lambda: kernel_vectors([[0, 0, 1]], 2), lambda: kernel_vectors([[1, 2]], 3)):
        with pytest.raises(DimensionMismatch, match="dimension mismatch: rows of length"):
            call()


def test_kernel_canonicalization():
    # kernel of (2, 0, 2) in integers, free columns in order
    rows = [[Fraction(2), Fraction(0), Fraction(2)]]
    assert kernel_vectors(rows, 3) == [(Fraction(0), Fraction(1), Fraction(0)),
                                       (Fraction(1), Fraction(0), Fraction(-1))]


def test_kernel_clears_denominators_to_content_one():
    rows = [[Fraction(1), Fraction(1, 3)]]
    assert kernel_vectors(rows, 2) == [(Fraction(1), Fraction(-3))]


def test_rational_nullspace_of_operator():
    ctx = DunklContext(builtin_root_system("trivial", 2, []))
    op = materialize_on_degree(laplacian_operator(ctx), 2, 2)
    vectors = rational_nullspace(op)
    assert vectors == [(Fraction(0), Fraction(1), Fraction(0)),
                       (Fraction(1), Fraction(0), Fraction(-1))]


def test_solve_in_frame_exact_coordinates():
    x1sq = Polynomial(2, {(2, 0): Fraction(1)})
    frame = [Polynomial(2, {(2, 0): Fraction(1), (0, 2): Fraction(-1)}),
             Polynomial.norm_squared(2)]
    coords = solve_in_frame(frame, x1sq)
    assert coords == [Fraction(1, 2), Fraction(1, 2)]


def test_solve_in_frame_outside_span():
    frame = [Polynomial(2, {(2, 0): Fraction(1)})]
    target = Polynomial(2, {(0, 2): Fraction(1)})
    with pytest.raises(MathPrecondition) as info:
        solve_in_frame(frame, target)
    assert "span" in str(info.value)


def test_solve_in_frame_rejects_dependent_frame():
    p = Polynomial(2, {(2, 0): Fraction(1)})
    with pytest.raises(MathPrecondition) as info:
        solve_in_frame([p, 2 * p], p)
    assert "dependent" in str(info.value)
