"""Exact rational linear algebra for graded operator matrices.

Matrices are dense lists of Fraction rows, all filled by coefficient_grid
from term lists; columns of an operator matrix are indexed by the deg-lex
(largest first) monomial basis of the domain degree, rows by that of the
codomain degree.  Kernels come back canonicalized: free variables taken in
column order, denominators cleared, content 1, leading nonzero coefficient
positive.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Sequence

from .errors import DimensionMismatch, MathPrecondition
from .poly import Polynomial, deglex_key, dim_homogeneous, monomial_basis

Row = tuple[Fraction, ...]


def coefficient_grid(columns: Sequence[Iterable[tuple[Hashable, Fraction]]],
                     rows: Sequence[Hashable]) -> list[list[Fraction]]:
    """Dense grid whose entry [i][j] is the coefficient of rows[i] in the term list columns[j].

    A row key is an exponent, or a (blade mask, exponent) pair; a term list names each key at
    most once, and only keys among rows.
    """
    index = {key: i for i, key in enumerate(rows)}
    grid = [[Fraction(0)] * len(columns) for _ in rows]
    for j, terms in enumerate(columns):
        for key, value in terms:
            grid[index[key]][j] = value
    return grid


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix of a graded linear operator between homogeneous components."""

    m: int
    domain_degree: int
    codomain_degree: int
    entries: tuple[Row, ...]

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return dim_homogeneous(self.m, self.domain_degree)

    def apply_vector(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"dimension mismatch: vector of length {len(vec)} vs {self.ncols} columns")
        return tuple(sum((r[j] * vec[j] for j in range(len(vec))), Fraction(0)) for r in self.entries)


def materialize_on_degree(op: Callable[[Polynomial], Polynomial], m: int, degree: int,
                          codomain_degree: int | None = None) -> OperatorMatrix:
    """Apply op to every basis monomial of the given degree and assemble the matrix.

    The operator must send the whole component into one homogeneous degree;
    the offending monomial is named otherwise.
    """
    images = []
    inferred = codomain_degree
    for e in monomial_basis(m, degree):
        image = op(Polynomial.monomial(m, e))
        if image and not image.is_homogeneous():
            raise MathPrecondition(f"operator is not graded: image of x^{list(e)} mixes degrees")
        if image:
            d = image.homogeneous_degree()
            if inferred is None:
                inferred = d
            elif d != inferred:
                raise MathPrecondition(
                    f"operator is not degree-homogeneous: image of x^{list(e)} has degree {d}, expected {inferred}")
        images.append(image.terms.items())
    cod = -1 if inferred is None else inferred  # below 0 the codomain basis, and the grid, are empty
    return OperatorMatrix(m, degree, cod, tuple(map(tuple, coefficient_grid(images, monomial_basis(m, cod)))))


# One step per pivot, in pivot order: the row swapped into the pivot position, the inverse
# of the pivot, and the (row, factor) pairs subtracted from every other row.
Step = tuple[int, Fraction, tuple[tuple[int, Fraction], ...]]


def _eliminate(mat: list[list[Fraction]]) -> tuple[list[int], list[Step]]:
    """Gauss-Jordan elimination of mat in place; returns the pivot columns and the row operations."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    steps: list[Step] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        row = mat[r] = [x * inv for x in mat[r]]
        eliminations = []
        for i in range(nrows):
            factor = mat[i][c]
            if i != r and factor:
                mat[i] = [a - factor * b for a, b in zip(mat[i], row)]
                eliminations.append((i, factor))
        pivots.append(c)
        steps.append((pivot_row, inv, tuple(eliminations)))
        r += 1
        if r == nrows:
            break
    return pivots, steps


def reduced_row_echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Unique RREF over the rationals; returns (rows, pivot column indices)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots, _ = _eliminate(mat)
    return mat, pivots


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(reduced_row_echelon(rows)[1])


def _canonical_integer(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Clear denominators, reduce to content 1, make the leading entry positive."""
    den = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * den) for x in vec]
    content = 0
    for x in ints:
        content = gcd(content, abs(x))
    if content > 1:
        ints = [x // content for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def kernel_vectors(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[int, ...]]:
    """Canonical basis of the kernel of the matrix with the given column count."""
    rref, pivots = reduced_row_echelon(rows)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):  # the free columns
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rref[r][f]
        basis.append(_canonical_integer(vec))
    return basis


def rational_nullspace(matrix: OperatorMatrix) -> list[tuple[int, ...]]:
    """Canonical exact kernel basis of an operator matrix."""
    return kernel_vectors(matrix.entries, matrix.ncols)


def kernel_basis(columns: Sequence[Iterable[tuple[Hashable, Fraction]]], column_keys: Sequence[Hashable],
                 rows: Sequence[Hashable]) -> list[dict[Hashable, int]]:
    """Canonical kernel of coefficient_grid(columns, rows), each vector as {column key: coefficient}
    over its nonzero entries."""
    vectors = kernel_vectors(coefficient_grid(columns, rows), len(column_keys))
    return [{key: v for key, v in zip(column_keys, vec) if v} for vec in vectors]


class FrameFactor:
    """A polynomial frame factored once, for solving any number of targets in it.

    The frame's coefficient matrix (one row per monomial of its support, deg-lex
    largest first; one column per frame polynomial) is eliminated once and its
    row operations are kept.  Solving replays them on the target's coefficient
    column: O(rows x columns) Fraction operations instead of a fresh RREF.
    """

    __slots__ = ("m", "size", "rows", "steps")

    def __init__(self, frame: Sequence[Polynomial]):
        if not frame:
            raise ValueError("empty frame")
        self.m = frame[0].m
        self.size = len(frame)
        order = sorted(set().union(*(q.terms for q in frame)), key=deglex_key, reverse=True)
        self.rows = {e: row for row, e in enumerate(order)}
        _, self.steps = _eliminate(coefficient_grid([q.terms.items() for q in frame], order))

    def solve(self, target: Polynomial) -> list[Fraction]:
        """Exact coordinates of target; "not in the span" is reported before "dependent"."""
        if target.m != self.m:
            raise DimensionMismatch(f"dimension mismatch: {target.m} vs {self.m}")
        column = [Fraction(0)] * len(self.rows)
        for e, c in target.terms.items():
            row = self.rows.get(e)
            if row is None:  # a monomial no frame polynomial has
                raise MathPrecondition("target polynomial is not in the span of the frame")
            column[row] = c
        for r, (pivot_row, inv, eliminations) in enumerate(self.steps):
            column[r], column[pivot_row] = column[pivot_row], column[r]
            x = column[r] = column[r] * inv
            if x:
                for i, factor in eliminations:
                    column[i] -= factor * x
        rank = len(self.steps)  # one step per pivot
        if any(column[rank:]):
            raise MathPrecondition("target polynomial is not in the span of the frame")
        if rank != self.size:
            raise MathPrecondition("frame polynomials are linearly dependent")
        return column[:rank]


def solve_in_frame(frame: Sequence[Polynomial], target: Polynomial) -> list[Fraction]:
    """Exact coordinates of target in a linearly independent polynomial frame.

    Raises if the frame is dependent or the target lies outside its span.
    """
    return FrameFactor(frame).solve(target)
