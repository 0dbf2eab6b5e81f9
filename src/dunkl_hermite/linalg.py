"""Exact rational linear algebra for graded operator matrices.

A matrix reaches this module as one term list per column: (row key, coefficient) pairs, a row
key being an exponent or a (blade mask, exponent) pair.  Only this module lays it out: each row,
keyed by its own key in order of first appearance, is a sparse {column: Fraction} map, and one
Gauss-Jordan loop over those rows serves every RREF, rank, kernel and frame solve.  The public
dense functions convert at the boundary; columns of an operator matrix are indexed by the deg-lex
(largest first) monomial basis of the domain degree, rows by that of the codomain degree.
Kernels come back canonicalized: free variables taken in column order, denominators cleared,
content 1, leading nonzero coefficient positive.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Sequence

from .errors import DimensionMismatch, MathPrecondition
from .poly import Polynomial, dim_homogeneous, exact, monomial_basis

Row = tuple[Fraction, ...]
SparseRows = dict[Hashable, dict[int, Fraction]]  # row key -> {column: nonzero entry}


def _sparse_rows(columns: Sequence[Iterable[tuple[Hashable, Fraction]]]) -> SparseRows:
    """The rows of the matrix whose column j is the term list columns[j]; a term list names each
    key at most once, with a nonzero coefficient."""
    rows: SparseRows = {}
    for j, terms in enumerate(columns):
        for key, value in terms:
            rows.setdefault(key, {})[j] = value
    return rows


def _dense_to_sparse(rows: Sequence[Sequence[Fraction]], ncols: int) -> SparseRows:
    lengths = {len(row) for row in rows} - {ncols}
    if lengths:
        raise DimensionMismatch(f"dimension mismatch: rows of length {sorted(lengths)} vs {ncols} columns")
    return {i: {j: x for j, x in enumerate(map(exact, row)) if x} for i, row in enumerate(rows)}


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
    cod = -1 if inferred is None else inferred  # below 0 the codomain basis, and the matrix, are empty
    rows, zero = _sparse_rows(images), Fraction(0)
    return OperatorMatrix(m, degree, cod, tuple(tuple(rows.get(f, {}).get(j, zero) for j in range(len(images)))
                                                for f in monomial_basis(m, cod)))


# One step per pivot, in pivot order: the key of the pivot row, the pivot column, the inverse
# of the pivot, and the (row key, factor) pairs subtracted from every other row.
Step = tuple[Hashable, int, Fraction, tuple[tuple[Hashable, Fraction], ...]]


def _eliminate(rows: SparseRows, ncols: int) -> list[Step]:
    """Gauss-Jordan elimination of sparse rows in place; returns the row operations.  An update
    visits only the pivot row's nonzero entries, and drops what cancels."""
    pending = dict.fromkeys(rows)  # the rows that are no pivot row yet, in order of first appearance
    steps: list[Step] = []
    for c in range(ncols):
        key = next((k for k in pending if c in rows[k]), None)
        if key is None:
            continue
        del pending[key]
        inv = 1 / rows[key][c]
        pivot = rows[key] = {j: x * inv for j, x in rows[key].items()}
        eliminations = []
        for k, row in rows.items():
            factor = row.get(c)
            if factor and k != key:
                for j, b in pivot.items():
                    a = row.get(j, 0) - factor * b
                    if a:
                        row[j] = a
                    else:
                        del row[j]
                eliminations.append((k, factor))
        steps.append((key, c, inv, tuple(eliminations)))
    return steps


def reduced_row_echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Unique RREF over the rationals; returns (rows, pivot column indices)."""
    ncols = len(rows[0]) if rows else 0
    sparse, zero = _dense_to_sparse(rows, ncols), Fraction(0)
    steps = _eliminate(sparse, ncols)
    echelon = [[sparse[key].get(j, zero) for j in range(ncols)] for key, _, _, _ in steps]
    return echelon + [[zero] * ncols for _ in range(len(rows) - len(steps))], [c for _, c, _, _ in steps]


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(reduced_row_echelon(rows)[1])


def _canonical_integer(vec: dict[int, Fraction]) -> dict[int, int]:
    """Clear denominators, reduce to content 1, make the leading entry positive; the nonzero
    entries come back in column order."""
    den = lcm(*(x.denominator for x in vec.values()))
    ints = {j: int(vec[j] * den) for j in sorted(vec)}
    content = gcd(*ints.values())
    if next(iter(ints.values())) < 0:
        content = -content
    return {j: x // content for j, x in ints.items()}


def _kernel(rows: SparseRows, ncols: int) -> list[dict[int, int]]:
    """Canonical kernel basis of sparse rows, each vector as {column: coefficient} over its
    nonzero entries."""
    pivot_rows = [(c, rows[key]) for key, c, _, _ in _eliminate(rows, ncols)]
    basis = []
    for f in sorted(set(range(ncols)) - {c for c, _ in pivot_rows}):  # the free columns
        vec = {p: -row[f] for p, row in pivot_rows if f in row}
        vec[f] = Fraction(1)
        basis.append(_canonical_integer(vec))
    return basis


def kernel_vectors(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[int, ...]]:
    """Canonical basis of the kernel of the matrix with the given column count."""
    return [tuple(vec.get(j, 0) for j in range(ncols)) for vec in _kernel(_dense_to_sparse(rows, ncols), ncols)]


def rational_nullspace(matrix: OperatorMatrix) -> list[tuple[int, ...]]:
    """Canonical exact kernel basis of an operator matrix."""
    return kernel_vectors(matrix.entries, matrix.ncols)


def kernel_basis(columns: Sequence[Iterable[tuple[Hashable, Fraction]]],
                 column_keys: Sequence[Hashable]) -> list[dict[Hashable, int]]:
    """Canonical kernel of the matrix whose column j is the term list columns[j], each vector as
    {column key: coefficient} over its nonzero entries, in column order."""
    vectors = _kernel(_sparse_rows(columns), len(column_keys))
    return [{column_keys[j]: v for j, v in vec.items()} for vec in vectors]


class FrameFactor:
    """A polynomial frame factored once, for solving any number of targets in it.

    The frame's coefficient matrix (one column per frame polynomial, one row per monomial of its
    support) is eliminated once and its row operations are kept.  Solving replays them on a copy
    of the target's term map: only the nonzero eliminations, instead of a fresh RREF.
    """

    __slots__ = ("m", "size", "steps")

    def __init__(self, frame: Sequence[Polynomial]):
        if not frame:
            raise ValueError("empty frame")
        self.m = frame[0].m
        self.size = len(frame)
        self.steps = _eliminate(_sparse_rows([q.terms.items() for q in frame]), self.size)

    def solve(self, target: Polynomial) -> list[Fraction]:
        """Exact coordinates of target; "not in the span" is reported before "dependent"."""
        if target.m != self.m:
            raise DimensionMismatch(f"dimension mismatch: {target.m} vs {self.m}")
        terms = dict(target.terms)
        for key, _, inv, eliminations in self.steps:
            x = terms[key] = terms.get(key, 0) * inv
            if x:
                for k, factor in eliminations:
                    terms[k] = terms.get(k, 0) - factor * x
        coordinates = [terms.pop(key) for key, _, _, _ in self.steps]
        if any(terms.values()):  # a term left over, on a monomial of the frame's or not
            raise MathPrecondition("target polynomial is not in the span of the frame")
        if len(coordinates) != self.size:  # one coordinate per pivot
            raise MathPrecondition("frame polynomials are linearly dependent")
        return coordinates


def solve_in_frame(frame: Sequence[Polynomial], target: Polynomial) -> list[Fraction]:
    """Exact coordinates of target in a linearly independent polynomial frame.

    Raises if the frame is dependent or the target lies outside its span.
    """
    return FrameFactor(frame).solve(target)
