"""Exact linear algebra for graded operator matrices, on integer rows.

A matrix reaches this module as one block per column: (den, terms), the column being the integer
numerators terms, (row key, numerator) pairs, over the positive denominator den; a row key is a
monomial key or a Clifford key (see poly and clifford).  Only this module lays it out: each row,
keyed by its own key in order of first appearance, is a sparse {column: int} map of the numerators, and one
fraction-free Gauss-Jordan loop over those rows serves every RREF, rank, kernel and frame solve.
A kernel or a frame solve of the numerator matrix is scaled back by the column denominators; the
public dense functions clear each row's denominators at the boundary.  A kernel reads each pivot row once, a
frame solve is one integer dot per pivot row.  Columns of an operator matrix are indexed by the deg-lex (largest
first) monomial basis of the domain degree, rows by that of the codomain degree.  Kernels come back canonicalized:
free variables taken in column order, integer entries of content 1, leading nonzero coefficient positive.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Sequence

from .errors import DimensionMismatch, MathPrecondition
from .poly import Block, Polynomial, dim_homogeneous, exact, monomial_basis, monomial_keys

Row = tuple[Fraction, ...]
IntegerRows = dict[Hashable, dict[int, int]]  # row key -> {column: nonzero entry}


def _sparse_rows(columns: Sequence[Iterable[tuple[Hashable, int]]]) -> IntegerRows:
    """The rows of the matrix whose column j is the term list columns[j]; a term list names each
    key at most once, with a nonzero coefficient."""
    rows: IntegerRows = {}
    for j, terms in enumerate(columns):
        for key, value in terms:
            rows.setdefault(key, {})[j] = value
    return rows


def _dense_to_sparse(rows: Sequence[Sequence[Fraction]], ncols: int) -> IntegerRows:
    """The rows with each one's denominators cleared, which leaves its RREF and kernel alone."""
    lengths = {len(row) for row in rows} - {ncols}
    if lengths:
        raise DimensionMismatch(f"dimension mismatch: rows of length {sorted(lengths)} vs {ncols} columns")
    sparse: IntegerRows = {}
    for i, row in enumerate(rows):
        row = list(map(exact, row))
        den = lcm(*(x.denominator for x in row))
        sparse[i] = {j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
    return sparse


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
        images.append(image)
    cod = -1 if inferred is None else inferred  # below 0 the codomain basis, and the matrix, are empty
    return OperatorMatrix(m, degree, cod, tuple(tuple(Fraction(image._nums.get(key, 0), image._den)
                                                      for image in images) for key in monomial_keys(m, cod)))


def _eliminate(rows: IntegerRows, ncols: int) -> list[tuple[Hashable, int]]:
    """Fraction-free Gauss-Jordan elimination of sparse integer rows in place over the first ncols
    columns; returns the (row key, pivot column) pairs in pivot order.

    The pivot of a column is the first pending row with an entry there, in order of first
    appearance.  A row with entry a against pivot p becomes (p/g) row - (a/g) pivot row, g =
    gcd(p, a), divided by its content; a row with no entry in the pivot column is left alone.  So
    every row stays a primitive integer multiple of its rational Gauss-Jordan row, and its entries
    never grow past Bareiss's.  Columns from ncols on ride along and are never pivots.
    """
    for key, row in rows.items():
        if (content := gcd(*row.values())) > 1:
            rows[key] = {j: x // content for j, x in row.items()}
    pending = dict.fromkeys(rows)  # the rows that are no pivot row yet, in order of first appearance
    steps = []
    for c in range(ncols):
        key = next((k for k in pending if c in rows[k]), None)
        if key is None:
            continue
        del pending[key]
        pivot = rows[key]
        p = pivot[c]
        for k, row in rows.items():
            a = row.get(c)
            if a and k != key:
                g = gcd(p, a)
                s, t = p // g, a // g
                if s != 1:
                    row = {j: s * x for j, x in row.items()}
                for j, b in pivot.items():
                    x = row.get(j, 0) - t * b
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                content = gcd(*row.values())
                rows[k] = {j: x // content for j, x in row.items()} if content > 1 else row
        steps.append((key, c))
    return steps


def reduced_row_echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Unique RREF over the rationals; returns (rows, pivot column indices)."""
    ncols = len(rows[0]) if rows else 0
    sparse = _dense_to_sparse(rows, ncols)
    steps = _eliminate(sparse, ncols)
    echelon = [[Fraction(sparse[key].get(j, 0), sparse[key][c]) for j in range(ncols)] for key, c in steps]
    return echelon + [[Fraction(0)] * ncols for _ in range(len(rows) - len(steps))], [c for _, c in steps]


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(reduced_row_echelon(rows)[1])


def _canonical_integer(vec: dict[int, int]) -> dict[int, int]:
    """Reduce to content 1 and make the leading entry positive; the nonzero entries come back in
    column order."""
    ints = {j: vec[j] for j in sorted(vec)}
    content = gcd(*ints.values())
    if next(iter(ints.values())) < 0:
        content = -content
    return {j: x // content for j, x in ints.items()}


def _kernel(rows: IntegerRows, ncols: int) -> list[dict[int, int]]:
    """A kernel basis of sparse integer rows, one integer vector {column: entry} per free column
    in column order: the free entry is the lcm of the pivots of the rows that meet it.  After
    Gauss-Jordan every entry of a pivot row but its pivot is in a free column: one pass finds them."""
    steps = _eliminate(rows, ncols)
    meeting = {f: [] for f in sorted(set(range(ncols)) - {c for _, c in steps})}  # free column -> (c, p, entry)
    for key, c in steps:
        row = rows[key]
        for f, x in row.items():
            if f != c:
                meeting[f].append((c, row[c], x))
    basis = []
    for f, entries in meeting.items():
        scale = lcm(*(p for _, p, _ in entries))
        vec = {c: -x * (scale // p) for c, p, x in entries}
        vec[f] = scale
        basis.append(vec)
    return basis


def kernel_vectors(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[tuple[int, ...]]:
    """Canonical basis of the kernel of the matrix with the given column count."""
    vectors = map(_canonical_integer, _kernel(_dense_to_sparse(rows, ncols), ncols))
    return [tuple(vec.get(j, 0) for j in range(ncols)) for vec in vectors]


def rational_nullspace(matrix: OperatorMatrix) -> list[tuple[int, ...]]:
    """Canonical exact kernel basis of an operator matrix."""
    return kernel_vectors(matrix.entries, matrix.ncols)


def kernel_basis(columns: Sequence[Block], column_keys: Sequence[Hashable]) -> list[dict[Hashable, int]]:
    """Canonical kernel of the matrix whose column j is the block columns[j] = (den_j, integer
    terms), each vector as {column key: coefficient} over its nonzero entries, in column order.

    The kernel is taken of the integer numerators B = A diag(den): A v = 0 exactly when
    B (v / den) = 0, so entry j of a kernel vector of B is multiplied back by den_j.
    """
    dens = [den for den, _ in columns]
    vectors = _kernel(_sparse_rows([terms for _, terms in columns]), len(column_keys))
    return [{column_keys[j]: v for j, v in _canonical_integer({j: x * dens[j] for j, x in vec.items()}).items()}
            for vec in vectors]


class FrameFactor:
    """A polynomial frame factored once, for solving any number of targets in it.

    The frame's integer numerator matrix B (one column per frame polynomial, one row per monomial
    of its support) is eliminated once next to the identity, [B | I], so every row ends as an
    integer combination of the monomials.  A pivot row with pivot p in column c gives coordinate c
    of a target t/den as den_c (row . t) / (p den); a row left without a pivot spans B's left
    kernel, and t is in the span only if it annihilates every such row.  _dots gives the integers
    row . t, and solve the coordinates; p may be negative.
    """

    __slots__ = ("m", "size", "support", "dens", "pivots", "checks")

    def __init__(self, frame: Sequence[Polynomial]):
        if not frame:
            raise ValueError("empty frame")
        self.m, self.size = frame[0].m, len(frame)
        self.dens = [q._den for q in frame]
        rows = _sparse_rows([q._nums.items() for q in frame])
        monomials = list(rows)  # row i gets identity column size + i
        for i, row in enumerate(rows.values()):
            row[self.size + i] = 1
        self.support = frozenset(monomials)

        def combination(row: dict[int, int]) -> dict[Hashable, int]:
            return {monomials[j - self.size]: x for j, x in row.items() if j >= self.size}

        pivot_rows = [(c, rows.pop(key)) for key, c in _eliminate(rows, self.size)]
        self.pivots = [(c, row[c], combination(row)) for c, row in pivot_rows]
        self.checks = [combination(row) for row in rows.values()]

    def _dots(self, target: Polynomial) -> list[int]:
        """The integer row . t of each pivot row, t the target's numerators; "not in the span" before "dependent"."""
        if target.m != self.m:
            raise DimensionMismatch(f"dimension mismatch: {target.m} vs {self.m}")
        nums = target._nums

        def dot(combination: dict[Hashable, int]) -> int:  # over the shorter side
            short, other = (combination, nums) if len(combination) < len(nums) else (nums, combination)
            get = other.get
            return sum(x * get(key, 0) for key, x in short.items())

        if not nums.keys() <= self.support or any(map(dot, self.checks)):
            raise MathPrecondition("target polynomial is not in the span of the frame")
        if len(self.pivots) != self.size:  # one coordinate per pivot
            raise MathPrecondition("frame polynomials are linearly dependent")
        return [dot(combination) for _, _, combination in self.pivots]

    def solve(self, target: Polynomial) -> list[Fraction]:
        """Exact coordinates of target; "not in the span" is reported before "dependent"."""
        return [Fraction(self.dens[c] * d, p * target._den) for (c, p, _), d in zip(self.pivots, self._dots(target))]


def solve_in_frame(frame: Sequence[Polynomial], target: Polynomial) -> list[Fraction]:
    """Exact coordinates of target in a linearly independent polynomial frame.

    Raises if the frame is dependent or the target lies outside its span.
    """
    return FrameFactor(frame).solve(target)
