"""The fraction-free integer elimination of linalg against a rational Gauss-Jordan reference kept
here: RREF, rank, kernels of dense rows and of (den, integer terms) blocks, and frame solves agree
exactly, errors and their order included, and every row leaving the elimination has content 1."""
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite import linalg
from dunkl_hermite.errors import MathPrecondition
from dunkl_hermite.linalg import kernel_basis, kernel_vectors, matrix_rank, reduced_row_echelon, solve_in_frame
from dunkl_hermite.poly import Polynomial

from test_frame_factor import frames_and_targets, outcome


# -- the reference: Gauss-Jordan over Fractions, one pivot inverse and one Fraction per update --

def reference_eliminate(rows, ncols):
    """Rational Gauss-Jordan of sparse {key: {column: Fraction}} rows in place, pivot rows
    normalized to 1; the pivot is the first pending row with an entry, in order of first
    appearance.  Returns (key, column, inverse of the pivot, (row key, factor) eliminations)."""
    pending = dict.fromkeys(rows)
    steps = []
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


def dense_rows(rows):
    return {i: {j: Fraction(x) for j, x in enumerate(row) if x} for i, row in enumerate(rows)}


def column_rows(columns):
    rows = {}
    for j, terms in enumerate(columns):
        for key, value in terms:
            rows.setdefault(key, {})[j] = Fraction(value)
    return rows


def reference_rref(rows):
    ncols = len(rows[0]) if rows else 0
    sparse = dense_rows(rows)
    steps = reference_eliminate(sparse, ncols)
    echelon = [[sparse[key].get(j, Fraction(0)) for j in range(ncols)] for key, _, _, _ in steps]
    return echelon + [[Fraction(0)] * ncols for _ in range(len(rows) - len(steps))], [c for _, c, _, _ in steps]


def reference_kernel(rows, ncols):
    """Canonical kernel vectors {column: int}: free columns in order, denominators cleared, content 1,
    leading entry positive."""
    pivot_rows = [(c, rows[key]) for key, c, _, _ in reference_eliminate(rows, ncols)]
    basis = []
    for f in sorted(set(range(ncols)) - {c for c, _ in pivot_rows}):
        vec = {p: -row[f] for p, row in pivot_rows if f in row}
        vec[f] = Fraction(1)
        den = lcm(*(x.denominator for x in vec.values()))
        ints = {j: int(vec[j] * den) for j in sorted(vec)}
        content = gcd(*ints.values()) * (1 if next(iter(ints.values())) > 0 else -1)
        basis.append({j: x // content for j, x in ints.items()})
    return basis


def reference_solve(frame, target):
    """Replay the frame's row operations on the target's Fraction terms."""
    steps = reference_eliminate(column_rows([q.terms.items() for q in frame]), len(frame))
    terms = dict(target.terms)
    for key, _, inv, eliminations in steps:
        x = terms[key] = terms.get(key, 0) * inv
        if x:
            for k, factor in eliminations:
                terms[k] = terms.get(k, 0) - factor * x
    coordinates = [terms.pop(key) for key, _, _, _ in steps]
    if any(terms.values()):
        raise MathPrecondition("target polynomial is not in the span of the frame")
    if len(coordinates) != len(frame):
        raise MathPrecondition("frame polynomials are linearly dependent")
    return coordinates


# -- every row leaving the integer elimination is primitive ----------------------------------

class ContentCheck:
    """linalg._eliminate wrapped: after each call, every nonzero row must have content 1."""

    def __init__(self, monkeypatch):
        self.calls, original = 0, linalg._eliminate

        def checked(rows, ncols):
            steps = original(rows, ncols)
            self.calls += 1
            for key, row in rows.items():
                assert all(type(x) is int for x in row.values()), (key, row)
                assert not row or gcd(*row.values()) == 1, (key, row)
            return steps

        monkeypatch.setattr(linalg, "_eliminate", checked)


def checked_run(test):
    with pytest.MonkeyPatch.context() as mp:
        check = ContentCheck(mp)
        test()
    assert check.calls


# -- strategies --------------------------------------------------------------------------------

@st.composite
def rational_matrices(draw):
    """Rational matrices up to 6 x 8, about half zeros, with a row duplicated over another as a
    multiple; denominators up to 12, so rows need clearing."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool)
    entry = st.one_of(st.just(Fraction(0)), nonzero)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    if nrows > 1:
        source, target = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=2, unique=True))
        rows[target] = [draw(nonzero) * x for x in rows[source]]
    return rows


@st.composite
def integer_blocks(draw):
    """Up to 8 columns (den, integer terms) over six row keys, dens up to 30."""
    keys = st.tuples(st.integers(0, 1), st.integers(0, 2))
    columns = draw(st.lists(st.tuples(st.integers(1, 30), st.dictionaries(
        keys, st.integers(-30, 30).filter(bool), max_size=5)), min_size=1, max_size=8))
    return [(den, list(terms.items())) for den, terms in columns]


def hilbert(nrows, ncols):
    return [[Fraction(1, i + j + 1) for j in range(ncols)] for i in range(nrows)]


def hilbert_blocks(nrows, ncols):
    """The columns of the Hilbert block as (den, integer terms): the column's lcm over numerators."""
    blocks = []
    for j in range(ncols):
        den = lcm(*range(j + 1, j + nrows + 1))
        blocks.append((den, [(i, den // (i + j + 1)) for i in range(nrows)]))
    return blocks


# -- the comparisons ---------------------------------------------------------------------------

def assert_dense_agree(rows):
    ncols = len(rows[0])
    expected_rref = reference_rref(rows)
    expected_kernel = [tuple(vec.get(j, 0) for j in range(ncols)) for vec in reference_kernel(dense_rows(rows), ncols)]

    def run():
        assert reduced_row_echelon(rows) == expected_rref
        assert matrix_rank(rows) == len(expected_rref[1])
        assert kernel_vectors(rows, ncols) == expected_kernel

    checked_run(run)


def assert_blocks_agree(columns):
    keys = [("col", j) for j in range(len(columns))]
    fractions = [[(key, Fraction(v, den)) for key, v in terms] for den, terms in columns]
    expected = [{keys[j]: v for j, v in vec.items()}
                for vec in reference_kernel(column_rows(fractions), len(columns))]

    def run():
        assert kernel_basis(columns, keys) == expected

    checked_run(run)


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_dense_functions_equal_the_rational_reference(rows):
    assert_dense_agree(rows)


@given(integer_blocks())
@settings(max_examples=200, deadline=None)
def test_kernel_basis_of_blocks_equals_the_rational_reference(columns):
    assert_blocks_agree(columns)


@pytest.mark.parametrize("nrows, ncols", [(12, 14), (14, 12), (8, 8)])
def test_hilbert_blocks_equal_the_rational_reference(nrows, ncols):
    """Hilbert-type blocks: every entry a different denominator, the worst case for growth."""
    rows = hilbert(nrows, ncols)
    assert_dense_agree(rows)
    assert_blocks_agree(hilbert_blocks(nrows, ncols))
    frame = [Polynomial(1, {(i,): rows[i][j] for i in range(nrows)}) for j in range(ncols)]
    target = Polynomial(1, {(i,): sum(rows[i][j] * (j - 3) for j in range(ncols)) for i in range(nrows)})
    assert outcome(solve_in_frame, frame, target) == outcome(reference_solve, frame, target)
    if ncols <= nrows:
        assert solve_in_frame(frame, target) == [j - 3 for j in range(ncols)]


@given(frames_and_targets())
@settings(max_examples=200, deadline=None)
def test_frame_solve_equals_the_rational_reference(case):
    """Coordinates, and the error order: out-of-support terms and other targets outside the span
    are reported before a dependent frame."""
    frame, target = case
    with pytest.MonkeyPatch.context() as mp:
        check = ContentCheck(mp)
        assert outcome(solve_in_frame, frame, target) == outcome(reference_solve, frame, target)
    assert check.calls == 1


@pytest.mark.parametrize("frame, target, message", [
    ([{(2, 0): 1}, {(2, 0): 2}], {(2, 0): 3}, "frame polynomials are linearly dependent"),
    ([{(2, 0): 1}, {(2, 0): 2}], {(0, 2): 1}, "target polynomial is not in the span of the frame"),
    ([{(2, 0): 1, (1, 1): 1}, {(2, 0): 1, (1, 1): 1}], {(2, 0): 1},
     "target polynomial is not in the span of the frame"),
    ([{(2, 0): Fraction(1, 3), (1, 1): Fraction(1, 2)}, {(0, 2): Fraction(2, 5)}],
     {(2, 0): 2, (1, 1): 3, (0, 2): Fraction(-4, 7)}, None),
])
def test_frame_solve_error_order(frame, target, message):
    """Outside the support, outside the span within it, dependent; and a solve through denominators."""
    frame, target = [Polynomial(2, q) for q in frame], Polynomial(2, target)
    expected = outcome(reference_solve, frame, target)
    assert outcome(solve_in_frame, frame, target) == expected
    assert expected == (f"MathPrecondition: {message}" if message else [6, Fraction(-10, 7)])
