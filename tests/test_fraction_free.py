"""The fraction-free integer elimination of linalg against a rational Gauss-Jordan reference kept
here: RREF, rank, kernels of dense rows and of (den, integer terms) blocks, and frame solves agree
exactly, errors and their order included, and every row leaving the elimination has content 1."""
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_hermite import hermite, linalg
from dunkl_hermite.errors import MathPrecondition
from dunkl_hermite.groups import builtin_root_system, trivial_root_system
from dunkl_hermite.hermite import fischer_decompose, fischer_frame
from dunkl_hermite.linalg import kernel_basis, kernel_vectors, matrix_rank, reduced_row_echelon, solve_in_frame
from dunkl_hermite.operators import DunklContext
from dunkl_hermite.poly import Polynomial, monomial_basis, monomial_keys

from test_frame_factor import frames_and_targets, one_shot_decompose, outcome


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


# a zero column (1), a row repeated (2 = 0) and a free column (3) that the last pivot row meets
ZERO_COLUMN_AND_REPEATED_ROW = [[Fraction(1), Fraction(0), Fraction(2), Fraction(1, 2)],
                                [Fraction(0), Fraction(0), Fraction(3), Fraction(-1)],
                                [Fraction(1), Fraction(0), Fraction(2), Fraction(1, 2)]]


def dense_blocks(rows):
    """The columns of dense rational rows as (den, integer terms) blocks, row i keyed by i."""
    blocks = []
    for j in range(len(rows[0])):
        den = lcm(*(row[j].denominator for row in rows))
        blocks.append((den, [(i, int(row[j] * den)) for i, row in enumerate(rows) if row[j]]))
    return blocks


@given(rational_matrices())
@example(ZERO_COLUMN_AND_REPEATED_ROW)
@settings(max_examples=200, deadline=None)
def test_dense_functions_equal_the_rational_reference(rows):
    assert_dense_agree(rows)


@given(integer_blocks())
@example(dense_blocks(ZERO_COLUMN_AND_REPEATED_ROW))
@settings(max_examples=200, deadline=None)
def test_kernel_basis_of_blocks_equals_the_rational_reference(columns):
    assert_blocks_agree(columns)


def test_a_zero_column_and_a_repeated_row():
    """The examples above, by hand: the zero column is a kernel vector alone."""
    assert kernel_vectors(ZERO_COLUMN_AND_REPEATED_ROW, 4) == [(0, 1, 0, 0), (7, 0, -2, -6)]


@pytest.mark.parametrize("build, free", [
    (lambda: trivial_root_system(5), 285),
    (lambda: builtin_root_system("z2", 4, (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 3))), 81),
], ids=["trivial5", "z2^4"])
def test_degree_8_laplacian_kernels_equal_the_rational_reference(build, free):
    """Sizes the strategies never reach: 495 and 165 columns of the Dunkl Laplacian at degree 8."""
    ctx = DunklContext(build())
    keys = monomial_keys(ctx.m, 8)
    columns = [ctx._laplacians[key] for key in keys]
    assert_blocks_agree(columns)
    assert len(kernel_basis(columns, keys)) == free


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
@example(([Polynomial(2, {(2, 0): Fraction(1, 3), (1, 1): Fraction(1, 2)}), Polynomial(2, {(0, 2): 2, (1, 1): -1})],
          Polynomial(2, {(2, 0): Fraction(2, 3), (1, 1): Fraction(10, 7), (0, 2): Fraction(-6, 7)})))
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


# -- the factored Fischer solve on B3 at degree 6, as the kernels benchmark runs it ---------------

@pytest.mark.parametrize("target", [
    Polynomial(3, {e: Fraction((-1) ** j * (j % 9 + 1), j % 3 + 1) for j, e in enumerate(monomial_basis(3, 6))}),
    Polynomial(3, {(6, 0, 0): 1}),
    Polynomial(3, {(2, 2, 2): Fraction(3, 7), (4, 1, 1): Fraction(-5, 11), (0, 0, 6): 2}),
], ids=["dense", "one monomial", "fractional"])
def test_b3_degree_6_solves_equal_the_references(target):
    """Every dot runs over its shorter side: the pivot combinations against the dense target, the
    target against them otherwise; some pivots are negative, and the target's denominator is not 1."""
    ctx = DunklContext(builtin_root_system("b", 3, (Fraction(1, 2), Fraction(3, 4))))
    frame = [q for _, _, q in fischer_frame(ctx, 6)]
    assert fischer_decompose(ctx, target) == one_shot_decompose(ctx, target)
    _, factor = hermite._fischer_factor(ctx, 6)
    assert any(p < 0 for _, p, _ in factor.pivots)
    assert outcome(solve_in_frame, frame, target) == outcome(reference_solve, frame, target)
