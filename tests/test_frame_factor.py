"""The factored frame solve against a one-shot RREF, and the Fischer factor cache."""
import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite import hermite
from dunkl_hermite.errors import DimensionMismatch, MathPrecondition
from dunkl_hermite.groups import builtin_root_system, root_system_from_json, trivial_root_system
from dunkl_hermite.hermite import fischer_decompose, fischer_frame
from dunkl_hermite.linalg import _eliminate, _sparse_rows, reduced_row_echelon, solve_in_frame
from dunkl_hermite.operators import DunklContext
from dunkl_hermite.poly import Polynomial, _exponents, monomial_basis

from reference_operators import deglex_key
from test_dunkl_map import f4_json, g2_json


def one_shot_solve(frame, target):
    """The reference: one RREF of [frame | target] over the union of their supports."""
    support = set(target.terms)
    for q in frame:
        support.update(q.terms)
    order = sorted(support, key=deglex_key, reverse=True)
    rref, pivots = reduced_row_echelon([[q.coefficient(e) for q in frame] + [target.coefficient(e)]
                                        for e in order])
    n = len(frame)
    if n in pivots:
        raise MathPrecondition("target polynomial is not in the span of the frame")
    if pivots != list(range(n)):
        raise MathPrecondition("frame polynomials are linearly dependent")
    return [rref[r][n] for r in range(n)]


def outcome(solve, frame, target):
    try:
        return solve(frame, target)
    except MathPrecondition as exc:
        return f"MathPrecondition: {exc}"


coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def polynomials(m, max_terms=4):
    """Nonzero polynomials of degree at most 2 in each variable."""
    exponent = st.tuples(*[st.integers(0, 2)] * m)
    nonzero = coefficient.filter(bool)
    return st.dictionaries(exponent, nonzero, min_size=1, max_size=max_terms).map(lambda t: Polynomial(m, t))


@st.composite
def frames_and_targets(draw):
    """Random frames, sometimes with a combination of two members appended (dependent), and
    targets in their span, sometimes plus a random polynomial (usually outside it)."""
    m = draw(st.integers(1, 3))
    frame = draw(st.lists(polynomials(m), min_size=1, max_size=5))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(frame) - 1)), draw(st.integers(0, len(frame) - 1))
        frame.append(draw(coefficient) * frame[i] + draw(coefficient) * frame[j])
    target = Polynomial.zero(m)
    for q in frame:
        target = target + draw(coefficient) * q
    if draw(st.booleans()):
        target = target + draw(polynomials(m))
    return frame, target


@given(frames_and_targets())
@settings(max_examples=150, deadline=None)
def test_solve_in_frame_equals_the_one_shot_rref(case):
    frame, target = case
    assert outcome(solve_in_frame, frame, target) == outcome(one_shot_solve, frame, target)


@pytest.mark.parametrize("frame, target, message", [
    ([(1, {(2, 0): 1}), (2, {(2, 0): 1})], {(2, 0): 3}, "frame polynomials are linearly dependent"),
    ([(1, {(2, 0): 1, (1, 1): 1})], {(2, 0): 1}, "target polynomial is not in the span of the frame"),
    ([(1, {(2, 0): 1})], {(0, 2): 1}, "target polynomial is not in the span of the frame"),
    ([(1, {(2, 0): 1}), (2, {(2, 0): 1})], {(2, 0): 1, (0, 2): 1},
     "target polynomial is not in the span of the frame"),
    ([(1, {(2, 0): 1}), (2, {(2, 0): 1})], {(2, 0): 1, (1, 1): 1},
     "target polynomial is not in the span of the frame"),
])
def test_solve_in_frame_error_order(frame, target, message):
    """Dependent frame; target outside the span, within or beyond the frame's support; both."""
    frame = [scale * Polynomial(2, terms) for scale, terms in frame]
    target = Polynomial(2, target)
    assert outcome(one_shot_solve, frame, target) == f"MathPrecondition: {message}"
    assert outcome(solve_in_frame, frame, target) == f"MathPrecondition: {message}"


def test_solve_in_frame_input_errors():
    with pytest.raises(ValueError, match="empty frame"):
        solve_in_frame([], Polynomial.zero(2))
    with pytest.raises(DimensionMismatch):
        solve_in_frame([Polynomial.variable(2, 0)], Polynomial.variable(3, 0))


# name -> (dimension, number of kappas, builder, top degree decomposed)
SYSTEMS = {
    "z2^2": (2, 2, lambda k: builtin_root_system("z2", 2, k), 5),
    "a3": (3, 1, lambda k: builtin_root_system("a", 3, k), 4),
    "b3": (3, 2, lambda k: builtin_root_system("b", 3, k), 4),
    "d4": (4, 1, lambda k: builtin_root_system("d", 4, k), 3),
    "trivial3": (3, 0, lambda k: trivial_root_system(3), 4),
    "G2": (3, 2, lambda k: root_system_from_json(g2_json(*k)), 4),
    "F4": (4, 2, lambda k: root_system_from_json(f4_json(*k)), 3),
}

kappa = st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5)


def homogeneous(m, top):
    """Nonzero homogeneous polynomials of degree at most top."""
    return st.integers(0, top).flatmap(lambda d: st.dictionaries(
        st.sampled_from(monomial_basis(m, d)), coefficient.filter(bool), min_size=1, max_size=6)).map(
        lambda terms: Polynomial(m, terms))


def one_shot_decompose(ctx, p):
    frame = fischer_frame(ctx, p.homogeneous_degree())
    coords = one_shot_solve([q for _, _, q in frame], p)
    layers = {}
    for (i, _, q), c in zip(frame, coords):
        layers[i] = layers.get(i, Polynomial.zero(ctx.m)) + c * q
    return [(i, layers[i]) for i in sorted(layers) if layers[i]]


def assert_decompose_twice(ctx, p):
    factored = []
    original = hermite.FrameFactor

    def counting(frame):
        factored.append(len(frame))
        return original(frame)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hermite, "FrameFactor", counting)
        first = fischer_decompose(ctx, p)
        second = fischer_decompose(ctx, p)  # replays the factor the first call made
    assert factored == [len(fischer_frame(ctx, p.homogeneous_degree()))]
    assert first == second == one_shot_decompose(ctx, p)
    assert sum((part for _, part in first), Polynomial.zero(ctx.m)) == p


@pytest.mark.parametrize("name, kappas", [("b3", (Fraction(1, 2), Fraction(3, 4))), ("G2", (Fraction(2, 3), 1))],
                         ids=["b3", "G2"])
def test_fischer_decompose_twice_pinned(name, kappas):
    """The property below on one dense degree-4 target over denominator 6, deterministically: b3's
    degree-4 factor has a negative pivot."""
    m, _, build, _ = SYSTEMS[name]
    p = Polynomial(m, {e: Fraction((-1) ** j * (j % 5 + 1), j % 3 + 1) for j, e in enumerate(monomial_basis(m, 4))})
    assert_decompose_twice(DunklContext(build(kappas)), p)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_fischer_decompose_twice_equals_the_one_shot_solve(name, data):
    m, nk, build, top = SYSTEMS[name]
    ctx = DunklContext(build(data.draw(st.lists(kappa, min_size=nk, max_size=nk))))
    assert_decompose_twice(ctx, data.draw(homogeneous(m, top)))


def test_a_context_dropped_after_fischer_decompose_is_released():
    """The factor of each degree is kept on its context, built once per (context, degree), and freed with it."""
    factored = []

    class Counted(hermite.FrameFactor):  # a factor that can be weakly referenced, counted on construction
        __slots__ = ("__weakref__",)

        def __init__(self, frame):
            factored.append(len(frame))
            super().__init__(frame)

    ctx = DunklContext(builtin_root_system("b", 3, [Fraction(1, 2), Fraction(2, 3)]))
    other = DunklContext(ctx.root_system)
    p = Polynomial(3, {e: 1 for e in monomial_basis(3, 4)})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hermite, "FrameFactor", Counted)
        for c in (ctx, ctx, other):
            assert fischer_decompose(c, p) == one_shot_decompose(ctx, p)
        assert fischer_decompose(ctx, 2 * Polynomial.variable(3, 0) ** 2)
    dimension = len(fischer_frame(ctx, 4))
    assert factored == [dimension, dimension, len(fischer_frame(ctx, 2))]  # ctx, other, then ctx at degree 2
    assert sorted(ctx._fischer) == [2, 4] and list(other._fischer) == [4]
    frame, factor = ctx._fischer[4]
    assert isinstance(factor, Counted) and factor.size == len(frame) == dimension
    refs = [weakref.ref(c) for c in (ctx, factor)]
    del ctx, other, frame, factor
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def reordered(p, random):
    """p with its terms in another order: the rows of a frame matrix appear in another order."""
    items = list(p.terms.items())
    random.shuffle(items)
    return Polynomial(p.m, items)


@given(frames_and_targets(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_solve_in_frame_does_not_depend_on_the_row_order(case, random):
    frame, target = case
    permuted = [reordered(q, random) for q in frame]
    assert outcome(solve_in_frame, permuted, reordered(target, random)) == outcome(solve_in_frame, frame, target)


def test_the_row_order_picks_the_pivot_rows_but_not_the_coordinates():
    frame = [Polynomial(2, {(2, 0): 1, (0, 2): 1}), Polynomial(2, {(2, 0): 1, (0, 2): -1})]
    flipped = [Polynomial(2, list(q.terms.items())[::-1]) for q in frame]
    target = Polynomial(2, {(2, 0): 3, (0, 2): 1})
    # FrameFactor eliminates the frame's numerator rows, keyed by the monomial keys: the first row in order of
    # appearance pivots
    for polys, order in [(frame, [(2, 0), (0, 2)]), (flipped, [(0, 2), (2, 0)])]:
        steps = _eliminate(_sparse_rows([q._nums.items() for q in polys]), 2)
        assert [(e, c) for e, (_, c) in zip(_exponents(2, [key for key, _ in steps]), steps)] == [
            (order[0], 0), (order[1], 1)]
    assert solve_in_frame(frame, target) == solve_in_frame(flipped, target) == [2, 1]
