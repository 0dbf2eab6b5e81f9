"""A Hermite record's radial coordinates, read by degree, against the frame solve they replace."""
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dunkl_hermite import hermite, linalg
from dunkl_hermite.errors import MathPrecondition
from dunkl_hermite.groups import builtin_root_system
from dunkl_hermite.hermite import _radial_coordinates, _radial_sum, ch_recursion, ch_rodrigues, harmonic_basis
from dunkl_hermite.linalg import solve_in_frame
from dunkl_hermite.operators import DunklContext, radial_tower
from dunkl_hermite.poly import Polynomial, monomial_basis

import test_dunkl_map

# name -> (dimension, number of kappas, builder from the kappas)
SYSTEMS = {name: test_dunkl_map.SYSTEMS[name] for name in ("z2^2", "b3", "G2")}
SYSTEMS["z2^3"] = (3, 3, lambda k: builtin_root_system("z2", 3, k))

kappa = st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5)
coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=6)
NOT_IN_SPAN = "MathPrecondition: target polynomial is not in the span of the frame"
# the pinned example of both properties: a small b2 tower, ell = 2 and t = 2, with three nonzero coordinates
B2_TOWER = radial_tower(harmonic_basis(DunklContext(builtin_root_system("b", 2, [Fraction(1, 2), Fraction(3, 4)])),
                                       2).elements[0], 2)
B2_CASE = (B2_TOWER, 2, [Fraction(3), Fraction(-1, 2), Fraction(5, 4)])


def outcome(solve, tower, target):
    try:
        return solve(tower, target)
    except MathPrecondition as exc:
        return f"MathPrecondition: {exc}"


@st.composite
def towers(draw):
    """(tower [h, |x|^2 h, ..., |x|^{2t} h] of a basis harmonic h, its degree ell)."""
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    m, nk, build = SYSTEMS[name]
    ctx = DunklContext(build(draw(st.lists(kappa, min_size=nk, max_size=nk))))
    ell, t = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    h = draw(st.sampled_from(harmonic_basis(ctx, ell).elements))
    return radial_tower(h, t), ell


@st.composite
def in_span(draw):
    """A tower and a target with drawn coordinates; sometimes one coordinate is zero, so its layer is absent."""
    tower, ell = draw(towers())
    coords = draw(st.lists(coefficient, min_size=len(tower), max_size=len(tower)))
    if draw(st.booleans()):
        coords[draw(st.integers(0, len(tower) - 1))] = Fraction(0)
    return tower, ell, coords


@given(in_span())
@example(B2_CASE)
@settings(max_examples=100, deadline=None)
def test_coordinates_by_degree_equal_the_frame_solve(case):
    tower, _, coords = case
    target = _radial_sum(tower, coords)
    assert _radial_coordinates(tower, target) == solve_in_frame(tower, target) == coords


@given(in_span(), st.sampled_from(["wrong ratio", "extra degree", "dropped monomial"]), coefficient.filter(bool),
       st.randoms(use_true_random=False))
@example(B2_CASE, "wrong ratio", Fraction(2, 3), random.Random(0))
@settings(max_examples=150, deadline=None)
def test_targets_outside_the_tower_raise_as_the_frame_solve_does(case, kind, delta, random):
    """One monomial of one layer off its ratio, a monomial of a degree no layer has, or one monomial of a
    present layer dropped: both solves refuse with the same exception and message."""
    tower, ell, coords = case
    m = tower[0].m
    layers = [j for j, layer in enumerate(tower) if len(layer.terms) > 1]  # a one-term layer has no ratio to break
    assume(layers)
    j = random.choice(layers)
    e = random.choice(sorted(tower[j].terms))
    target = _radial_sum(tower, coords)
    if kind == "wrong ratio":
        target = target + delta * Polynomial.monomial(m, e)
    elif kind == "extra degree":
        degrees = sorted(set(range(ell + 2 * len(tower) + 1)) - {ell + 2 * i for i in range(len(tower))})
        target = target + delta * Polynomial.monomial(m, random.choice(monomial_basis(m, random.choice(degrees))))
    else:
        coords[j] = delta
        target = _radial_sum(tower, coords)
        target = target - target.coefficient(e) * Polynomial.monomial(m, e)
    assert outcome(_radial_coordinates, tower, target) == outcome(solve_in_frame, tower, target) == NOT_IN_SPAN


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_hermite_records_build_no_frame_factor(name):
    """ch_recursion and ch_rodrigues read their coordinates by degree: no FrameFactor, through hermite or
    through solve_in_frame; the coordinates equal the frame solve's."""
    m, nk, build = SYSTEMS[name]
    ctx = DunklContext(build([Fraction(k + 1, k + 2) for k in range(nk)]))
    harmonics = [h for ell in range(3) for h in harmonic_basis(ctx, ell).elements]
    factored = []
    original = linalg.FrameFactor

    def counting(frame):
        factored.append(len(frame))
        return original(frame)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hermite, "FrameFactor", counting)
        mp.setattr(linalg, "FrameFactor", counting)
        records = [construct(ctx, t, h) for construct in (ch_recursion, ch_rodrigues)
                   for t in range(3) for h in harmonics]
    assert factored == []
    for record in records:
        tower = radial_tower(record.harmonic, record.t)
        assert list(record.radial_coeffs) == solve_in_frame(tower, record.polynomial), (name, record.t)
