"""Root-system validation in integers against the Fraction reference: the same signed index, the same orbits and
the same refusals, message for message, on the roots of z2, a, b, d, a rescaled B2, G2 and F4, rescaled and
reordered, and perturbed to be non-reduced, not closed, to hold a zero root, to mix dimensions or to repeat a
root up to sign."""
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite import groups
from dunkl_hermite.errors import DimensionMismatch, InvalidRootSystem
from dunkl_hermite.groups import builtin_root_system, custom_root_system, orbit_decomposition, root_system_from_json

from reference_groups import orbit_decomposition_reference, validated_orbits_reference
from test_dunkl_map import f4_json, g2_json
from test_orbit_memo import B2_ROOTS

BASES = {
    "z2": builtin_root_system("z2", 3, [1, 1, 1]).positive_roots,
    "a": builtin_root_system("a", 3, [1]).positive_roots,
    "b": builtin_root_system("b", 3, [1, 1]).positive_roots,
    "d": builtin_root_system("d", 4, [1]).positive_roots,
    "B2 rescaled": tuple(tuple(map(Fraction, root)) for root in B2_ROOTS),
    "G2": root_system_from_json(g2_json(1, 1)).positive_roots,
    "F4": root_system_from_json(f4_json(1, 1)).positive_roots,
}
SCALES = [1, -1, 2, Fraction(1, 3), Fraction(-5, 2)]


def integer_validation(m, roots):
    """The signed index and orbits of the roots' geometry, validated in integers."""
    geometry = groups._Geometry(m, roots, groups._validated(m, roots))
    return geometry.index, geometry.orbits


def outcome(run):
    """What run returns, or the type and message of the error it raises."""
    try:
        return run()
    except (InvalidRootSystem, DimensionMismatch) as exc:
        return type(exc), str(exc)


def _edit(roots, kind, at, other, scale):
    """roots with one perturbation: a parallel copy (scale -1 repeats a root up to sign), a zero root, a root of
    another dimension, a vector that is no root (a sum of two roots scaled), or a root dropped."""
    m = len(roots[0])
    root, second = roots[at % len(roots)], roots[other % len(roots)]
    new = {"parallel": tuple(scale * c for c in root), "zero": (Fraction(0),) * m,
           "dimension": root + (Fraction(1),), "foreign": tuple(scale * (a + 2 * b) for a, b in zip(root, second))}
    if kind == "drop":
        return roots[:at % len(roots)] + roots[at % len(roots) + 1:] if len(roots) > 1 else roots
    place = other % (len(roots) + 1)
    return roots[:place] + (new[kind],) + roots[place:]


@st.composite
def perturbed_roots(draw):
    """(m, roots): a base system rescaled root by root and reordered, then up to three perturbations."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=len(base), max_size=len(base)))
    roots = tuple(draw(st.permutations([tuple(s * c for c in root) for root, s in zip(base, scales)])))
    edits = st.tuples(st.sampled_from(["parallel", "zero", "dimension", "foreign", "drop"]),
                      st.integers(0, 30), st.integers(0, 30), st.sampled_from(SCALES))
    for edit in draw(st.lists(edits, max_size=3)):
        roots = _edit(roots, *edit)
    return len(roots[0]), roots


@given(perturbed_roots())
@settings(max_examples=300, deadline=None)
def test_integer_validation_matches_the_fraction_reference(case):
    m, roots = case
    expected = outcome(lambda: validated_orbits_reference(roots, m))
    assert outcome(lambda: integer_validation(m, roots)) == expected
    if not isinstance(expected[0], type):  # a valid system: its orbits by the public closure too
        assert orbit_decomposition(roots) == expected[1]


@given(perturbed_roots())
@settings(max_examples=200, deadline=None)
def test_orbit_decomposition_matches_the_fraction_reference(case):
    """Without validation: non-reduced, unclosed, repeated, zero and mixed-dimension roots alike."""
    _, roots = case
    assert outcome(lambda: orbit_decomposition(roots)) == outcome(lambda: orbit_decomposition_reference(roots))


E1, E2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))


@pytest.mark.parametrize("roots, message", [
    ([E1, (Fraction(-3), Fraction(0))], "not reduced: roots (1, 0) and (-3, 0) are parallel"),
    ([E1, E2, (Fraction(0), Fraction(-1))], "not reduced: roots (0, 1) and (0, -1) are parallel"),
    ([E1, (Fraction(0), Fraction(0))], "zero vector is not a valid root"),
    ([E1, (Fraction(1), Fraction(0), Fraction(0))], "does not have dimension 2"),
    # the image of (1, 0) in (1, 1) is (0, -1), an integer vector that is no root
    ([(Fraction(1), Fraction(1)), E1], "reflecting (1, 0) in (1, 1) gives (0, -1), which is not a root"),
    # the image of (1, 0) in (1, 2) is (3/5, -4/5): <a,a> = 5 divides no entry of 5 b - 2 a
    ([(Fraction(1), Fraction(2)), E1], "reflecting (1, 0) in (1, 2) gives (3/5, -4/5), which is not a root"),
])
def test_each_refusal_matches_the_reference(roots, message):
    expected = outcome(lambda: validated_orbits_reference(roots, 2))
    assert outcome(lambda: integer_validation(2, tuple(roots))) == expected
    with pytest.raises(InvalidRootSystem, match=re.escape(message)):
        custom_root_system(roots, {})
