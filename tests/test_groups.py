"""Root systems: builtin families, validation, orbits, invariants."""
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite import groups
from dunkl_hermite.errors import InvalidRootSystem
from dunkl_hermite.groups import (builtin_root_system, custom_root_system,
                                  orbit_decomposition, reflect_vector, reflection_matrix,
                                  root_system_from_json, trivial_root_system)


def test_mu_values_for_named_groups():
    assert builtin_root_system("z2", 2, [1, 1]).mu == 6
    assert builtin_root_system("a", 3, [1]).mu == 9
    assert builtin_root_system("b", 2, [1, 2]).mu == 14
    assert builtin_root_system("d", 2, [1, 1]).mu == 6
    assert trivial_root_system(4).mu == 4


def test_gamma_sums_over_all_positive_roots():
    system = builtin_root_system("b", 2, [1, 2])
    # two short roots with kappa 1, two long with kappa 2
    assert system.gamma == 6
    assert system.mu == 2 + 2 * 6


def test_z2_orbits_are_separate_axes():
    system = builtin_root_system("z2", 3, [Fraction(1, 2), 0, 2])
    assert system.orbits == ((0,), (1,), (2,))
    assert [system.multiplicities[i] for i in range(3)] == [Fraction(1, 2), 0, 2]


def test_b2_orbit_structure_short_first():
    system = builtin_root_system("b", 2, [1, 2])
    assert system.orbits == ((0, 1), (2, 3))
    assert system.positive_roots[0] == (Fraction(1), Fraction(0))
    assert system.positive_roots[2] == (Fraction(1), Fraction(-1))
    assert system.multiplicities[0] == 1 and system.multiplicities[2] == 2


def test_a_family_single_orbit_ambient_dimension():
    system = builtin_root_system("a", 3, [Fraction(3, 2)])
    assert len(system.positive_roots) == 3
    assert system.orbits == ((0, 1, 2),)
    assert system.mu == 3 + 2 * 3 * Fraction(3, 2)


def test_d_family_orbit_split():
    assert builtin_root_system("d", 2, [1, 1]).orbits == ((0,), (1,))
    assert builtin_root_system("d", 3, [1]).orbits == ((0, 1, 2, 3, 4, 5),)


def test_builtin_rejects_negative_multiplicity():
    with pytest.raises(InvalidRootSystem) as info:
        builtin_root_system("z2", 1, [Fraction(-1, 2)])
    assert "nonnegative" in str(info.value)


def test_custom_system_without_roots_needs_trivial_root_system():
    with pytest.raises(InvalidRootSystem) as info:
        custom_root_system([], {})
    assert "trivial_root_system" in str(info.value)


def test_builtin_rejects_wrong_arity():
    with pytest.raises(InvalidRootSystem):
        builtin_root_system("b", 2, [1])


@pytest.mark.parametrize("kappas", [(1, Fraction(1, 2)), (Fraction(7, 3), 0)])
def test_cached_builtin_geometry_equals_a_custom_system(kappas):
    system = builtin_root_system("b", 3, kappas)
    roots = system.positive_roots  # e_1, e_2, e_3 (short orbit), then e_i -+ e_j
    custom = custom_root_system(roots, {roots[0]: kappas[0], roots[3]: kappas[1]})
    assert system == custom
    # validated once per process: every b3 system, and a custom one with its roots, holds the pinned geometry
    assert custom._geometry is system._geometry is groups._builtin_geometry("b", 3)
    assert builtin_root_system("b", 3, [2, 3]).positive_roots is roots


@pytest.mark.parametrize("family, valid, kappas, message", [
    ("b", [1, 1], [1], "has 2 orbits, got 1"),
    ("b", [1, 1], [1, Fraction(-1, 2)], "nonnegative"),
    ("trivial", [], [1], "takes no multiplicities"),
])
def test_kappa_checks_run_after_a_cached_success(family, valid, kappas, message):
    builtin_root_system(family, 3, valid)
    for _ in range(2):
        with pytest.raises(InvalidRootSystem, match=message):
            builtin_root_system(family, 3, kappas)


def test_custom_system_allows_negative_multiplicity():
    system = custom_root_system([(Fraction(1),)], {(Fraction(1),): Fraction(-3, 2)})
    assert system.mu == -2


def test_not_reduced_message():
    with pytest.raises(InvalidRootSystem) as info:
        custom_root_system([(Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))],
                           {(Fraction(1), Fraction(0)): 1, (Fraction(2), Fraction(0)): 1})
    assert "not reduced" in str(info.value)
    assert "parallel" in str(info.value)


def test_not_closed_message():
    # e1 and e1 - e2 alone: reflecting one in the other leaves the set, on every call
    roots = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(-1))]
    for _ in range(2):
        with pytest.raises(InvalidRootSystem) as info:
            custom_root_system(roots, {root: 1 for root in roots})
        assert "not closed" in str(info.value)


def test_orbit_constant_multiplicity_enforced():
    roots = [(Fraction(1), Fraction(-1)), (Fraction(1), Fraction(0)),
             (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
    values = {roots[0]: 2, roots[1]: 1, roots[2]: 3, roots[3]: 2}
    with pytest.raises(InvalidRootSystem) as info:
        custom_root_system(roots, values)
    assert "orbit-constant" in str(info.value)


def test_unknown_multiplicity_key_named():
    with pytest.raises(InvalidRootSystem) as info:
        custom_root_system([(Fraction(1),)], {(Fraction(2),): 1})
    assert "not a root" in str(info.value)


def test_reflection_matrix_involution():
    alpha = (Fraction(3), Fraction(-1))
    r = reflection_matrix(alpha)
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(2)) for i in range(2))
    product = tuple(tuple(sum(r[i][k] * r[k][j] for k in range(2)) for j in range(2))
                    for i in range(2))
    assert product == identity
    assert reflect_vector(alpha, alpha) == (Fraction(-3), Fraction(1))


@given(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6))
@settings(max_examples=20, deadline=None)
def test_reflection_scale_invariance(scale):
    alpha = (Fraction(2), Fraction(-3))
    scaled = tuple(scale * a for a in alpha)
    assert reflection_matrix(alpha) == reflection_matrix(scaled)


def test_orbit_decomposition_square_symmetry():
    roots = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
             (Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1)))
    assert orbit_decomposition(roots) == ((0, 1), (2, 3))


def test_json_round_trip():
    system = builtin_root_system("b", 2, [Fraction(1, 2), 2])
    data = system.to_json()
    assert data["multiplicities"][0]["kappa"] == "1/2"
    rebuilt = root_system_from_json(data)
    assert rebuilt.positive_roots == system.positive_roots
    assert rebuilt.multiplicities == system.multiplicities
    assert rebuilt.mu == system.mu


def test_from_json_rejects_missing_orbit():
    data = {"m": 2,
            "positive_roots": [["1", "0"], ["0", "1"]],
            "multiplicities": [{"orbit_rep": ["1", "0"], "kappa": "1"}]}
    with pytest.raises(InvalidRootSystem) as info:
        root_system_from_json(data)
    assert "missing multiplicity" in str(info.value)


def test_orbit_decomposition_rejects_a_zero_root():
    with pytest.raises(InvalidRootSystem, match="zero vector is not a valid root"):
        orbit_decomposition([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))])


def test_orbit_decomposition_reads_lists_like_tuples():
    roots = [[1, 0], [0, 1], [1, -1], [1, 1]]
    assert orbit_decomposition(roots) == orbit_decomposition([tuple(r) for r in roots]) == ((0, 1), (2, 3))


def _reflect(alpha, v):
    factor = 2 * sum(a * x for a, x in zip(alpha, v)) / sum(a * a for a in alpha)
    return tuple(x - factor * a for x, a in zip(v, alpha))


def _union_find_orbits(roots):
    """Union-find over every (root j, its reflection in root i) found up to sign: a reference for the closure."""
    index = {v: i for i, root in enumerate(roots) for v in (root, tuple(-c for c in root))}
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for alpha in roots:
        for j, beta in enumerate(roots):
            k = index.get(_reflect(alpha, beta))
            if k is not None:
                ri, rj = find(j), find(k)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(roots)):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(groups[r]) for r in sorted(groups))


def _positive_roots(text_rows):
    return [tuple(Fraction(c) for c in row) for row in text_rows]


# G2 in the sum-zero plane of R^3; F4 and B4 in R^4.
_UNIT4 = [tuple(int(i == j) for j in range(4)) for i in range(4)]
_LONG4 = [tuple(1 if k == i else s if k == j else 0 for k in range(4))
          for i in range(4) for j in range(i + 1, 4) for s in (1, -1)]
ORBIT_SYSTEMS = {
    "G2": _positive_roots([(1, -1, 0), (1, 0, -1), (0, 1, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)]),
    "F4": _positive_roots(_UNIT4 + _LONG4 + [("1/2",) + tuple(f"{s}/2" for s in signs)
                                             for signs in itertools.product((1, -1), repeat=3)]),
    "B4": _positive_roots(_UNIT4 + _LONG4),
}


@st.composite
def root_subsets(draw):
    """A subset of G2, F4 or B4 roots in any order, some rescaled, sign-flipped or repeated: closed or not."""
    base = ORBIT_SYSTEMS[draw(st.sampled_from(sorted(ORBIT_SYSTEMS)))]
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                    st.sampled_from([1, -1, 2, Fraction(-1, 3)])), max_size=len(base) + 4))
    return [tuple(scale * c for c in base[i]) for i, scale in picks]


@given(root_subsets())
@settings(max_examples=60, deadline=None)
def test_orbit_closure_matches_union_find(roots):
    assert orbit_decomposition(roots) == _union_find_orbits(roots)


def test_orbit_closure_matches_union_find_on_whole_systems():
    for roots in ORBIT_SYSTEMS.values():
        assert orbit_decomposition(roots) == _union_find_orbits(roots)
    assert orbit_decomposition(ORBIT_SYSTEMS["F4"]) == (tuple(range(4)) + tuple(range(16, 24)), tuple(range(4, 16)))


def _first_parallel_pair(roots):
    """The pairwise scan: the first (i, j), i < j, whose 2x2 minors all vanish."""
    for i, j in itertools.combinations(range(len(roots)), 2):
        u, v = roots[i], roots[j]
        if all(u[a] * v[b] == u[b] * v[a] for a, b in itertools.combinations(range(len(u)), 2)):
            return i, j
    return None


def _fmt(root):
    return "(" + ", ".join(str(Fraction(c)) for c in root) + ")"


@given(st.lists(st.tuples(st.sampled_from([(1, 0, 0), (0, 1, 0), (1, -1, 0), (1, 1, 2), (0, 3, -1)]),
                          st.sampled_from([1, -1, 2, Fraction(1, 2)])), min_size=2, max_size=8))
@settings(max_examples=80, deadline=None)
def test_not_reduced_names_the_first_pair_of_the_pairwise_scan(picks):
    roots = [tuple(scale * c for c in root) for root, scale in picks]
    pair = _first_parallel_pair(roots)
    if pair is None:
        return
    message = f"roots {_fmt(roots[pair[0]])} and {_fmt(roots[pair[1]])} are parallel"
    with pytest.raises(InvalidRootSystem, match=re.escape(message)):
        custom_root_system(roots, {})


def test_not_reduced_names_the_smallest_pair_not_the_first_repeat():
    with pytest.raises(InvalidRootSystem, match=re.escape("roots (1, 0) and (2, 0) are parallel")):
        custom_root_system([(1, 0), (0, 1), (0, 2), (2, 0)], {})


@pytest.mark.parametrize("roots, message", [
    ([(1, 0), (2, 0), (1, 0, 0)], "does not have dimension 2"),
    ([(1, 0), (2, 0), (0, 0)], "zero vector is not a valid root"),
    ([(1, 0), (1, -1), (2, 0)], "not reduced"),  # also not closed
])
def test_validation_order_dimension_then_reducedness_then_closure(roots, message):
    with pytest.raises(InvalidRootSystem, match=message):
        custom_root_system(roots, {})
