"""Root systems: builtin families, validation, orbits, invariants."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert system == custom_root_system(roots, {roots[0]: kappas[0], roots[3]: kappas[1]})
    assert builtin_root_system("b", 3, [2, 3]).positive_roots is roots  # validated once per process


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
