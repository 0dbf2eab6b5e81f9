"""The lifetime of the kappa-free geometries: one per distinct (m, root tuple) in a weak-valued registry, alive while
a root system, or a geometry that holds it as an orbit or a root, holds it, and validated once while it lives;
the builtin ones are kept for the process."""
import gc
import weakref
from fractions import Fraction

from dunkl_hermite import groups
from dunkl_hermite.groups import builtin_root_system, custom_root_system, root_system_from_json
from dunkl_hermite.operators import DunklContext, dunkl_derivative, dunkl_laplacian
from dunkl_hermite.poly import Polynomial, monomial_basis

from test_dunkl_map import Marker, f4_json, g2_json, private_registry


def fill(ctx, degree=3):
    """T_i x^e and Delta x^e for every monomial up to the degree."""
    for d in range(degree + 1):
        for e in monomial_basis(ctx.m, d):
            x = Polynomial.monomial(ctx.m, e)
            for i in range(ctx.m):
                dunkl_derivative(ctx, i, x)
            dunkl_laplacian(ctx, x)


def _filled_custom_g2():
    """Weak references to a filled custom G2's geometry, to the geometries of its orbits and roots and to markers in
    its orbit entries' S and L maps, and the registry keys of those geometries; nothing else stays alive."""
    roots = [tuple(Fraction(2, 11) * c for c in root) for root in root_system_from_json(g2_json(1, 1)).positive_roots]
    system = custom_root_system(roots, [(roots[0], Fraction(1, 2)), (roots[3], 3)])
    ctx = DunklContext(system)
    fill(ctx)
    geometry = system._geometry
    parts = [geometry.part(orbit) for orbit in geometry.orbits] + [geometry.part((r,)) for r in range(len(roots))]
    markers = [Marker() for _ in range(4)]
    for (_, part), marks in zip(ctx._orbits, (markers[:2], markers[2:])):
        entry = part.entry
        assert entry.blocks and entry.laplacians
        entry.blocks[-1], entry.laplacians[-1] = marks
    return [weakref.ref(obj) for obj in (geometry, *parts, *markers)], [(3, g.roots) for g in (geometry, *parts)]


def test_a_dropped_custom_system_frees_its_geometry_its_orbit_entries_and_their_maps():
    refs, keys = _filled_custom_g2()
    gc.collect()
    assert len(refs) == 1 + 2 + 6 + 4 and all(ref() is None for ref in refs)
    assert not any(key in groups._GEOMETRIES for key in keys)


def test_two_thousand_dropped_systems_leave_the_registry_as_it_was():
    """e_1 scaled by k/7: 2,000 distinct root sets, each with a filled context, freed as each is dropped (no cycle
    holds a geometry, so no collection is needed)."""
    before = len(groups._GEOMETRIES)
    x = Polynomial.monomial(1, (3,))
    for k in range(1, 2001):
        root = (Fraction(k, 7),)
        ctx = DunklContext(custom_root_system([root], [(root, Fraction(1, k))]))
        dunkl_derivative(ctx, 0, x)
        dunkl_laplacian(ctx, x)
        assert ctx._orbits[0][1].entry.blocks and ctx._orbits[0][1].entry.laplacians
        assert len(groups._GEOMETRIES) <= before + 2
    del ctx
    assert len(groups._GEOMETRIES) == before


def test_a_second_load_of_live_roots_runs_no_validation_and_shares_the_geometry(monkeypatch):
    private_registry(monkeypatch)
    calls = []
    validated = groups._validated
    monkeypatch.setattr(groups, "_validated", lambda m, roots: calls.append(len(roots)) or validated(m, roots))
    first = root_system_from_json(f4_json(Fraction(1, 3), 2))
    assert calls == [24]
    second = root_system_from_json(f4_json(5, Fraction(-7, 4)))
    assert calls == [24] and second._geometry is first._geometry and second != first
    # the first context makes the geometries of F4's two orbits and 24 roots, parts of a valid system: no check
    fill(DunklContext(second), 1)
    fill(DunklContext(first), 1)
    assert calls == [24] and len(groups._GEOMETRIES) == 1 + 2 + 24
    del first, second
    gc.collect()
    assert len(groups._GEOMETRIES) == 0
    root_system_from_json(f4_json(1, 1))  # nothing holds the roots any more: validated again
    assert calls == [24, 24]


def test_builtin_geometries_survive_collection_with_their_entries():
    ctx = DunklContext(builtin_root_system("b", 3, [Fraction(1, 2), 3]))
    fill(ctx, 2)
    geometry = weakref.ref(ctx.root_system._geometry)
    entries = [id(part.entry) for _, part in ctx._orbits]
    del ctx
    gc.collect()
    assert geometry() is groups._builtin_geometry("b", 3) is groups._GEOMETRIES[3, geometry().roots]
    again = DunklContext(builtin_root_system("b", 3, [2, Fraction(1, 5)]))
    assert again.root_system._geometry is geometry()
    fill(again, 0)
    assert [id(part.entry) for _, part in again._orbits] == entries
    assert all(part.entry.blocks for _, part in again._orbits)
