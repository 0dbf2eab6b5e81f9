"""The orbit entries: the kappa-free pieces S_(O,i) x^e = sum over the roots alpha of an orbit O of
alpha_i d_alpha x^e and L_O x^e = sum_i (d_i S_(O,i) + S_(O,i) d_i) x^e, kept in the geometry of O's roots and
shared by every context whose root system has that orbit, whatever its kappa.  Contexts with independent
multiplicities, filled one after another or interleaved, against the whole-polynomial reference and the sum of
squared Dunkl operators; the identity that makes the Laplacian affine in kappa; the entries the geometries keep;
and no entry left behind by an injected substitution."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite import groups, operators
from dunkl_hermite.errors import InexactDivision
from dunkl_hermite.groups import builtin_root_system, custom_root_system, root_system_from_json
from dunkl_hermite.operators import DunklContext, dunkl_derivative, dunkl_laplacian
from dunkl_hermite.poly import Polynomial, monomial_basis

from reference_operators import dunkl_derivative_reference, dunkl_laplacian_reference
from test_dunkl_map import E1, SWAP, entries, f4_json, g2_json, inject_substitution, private_registry

HALF = Fraction(5, 7)
B2_ROOTS = [(Fraction(1, 3), 0), (0, Fraction(1, 3)), (HALF, HALF), (HALF, -HALF)]  # norms 1/9 and 50/49

# name -> a system of the geometry; with_kappas gives it any rational kappa per orbit
GEOMETRIES = {
    "z2^2": builtin_root_system("z2", 2, [1, 1]),
    "a3": builtin_root_system("a", 3, [1]),
    "b3": builtin_root_system("b", 3, [1, 1]),
    "d4": builtin_root_system("d", 4, [1]),
    "B2 rescaled": custom_root_system(B2_ROOTS, [(B2_ROOTS[0], 1), (B2_ROOTS[2], 1)]),
    "G2": root_system_from_json(g2_json(1, 1)),
    "F4": root_system_from_json(f4_json(1, 1)),
}


def with_kappas(system, kappas):
    """The system's roots with one kappa per orbit, in orbit order; builtin families refuse a negative one."""
    roots = system.positive_roots
    return custom_root_system(roots, [(roots[orbit[0]], k) for orbit, k in zip(system.orbits, kappas)])


def rebuilt(system):
    """The system again, from its roots and kappas: in a private registry, on a fresh geometry."""
    return with_kappas(system, [system.multiplicities[orbit[0]] for orbit in system.orbits])


def reference_images(ctx, x):
    """[T_0 x, ..., T_(m-1) x] and Delta x from the whole-polynomial reference."""
    first = [dunkl_derivative_reference(ctx, i, x) for i in range(ctx.m)]
    return first, sum((dunkl_derivative_reference(ctx, i, p) for i, p in enumerate(first)), Polynomial.zero(ctx.m))


def images(ctx, x):
    return [dunkl_derivative(ctx, i, x) for i in range(ctx.m)], dunkl_laplacian(ctx, x)


kappa = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=6))


def exponents(m, max_degree=4):
    return st.lists(st.integers(0, m - 1), max_size=max_degree).map(lambda axes: tuple(axes.count(i) for i in range(m)))


@st.composite
def shared_geometry(draw):
    """A geometry, two or three kappa draws (a zero on some orbit among them), monomials up to degree 4, and
    whether the contexts are filled one after another or interleaved."""
    name = draw(st.sampled_from(sorted(GEOMETRIES)))
    system = GEOMETRIES[name]
    orbits = len(system.orbits)
    draws = draw(st.lists(st.lists(kappa, min_size=orbits, max_size=orbits), min_size=2, max_size=3))
    draws[0][draw(st.integers(0, orbits - 1))] = Fraction(0)
    monomials = draw(st.lists(exponents(system.m), min_size=1, max_size=3, unique=True))
    return name, [with_kappas(system, k) for k in draws], monomials, draw(st.booleans())


@given(shared_geometry())
@settings(max_examples=60, deadline=None)
def test_contexts_sharing_orbits_equal_the_reference(case):
    name, systems, monomials, interleaved = case
    contexts = [DunklContext(system) for system in systems]
    xs = [Polynomial.monomial(systems[0].m, e) for e in monomials]
    pairs = [(c, j) for j in range(len(xs)) for c in range(len(contexts))]
    filled = {(c, j): images(contexts[c], xs[j]) for c, j in (pairs if interleaved else sorted(pairs))}
    for (c, j), found in filled.items():
        assert found == reference_images(contexts[c], xs[j]), (name, systems[c], monomials[j])
    with pytest.MonkeyPatch.context() as patch:
        private_registry(patch)
        fresh = [DunklContext(rebuilt(system)) for system in systems]
        assert fresh[0].root_system._geometry is not contexts[0].root_system._geometry
        for (c, j), found in filled.items():
            assert images(fresh[c], xs[j]) == found, (name, systems[c], monomials[j])


@given(shared_geometry())
@settings(max_examples=60, deadline=None)
def test_laplacians_from_the_orbits_equal_the_sum_of_squared_dunkl_operators(case):
    """Delta_kappa x^e from the classical Delta x^e and kappa_O L_O x^e, filled before any T_i, equals sum_i T_i T_i
    x^e exactly, and so does a fresh context's on a fresh geometry."""
    name, systems, monomials, interleaved = case
    contexts = [DunklContext(system) for system in systems]
    xs = [Polynomial.monomial(systems[0].m, e) for e in monomials]
    pairs = [(c, j) for j in range(len(xs)) for c in range(len(contexts))]
    filled = {(c, j): dunkl_laplacian(contexts[c], xs[j]) for c, j in (pairs if interleaved else sorted(pairs))}
    assert not any(ctx._images for ctx in contexts)  # the Laplacian reads no T_i
    for (c, j), found in filled.items():
        assert found == dunkl_laplacian_reference(contexts[c], xs[j]), (name, systems[c], monomials[j])
    with pytest.MonkeyPatch.context() as patch:
        private_registry(patch)
        fresh = [DunklContext(rebuilt(system)) for system in systems]
        assert fresh[0].root_system._geometry is not contexts[0].root_system._geometry
        for (c, j), found in (reversed(filled.items()) if interleaved else filled.items()):
            assert dunkl_laplacian(fresh[c], xs[j]) == found, (name, systems[c], monomials[j])


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_the_kappa_quadratic_part_of_the_laplacian_vanishes(name):
    """sum_i S_(O,i) S_(O,i) x^e = 0, and sum_i (S_(O,i) S_(O',i) + S_(O',i) S_(O,i)) x^e = 0 for O != O', on every
    monomial up to degree 4: the coefficients of kappa_O^2 and kappa_O kappa_O' in sum_i T_i T_i, so the Laplacian
    is affine in kappa.  S_(O,i) f is the whole-polynomial T_i f less d_i f with kappa 1 on O and 0 elsewhere."""
    system = GEOMETRIES[name]
    m, orbits = system.m, len(system.orbits)
    contexts = [DunklContext(with_kappas(system, [int(o == p) for p in range(orbits)])) for o in range(orbits)]

    def s(o, i, f):
        return dunkl_derivative_reference(contexts[o], i, f) - f.derivative(i)
    for d in range(5):
        for e in monomial_basis(m, d):
            x = Polynomial.monomial(m, e)
            firsts = [[s(o, i, x) for i in range(m)] for o in range(orbits)]
            for o in range(orbits):
                for p in range(o, orbits):
                    assert not sum((s(o, i, firsts[p][i]) + s(p, i, firsts[o][i]) for i in range(m)),
                                   Polynomial.zero(m)), (name, e, o, p)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_a_second_context_runs_no_leibniz_chain(monkeypatch, name):
    """Nor does it fill an L_O: a context of a geometry whose orbits another context filled reads both maps."""
    calls, fills = [], []
    chain, laplacian = operators._leibniz_chain, operators._orbit_laplacian
    monkeypatch.setattr(operators, "_leibniz_chain", lambda *args: calls.append(1) or chain(*args))
    monkeypatch.setattr(operators, "_orbit_laplacian", lambda *args: fills.append(1) or laplacian(*args))
    private_registry(monkeypatch)
    system = GEOMETRIES[name]
    xs = [Polynomial.monomial(system.m, e) for d in range(4) for e in monomial_basis(system.m, d)]
    counts = []
    for kappas in ([Fraction(1, 2), 2], [Fraction(-3, 4), Fraction(5, 3)]):
        ctx = DunklContext(with_kappas(system, kappas[:len(system.orbits)]))
        calls.clear()
        fills.clear()
        for x in xs:
            images(ctx, x)
        counts.append((len(calls), len(fills)))
    assert counts[0][0] > 0 and counts[0][1] == len(xs) * len(system.orbits) and counts[1] == (0, 0), (name, counts)


def test_b3_draws_share_two_entries_and_d3_reads_the_long_one(monkeypatch):
    """Twenty B3 draws read the same two orbit entries, kept in the geometries of B3's two orbits beside one
    set-up entry per root.  D3's roots are B3's long orbit, so D3 reads that entry and adds no geometry."""
    private_registry(monkeypatch)
    xs = [Polynomial.monomial(3, e) for d in range(3) for e in monomial_basis(3, d)]
    read = set()
    for n in range(20):
        b3 = DunklContext(builtin_root_system("b", 3, [Fraction(n + 1, 3), Fraction(7, n + 2)]))
        for x in xs:
            images(b3, x)
        read.update(id(geometry.entry) for _, geometry in b3._orbits)

    def kept():
        return sorted(len(geometry.roots) for geometry in groups._GEOMETRIES.values() if geometry.entry)
    assert len(read) == 2 and len(groups._GEOMETRIES) == 12 and kept() == [1] * 9 + [3, 6]
    d3 = DunklContext(builtin_root_system("d", 3, [Fraction(2, 5)]))
    assert images(d3, xs[-1]) == reference_images(d3, xs[-1])
    assert len(groups._GEOMETRIES) == 12 and kept() == [1] * 9 + [3, 6]
    assert d3._orbits[0][1] is b3._orbits[1][1] and d3._orbits[0][1].entry is b3._orbits[1][1].entry is not None
    assert d3.root_system._geometry is b3.root_system._geometry.part(b3.root_system.orbits[1])


@pytest.mark.parametrize("substitution, raises", [(SWAP, True), (((1, 0), (0, 1)), False)])
def test_an_injected_substitution_leaves_no_entry_behind(monkeypatch, substitution, raises):
    """The swap is refused and keeps no entry; the identity divides every difference, which is 0, and fills a wrong
    entry under e_1's roots, in a geometry that dies with the injection.  Either way a fresh context of the roots,
    after the injection, equals the reference."""
    def system():
        return builtin_root_system("z2", 2, [Fraction(3, 2), Fraction(2, 3)])
    x = Polynomial.monomial(2, (3, 1))
    true = reference_images(DunklContext(system()), x)
    with monkeypatch.context() as patch:
        inject_substitution(patch, E1, tuple(tuple(map(Fraction, row)) for row in substitution))
        injected = DunklContext(system())
        if raises:
            with pytest.raises(InexactDivision):
                images(injected, x)
            assert entries(groups._GEOMETRIES) == []
        else:
            assert images(injected, x) == reference_images(injected, x) != true
    fresh = DunklContext(system())
    assert fresh.root_system._geometry is not injected.root_system._geometry
    for d in range(5):
        for e in monomial_basis(2, d):
            y = Polynomial.monomial(2, e)
            assert images(fresh, y) == reference_images(fresh, y), e
    assert images(fresh, x) == true
