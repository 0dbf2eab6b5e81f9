"""The memoized Dunkl map of a context against the per-polynomial reference,
against an independent sympy oracle, and its lifetime."""
import gc
import itertools
import weakref
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_hermite import groups, operators
from dunkl_hermite.errors import InexactDivision
from dunkl_hermite.groups import builtin_root_system, custom_root_system, root_system_from_json, trivial_root_system
from dunkl_hermite.hermite import harmonic_basis
from dunkl_hermite.operators import DunklContext, dunkl_derivative, dunkl_laplacian
from dunkl_hermite.poly import Polynomial, _units

from reference_operators import dunkl_derivative_reference


def g2_json(short, long_):
    """G2 in the sum-zero plane of R^3: short roots e_i - e_j, long roots 2e_i - e_j - e_k."""
    roots = [(1, -1, 0), (1, 0, -1), (0, 1, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
    return {"m": 3, "positive_roots": [[str(c) for c in r] for r in roots],
            "multiplicities": [{"orbit_rep": ["1", "-1", "0"], "kappa": str(short)},
                               {"orbit_rep": ["2", "-1", "-1"], "kappa": str(long_)}]}


def f4_json(short, long_):
    """F4 in R^4: short roots e_i and (1/2)(1, +-1, +-1, +-1), long roots e_i +- e_j."""
    roots = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)]
    roots += [tuple(Fraction(1 if k == i else s if k == j else 0) for k in range(4))
              for i in range(4) for j in range(i + 1, 4) for s in (1, -1)]
    roots += [(Fraction(1, 2),) + tuple(Fraction(s, 2) for s in signs)
              for signs in itertools.product((1, -1), repeat=3)]
    return {"m": 4, "positive_roots": [[str(c) for c in r] for r in roots],
            "multiplicities": [{"orbit_rep": ["1", "0", "0", "0"], "kappa": str(short)},
                               {"orbit_rep": ["1", "1", "0", "0"], "kappa": str(long_)}]}


# name -> (dimension, number of kappas, builder from the kappas)
SYSTEMS = {
    "z2^2": (2, 2, lambda k: builtin_root_system("z2", 2, k)),
    "a3": (3, 1, lambda k: builtin_root_system("a", 3, k)),
    "b3": (3, 2, lambda k: builtin_root_system("b", 3, k)),
    "d4": (4, 1, lambda k: builtin_root_system("d", 4, k)),
    "trivial3": (3, 0, lambda k: trivial_root_system(3)),
    "G2": (3, 2, lambda k: root_system_from_json(g2_json(*k))),
    "F4": (4, 2, lambda k: root_system_from_json(f4_json(*k))),
}


class Pinned:
    """A stand-in for st.data() in an @example: draw(strategy, label) returns the value pinned for the label, so a
    hypothesis property also runs on fixed inputs, first, and a wrong operator fails before any search or shrink."""

    def __init__(self, values: dict):
        self.values = values

    def draw(self, strategy, label):
        return self.values[label]


kappa = st.fractions(min_value=0, max_value=3, max_denominator=5)
coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def polynomials(m, max_degree=4, max_terms=4):
    """Random polynomials of total degree <= max_degree; an exponent counts the drawn axes."""
    exponent = st.lists(st.integers(0, m - 1), max_size=max_degree).map(
        lambda axes: tuple(axes.count(i) for i in range(m)))
    return st.dictionaries(exponent, coefficient, max_size=max_terms).map(lambda t: Polynomial(m, t))


@st.composite
def system_and_polynomials(draw):
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    m, nk, build = SYSTEMS[name]
    kappas = draw(st.lists(kappa, min_size=nk, max_size=nk))
    return name, build(kappas), draw(polynomials(m)), draw(polynomials(m))


def pinned_case(name):
    """An @example case: name's system in m = 3 at kappas 1/2, 3/4, an f with a term in each degree 0-4, and a g
    that shares two of f's monomials, so that f + g reads images that f and g filled."""
    f = Polynomial(3, {(0, 0, 0): 2, (1, 0, 0): Fraction(-3, 2), (0, 1, 1): Fraction(1, 3), (2, 0, 1): Fraction(-5, 7),
                       (3, 1, 0): Fraction(4, 5)})
    g = Polynomial(3, {(0, 0, 0): 5, (0, 1, 1): Fraction(2, 3), (0, 0, 4): Fraction(1, 7)})
    return name, SYSTEMS[name][2]([Fraction(1, 2), Fraction(3, 4)]), f, g


@given(system_and_polynomials())
@example(case=pinned_case("b3"))
@example(case=pinned_case("G2"))
@settings(max_examples=60, deadline=None)
def test_memoized_map_equals_the_reference(case):
    name, system, f, g = case
    ctx = DunklContext(system)
    for p in (f, g, f + g):  # the later inputs reuse images the earlier ones filled
        for i in range(ctx.m):
            assert dunkl_derivative(ctx, i, p) == dunkl_derivative_reference(ctx, i, p), (name, i, p)
        expected = Polynomial.zero(ctx.m)
        for i in range(ctx.m):
            expected = expected + dunkl_derivative_reference(
                ctx, i, dunkl_derivative_reference(ctx, i, p))
        assert dunkl_laplacian(ctx, p) == expected, (name, p)


def is_signed_permutation(matrix) -> bool:
    """Every row has one nonzero entry, +1 or -1, and no two rows share its column."""
    support = [[(k, c) for k, c in enumerate(row) if c] for row in matrix]
    return (all(len(row) == 1 and row[0][1] in (1, -1) for row in support)
            and len({row[0][0] for row in support}) == len(support))


def set_up_matrices(ctx):
    """Per root, in root order, the substitution that the chain set-up of the root's orbit entry holds: (s R) / s."""
    system, units = ctx.root_system, _units(ctx.m)
    matrices = {}
    for orbit in system.orbits:
        chains = operators._orbit_entry(system._geometry.part(orbit)).chains
        for i, (s, rows, *_) in zip(orbit, chains):
            matrices[i] = tuple(tuple(Fraction(dict(row).get(unit, 0), s) for unit in units) for row in rows)
    return [matrices[i] for i in range(len(matrices))]


def test_generic_reflections_are_classified():
    """G2: the three short reflections swap coordinates; F4: the 8 half-integer ones are generic."""
    for data, expected in ((g2_json(1, 1), [True] * 3 + [False] * 3),
                           (f4_json(1, 1), [True] * 16 + [False] * 8)):
        ctx = DunklContext(root_system_from_json(data))
        assert [is_signed_permutation(refl) for refl in ctx.reflections] == expected
        assert set_up_matrices(ctx) == list(ctx.reflections)


E1 = (Fraction(1), Fraction(0))
SWAP = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def private_registry(monkeypatch):
    """An empty geometry registry and builtin pin in place of the process's until the test ends: every root system
    built meanwhile gets a geometry validated and set up afresh, and none of them outlives the test."""
    monkeypatch.setattr(groups, "_GEOMETRIES", weakref.WeakValueDictionary())
    monkeypatch.setattr(groups, "_builtin_geometry", lru_cache(maxsize=None)(groups._builtin_geometry.__wrapped__))


def inject_substitution(monkeypatch, alpha, matrix):
    """Hand matrix to the chain set-up as alpha's reflection, through groups.reflection_matrix, in a private
    registry until the test ends: a system built meanwhile has fresh geometries, and no entry built from the
    substitution outlives the test.  Its context holds matrix in its reflections too, so the reference reads it
    as well."""
    true = groups.reflection_matrix
    monkeypatch.setattr(groups, "reflection_matrix", lambda root: matrix if root == alpha else true(root))
    private_registry(monkeypatch)


def entries(registry):
    """The entries kept in the geometries of a registry."""
    return [geometry.entry for geometry in registry.values() if geometry.entry is not None]


def test_inexact_division_still_raises(monkeypatch):
    """A substitution that is not the root's reflection leaves a remainder, and the refused set-up keeps no entry
    in any geometry."""
    inject_substitution(monkeypatch, E1, SWAP)
    ctx = DunklContext(builtin_root_system("z2", 2, [1, 1]))
    with pytest.raises(InexactDivision):
        dunkl_derivative(ctx, 0, Polynomial.variable(2, 0))
    assert not ctx._images and len(groups._GEOMETRIES) == 3 and entries(groups._GEOMETRIES) == []


# -- independent oracle: sympy only, no package code -----------------------------

B2_ROOTS = [((1, 0), 0), ((0, 1), 0), ((1, -1), 1), ((1, 1), 1)]  # (root, orbit)
G2_ROOTS = [((1, -1, 0), 0), ((1, 0, -1), 0), ((0, 1, -1), 0),
            ((2, -1, -1), 1), ((-1, 2, -1), 1), ((-1, -1, 2), 1)]


def sympy_dunkl(sp, xs, roots, kappas, axis, f):
    """d f / dx_axis + sum kappa_alpha alpha_axis cancel((f - f(r_alpha x)) / <alpha, x>)."""
    out = sp.diff(f, xs[axis])
    for alpha, orbit in roots:
        alpha = [sp.Integer(a) for a in alpha]
        pairing = sum(a * x for a, x in zip(alpha, xs))
        norm = sum(a * a for a in alpha)
        reflected = {x: x - 2 * pairing / norm * a for x, a in zip(xs, alpha)}
        quotient = sp.cancel((f - f.subs(reflected, simultaneous=True)) / pairing)
        out += kappas[orbit] * alpha[axis] * quotient
    return sp.expand(out)


# one input per system, run before any drawn one: kappas 1/2, 3/4 and a term in each degree 1-4
SYMPY_PINNED = Pinned({
    "b2 kappas": [Fraction(1, 2), Fraction(3, 4)],
    "b2 p": Polynomial(2, {(1, 0): 2, (1, 1): Fraction(-3, 2), (2, 1): Fraction(1, 3), (3, 1): Fraction(-5, 7)}),
    "G2 kappas": [Fraction(1, 2), Fraction(3, 4)],
    "G2 p": Polynomial(3, {(1, 0, 0): 2, (0, 1, 1): Fraction(-3, 2), (2, 0, 1): Fraction(1, 3),
                           (3, 1, 0): Fraction(-5, 7)}),
})


@pytest.mark.parametrize("name, roots, build", [
    ("b2", B2_ROOTS, lambda k: builtin_root_system("b", 2, k)),
    ("G2", G2_ROOTS, lambda k: root_system_from_json(g2_json(*k))),
])
@given(data=st.data())
@example(data=SYMPY_PINNED)
@settings(max_examples=10, deadline=None)
def test_dunkl_derivative_matches_sympy(name, roots, build, data):
    sp = pytest.importorskip("sympy")
    m = len(roots[0][0])
    kappas = data.draw(st.lists(kappa, min_size=2, max_size=2), label=f"{name} kappas")
    p = data.draw(polynomials(m), label=f"{name} p")
    ctx = DunklContext(build(kappas))
    xs = sp.symbols(f"x1:{m + 1}")
    f = sum((sp.Rational(c.numerator, c.denominator) * sp.prod([x ** n for x, n in zip(xs, e)])
             for e, c in p.terms.items()), sp.Integer(0))
    sp_kappas = [sp.Rational(k.numerator, k.denominator) for k in kappas]
    for axis in range(m):
        expected = sympy_dunkl(sp, xs, roots, sp_kappas, axis, f)
        got = dunkl_derivative(ctx, axis, p)
        terms = sp.Poly(expected, *xs).as_dict() if expected != 0 else {}
        assert {e: Fraction(int(c.p), int(c.q)) for e, c in terms.items()} == dict(got.terms), (name, axis)


@contextmanager
def collector_off():
    """The cycle collector disabled until the block ends: what is freed meanwhile is freed by reference counts."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Marker:
    """A stand-in put into a memo under a key no monomial has: it dies with the memo."""


def custom_g2(scale):
    """G2's roots times scale, as a custom system: its geometry lives only while the system does."""
    roots = [tuple(scale * c for c in root) for root in root_system_from_json(g2_json(1, 1)).positive_roots]
    return custom_root_system(roots, [(roots[0], Fraction(1, 2)), (roots[3], 3)])


def mark_orbit_maps(ctx):
    """Weak references to the context's geometry and to a marker in each S and L map of its orbit entries, all of
    which must be filled; the entries are read in a scope of their own, so no name outlives the call."""
    refs = [weakref.ref(ctx.root_system._geometry)]
    for entry in [operators._orbit_entry(geometry) for _, geometry in ctx._orbits]:
        assert entry.blocks and entry.laplacians
        for memo in (entry.blocks, entry.laplacians):
            memo[-1] = Marker()
            refs.append(weakref.ref(memo[-1]))
    return refs


def test_a_dropped_context_is_released():
    """Neither the harmonic basis cache nor the memo keeps a context alive; no fill refers back to its memo's
    owner, so with T and Delta filled a context is freed by reference counts alone, without the cycle collector,
    and so are a custom system's geometry and its orbit entries with S and L filled."""
    ctx = DunklContext(builtin_root_system("b", 2, [Fraction(1, 2), Fraction(1, 3)]))
    assert len(harmonic_basis(ctx, 4).elements) == 2
    dunkl_laplacian(ctx, Polynomial.monomial(2, (3, 2)))
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None
    with collector_off():
        ctx = DunklContext(builtin_root_system("b", 2, [Fraction(1, 2), Fraction(1, 3)]))
        dunkl_derivative(ctx, 0, Polynomial.monomial(2, (3, 2)))
        dunkl_laplacian(ctx, Polynomial.monomial(2, (3, 2)))
        assert ctx._images and ctx._laplacians
        refs = [weakref.ref(ctx)]
        del ctx
        assert refs[0]() is None
        ctx = DunklContext(custom_g2(Fraction(3, 13)))
        x = Polynomial.monomial(3, (2, 1, 1))
        dunkl_derivative(ctx, 0, x)
        dunkl_laplacian(ctx, x)
        refs = [weakref.ref(ctx)] + mark_orbit_maps(ctx)
        del ctx
        assert len(refs) == 1 + 1 + 4 and all(ref() is None for ref in refs)
