"""Finite reflection group data: root systems, orbits, multiplicities.

Roots are kept exactly as given (rational coordinates, no normalization of
<alpha, alpha>); every formula downstream is invariant under rescaling a root.
Validation demands a reduced system, closure of the positive roots under all
root reflections up to sign, and orbit-constant multiplicities; it runs in
integers, once per geometry (_Geometry): what a distinct (m, roots) fixes without
kappa, alive while a root system with those roots is, or for the process if builtin.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import DimensionMismatch, InvalidRootSystem
from .poly import exact, json_int, parse_rational, rational_str

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Orbits = tuple[tuple[int, ...], ...]

BUILTIN_FAMILIES = ("z2", "a", "b", "d", "trivial")
# Validating a family's n positive roots in m coordinates reflects each root in each: n^2 reflections of m
# coordinates.  A builtin request past this many is refused before any is made.  The cost grows as n^2 m: the
# largest accepted requests (z2 with m = 40, a 12, b 9, d 9) validate in 20-40 ms, b with m = 16 in 0.5 s.
BUILTIN_REFLECTION_CAP = 1 << 16


def _exact(value) -> Fraction:
    """poly.exact, with a refused value reported as InvalidRootSystem."""
    try:
        return exact(value)
    except ValueError as exc:
        raise InvalidRootSystem(str(exc)) from None


def _vec(coords: Sequence) -> Vector:
    return tuple(map(_exact, coords))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def reflection_matrix(alpha: Sequence) -> Matrix:
    """Matrix of x -> x - 2 <alpha, x> / <alpha, alpha> * alpha (any scale of alpha)."""
    alpha = _vec(alpha)
    norm = dot(alpha, alpha)
    if not norm:
        raise InvalidRootSystem("zero vector cannot define a reflection")
    m = len(alpha)
    return tuple(
        tuple((Fraction(1) if i == j else Fraction(0)) - 2 * alpha[i] * alpha[j] / norm for j in range(m))
        for i in range(m))


def reflect_vector(alpha: Vector, v: Vector) -> Vector:
    factor = 2 * dot(alpha, v) / dot(alpha, alpha)
    return tuple(x - factor * a for x, a in zip(v, alpha))


def _signed_index(positive_roots: Sequence[Vector]) -> dict[Vector, int]:
    """Each root and its negative mapped to the root's index."""
    return {v: i for i, root in enumerate(positive_roots) for v in (root, tuple(-c for c in root))}


def _table(positive_roots: Sequence[Vector]) -> tuple[list, list[int], list[list]]:
    """The roots times their least common denominator, with copy_of[j], the index of root j's last copy up to sign,
    and table[i][j], that index for root j reflected in root i: b - (2<a,b> / <a,a>) a, which is no integer vector,
    so no root up to sign (None), unless <a,a> divides 2<a,b> a."""
    scale = lcm(*(c.denominator for root in positive_roots for c in root))
    ints = [tuple(c.numerator * (scale // c.denominator) for c in root) for root in positive_roots]
    index = _signed_index(ints)
    table = []
    for a in ints:
        norm, row = sum(c * c for c in a), []
        for b in ints:
            f = 2 * sum(x * y for x, y in zip(a, b))
            row.append(index.get(tuple(y - f * x // norm for x, y in zip(a, b))) if all(f * x % norm == 0 for x in a)
                       else None)
        table.append(row)
    return ints, [index[a] for a in ints], table


def _orbits(copy_of: Sequence[int], table: Sequence[Sequence]) -> Orbits:
    """Each orbit grown from its smallest index through _table's table, which holds each step both ways; a root
    repeated up to sign joins its last copy's orbit.  Members sorted, first-occurrence order."""
    orbits: list[tuple[int, ...]] = []
    for start in range(len(copy_of)):
        if any(start in orbit for orbit in orbits):
            continue
        reached = [copy_of[start]]
        for j in reached:  # reached grows while it is read
            reached += {row[j] for row in table} - {None, *reached}
        orbits.append(tuple(i for i, copy in enumerate(copy_of) if copy in reached))
    return tuple(orbits)


def orbit_decomposition(positive_roots: Sequence[Vector]) -> Orbits:
    """Partition of root indices under the reflection action, first occurrence order."""
    roots = tuple(map(_vec, positive_roots))
    other = next((root for root in roots if len(root) != len(roots[0])), None) if roots and any(roots[0]) else None
    if other is not None:  # met in the first root's row of reflections, before a later zero root
        raise DimensionMismatch(f"dimension mismatch: {len(roots[0])} vs {len(other)}")
    if not all(map(any, roots)):
        raise InvalidRootSystem("zero vector is not a valid root")
    return _orbits(*_table(roots)[1:])


def _validated(m: int, positive_roots: tuple[Vector, ...]) -> Orbits:
    """Validate the roots in integers; return their orbits.  A refusal names the first offending root or pair, and
    an image in Fractions, as the check in Fractions of tests/reference_groups.py does."""
    for root in positive_roots:
        if len(root) != m:
            raise InvalidRootSystem(f"root {[str(c) for c in root]} does not have dimension {m}")
        if not any(root):
            raise InvalidRootSystem("zero vector is not a valid root")
    ints, copy_of, table = _table(positive_roots)
    directions: dict[tuple[int, ...], list[int]] = {}  # the primitive integer root with a positive lead -> indices
    for j, a in enumerate(ints):
        g = gcd(*a) if next(c for c in a if c) > 0 else -gcd(*a)
        directions.setdefault(tuple(c // g for c in a), []).append(j)
    for same in directions.values():  # in order of first index: the first parallel pair (i, j)
        if len(same) > 1:
            raise InvalidRootSystem(
                f"root system is not reduced: roots {_fmt(positive_roots[same[0]])} and "
                f"{_fmt(positive_roots[same[1]])} are parallel")
    for alpha, row in zip(positive_roots, table):
        if None in row:
            beta = positive_roots[row.index(None)]
            raise InvalidRootSystem(f"root system is not closed: reflecting {_fmt(beta)} in {_fmt(alpha)} "
                                    f"gives {_fmt(reflect_vector(alpha, beta))}, which is not a root up to sign")
    return _orbits(copy_of, table)


def _fmt(v: Vector) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


class _Geometry:
    """What one tuple of roots in m coordinates fixes without kappa, validated once (see _registered): the roots and
    their orbits; made on first use, their signed index, their reflections, entry (see operators._orbit_entry) and
    the geometries of their orbits and single roots (part), which it holds from then on."""

    def __init__(self, m: int, roots: tuple[Vector, ...], orbits: Union[Orbits, None]):
        self.m, self.roots, self.entry, self._parts = m, roots, None, {}
        if orbits is not None:  # validated; a part's are found on first read
            self.orbits = orbits

    @cached_property
    def orbits(self) -> Orbits:
        """The orbits of a part, which needs no check: an orbit of a valid system, or one root, is a valid system."""
        return _orbits(*_table(self.roots)[1:])

    @cached_property
    def index(self) -> dict[Vector, int]:
        return _signed_index(self.roots)

    @cached_property
    def reflections(self) -> tuple[Matrix, ...]:
        """One matrix per root, each made once, by the root's own geometry."""
        return ((reflection_matrix(self.roots[0]),) if len(self.roots) == 1 else
                tuple(self.part((i,)).reflections[0] for i in range(len(self.roots))))

    def part(self, members: tuple[int, ...]) -> _Geometry:
        """The geometry of the roots at members, an orbit or one root: itself for all of them."""
        if len(members) == len(self.roots):
            return self
        if members not in self._parts:
            self._parts[members] = _registered(self.m, tuple(self.roots[i] for i in members), part=True)
        return self._parts[members]


# Each live geometry by (m, roots), alive while a root system or a geometry holds it; _builtin_geometry holds the
# builtin ones for the process.
_GEOMETRIES: weakref.WeakValueDictionary[tuple, _Geometry] = weakref.WeakValueDictionary()


def _registered(m: int, roots: tuple[Vector, ...], part: bool = False) -> _Geometry:
    """The geometry of the roots, validated only when no live one has them and they are no part of a valid one."""
    geometry = _GEOMETRIES.get((m, roots))
    if geometry is None:
        geometry = _GEOMETRIES[m, roots] = _Geometry(m, roots, None if part else _validated(m, roots))
    return geometry


@dataclass(frozen=True)
class RootSystem:
    """Validated positive root set with per-root multiplicities and orbit data."""

    m: int
    positive_roots: tuple[Vector, ...]
    multiplicities: tuple[Fraction, ...]  # aligned with positive_roots
    orbits: Orbits

    @cached_property  # kept in the instance __dict__, outside the fields that eq and hash compare
    def gamma(self) -> Fraction:
        """Sum of the multiplicities over the positive roots."""
        return sum(self.multiplicities, Fraction(0))

    @cached_property  # set by the constructors; a system built by hand looks its roots up on first read
    def _geometry(self) -> _Geometry:
        return _registered(self.m, self.positive_roots)

    @cached_property
    def mu(self) -> Fraction:
        """Effective (Dunkl) dimension m + 2*gamma."""
        return self.m + 2 * self.gamma

    def orbit_representatives(self) -> list[tuple[Vector, Fraction]]:
        return [(self.positive_roots[orbit[0]], self.multiplicities[orbit[0]]) for orbit in self.orbits]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "positive_roots": [[rational_str(c) for c in root] for root in self.positive_roots],
            "multiplicities": [
                {"orbit_rep": [rational_str(c) for c in rep], "kappa": rational_str(kappa)}
                for rep, kappa in self.orbit_representatives()
            ],
        }


def custom_root_system(positive_roots: Iterable[Sequence],
                       multiplicities: Union[Mapping, Iterable[tuple[Sequence, object]]]) -> RootSystem:
    """Build and validate a root system from explicit data.

    multiplicities maps a representative root (any member of the orbit) to its
    kappa; every orbit needs exactly one consistent value.  Arbitrary rational
    kappa values are accepted here, so degenerate effective dimensions are
    representable; operations that need mu outside -2N check at call time.
    """
    roots = tuple(_vec(r) for r in positive_roots)
    if not roots:
        raise InvalidRootSystem("empty root system needs an explicit dimension; use trivial_root_system(m)")
    return _with_multiplicities(_registered(len(roots[0]), roots), multiplicities)


def _with_multiplicities(geometry: _Geometry,
                         multiplicities: Union[Mapping, Iterable[tuple[Sequence, object]]]) -> RootSystem:
    """The geometry's roots with one kappa per orbit, read from representatives; the system holds the geometry."""
    roots, index, orbits = geometry.roots, geometry.index, geometry.orbits
    items = multiplicities.items() if isinstance(multiplicities, Mapping) else multiplicities
    orbit_of = {ri: oi for oi, orbit in enumerate(orbits) for ri in orbit}
    assigned: dict[int, Fraction] = {}
    for rep, kappa in items:
        rep = _vec(rep)
        if rep not in index:
            raise InvalidRootSystem(f"multiplicity names {_fmt(rep)}, which is not a root of the system")
        oi = orbit_of[index[rep]]
        kappa = _exact(kappa)
        if oi in assigned and assigned[oi] != kappa:
            raise InvalidRootSystem(
                f"multiplicity is not orbit-constant: orbit of {_fmt(roots[orbits[oi][0]])} "
                f"received both {assigned[oi]} and {kappa}")
        assigned[oi] = kappa
    missing = [oi for oi in range(len(orbits)) if oi not in assigned]
    if missing:
        raise InvalidRootSystem(
            f"missing multiplicity for orbit of {_fmt(roots[orbits[missing[0]][0]])}")
    per_root = tuple(assigned[orbit_of[i]] for i in range(len(roots)))
    system = RootSystem(m=geometry.m, positive_roots=roots, multiplicities=per_root, orbits=orbits)
    vars(system)["_geometry"] = geometry
    return system


def _dimension(m) -> int:
    """m if it is an integer >= 1; InvalidRootSystem naming m otherwise."""
    try:
        m = json_int(m, "m")
    except ValueError as exc:
        raise InvalidRootSystem(str(exc)) from None
    if m < 1:
        raise InvalidRootSystem(f"dimension must be >= 1, got {m}")
    return m


def trivial_root_system(m: int) -> RootSystem:
    """No roots at all: every Dunkl object degenerates to its classical version."""
    return RootSystem(m=_dimension(m), positive_roots=(), multiplicities=(), orbits=())


def _unit(m: int, i: int) -> Vector:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(m))


def builtin_root_system(family: str, m: int, kappas: Sequence) -> RootSystem:
    """One of the standard families, with one kappa per orbit (order documented).

    z2: roots e_1..e_m, one orbit per coordinate, m values.
    a:  roots e_i - e_j (i < j) in the ambient m-dimensional space, 1 value.
    b:  roots e_1..e_m then e_i -+ e_j (i < j); 2 values (short orbit first).
    d:  roots e_i -+ e_j (i < j); 1 value for m >= 3, 2 values for m = 2.
    trivial: no roots, 0 values.
    A family whose n roots take n^2 m coordinate reflections past BUILTIN_REFLECTION_CAP is refused
    (InvalidRootSystem) before its geometry is built.
    """
    family = family.lower()
    if family not in BUILTIN_FAMILIES:
        raise InvalidRootSystem(f"unknown family {family!r}; expected one of {BUILTIN_FAMILIES}")
    m = _dimension(m)
    kappas = [_exact(k) for k in kappas]
    if any(k < 0 for k in kappas):
        raise InvalidRootSystem("builtin families use nonnegative multiplicities")
    if family in ("a", "b", "d") and m < 2:
        raise InvalidRootSystem(f"family {family} needs m >= 2")
    n = {"z2": m, "a": m * (m - 1) // 2, "b": m * m, "d": m * (m - 1)}.get(family, 0)
    if n * n * m > BUILTIN_REFLECTION_CAP:
        raise InvalidRootSystem(f"family {family!r} with m={m} has {n} positive roots: validating them takes "
                                f"{n * n * m} coordinate reflections, past the cap {BUILTIN_REFLECTION_CAP}")
    geometry = _builtin_geometry(family, m)
    roots, orbits = geometry.roots, geometry.orbits
    if not roots:
        if kappas:
            raise InvalidRootSystem("trivial family takes no multiplicities")
    elif len(kappas) != len(orbits):
        raise InvalidRootSystem(
            f"family {family!r} with m={m} has {len(orbits)} orbits, got {len(kappas)} multiplicities")
    return _with_multiplicities(geometry, [(roots[orbit[0]], kappa) for orbit, kappa in zip(orbits, kappas)])


# Unbounded like poly.monomial_basis: validating n roots takes n^2 reflections, which keeps the
# (family, m) pairs a process can afford to a few small m.
@lru_cache(maxsize=None)
def _builtin_geometry(family: str, m: int) -> _Geometry:
    """The registered geometry of a checked family and m, kept for the process."""
    # e_i for z2 and b, then e_i + s e_j (i < j) for each sign s of the family
    roots: list[Vector] = [_unit(m, i) for i in range(m)] if family in ("z2", "b") else []
    signs = {"a": (-1,), "b": (-1, 1), "d": (-1, 1)}.get(family, ())
    if signs:  # no pair loop for z2 and trivial, whose m may be far past what a pair loop can visit
        roots += [tuple(Fraction(1) if k == i else Fraction(s) if k == j else Fraction(0) for k in range(m))
                  for i in range(m) for j in range(i + 1, m) for s in signs]
    return _registered(m, tuple(roots))


def _json_field(field: str, parse: Callable):
    """parse(), with a malformed value of the JSON field reported as InvalidRootSystem."""
    try:
        return parse()
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise InvalidRootSystem(f"root system JSON: bad {field}: {detail}") from None


def root_system_from_json(data: Mapping) -> RootSystem:
    """Parse the root system JSON contract; a malformed field or invalid system raises
    InvalidRootSystem."""
    if not isinstance(data, Mapping) or not {"m", "positive_roots", "multiplicities"} <= data.keys():
        raise InvalidRootSystem("root system JSON needs keys m, positive_roots, multiplicities")
    m = _json_field("m", lambda: json_int(data["m"], "m"))
    roots = _json_field("positive_roots", lambda: [tuple(map(parse_rational, root))
                                                   for root in data["positive_roots"]])
    if not roots:
        if data["multiplicities"]:
            raise InvalidRootSystem("root system JSON: multiplicities given, but positive_roots is empty")
        return trivial_root_system(m)
    for root in roots:
        if len(root) != m:
            raise InvalidRootSystem(f"root {[str(c) for c in root]} does not have dimension {m}")
    mults = _json_field("multiplicities", lambda: [
        (tuple(map(parse_rational, entry["orbit_rep"])), parse_rational(entry["kappa"]))
        for entry in data["multiplicities"]])
    return custom_root_system(roots, mults)
