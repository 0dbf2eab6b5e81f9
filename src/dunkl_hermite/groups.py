"""Finite reflection group data: root systems, orbits, multiplicities.

Roots are kept exactly as given (rational coordinates, no normalization of
<alpha, alpha>); every formula downstream is invariant under rescaling a root.
Validation demands a reduced system, closure of the positive roots under all
root reflections up to sign, and orbit-constant multiplicities.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import DimensionMismatch, InvalidRootSystem
from .poly import exact, json_int, parse_rational, rational_str

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Orbits = tuple[tuple[int, ...], ...]

BUILTIN_FAMILIES = ("z2", "a", "b", "d", "trivial")


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
    return _reflect(alpha, dot(alpha, alpha), v)


def _reflect(alpha: Vector, norm: Fraction, v: Vector) -> Vector:
    factor = 2 * dot(alpha, v) / norm
    return tuple(x - factor * a for x, a in zip(v, alpha))


def _reflection_table(positive_roots: Sequence[Vector]) -> list[list[Vector]]:
    """table[i][j] is root j reflected in root i; each root's norm is taken once."""
    table = []
    for alpha in positive_roots:
        norm = dot(alpha, alpha)
        if not norm:
            raise InvalidRootSystem("zero vector is not a valid root")
        table.append([_reflect(alpha, norm, beta) for beta in positive_roots])
    return table


def _parallel(u: Vector, v: Vector) -> bool:
    """True when v is a rational multiple of u (u nonzero)."""
    ratio = None
    for a, b in zip(u, v):
        if a == 0:
            if b != 0:
                return False
        else:
            r = b / a
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None and ratio != 0


def _signed_index(positive_roots: Sequence[Vector]) -> dict[Vector, int]:
    """Each root and its negative mapped to the root's index."""
    return {v: i for i, root in enumerate(positive_roots) for v in (root, tuple(-c for c in root))}


def _orbits(index: Mapping[Vector, int], table: Sequence[Sequence[Vector]]) -> Orbits:
    """Union-find over table[i][j], the reflection of root j in root i; first-occurrence order."""
    n = len(table)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for row in table:
        for j, image in enumerate(row):
            k = index.get(image)
            if k is not None:
                union(j, k)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(groups[r]) for r in sorted(groups))


def orbit_decomposition(positive_roots: Sequence[Vector]) -> Orbits:
    """Partition of root indices under the reflection action, first occurrence order."""
    table = _reflection_table(positive_roots)
    return _orbits(_signed_index(positive_roots), table)


def _validated_orbits(positive_roots: Sequence[Vector], m: int) -> tuple[dict[Vector, int], Orbits]:
    """Validate the roots; return their signed index and orbits from one table of reflections."""
    for root in positive_roots:
        if len(root) != m:
            raise InvalidRootSystem(f"root {[str(c) for c in root]} does not have dimension {m}")
        if not any(root):
            raise InvalidRootSystem("zero vector is not a valid root")
    for i in range(len(positive_roots)):
        for j in range(i + 1, len(positive_roots)):
            if _parallel(positive_roots[i], positive_roots[j]):
                raise InvalidRootSystem(
                    f"root system is not reduced: roots {_fmt(positive_roots[i])} and "
                    f"{_fmt(positive_roots[j])} are parallel")
    index = _signed_index(positive_roots)
    table = _reflection_table(positive_roots)
    for alpha, row in zip(positive_roots, table):
        for beta, image in zip(positive_roots, row):
            if image not in index:
                raise InvalidRootSystem(
                    f"root system is not closed: reflecting {_fmt(beta)} in {_fmt(alpha)} "
                    f"gives {_fmt(image)}, which is not a root up to sign")
    return index, _orbits(index, table)


def _fmt(v: Vector) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


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
    m = len(roots[0])
    index, orbits = _validated_orbits(roots, m)
    return _with_multiplicities(roots, m, index, orbits, multiplicities)


def _with_multiplicities(roots: tuple[Vector, ...], m: int, index: Mapping[Vector, int], orbits: Orbits,
                         multiplicities: Union[Mapping, Iterable[tuple[Sequence, object]]]) -> RootSystem:
    """The validated roots with one kappa per orbit, read from representatives."""
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
    return RootSystem(m=m, positive_roots=roots, multiplicities=per_root, orbits=orbits)


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
    # e_i for z2 and b, then e_i + s e_j (i < j) for each sign s of the family
    roots: list[Vector] = [_unit(m, i) for i in range(m)] if family in ("z2", "b") else []
    signs = {"a": (-1,), "b": (-1, 1), "d": (-1, 1)}.get(family, ())
    roots += [tuple(Fraction(1) if k == i else Fraction(s) if k == j else Fraction(0) for k in range(m))
              for i in range(m) for j in range(i + 1, m) for s in signs]
    if not roots:
        if kappas:
            raise InvalidRootSystem("trivial family takes no multiplicities")
        return trivial_root_system(m)
    roots = tuple(roots)
    index, orbits = _validated_orbits(roots, m)
    if len(kappas) != len(orbits):
        raise InvalidRootSystem(
            f"family {family!r} with m={m} has {len(orbits)} orbits, got {len(kappas)} multiplicities")
    reps = [(roots[orbit[0]], kappa) for orbit, kappa in zip(orbits, kappas)]
    return _with_multiplicities(roots, m, index, orbits, reps)


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
