"""The Fraction form of root-system validation, for exact comparison with the package's integer form.

Each root reflects every root in Fractions, x - 2 <alpha, x> / <alpha, alpha> alpha, and the images are looked
up among the roots up to sign; the orbits grow by closure through that table.  The package scales the roots to
integers once and checks each image by exact division (groups._validated, groups.orbit_decomposition); the tests
compare the two on the signed index, the orbits and every refusal, message for message.
"""
from fractions import Fraction

from dunkl_hermite.errors import DimensionMismatch, InvalidRootSystem


def _dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _fmt(v):
    return "(" + ", ".join(str(c) for c in v) + ")"


def signed_index_reference(positive_roots):
    """Each root and its negative mapped to the root's index (the last copy's, for a root repeated up to sign)."""
    return {v: i for i, root in enumerate(positive_roots) for v in (root, tuple(-c for c in root))}


def _reflect(alpha, norm, v):
    factor = 2 * _dot(alpha, v) / norm
    return tuple(x - factor * a for x, a in zip(v, alpha))


def reflection_table_reference(positive_roots):
    """table[i][j] is root j reflected in root i, in Fractions; each root's norm is taken once."""
    table = []
    for alpha in positive_roots:
        norm = _dot(alpha, alpha)
        if not norm:
            raise InvalidRootSystem("zero vector is not a valid root")
        table.append([_reflect(alpha, norm, beta) for beta in positive_roots])
    return table


def orbits_reference(positive_roots, index, table):
    """Each orbit grown from its smallest index through the Fraction table; a root repeated up to sign joins its last
    copy's orbit.  Members sorted, first-occurrence order."""
    copy_of = [index[root] for root in positive_roots]
    orbits = []
    for start in range(len(copy_of)):
        if any(start in orbit for orbit in orbits):
            continue
        reached = [copy_of[start]]
        for j in reached:
            reached += {index.get(row[j]) for row in table} - {None, *reached}
        orbits.append(tuple(i for i, copy in enumerate(copy_of) if copy in reached))
    return tuple(orbits)


def orbit_decomposition_reference(positive_roots):
    roots = [tuple(map(Fraction, root)) for root in positive_roots]
    index = signed_index_reference(roots)
    return orbits_reference(roots, index, reflection_table_reference(roots))


def validated_orbits_reference(positive_roots, m):
    """Validate the roots in Fractions; return their signed index and orbits from one table of reflections."""
    directions = {}  # root / its first nonzero entry -> indices
    for j, root in enumerate(positive_roots):
        if len(root) != m:
            raise InvalidRootSystem(f"root {[str(c) for c in root]} does not have dimension {m}")
        if not any(root):
            raise InvalidRootSystem("zero vector is not a valid root")
        lead = next(c for c in root if c)
        directions.setdefault(tuple(c / lead for c in root), []).append(j)
    for same in directions.values():  # in order of first index: the first parallel pair (i, j)
        if len(same) > 1:
            raise InvalidRootSystem(
                f"root system is not reduced: roots {_fmt(positive_roots[same[0]])} and "
                f"{_fmt(positive_roots[same[1]])} are parallel")
    index = signed_index_reference(positive_roots)
    table = reflection_table_reference(positive_roots)
    for alpha, row in zip(positive_roots, table):
        for beta, image in zip(positive_roots, row):
            if image not in index:
                raise InvalidRootSystem(
                    f"root system is not closed: reflecting {_fmt(beta)} in {_fmt(alpha)} "
                    f"gives {_fmt(image)}, which is not a root up to sign")
    return index, orbits_reference(positive_roots, index, table)
