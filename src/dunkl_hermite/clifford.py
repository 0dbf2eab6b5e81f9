"""Clifford algebra layer with polynomial coefficients.

Basis blades of Cl(0, m) are bitmasks: bit i set means the generator e_{i+1}
is present, generators multiply with e_i e_j = -e_j e_i (i != j) and
e_i^2 = -1.  A CliffordPolynomial is one term map from (blade mask, exponent)
pairs to Fractions; the Dunkl-Dirac operator, vector variable multiplication,
and their combination D+ = -D + 2x are each one accumulation over it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Callable, Mapping, Union

from .errors import DimensionMismatch, MathPrecondition
from .linalg import kernel_basis
from .operators import DunklContext, d_plus_squared_form, dunkl_images
from .poly import Exponent, Polynomial, Terms, _raw, accumulate, exact, json_int, monomial_basis

ScalarLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def blade_product(mask_a: int, mask_b: int) -> tuple[int, int]:
    """Sign and mask of the product of two basis blades (ascending index order): each e_j of b
    moves past the e_i of a with i > j, and each shared e_j squares to -1."""
    swaps = sum((mask_a >> (j + 1)).bit_count() for j in range(mask_b.bit_length()) if mask_b >> j & 1)
    return -1 if (swaps + (mask_a & mask_b).bit_count()) & 1 else 1, mask_a ^ mask_b


class CliffordPolynomial:
    """Polynomial-coefficient element of Cl(0, m): {(blade mask, exponent): nonzero Fraction}."""

    __slots__ = ("m", "_terms")

    def __init__(self, m: int, blades: Mapping[int, Polynomial] = ()):
        m = json_int(m, "m")
        if m < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {m}")
        parts = []
        for mask, poly in (blades.items() if isinstance(blades, Mapping) else blades):
            mask = json_int(mask, "mask")
            if not 0 <= mask < (1 << m):
                raise DimensionMismatch(f"blade mask {mask} out of range for dimension {m}")
            if poly.m != m:
                raise DimensionMismatch(f"dimension mismatch: {poly.m} vs {m}")
            parts.append((1, [((mask, e), c) for e, c in poly.terms.items()], None))
        self.m, self._terms = m, accumulate(parts)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "CliffordPolynomial":
        return cls(m)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "CliffordPolynomial":
        return cls(p.m, {0: p})

    @classmethod
    def unit_blade(cls, m: int, mask: int) -> "CliffordPolynomial":
        return cls(m, {mask: Polynomial.constant(m, 1)})

    @classmethod
    def vector_variable(cls, m: int) -> "CliffordPolynomial":
        """The element x = sum_i e_i x_i."""
        return cls(m, {1 << i: Polynomial.variable(m, i) for i in range(m)})

    # -- inspection --------------------------------------------------------

    @property
    def blades(self) -> dict[int, Polynomial]:
        """{mask: polynomial} over the nonzero blades in mask order, built on each call."""
        blades: dict[int, dict[Exponent, Fraction]] = {}
        for (mask, e), c in self._terms.items():
            blades.setdefault(mask, {})[e] = c
        return {mask: _raw(self.m, blades[mask]) for mask in sorted(blades)}

    def blade(self, mask: int) -> Polynomial:
        return _raw(self.m, {e: c for (a, e), c in self._terms.items() if a == mask})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self.m == other.m and self._terms == other._terms

    def max_degree(self) -> Union[int, None]:
        return max((sum(e) for _, e in self._terms), default=None)

    # -- algebra -----------------------------------------------------------

    def _require_same_dim(self, other: "CliffordPolynomial") -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"dimension mismatch: {self.m} vs {other.m}")

    def _plus(self, other: "CliffordPolynomial", scale: int) -> "CliffordPolynomial":
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        self._require_same_dim(other)
        return _flat(self.m, accumulate([(1, self._terms.items(), None), (scale, other._terms.items(), None)]))

    def __add__(self, other: "CliffordPolynomial") -> "CliffordPolynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "CliffordPolynomial") -> "CliffordPolynomial":
        return self._plus(other, -1)

    def __neg__(self) -> "CliffordPolynomial":
        return _flat(self.m, accumulate([(-1, self._terms.items(), None)]))

    def __mul__(self, other: Union["CliffordPolynomial", Polynomial, ScalarLike]) -> "CliffordPolynomial":
        if isinstance(other, (int, Fraction)):
            return _flat(self.m, accumulate([(exact(other), self._terms.items(), None)]))
        if isinstance(other, Polynomial):  # scalar polynomials commute with every blade
            other = CliffordPolynomial.from_polynomial(other)
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        self._require_same_dim(other)
        return _flat(self.m, accumulate([(1, self._terms.items(), lambda key: [
            ((mask, tuple(map(add, key[1], e))), c if sign > 0 else -c)
            for (b, e), c in other._terms.items() for sign, mask in (blade_product(key[0], b),)])]))

    __rmul__ = __mul__

    def apply_scalar_operator(self, op: Callable[[Polynomial], Polynomial]) -> "CliffordPolynomial":
        """Apply a scalar operator blade-wise (scalar operators commute with blades)."""
        return CliffordPolynomial(self.m, {mask: op(p) for mask, p in self.blades.items()})

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"m": self.m, "blades": [{"mask": mask, "poly": p.to_json()} for mask, p in self.blades.items()]}

    @classmethod
    def from_json(cls, data: Mapping) -> "CliffordPolynomial":
        m = json_int(data["m"], "m")
        return cls(m, [(entry["mask"], Polynomial.from_json(entry["poly"]))
                       for entry in data.get("blades", ())])

    def __str__(self) -> str:
        parts = [f"({p})*" + ("".join(f"e{i + 1}" for i in range(self.m) if mask >> i & 1) or "1")
                 for mask, p in self.blades.items()]
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"CliffordPolynomial(m={self.m}, {self!s})"


def _flat(m: int, terms: dict) -> CliffordPolynomial:
    """Internal constructor skipping validation: terms is a clean (mask, exponent) map in dimension m."""
    out = object.__new__(CliffordPolynomial)
    out.m, out._terms = m, terms
    return out


def _vector_parts(m: int, scale: int, terms, image: Callable[[int, Exponent], Terms]) -> list:
    """The parts of scale * sum_i e_i image(i, e) e_A over the terms (A, e), where e_i e_A is
    sign(e_i e_A) e_(A xor 2^i): one part per axis and sign, the sign folded into the part's scale."""
    return [(sign * scale, part, lambda key, i=i: [((key[0] ^ 1 << i, f), v) for f, v in image(i, key[1])])
            for i in range(m) for sign in (1, -1)
            for part in ([(key, c) for key, c in terms if blade_product(1 << i, key[0])[0] == sign],) if part]


def _dirac(ctx: DunklContext) -> Callable[[int, Exponent], Terms]:
    """(i, e) -> the terms of T_i(x^e), from the memo of T_i: D(x^e e_A) = sum_i e_i T_i(x^e) e_A."""
    return lambda i, e: dunkl_images(ctx, e)[i]


def _x(i: int, e: Exponent, one=Fraction(1)) -> Terms:
    """The term of x_i x^e: x x^e e_A = sum_i e_i x_i x^e e_A."""
    return ((e[:i] + (e[i] + 1,) + e[i + 1:], one),)


def dunkl_dirac(ctx: DunklContext, F: CliffordPolynomial) -> CliffordPolynomial:
    """D F = sum_i e_i (T_i F), Dunkl operators acting blade-wise."""
    _check(ctx, F)
    return _flat(F.m, accumulate(_vector_parts(F.m, 1, F._terms.items(), _dirac(ctx))))


def vector_multiply(F: CliffordPolynomial) -> CliffordPolynomial:
    """Left multiplication by the vector variable x."""
    return _flat(F.m, accumulate(_vector_parts(F.m, 1, F._terms.items(), _x)))


def d_plus(ctx: DunklContext, F: CliffordPolynomial) -> CliffordPolynomial:
    """The raising operator -D + 2x; its square is scalar."""
    _check(ctx, F)
    terms = F._terms.items()
    return _flat(F.m, accumulate(_vector_parts(F.m, -1, terms, _dirac(ctx)) +
                                 _vector_parts(F.m, 1, [(key, 2 * c) for key, c in terms], _x)))


def d_plus_squared_scalar(ctx: DunklContext, F: CliffordPolynomial) -> CliffordPolynomial:
    """(-Delta - 4|x|^2 + 2(2E + mu)) F, the scalar form of (D+)^2."""
    _check(ctx, F)
    return F.apply_scalar_operator(lambda p: d_plus_squared_form(ctx, p))


def monogenic_basis(ctx: DunklContext, degree: int) -> list[CliffordPolynomial]:
    """Canonical basis of the kernel of the Dirac operator on homogeneous
    Clifford polynomials of the given degree.

    Columns are ordered blade-mask-major, monomials deg-lex largest first
    within each blade; kernel vectors get the shared canonicalization.
    """
    if degree < 0:
        raise MathPrecondition(f"degree must be >= 0, got {degree}")
    keys = [(mask, e) for mask in range(1 << ctx.m) for e in monomial_basis(ctx.m, degree)]
    columns = [accumulate(_vector_parts(ctx.m, 1, [(key, 1)], _dirac(ctx))).items() for key in keys]
    return [_flat(ctx.m, {key: Fraction(v) for key, v in vec.items()}) for vec in kernel_basis(columns, keys)]


def _check(ctx: DunklContext, F: CliffordPolynomial) -> None:
    if F.m != ctx.m:
        raise DimensionMismatch(f"dimension mismatch: element in {F.m} variables vs context dimension {ctx.m}")
