"""Clifford algebra layer with polynomial coefficients.

Basis blades of Cl(0, m) are bitmasks: bit i set means the generator e_{i+1}
is present, generators multiply with e_i e_j = -e_j e_i (i != j) and
e_i^2 = -1.  A CliffordPolynomial maps blade masks to scalar polynomials;
the Dunkl-Dirac operator, vector variable multiplication, and their
combination D+ = -D + 2x act on these.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, groupby, product
from typing import Callable, Iterable, Mapping, Union

from .errors import DimensionMismatch, MathPrecondition
from .linalg import kernel_basis
from .operators import DunklContext, d_plus_squared_form, dunkl_derivative, dunkl_images
from .poly import Polynomial, json_int, monomial_basis

ScalarLike = Union[int, Fraction]


def blade_product(mask_a: int, mask_b: int) -> tuple[int, int]:
    """Sign and mask of the product of two basis blades (ascending index order)."""
    swaps = 0
    b = mask_b
    while b:
        low = b & -b
        j = low.bit_length() - 1
        swaps += (mask_a >> (j + 1)).bit_count()
        b ^= low
    sign = -1 if swaps & 1 else 1
    if (mask_a & mask_b).bit_count() & 1:
        sign = -sign
    return sign, mask_a ^ mask_b


def _trusted(m: int, pieces: Iterable[tuple[int, int, Polynomial]]) -> CliffordPolynomial:
    """Sum of (sign, mask, polynomial) pieces already fitting dimension m; drops zero blades."""
    blades: dict[int, Polynomial] = {}
    for sign, mask, poly in pieces:
        acc = blades.get(mask)
        if acc is not None:
            poly = acc + poly if sign > 0 else acc - poly
        elif sign < 0:
            poly = -poly
        if poly:
            blades[mask] = poly
        else:
            blades.pop(mask, None)
    out = object.__new__(CliffordPolynomial)
    object.__setattr__(out, "m", m)
    object.__setattr__(out, "_blades", blades)
    return out


class CliffordPolynomial:
    """Polynomial-coefficient element of Cl(0, m); blade masks to polynomials."""

    __slots__ = ("m", "_blades")

    def __init__(self, m: int, blades: Mapping[int, Polynomial] = ()):
        m = json_int(m, "m")
        if m < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {m}")
        items = [(1, json_int(mask, "mask"), poly) for mask, poly in
                 (blades.items() if isinstance(blades, Mapping) else blades)]
        for _, mask, poly in items:
            if not 0 <= mask < (1 << m):
                raise DimensionMismatch(f"blade mask {mask} out of range for dimension {m}")
            if poly.m != m:
                raise DimensionMismatch(f"dimension mismatch: {poly.m} vs {m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_blades", _trusted(m, items)._blades)

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
    def blades(self) -> Mapping[int, Polynomial]:
        """Blade map; callers must not mutate it."""
        return self._blades

    def blade(self, mask: int) -> Polynomial:
        return self._blades.get(mask, Polynomial.zero(self.m))

    def __bool__(self) -> bool:
        return bool(self._blades)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        return self.m == other.m and self._blades == other._blades

    def max_degree(self) -> Union[int, None]:
        return max((p.total_degree() for p in self._blades.values()), default=None)

    # -- algebra -----------------------------------------------------------

    def _require_same_dim(self, other: "CliffordPolynomial") -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"dimension mismatch: {self.m} vs {other.m}")

    def __add__(self, other: "CliffordPolynomial") -> "CliffordPolynomial":
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        self._require_same_dim(other)
        pieces = chain(self._blades.items(), other._blades.items())
        return _trusted(self.m, ((1, mask, p) for mask, p in pieces))

    def __sub__(self, other: "CliffordPolynomial") -> "CliffordPolynomial":
        return self + (-other)

    def __neg__(self) -> "CliffordPolynomial":
        return _trusted(self.m, ((-1, mask, p) for mask, p in self._blades.items()))

    def __mul__(self, other: Union["CliffordPolynomial", Polynomial, ScalarLike]) -> "CliffordPolynomial":
        if isinstance(other, CliffordPolynomial):
            self._require_same_dim(other)
            return _trusted(self.m, ((*blade_product(ma, mb), pa * pb)
                                     for ma, pa in self._blades.items() for mb, pb in other._blades.items()))
        if isinstance(other, Polynomial):
            # scalar polynomials commute with every blade
            return _trusted(self.m, ((1, mask, p * other) for mask, p in self._blades.items()))
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return _trusted(self.m, ((1, mask, p * c) for mask, p in self._blades.items()))
        return NotImplemented

    __rmul__ = __mul__

    def apply_scalar_operator(self, op: Callable[[Polynomial], Polynomial]) -> "CliffordPolynomial":
        """Apply a scalar operator blade-wise (scalar operators commute with blades)."""
        return CliffordPolynomial(self.m, {mask: op(p) for mask, p in self._blades.items()})

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "blades": [{"mask": mask, "poly": self._blades[mask].to_json()}
                       for mask in sorted(self._blades)],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "CliffordPolynomial":
        m = json_int(data["m"], "m")
        return cls(m, [(entry["mask"], Polynomial.from_json(entry["poly"]))
                       for entry in data.get("blades", ())])

    def __str__(self) -> str:
        if not self._blades:
            return "0"
        parts = []
        for mask in sorted(self._blades):
            label = "".join(f"e{i + 1}" for i in range(self.m) if mask >> i & 1) or "1"
            parts.append(f"({self._blades[mask]})*{label}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CliffordPolynomial(m={self.m}, {self!s})"


def _relabel(F: CliffordPolynomial, part: Callable[[int, Polynomial], Polynomial]) -> CliffordPolynomial:
    """sum_i e_i part(i, F_A) e_A over the blades A of F; e_i e_A is a sign and a mask flip."""
    return _trusted(F.m, ((*blade_product(1 << i, mask), part(i, poly))
                          for mask, poly in F.blades.items() for i in range(F.m)))


def dunkl_dirac(ctx: DunklContext, F: CliffordPolynomial) -> CliffordPolynomial:
    """D F = sum_i e_i (T_i F), Dunkl operators acting blade-wise."""
    _check(ctx, F)
    return _relabel(F, lambda i, p: dunkl_derivative(ctx, i, p))


def vector_multiply(F: CliffordPolynomial) -> CliffordPolynomial:
    """Left multiplication by the vector variable x."""
    return _relabel(F, lambda i, p: p.times_variable(i))


def d_plus(ctx: DunklContext, F: CliffordPolynomial) -> CliffordPolynomial:
    """The raising operator -D + 2x; its square is scalar."""
    _check(ctx, F)
    return _relabel(F, lambda i, p: 2 * p.times_variable(i) - dunkl_derivative(ctx, i, p))


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
    m = ctx.m
    masks = range(1 << m)
    dom_basis = monomial_basis(m, degree)
    # D(x^e e_A) = sum_i sign(e_i e_A) T_i(x^e) e_{A xor i}, read from the context's memo of T_i x^e
    columns = []
    for mask in masks:
        relabels = [blade_product(1 << i, mask) for i in range(m)]
        columns += [[((bmask, f), sign * c) for (sign, bmask), image in zip(relabels, dunkl_images(ctx, e))
                     for f, c in image] for e in dom_basis]
    # kernel vectors list their keys blade-mask-major, so each blade's terms are consecutive
    return [CliffordPolynomial(m, {mask: Polynomial(m, {e: v for (_, e), v in terms})
                                   for mask, terms in groupby(vec.items(), key=lambda item: item[0][0])})
            for vec in kernel_basis(columns, list(product(masks, dom_basis)))]


def _check(ctx: DunklContext, F: CliffordPolynomial) -> None:
    if F.m != ctx.m:
        raise DimensionMismatch(f"dimension mismatch: element in {F.m} variables vs context dimension {ctx.m}")
