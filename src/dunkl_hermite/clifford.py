"""Clifford algebra layer with polynomial coefficients.

Basis blades of Cl(0, m) are bitmasks: bit i set means the generator e_{i+1}
is present, generators multiply with e_i e_j = -e_j e_i (i != j) and
e_i^2 = -1.  A CliffordPolynomial is one positive integer denominator over a
map from Clifford keys to nonzero integer numerators, a poly._Element as a
Polynomial is.  The Clifford key of x^e e_A is the monomial key of x^e shifted
up by m bits, with the blade mask A in the low m bits, so multiplying by x_i
adds the key of x_i shifted by m, and every degree cap of poly holds.  The
Dunkl-Dirac operator, vector variable multiplication, and their combination
D+ = -D + 2x are each one accumulation over it, with one image per term:
D(x^e e_A) from the context's D memo (a poly._Memo made here on first use and
filled from the context's T memo), x x^e e_A computed on the fly.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from typing import Callable, Mapping, Union

from .errors import DimensionMismatch, MathPrecondition
from .linalg import kernel_basis
from .operators import DunklContext, d_plus_squared_form
from .poly import (Block, Polynomial, _check_degree, _degree_shift, _dimension, _Element, _Memo, _units, accumulate,
                   json_int, linear_extension, monomial_keys)

ScalarLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def blade_product(mask_a: int, mask_b: int) -> tuple[int, int]:
    """Sign and mask of the product of two basis blades (ascending index order): each e_j of b
    moves past the e_i of a with i > j, and each shared e_j squares to -1."""
    swaps = sum((mask_a >> (j + 1)).bit_count() for j in range(mask_b.bit_length()) if mask_b >> j & 1)
    return -1 if (swaps + (mask_a & mask_b).bit_count()) & 1 else 1, mask_a ^ mask_b


class CliffordPolynomial(_Element):
    """Polynomial-coefficient element of Cl(0, m): {Clifford key: nonzero integer} over one denominator."""

    __slots__ = ()

    def __init__(self, m: int, blades: Mapping[int, Polynomial] = ()):
        m = _dimension(m)
        parts = []
        for mask, poly in (blades.items() if isinstance(blades, Mapping) else blades):
            mask = json_int(mask, "mask")
            if not 0 <= mask < (1 << m):
                raise DimensionMismatch(f"blade mask {mask} out of range for dimension {m}")
            if poly.m != m:
                raise DimensionMismatch(f"dimension mismatch: {poly.m} vs {m}")
            parts.append((1, (poly._den, [(key << m | mask, n) for key, n in poly._nums.items()]), None))
        self.m, (self._den, self._nums) = m, accumulate(parts)

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
        blades: dict[int, list[tuple[int, int]]] = {}
        m, low = self.m, (1 << self.m) - 1
        for key, n in self._nums.items():
            blades.setdefault(key & low, []).append((key >> m, n))
        return {mask: linear_extension(self.m, [(1, (self._den, blades[mask]), None)]) for mask in sorted(blades)}

    def blade(self, mask: int) -> Polynomial:
        return self.blades.get(mask, Polynomial.zero(self.m))

    def max_degree(self) -> Union[int, None]:
        return max(self._nums) >> self.m >> _degree_shift(self.m) if self._nums else None

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: Union["CliffordPolynomial", Polynomial, ScalarLike]) -> "CliffordPolynomial":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if isinstance(other, Polynomial):  # scalar polynomials commute with every blade
            other = CliffordPolynomial.from_polynomial(other)
        if not isinstance(other, CliffordPolynomial):
            return NotImplemented
        self._require_same_dim(other)
        if self and other:
            _check_degree(self.max_degree() + other.max_degree())
        low = (1 << self.m) - 1
        den, factor = other._den, [(b & low, b - (b & low), c) for b, c in other._nums.items()]

        def image(key: int) -> Block:  # x^e e_A x^f e_B = sign(e_A e_B) x^(e + f) e_(A xor B)
            a = key & low
            return den, [(key - a + f + mask, sign * c) for b, f, c in factor for sign, mask in (blade_product(a, b),)]
        return CliffordPolynomial._new(self.m, accumulate([(1, self._block, image)]))

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


def _dirac_fill(m: int, images: _Memo, key: int) -> Block:
    """The fill of a context's D memo: D(x^e e_A) = sum_i e_i T_i(x^e) e_A for the Clifford key of x^e e_A as one
    block, T_i x^e read from the context's T memo: e_i e_A is sign(e_i e_A) e_(A xor 2^i), and the sign multiplies
    the numerators of T_i x^e, brought to one denominator."""
    mask, blocks = key & (1 << m) - 1, images[key >> m]
    den = lcm(*(d for d, _ in blocks))
    terms = []
    for i, (d, nums) in enumerate(blocks):
        sign, target = blade_product(1 << i, mask)
        sign *= den // d
        terms += [(f << m | target, sign * v) for f, v in nums]
    return den, tuple(terms)


def _diracs(ctx: DunklContext) -> _Memo:
    """The context's D memo, made on first use; its fill binds the T memo, not the context."""
    if ctx._diracs is None:
        ctx._diracs = _Memo(partial(_dirac_fill, ctx.m, ctx._images))
    return ctx._diracs


def _vector_map(F: CliffordPolynomial) -> Callable[[int], Block]:
    """The key of x^e e_A -> x x^e e_A = sum_i sign(e_i e_A) x_i x^e e_(A xor 2^i), for the terms of F: the key of x_i
    shifted by m is added and the mask replaced; kappa-free, so not memoized.  Refuses a degree past the cap first."""
    m = F.m
    _check_degree((F.max_degree() or 0) + 1)
    units, low = [unit << m for unit in _units(m)], (1 << m) - 1

    def image(key: int) -> Block:
        mask = key & low
        return 1, [(key - mask + unit + target, sign)
                   for i, unit in enumerate(units) for sign, target in (blade_product(1 << i, mask),)]
    return image


def dunkl_dirac(ctx: DunklContext, F: CliffordPolynomial) -> CliffordPolynomial:
    """D F = sum_i e_i (T_i F), Dunkl operators acting blade-wise."""
    _check(ctx, F)
    return CliffordPolynomial._new(F.m, accumulate([(1, F._block, _diracs(ctx).__getitem__)]))


def vector_multiply(F: CliffordPolynomial) -> CliffordPolynomial:
    """Left multiplication by the vector variable x."""
    return CliffordPolynomial._new(F.m, accumulate([(1, F._block, _vector_map(F))]))


def d_plus(ctx: DunklContext, F: CliffordPolynomial) -> CliffordPolynomial:
    """The raising operator -D + 2x; its square is scalar."""
    _check(ctx, F)
    return CliffordPolynomial._new(F.m, accumulate([(-1, F._block, _diracs(ctx).__getitem__),
                                                    (2, F._block, _vector_map(F))]))


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
    diracs = _diracs(ctx)
    keys = [key << ctx.m | mask for mask in range(1 << ctx.m) for key in monomial_keys(ctx.m, degree)]
    return [CliffordPolynomial._new(ctx.m, (1, v)) for v in kernel_basis([diracs[key] for key in keys], keys)]


def _check(ctx: DunklContext, F: CliffordPolynomial) -> None:
    if F.m != ctx.m:
        raise DimensionMismatch(f"dimension mismatch: element in {F.m} variables vs context dimension {ctx.m}")
