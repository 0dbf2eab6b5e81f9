"""Exact sparse multivariate polynomials over arbitrary-precision rationals.

A polynomial in m variables is one positive integer denominator over a map from
monomial keys to nonzero integer numerators (FLINT's fmpq_poly layout).  It is
normalized at construction: the denominator and the numerators have gcd 1, and
the zero polynomial has no terms and denominator 1, so two polynomials are equal
exactly when these fields are.  The one term order used everywhere (printing,
JSON, matrix columns, division) is degree-lexicographic with the largest
monomial first: compare total degree, then the exponent tuples lexicographically.

A monomial key packs the exponent tuple into one int (FLINT's fmpz_mpoly packed
exponent vectors; Monagan and Pearce, ISSAC 2009): one field of _BITS bits per
variable, x_m lowest, x_1 above it, and the total degree on top.  So integer
order is deg-lex order, x^a x^b has the key a + b, and multiplying by x_i adds
the key of x_i.  A field cannot overflow: every exponent is at most the total
degree, and no element holds a monomial of total degree past MAX_DEGREE: the
constructor refuses one (ValueError) before summing its terms, every operation
that raises the degree before building its key.  _BITS is MAX_DEGREE's bit length.
Exponent tuples are the interface: the constructor, terms, coefficient,
sorted_terms, leading_term, JSON, printing and monomial_basis read or give them.
"""
from __future__ import annotations

import re
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import Callable, Hashable, Iterable, Mapping, Sequence, Union

from .errors import DimensionMismatch, InexactDivision

Exponent = tuple[int, ...]
ScalarLike = Union[int, Fraction]
# (denominator, (key, integer numerator) terms): a part's terms, an image, and the summed polynomial
Block = tuple[int, Iterable[tuple[Hashable, int]]]

# The library's degree cap: no monomial of a larger total degree is built.
MAX_DEGREE = (1 << 16) - 1
_BITS = MAX_DEGREE.bit_length()  # the width of each field of a monomial key
_FIELD = (1 << _BITS) - 1
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")  # the exponent of a decimal, as Fraction reads it


def _check_degree(degree: int) -> None:
    """Refuse a total degree past the cap, before any key of that degree is built."""
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} is past the degree cap {MAX_DEGREE}")


def _degree_shift(m: int) -> int:
    """The bit offset of the degree field in a key of m variables: key >> _degree_shift(m) is the total degree."""
    return _BITS * m


@lru_cache(maxsize=None)
def _units(m: int) -> tuple[int, ...]:
    """The key of x_i for each axis i of m: 1 in the degree field and 1 in the field of x_i."""
    return tuple(1 << _BITS * m | 1 << _BITS * (m - 1 - i) for i in range(m))


@lru_cache(maxsize=None)
def _derivative_map(m: int, axis: int) -> Callable[[int], Block]:
    """key -> the block of d/dx_axis x^e = e_axis x^(e - eps_axis), e_axis read from its field of the key."""
    unit, shift = _units(m)[axis], _BITS * (m - 1 - axis)
    return lambda key: (1, ((key - unit, n),) if (n := key >> shift & _FIELD) else ())


def _keys(exponents: Sequence[Exponent]) -> list[int]:
    """The key of each exponent tuple, the sum of e_i units of each axis i: nonnegative ints of a total degree within
    the cap, which is checked."""
    _check_degree(max(map(sum, exponents), default=0))
    return [sum(x * unit for x, unit in zip(e, _units(len(e)))) for e in exponents]


@lru_cache(maxsize=None)
def _fields(m: int) -> struct.Struct:
    """A key in m variables as its m + 1 big-endian fields, the degree field on top skipped."""
    assert _BITS == 16, "the fields are read as struct's 16-bit H"
    return struct.Struct(f">2x{m}H")


def _exponents(m: int, keys: Iterable[int]) -> list[Exponent]:
    """The exponent tuple of each key in m variables, from its bytes: O(m) a key, not a shift per field's O(m^2)."""
    unpack, size = (fields := _fields(m)).unpack, fields.size
    return [unpack(key.to_bytes(size, "big")) for key in keys]


def _steps(m: int, key: int) -> list[int]:
    """The axis of each factor of x^e, in axis order: e_j copies of j for each axis j."""
    steps = []
    for j, shift in enumerate(range(_BITS * (m - 1), -1, -_BITS)):
        steps += [j] * (key >> shift & _FIELD)
    return steps


def rational_str(value: Fraction) -> str:
    """Render a rational as "num/den", denominator always explicit."""
    value = exact(value)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "3/2", "-4/1", "0.1", "1e-3" or plain "3" into a Fraction; malformed text, a float, or a number past the
    digits an int prints (sys.get_int_max_str_digits()) raises ValueError, an exponent before 10**exponent is built."""
    if isinstance(text, float):
        exact(text)  # refuses it: str() of a float is its shortest repr, not the number written
    text, limit = str(text).strip(), sys.get_int_max_str_digits()  # a limit of 0 is none
    exponent = _EXPONENT.search(text)
    try:
        value = None if limit and exponent and abs(int(exponent[1])) > limit else Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    top = 0 if value is None else max(abs(value.numerator), value.denominator)
    if value is None or limit and top.bit_length() > 3 * limit and top >= 10 ** limit:  # 8^limit < 10^limit
        raise ValueError(f"{text!r} needs more than the {limit} digits an int prints")
    return value


def exact(value) -> Fraction:
    """value as a Fraction; a float is refused (ValueError): its binary expansion is not the number written."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ValueError(f"inexact float {value!r}; pass an int, a Fraction or a string such as '1/10'")
    return Fraction(value)


def json_int(value, field: str) -> int:
    """value if it is a JSON integer (an int, not a bool); ValueError naming the field otherwise."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _dimension(m) -> int:
    """m if it is a JSON integer of at least 1, the dimension check of both element constructors."""
    m = json_int(m, "m")
    if m < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {m}")
    return m


def dim_homogeneous(m: int, degree: int) -> int:
    """Dimension of the space of homogeneous polynomials of the given degree."""
    if degree < 0:
        return 0
    return comb(degree + m - 1, m - 1)


@lru_cache(maxsize=None)
def monomial_keys(m: int, degree: int) -> tuple[int, ...]:
    """The key of every monomial of the degree in m variables, deg-lex largest first: from x_1^degree, each next key
    moves one unit of the last e_i > 0 before x_m, and all of e_m, to x_(i+1), down to x_m^degree."""
    if degree < 0:
        return ()
    _check_degree(degree)
    units, head = _units(m), (1 << _BITS * (m - 1)) - 1
    keys = [degree * units[0]]
    while above := keys[-1] >> _BITS & head:  # the fields of x_1 .. x_(m-1); none at x_m^degree
        i = m - 2 - ((above & -above).bit_length() - 1) // _BITS  # the lowest nonzero field is e_i's
        keys.append(keys[-1] + units[i + 1] - units[i] + (keys[-1] & _FIELD) * (units[i + 1] - units[m - 1]))
    return tuple(keys)


@lru_cache(maxsize=None)
def monomial_basis(m: int, degree: int) -> tuple[Exponent, ...]:
    """All exponent tuples of the given total degree, deg-lex largest first: the keys of monomial_keys, decoded."""
    return tuple(_exponents(m, monomial_keys(m, degree)))


class _Element:
    """The integer layout of Polynomial and CliffordPolynomial and the ring operations that read no key: m, one
    positive denominator and {key: nonzero int}, normalized as accumulate returns them.  What a key means, and
    so the constructor, the products and the views, belongs to the subclass."""

    __slots__ = ("m", "_den", "_nums")

    @classmethod
    def _new(cls, m: int, block: tuple[int, dict]):
        """Internal constructor skipping validation; block is (den, nums) normalized, as accumulate returns it."""
        out = object.__new__(cls)
        out.m, (out._den, out._nums) = m, block
        return out

    @property
    def _block(self) -> Block:
        """(den, the integer terms), as a part of accumulate reads them."""
        return self._den, self._nums.items()

    def _require_same_dim(self, other: "_Element") -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"dimension mismatch: {self.m} vs {other.m}")

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):  # a Polynomial never equals a CliffordPolynomial
            return NotImplemented
        return self.m == other.m and self._den == other._den and self._nums == other._nums

    def _plus(self, other: "_Element", scale: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_dim(other)
        return self._new(self.m, accumulate([(1, self._block, None), (scale, other._block, None)]))

    def __add__(self, other: "_Element"):
        return self._plus(other, 1)

    def __sub__(self, other: "_Element"):
        return self._plus(other, -1)

    def __neg__(self):
        return self._scaled(-1)

    def _scaled(self, c: ScalarLike):
        """c times the element, for an int or Fraction c."""
        return self._new(self.m, accumulate([(c, self._block, None)]))


class Polynomial(_Element):
    """Immutable-by-convention sparse polynomial: integer numerators over one denominator."""

    __slots__ = ()

    def __init__(self, m: int, terms: Union[Mapping[Exponent, ScalarLike], Iterable[tuple[Exponent, ScalarLike]]] = ()):
        m = _dimension(m)
        shift = _degree_shift(m)
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean, top = [], 0  # (key, numerator, denominator) per term, and the largest total degree
        for exponents, coeff in items:
            exponents = tuple(exponents)
            if len(exponents) != m:
                raise DimensionMismatch(
                    f"dimension mismatch: exponent tuple of length {len(exponents)} vs dimension {m}")
            key = 0
            for e in exponents:
                if type(e) is not int or e < 0:
                    raise ValueError(f"exponents must be nonnegative integers, got {exponents}")
                key = key << _BITS | e
            if type(coeff) is not int:
                coeff = exact(coeff)
            degree = sum(exponents)
            top = max(top, degree)
            clean.append((degree << shift | key, coeff.numerator, coeff.denominator))
        _check_degree(top)  # after every term is validated, and before any key is summed
        den = lcm(*(d for _, _, d in clean))
        self.m = m
        self._den, self._nums = accumulate([(1, (den, [(key, n * (den // d)) for key, n, d in clean]), None)])

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "Polynomial":
        return cls(m)

    @classmethod
    def constant(cls, m: int, value: ScalarLike) -> "Polynomial":
        return cls(m, {(0,) * m: value})

    @classmethod
    def variable(cls, m: int, axis: int) -> "Polynomial":
        _check_axis(m, axis)
        return cls._new(m, (1, {_units(_dimension(m))[axis]: 1}))

    @classmethod
    def monomial(cls, m: int, exponents: Exponent, coeff: ScalarLike = 1) -> "Polynomial":
        return cls(m, {tuple(exponents): coeff})

    @classmethod
    def norm_squared(cls, m: int) -> "Polynomial":
        """x_1^2 + ... + x_m^2: the key of x_i^2 is twice the key of x_i."""
        return cls._new(m, (1, {2 * unit: 1 for unit in _units(_dimension(m))}))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Term map of Fractions keyed by exponent tuples, built on each call."""
        den, nums = self._den, self._nums
        return {e: Fraction(n, den) for e, n in zip(_exponents(self.m, nums), nums.values())}

    def coefficient(self, exponents: Exponent) -> Fraction:
        e = tuple(exponents)
        if len(e) != self.m or sum(e) > MAX_DEGREE:  # no such monomial here
            return Fraction(0)
        return Fraction(self._nums.get(_keys([e])[0], 0), self._den)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical order, deg-lex largest first."""
        keys = sorted(self._nums, reverse=True)
        den, nums = self._den, self._nums
        return [(e, Fraction(nums[key], den)) for e, key in zip(_exponents(self.m, keys), keys)]

    def leading_term(self) -> tuple[Exponent, Fraction]:
        if not self._nums:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._nums)
        return _exponents(self.m, [key])[0], Fraction(self._nums[key], self._den)

    def total_degree(self) -> Union[int, None]:
        """Maximal total degree, or None for the zero polynomial."""
        if not self._nums:
            return None
        return max(self._nums) >> _BITS * self.m

    def is_homogeneous(self) -> bool:
        degrees = {key >> _BITS * self.m for key in self._nums}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        degrees = {key >> _BITS * self.m for key in self._nums}
        if len(degrees) != 1:
            raise ValueError(f"polynomial is not homogeneous of a single degree (degrees {sorted(degrees)})")
        return degrees.pop()

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        buckets: dict[int, list[tuple[int, int]]] = {}
        shift = _BITS * self.m
        for key, n in self._nums.items():
            buckets.setdefault(key >> shift, []).append((key, n))
        return {d: linear_extension(self.m, [(1, (self._den, t), None)]) for d, t in sorted(buckets.items())}

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other: Union["Polynomial", ScalarLike]) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._require_same_dim(other)
            if self and other:
                _check_degree(self.total_degree() + other.total_degree())
            den, factor = other._block
            return linear_extension(self.m, [(1, self._block, lambda e: (den, [(e + f, c) for f, c in factor]))])
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if self:
            _check_degree(n * self.total_degree())
        out = Polynomial.constant(self.m, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus ----------------------------------------------------------

    def derivative(self, axis: int) -> "Polynomial":
        """Partial derivative along one axis: x^e maps to e_axis x^(e - eps_axis)."""
        _check_axis(self.m, axis)
        return linear_extension(self.m, [(1, self._block, _derivative_map(self.m, axis))])

    def times_variable(self, axis: int) -> "Polynomial":
        """Multiplication by x_axis: the key of x_axis added to every key."""
        _check_axis(self.m, axis)
        _check_degree((self.total_degree() or 0) + 1)
        unit = _units(self.m)[axis]
        return linear_extension(self.m, [(1, self._block, lambda e: (1, ((e + unit, 1),)))])

    # -- serialization / rendering -----------------------------------------

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "terms": [{"c": rational_str(c), "e": list(e)} for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Polynomial":
        m = json_int(data["m"], "m")
        pairs = []
        for entry in data.get("terms", ()):
            e = tuple(json_int(x, "exponent") for x in entry["e"])
            pairs.append((e, parse_rational(entry["c"])))
        return cls(m, pairs)

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"x{i + 1}" if p == 1 else f"x{i + 1}^{p}" for i, p in enumerate(e) if p]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.m}, {self!s})"


_ZERO = Fraction(0)


def _check_axis(m: int, axis: int) -> None:
    if not 0 <= axis < m:
        raise DimensionMismatch(f"axis {axis} out of range for dimension {m}")


def compose_linear(p: Polynomial, matrix: Sequence[Sequence[ScalarLike]]) -> Polynomial:
    """Substitute x_j -> sum_k matrix[j][k] * x_k, i.e. compute p(A x) exactly.

    x^e expands as the product of the linear forms of the rows j with e[j] > 0, each to the power e[j];
    the expansions of the terms are summed as one linear extension."""
    m = p.m
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise DimensionMismatch(f"dimension mismatch: matrix is not {m}x{m}")
    forms = [linear_extension(m, [(a, (1, ((unit, 1),)), None) for unit, a in zip(_units(m), row)]) for row in matrix]
    shifts = range(_BITS * (m - 1), -1, -_BITS)

    def expand(key: int) -> Block:
        out = None
        for form, s in zip(forms, shifts):
            n = key >> s & _FIELD
            if n:
                power = form if n == 1 else form ** n
                out = power if out is None else out * power
        return (1, ((0, 1),)) if out is None else out._block

    return linear_extension(m, [(1, p._block, expand)])


# Bits of the running common denominator in accumulate past which the rest of a sum is finished in
# Fractions.  Each rescale at least doubles the denominator, so the cap bounds the rescale work at
# _DEN_CAP multiplications per summed key.  Of the caps measured (64, 128, 256 bits), 64 keeps
# 300-term sums with pairwise coprime or power-of-two denominators within 2x of a Fraction sum,
# while the verify battery's sums stay below it (at most 42 bits at the desk profile).
_DEN_CAP = 64


def accumulate(parts: Iterable[tuple]) -> tuple[int, dict]:
    """sum of scale * image(k) * c / den over the terms (k, c) of every part (scale, (den, terms), image),
    as (denominator, {key: integer numerator}) in lowest terms without zeros; the zero sum has
    denominator 1.  Keys are any hashable: a monomial key, a Clifford key.  A part's
    terms are integer numerators over one positive denominator, and so is an image: it maps a key to
    a block (den, ((key, int), ...)).  None is the identity.  A float scale is refused.

    The numerators are summed over one running common denominator (FLINT's fmpq_poly layout), rescaled
    when a block's denominator does not divide it.  A rescale that would take the denominator past
    _DEN_CAP bits instead turns the partial sums into Fractions in place, adds this block and every
    later one as Fractions, and clears their denominators once at the end."""
    out: dict = {}
    get = out.get
    den = 1  # 0 once past the cap: no block denominator equals it, so every later block is added as Fractions
    for scale, block, image in parts:
        if type(scale) is not int:
            scale = exact(scale)  # before the block is read, so a float is named whatever the block
        part_den, terms = block
        scale, part_den = scale.numerator, scale.denominator * part_den
        if image is None:  # the block as the image of one key with coefficient 1
            terms, image_den, image_terms = ((None, 1),), 1, terms
        for key, c in terms:
            if image is not None:
                image_den, image_terms = image(key)
            n, d = scale * c, part_den * image_den
            if d != den:
                if den and den % d:
                    common = lcm(den, d)
                    if common.bit_length() > _DEN_CAP:
                        for k, v in out.items():
                            out[k] = Fraction(v, den)
                        den = 0
                    else:
                        rescale, den = common // den, common
                        for k in out:
                            out[k] *= rescale
                if not den:
                    for k, v in image_terms:
                        acc = get(k)  # acc + n v / d, normalized once
                        out[k] = Fraction(n * v, d) if acc is None else Fraction(
                            acc.numerator * d + n * v * acc.denominator, acc.denominator * d)
                    continue
                n *= den // d
            for k, v in image_terms:
                out[k] = get(k, 0) + n * v
    if not den:
        den = lcm(*(v.denominator for v in out.values()))  # a zero sum has denominator 1
        return den, {key: v.numerator * (den // v.denominator) for key, v in out.items() if v}
    out = {key: v for key, v in out.items() if v}
    g = gcd(den, *out.values())  # den itself when out is empty
    return (den, out) if g == 1 else (den // g, {key: v // g for key, v in out.items()})


class _Memo(dict):
    """A map that fills itself: a missing key's value is fill(key), computed on the first read and kept; a fill that
    raises keeps nothing.  So memo.__getitem__ is an image that accumulate reads.  A fill binds what it reads, never
    the memo's owner: a cycle would keep a dropped owner, and everything it holds, until the cycle collector runs."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[Hashable], object]):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def linear_extension(m: int, parts: Iterable[tuple]) -> Polynomial:
    """accumulate(parts) over monomial keys, as a polynomial in m variables."""
    return Polynomial._new(m, accumulate(parts))


def divide_by_linear_form(p: Polynomial, alpha: Sequence[ScalarLike]) -> Polynomial:
    """Exact division of p by the linear form <alpha, x>.

    A nonzero remainder is a hard error: in this package such a division is
    only ever attempted when exactness is a theorem, so failure signals an
    invalid root system or an internal bug.
    """
    m = p.m
    alpha = [exact(a) for a in alpha]
    if len(alpha) != m:
        raise DimensionMismatch(f"dimension mismatch: form of length {len(alpha)} vs dimension {m}")
    if not any(alpha):
        raise ValueError("cannot divide by the zero form")
    lead = next(j for j, a in enumerate(alpha) if a)
    units = _units(m)
    form = [(units[k], a) for k, a in enumerate(alpha) if a]
    shift = _BITS * (m - 1 - lead)
    remaining = {key: Fraction(n, p._den) for key, n in p._nums.items()}
    quotient: dict[int, Fraction] = {}
    while remaining:
        key = max(remaining)  # the deg-lex largest monomial
        if not key >> shift & _FIELD:
            raise InexactDivision(
                f"division of ({p}) by linear form {[str(a) for a in alpha]} leaves remainder term "
                f"{rational_str(remaining[key])}*x^{list(_exponents(m, [key])[0])}")
        c = remaining[key] / alpha[lead]
        q = key - units[lead]
        quotient[q] = quotient.get(q, _ZERO) + c
        for unit, a in form:
            acc = remaining.get(q + unit, _ZERO) - c * a
            if acc:
                remaining[q + unit] = acc
            else:
                remaining.pop(q + unit, None)
    den = lcm(*(c.denominator for c in quotient.values()))
    return linear_extension(m, [(1, (den, [(q, c.numerator * (den // c.denominator))
                                           for q, c in quotient.items()]), None)])
