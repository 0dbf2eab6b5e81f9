"""Exact sparse multivariate polynomials over arbitrary-precision rationals.

A polynomial in m variables is a map from exponent tuples (length m, nonnegative
ints) to nonzero Fraction coefficients; the zero polynomial has no terms.  The
one term order used everywhere (printing, JSON, matrix columns, division) is
degree-lexicographic with the largest monomial first: compare total degree,
then the exponent tuples lexicographically.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DimensionMismatch, InexactDivision

Exponent = tuple[int, ...]
ScalarLike = Union[int, Fraction]
SignedPermutation = tuple[tuple[int, int], ...]  # (k, s) per variable j: x_j -> s * x_k
Terms = tuple[tuple[Exponent, Fraction], ...]


def deglex_key(exponents: Exponent) -> tuple[int, Exponent]:
    """Sort key realizing the deg-lex order (ascending; reverse for canonical)."""
    return (sum(exponents), exponents)


def rational_str(value: Fraction) -> str:
    """Render a rational as "num/den", denominator always explicit."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "3/2", "-4/1", "0.1" or plain "3" into a Fraction; malformed text or a float raises ValueError."""
    if isinstance(text, float):
        exact(text)  # refuses it: str() of a float is its shortest repr, not the number written
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def exact(value) -> Fraction:
    """value as a Fraction; a float is refused (ValueError): its binary expansion is not the number written."""
    if isinstance(value, float):
        raise ValueError(f"inexact float {value!r}; pass an int, a Fraction or a string such as '1/10'")
    return Fraction(value)


def json_int(value, field: str) -> int:
    """value if it is a JSON integer (an int, not a bool); ValueError naming the field otherwise."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def dim_homogeneous(m: int, degree: int) -> int:
    """Dimension of the space of homogeneous polynomials of the given degree."""
    if degree < 0:
        return 0
    return comb(degree + m - 1, m - 1)


@lru_cache(maxsize=None)
def monomial_basis(m: int, degree: int) -> tuple[Exponent, ...]:
    """All exponent tuples of the given total degree, deg-lex largest first."""
    if degree < 0:
        return ()
    if m == 1:
        return ((degree,),)

    def gen(vars_left: int, total: int) -> Iterator[Exponent]:
        if vars_left == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(vars_left - 1, total - first):
                yield (first,) + rest

    return tuple(gen(m, degree))


class Polynomial:
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ("m", "_terms")

    def __init__(self, m: int, terms: Union[Mapping[Exponent, ScalarLike], Iterable[tuple[Exponent, ScalarLike]]] = ()):
        m = json_int(m, "m")
        if m < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {m}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for exponents, coeff in items:
            exponents = tuple(exponents)
            if len(exponents) != m:
                raise DimensionMismatch(
                    f"dimension mismatch: exponent tuple of length {len(exponents)} vs dimension {m}")
            if any(type(e) is not int or e < 0 for e in exponents):
                raise ValueError(f"exponents must be nonnegative integers, got {exponents}")
            coeff = exact(coeff)
            if coeff:
                acc = clean.get(exponents, _ZERO) + coeff
                if acc:
                    clean[exponents] = acc
                else:
                    clean.pop(exponents, None)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", clean)

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
        e = [0] * m
        e[axis] = 1
        return cls(m, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, m: int, exponents: Exponent, coeff: ScalarLike = 1) -> "Polynomial":
        return cls(m, {tuple(exponents): coeff})

    @classmethod
    def norm_squared(cls, m: int) -> "Polynomial":
        """x_1^2 + ... + x_m^2."""
        terms = {}
        for i in range(m):
            e = [0] * m
            e[i] = 2
            terms[tuple(e)] = Fraction(1)
        return cls(m, terms)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Term map; callers must not mutate it."""
        return self._terms

    def coefficient(self, exponents: Exponent) -> Fraction:
        return self._terms.get(tuple(exponents), _ZERO)

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical order, deg-lex largest first."""
        return sorted(self._terms.items(), key=lambda item: deglex_key(item[0]), reverse=True)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._terms, key=deglex_key)
        return e, self._terms[e]

    def total_degree(self) -> Union[int, None]:
        """Maximal total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        degrees = {sum(e) for e in self._terms}
        if len(degrees) != 1:
            raise ValueError(f"polynomial is not homogeneous of a single degree (degrees {sorted(degrees)})")
        return degrees.pop()

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        buckets: dict[int, dict[Exponent, Fraction]] = {}
        for e, c in self._terms.items():
            buckets.setdefault(sum(e), {})[e] = c
        return {d: Polynomial(self.m, t) for d, t in sorted(buckets.items())}

    # -- ring operations ---------------------------------------------------

    def _require_same_dim(self, other: "Polynomial") -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"dimension mismatch: {self.m} vs {other.m}")

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.m == other.m and self._terms == other._terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dim(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            acc = terms.get(e, _ZERO) + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return _raw(self.m, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dim(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            acc = terms.get(e, _ZERO) - c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return _raw(self.m, terms)

    def __neg__(self) -> "Polynomial":
        return _raw(self.m, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: Union["Polynomial", ScalarLike]) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._require_same_dim(other)
            terms: dict[Exponent, Fraction] = {}
            for ea, ca in self._terms.items():
                for eb, cb in other._terms.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    acc = terms.get(e, _ZERO) + ca * cb
                    if acc:
                        terms[e] = acc
                    else:
                        terms.pop(e, None)
            return _raw(self.m, terms)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.m)
            return _raw(self.m, {e: c * v for e, v in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
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
        """Partial derivative along one axis."""
        _check_axis(self.m, axis)
        terms: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            k = e[axis]
            if k:
                shifted = e[:axis] + (k - 1,) + e[axis + 1:]
                terms[shifted] = terms.get(shifted, _ZERO) + c * k
        return _raw(self.m, {e: c for e, c in terms.items() if c})

    def times_variable(self, axis: int) -> "Polynomial":
        """Multiplication by x_axis (exponent shift, no generic product)."""
        _check_axis(self.m, axis)
        return _raw(self.m, {e[:axis] + (e[axis] + 1,) + e[axis + 1:]: c for e, c in self._terms.items()})

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
        if not self._terms:
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


def _raw(m: int, terms: dict[Exponent, Fraction]) -> Polynomial:
    """Internal constructor skipping validation; terms must be clean already."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "m", m)
    object.__setattr__(p, "_terms", terms)
    return p


def compose_linear(p: Polynomial, matrix: Sequence[Sequence[ScalarLike]]) -> Polynomial:
    """Substitute x_j -> sum_k matrix[j][k] * x_k, i.e. compute p(A x) exactly.

    Each term c x^e expands as c times e[j] multiplications by the linear form of row j, for
    every j; the expansions are summed into one term map and zeros are dropped at the end."""
    m = p.m
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise DimensionMismatch(f"dimension mismatch: matrix is not {m}x{m}")
    forms = [[(k, a) for k, a in enumerate(map(exact, row)) if a] for row in matrix]
    out: dict[Exponent, Fraction] = {}
    for e, c in p.terms.items():
        expansion = {(0,) * m: c}
        for form, n in zip(forms, e):
            for _ in range(n):
                product: dict[Exponent, Fraction] = {}
                for te, tc in expansion.items():
                    for k, a in form:
                        ke = te[:k] + (te[k] + 1,) + te[k + 1:]
                        product[ke] = product.get(ke, _ZERO) + tc * a
                expansion = product
        for te, tc in expansion.items():
            out[te] = out.get(te, _ZERO) + tc
    return _raw(m, {e: c for e, c in out.items() if c})


def signed_permutation(matrix: Sequence[Sequence[ScalarLike]]) -> SignedPermutation | None:
    """(k, s) for each row j when every x_j -> s * x_k with s = +-1 and distinct k; None otherwise."""
    out = []
    for row in matrix:
        support = [(k, c) for k, c in enumerate(row) if c]
        if len(support) != 1 or support[0][1] not in (1, -1):
            return None
        out.append((support[0][0], int(support[0][1])))
    if len({k for k, _ in out}) != len(out):
        return None
    return tuple(out)


def compose_signed_permutation(p: Polynomial, perm: SignedPermutation) -> Polynomial:
    """p(A x) for a signed permutation A: each exponent is relabelled, with the parity of its
    negated variables as sign; equal to compose_linear(p, A) without any polynomial product."""
    m = p.m
    if len(perm) != m:
        raise DimensionMismatch(f"dimension mismatch: permutation of length {len(perm)} vs dimension {m}")
    terms: dict[Exponent, Fraction] = {}
    for e, c in p.terms.items():
        image = [0] * m
        negated = 0
        for (k, s), n in zip(perm, e):
            image[k] = n
            if s < 0:
                negated += n
        terms[tuple(image)] = -c if negated & 1 else c
    return _raw(m, terms)


def accumulate(parts: Iterable[tuple]) -> dict:
    """sum of scale * c * image(k) over the terms (k, c) of every part (scale, terms, image), as one
    term map without zeros.  Keys are any hashable: an exponent, a (blade mask, exponent) pair.  An
    image maps a key to (key, Fraction) terms; None is the identity.  A factor 1 or -1 costs no
    product, and its sign is a subtraction, not a negation."""
    out: dict = {}
    get = out.get
    for scale, terms, image in parts:
        if scale != 1 and scale != -1:
            terms, scale = [(k, scale * c) for k, c in terms], 1
        for key, c in terms:
            factor, sign = (None, scale) if image is None or c == 1 else (None, -scale) if c == -1 else (c, scale)
            for k, v in ((key, c),) if image is None else image(key):
                v = v if factor is None else factor * v
                acc = get(k)
                if sign < 0:
                    out[k] = -v if acc is None else acc - v
                else:
                    out[k] = v if acc is None else acc + v
    return {k: v for k, v in out.items() if v}


def linear_extension(m: int, parts: Iterable[tuple]) -> Polynomial:
    """accumulate(parts) over exponents, as a polynomial in m variables."""
    return _raw(m, accumulate(parts))


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
    remaining = dict(p.terms)
    quotient: dict[Exponent, Fraction] = {}
    while remaining:
        e = max(remaining, key=deglex_key)
        if e[lead] == 0:
            raise InexactDivision(
                f"division of ({p}) by linear form {[str(a) for a in alpha]} leaves remainder term "
                f"{rational_str(remaining[e])}*x^{list(e)}")
        c = remaining[e] / alpha[lead]
        qe = e[:lead] + (e[lead] - 1,) + e[lead + 1:]
        quotient[qe] = quotient.get(qe, _ZERO) + c
        for k, a in enumerate(alpha):
            if not a:
                continue
            te = qe[:k] + (qe[k] + 1,) + qe[k + 1:]
            acc = remaining.get(te, _ZERO) - c * a
            if acc:
                remaining[te] = acc
            else:
                remaining.pop(te, None)
    return _raw(m, {e: c for e, c in quotient.items() if c})
