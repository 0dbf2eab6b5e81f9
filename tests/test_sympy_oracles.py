"""compose_linear, laguerre_poly, weighted_moment, inner_product, the exact RREF, rank and kernel and the frame
solve against sympy, an oracle sharing no code with the package."""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl_hermite.errors import MathPrecondition
from dunkl_hermite.hermite import laguerre_poly
from dunkl_hermite.linalg import kernel_vectors, matrix_rank, reduced_row_echelon, solve_in_frame
from dunkl_hermite.moments import inner_product, weighted_moment
from dunkl_hermite.poly import Polynomial, compose_linear

from test_dunkl_map import f4_json, g2_json, polynomials

sp = pytest.importorskip("sympy")


def to_fraction(value) -> Fraction:
    assert value.is_Rational, value  # sympy evaluates these exactly; anything else is a failure
    return Fraction(int(value.p), int(value.q))


# positive, zero and negative parameters; the negative ones avoid the poles {-1, ..., -t} for t <= 6
LAGUERRE_PARAMETERS = [Fraction(0), Fraction(1), Fraction(5, 2), Fraction(7, 3), Fraction(-1, 2),
                       Fraction(-5, 3), Fraction(-13, 2), Fraction(-7), Fraction(-9)]


@pytest.mark.parametrize("a", LAGUERRE_PARAMETERS, ids=str)
def test_laguerre_poly_matches_sympy(a):
    x = sp.Symbol("x")
    for t in range(7):
        if a.denominator == 1 and -t <= a <= -1:
            continue
        expected = sp.Poly(sp.assoc_laguerre(t, sp.Rational(a.numerator, a.denominator), x), x)
        coefficients = [to_fraction(c) for c in reversed(expected.all_coeffs())]
        assert laguerre_poly(t, a) == tuple(coefficients), (t, a)


def test_laguerre_poles_are_refused():
    for t in range(1, 7):
        for a in range(-t, 0):
            with pytest.raises(MathPrecondition, match="pole"):
                laguerre_poly(t, Fraction(a))
        laguerre_poly(t, Fraction(-t - 1))  # just below the poles


def gamma_oracle(a: int, kappa: int):
    """Integral over R of x^a |x|^{2 kappa} exp(-x^2), divided by sqrt(pi): Gamma((a + 2 kappa + 1)/2)
    for even a, 0 for odd a."""
    if a % 2:
        return sp.Integer(0)
    return sp.gamma(sp.Rational(a + 2 * kappa + 1, 2)) / sp.sqrt(sp.pi)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_weighted_moment_matches_sympy_gamma(m):
    for kappas in itertools.product(range(3), repeat=m):
        for exponents in itertools.product(range(5), repeat=m):
            value = weighted_moment(exponents, kappas)
            expected = sp.Mul(*(gamma_oracle(a, k) for a, k in zip(exponents, kappas)))
            assert value.pi_power == Fraction(m, 2)
            assert value.coefficient == to_fraction(expected), (exponents, kappas)
            if any(a % 2 for a in exponents):
                assert value.is_zero


def sympy_polynomial(p: Polynomial, xs):
    return sp.Add(*(sp.Rational(c.numerator, c.denominator) * sp.Mul(*(x ** a for x, a in zip(xs, e)))
                    for e, c in p.terms.items()))


@given(st.integers(1, 2).flatmap(lambda m: st.tuples(
    polynomials(m, 3), polynomials(m, 3), st.lists(st.integers(0, 2), min_size=m, max_size=m))))
@settings(max_examples=40, deadline=None)
def test_inner_product_matches_sympy_gamma(case):
    """f g expanded in sympy, each term's moment the product of its gamma_oracle factors, against one exact sum."""
    f, g, kappas = case
    xs = sp.symbols(f"x0:{f.m}")
    product = sp.Poly(sp.expand(sympy_polynomial(f, xs) * sympy_polynomial(g, xs)), *xs)
    expected = sp.Add(*(c * sp.Mul(*(gamma_oracle(a, k) for a, k in zip(e, kappas))) for e, c in product.terms()))
    value = inner_product(f, g, kappas)
    assert value.pi_power == Fraction(f.m, 2)
    assert value.coefficient == to_fraction(expected), (f, g, kappas)


def rational(value):
    value = Fraction(value)
    return sp.Rational(value.numerator, value.denominator)


def sympy_compose(p, matrix) -> dict:
    """Terms of p(A x): sympy.expand of the simultaneous substitution x_j -> sum_k A_jk x_k."""
    xs = sp.symbols(f"x1:{p.m + 1}")

    f = sp.Add(*(rational(c) * sp.Mul(*(x ** n for x, n in zip(xs, e))) for e, c in p.terms.items()))
    image = {x: sp.Add(*(rational(a) * y for a, y in zip(row, xs))) for x, row in zip(xs, matrix)}
    expanded = sp.Poly(sp.expand(f.xreplace(image)), *xs)
    return {e: to_fraction(c) for e, c in expanded.terms() if c}


def reflection_matrices(data) -> list:
    """r_alpha = I - 2 alpha alpha^T / <alpha, alpha> for each positive root of a root-system document."""
    out = []
    for root in data["positive_roots"]:
        alpha = [Fraction(c) for c in root]
        norm = sum(a * a for a in alpha)
        out.append([[int(j == k) - 2 * alpha[j] * alpha[k] / norm for k in range(len(alpha))]
                    for j in range(len(alpha))])
    return out


@st.composite
def polynomial_and_matrix(draw):
    """A polynomial of degree <= 5 in m <= 4 variables and an m x m matrix of int and Fraction
    entries: dense, with a zero row, or singular (for m > 1: the last row a multiple of the first)."""
    m = draw(st.integers(1, 4))
    entry = st.integers(-2, 2) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    matrix = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    shape = draw(st.sampled_from(["dense", "zero row", "singular"]))
    if shape == "zero row":
        matrix[draw(st.integers(0, m - 1))] = [0] * m
    elif shape == "singular":
        scale = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        matrix[-1] = [scale * Fraction(a) for a in matrix[0]]
    return draw(polynomials(m, max_degree=5, max_terms=5)), matrix


@given(polynomial_and_matrix())
@example((Polynomial(2, {(1, 1): 1}), [[1, 1], [1, -1]]))  # x1 x2 -> x1^2 - x2^2: x1 x2 cancels
@settings(max_examples=80, deadline=None)
def test_compose_linear_matches_sympy_on_random_matrices(case):
    p, matrix = case
    assert dict(compose_linear(p, matrix).terms) == sympy_compose(p, matrix), (p, matrix)


@pytest.mark.parametrize("name, data, count", [("G2", g2_json(1, 1), 6), ("F4", f4_json(1, 1), 24)],
                         ids=["G2", "F4"])
@given(draws=st.data())
@settings(max_examples=12, deadline=None)
def test_compose_linear_matches_sympy_on_every_reflection(name, data, count, draws):
    """Every reflection of G2 and F4, the signed permutations among them included."""
    matrices = reflection_matrices(data)
    assert len(matrices) == count
    p = draws.draw(polynomials(data["m"], max_degree=5, max_terms=4))
    for matrix in matrices:
        assert dict(compose_linear(p, matrix).terms) == sympy_compose(p, matrix), (name, p, matrix)


def canonical(vector) -> tuple:
    """Denominators cleared, content 1, leading nonzero entry positive."""
    values = [to_fraction(x) for x in vector]
    den = math.lcm(*(x.denominator for x in values))
    ints = [int(x * den) for x in values]
    content = math.gcd(*ints)
    sign = -1 if next(x for x in ints if x) < 0 else 1
    return tuple(sign * x // content for x in ints)


@st.composite
def sparse_matrices(draw):
    """Rational matrices up to 6 x 8, about three quarters zeros, with a zero row, a zero column and
    (from two rows on) a row duplicated over another."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    entry = st.tuples(st.integers(0, 3), nonzero).map(lambda t: t[1] if t[0] == 0 else Fraction(0))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    rows[draw(st.integers(0, nrows - 1))] = [Fraction(0)] * ncols
    zero_column = draw(st.integers(0, ncols - 1))
    for row in rows:
        row[zero_column] = Fraction(0)
    if nrows > 1:
        source, target = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=2, unique=True))
        rows[target] = list(rows[source])
    return rows


@given(sparse_matrices())
@example([[Fraction(0), Fraction(2), Fraction(4)], [Fraction(0), Fraction(0), Fraction(0)],
          [Fraction(0), Fraction(2), Fraction(4)]])
@settings(max_examples=200, deadline=None)
def test_rref_rank_and_kernel_match_sympy(rows):
    ncols = len(rows[0])
    matrix = sp.Matrix([[rational(x) for x in row] for row in rows])
    expected_rref, expected_pivots = matrix.rref()
    echelon, pivots = reduced_row_echelon(rows)
    assert echelon == [[to_fraction(x) for x in row] for row in expected_rref.tolist()], rows
    assert pivots == list(expected_pivots), rows
    assert matrix_rank(rows) == matrix.rank(), rows
    assert kernel_vectors(rows, ncols) == [canonical(v) for v in matrix.nullspace()], rows


@st.composite
def frames_and_targets(draw):
    """Term maps of a frame, sometimes with a combination of two members appended (dependent, or a
    zero member), and a target in their span, sometimes plus a random term map (usually outside
    it, within or beyond the frame's support)."""
    m = draw(st.integers(1, 3))
    coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    term_maps = st.dictionaries(st.tuples(*[st.integers(0, 2)] * m), coefficient.filter(bool),
                                min_size=1, max_size=4)

    def combine(weights, maps):
        out = {}
        for w, terms in zip(weights, maps):
            for e, c in terms.items():
                out[e] = out.get(e, 0) + w * c
        return {e: c for e, c in out.items() if c}

    frame = draw(st.lists(term_maps, min_size=1, max_size=5))
    if draw(st.booleans()):
        pair = draw(st.lists(st.sampled_from(frame), min_size=2, max_size=2))
        frame.append(combine([draw(coefficient), draw(coefficient)], pair))
    target = combine([draw(coefficient) for _ in frame], frame)
    if draw(st.booleans()):
        target = combine([1, 1], [target, draw(term_maps)])
    return m, frame, target


def sympy_frame_solve(frame, target):
    """Coordinates of target from sympy's Gauss-Jordan solve of [frame | target] over the union of
    their supports; an inconsistent system is "not in the span", free parameters "dependent"."""
    support = sorted(set(target).union(*frame))
    matrix = sp.Matrix([[rational(q.get(e, 0)) for q in frame] for e in support])
    try:
        solution, params = matrix.gauss_jordan_solve(sp.Matrix([rational(target.get(e, 0)) for e in support]))
    except ValueError:
        return "MathPrecondition: target polynomial is not in the span of the frame"
    if params.shape[0]:
        return "MathPrecondition: frame polynomials are linearly dependent"
    return [to_fraction(x) for x in solution]


@given(frames_and_targets())
@example((2, [{(2, 0): 1}, {(2, 0): 2}], {(2, 0): 3}))  # dependent frame, target in its span
@example((2, [{(2, 0): 1}, {(2, 0): 2}], {(2, 0): 1, (0, 2): 1}))  # dependent frame, target outside its support
@example((2, [{(2, 0): 1, (1, 1): 1}], {(2, 0): 1}))  # inside the support, outside the span
@settings(max_examples=200, deadline=None)
def test_solve_in_frame_matches_sympy(case):
    m, frame, target = case
    try:
        got = solve_in_frame([Polynomial(m, q) for q in frame], Polynomial(m, target))
    except MathPrecondition as exc:
        got = f"MathPrecondition: {exc}"
    assert got == sympy_frame_solve(frame, target), case
