"""poly.accumulate against a plain dict sum written here, sharing no code with the package.

The parts are drawn with Fraction coefficients, which the reference sums as they are; the accumulator
gets the same parts with every term list and image written as (denominator, integer numerators)."""
from fractions import Fraction
from math import gcd, lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dunkl_hermite.poly import _DEN_CAP, accumulate

# Hashable keys of several kinds.
KEYS = ((0, 1), (2, (1, 0)), "x", 7, (3, (0, 0, 2)), None)

factor = st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)]) | st.fractions(
    min_value=-4, max_value=4, max_denominator=6)
scale = st.sampled_from([1, -1, 2, -4, Fraction(1, 3)]) | factor
term_lists = st.lists(st.tuples(st.sampled_from(KEYS), factor), max_size=4)


@st.composite
def parts(draw):
    """Parts with the identity or a tabulated image; a drawn part may be repeated with -scale."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        table = draw(st.none() | st.dictionaries(st.sampled_from(KEYS), term_lists))
        image = None if table is None else (lambda key, table=table: table.get(key, ()))
        part = (draw(scale), draw(term_lists), image)
        out.append(part)
        if draw(st.booleans()):
            out.append((-part[0], part[1], image))
    return out


def reference(parts) -> dict:
    """Every product s * c * v added into a dict one by one; the zeros dropped at the end."""
    total = {}
    for s, terms, image in parts:
        for key, c in terms:
            for k, v in [(key, 1)] if image is None else image(key):
                total[k] = total.get(k, 0) + Fraction(s) * c * v
    return {k: v for k, v in total.items() if v != 0}


def block(terms) -> tuple:
    """A (key, Fraction) term list as (den, (key, integer) terms) over the lcm of its denominators."""
    den = lcm(*(c.denominator for _, c in terms))
    return den, [(k, c.numerator * (den // c.denominator)) for k, c in terms]


def integer_parts(parts) -> list:
    """The drawn parts in the accumulator's layout: the same scale, the terms and every image as blocks."""
    return [(s, block(terms), None if image is None else (lambda key, image=image: block(image(key))))
            for s, terms, image in parts]


def fractions(result) -> dict:
    """The accumulator's (den, {key: int}) as {key: Fraction}, once its canonical form is checked."""
    den, nums = result
    assert type(den) is int and den > 0 and gcd(den, *nums.values()) == 1
    assert all(type(v) is int and v for v in nums.values())
    return {k: Fraction(v, den) for k, v in nums.items()}


@given(parts())
@settings(max_examples=300, deadline=None)
def test_accumulate_equals_the_ring_reference(drawn):
    assert fractions(accumulate(integer_parts(drawn))) == reference(drawn)


@given(scale, term_lists, st.dictionaries(st.sampled_from(KEYS), term_lists))
@settings(max_examples=100, deadline=None)
def test_a_part_and_its_negation_cancel(s, terms, table):
    image = lambda key: block(table.get(key, ()))
    assert accumulate([(s, block(terms), image), (-s, block(terms), image)]) == (1, {})
    assert accumulate([(s, block(terms), None), (-s, block(terms), None)]) == (1, {})


def test_units_and_fractions_keep_their_values():
    """Unit factors skip the product, a fraction multiplies, and the key that cancels (7) is gone."""
    image = {"x": [("x", Fraction(1)), (7, Fraction(-1)), ((0, 1), Fraction(2, 3))]}.get
    parts = [(1, [("x", Fraction(1))], image), (-1, [("x", Fraction(-1, 2))], image),
             (Fraction(3, 2), [(7, Fraction(1))], None)]
    assert accumulate(integer_parts(parts)) == (2, {"x": 3, (0, 1): 2})
    assert fractions(accumulate(integer_parts(parts))) == {"x": Fraction(3, 2), (0, 1): Fraction(1)}


# Primes of 11 and 12 bits: any six distinct ones multiply past 60 bits, any seven past 70.
PRIMES = [p for p in range(1031, 4096, 2) if all(p % q for q in range(3, 65, 2))][:200]


def block_denominators(parts):
    """The denominator of every block the accumulator sums: a part's scale's times its terms', and for a part
    with an image, times the image's, one block per term."""
    for s, terms, image in parts:
        d = Fraction(s).denominator * block(terms)[0]
        if image is None:
            yield d
        else:
            for key, _ in terms:
                yield d * block(image(key))[0]


def running_lcm_bits(parts) -> list[int]:
    """Bit length of the lcm of the block denominators after each block, written out with gcd."""
    den, out = 1, []
    for d in block_denominators(parts):
        den = den * d // gcd(den, d)
        out.append(den.bit_length())
    return out


@st.composite
def coprime_parts(draw):
    """Parts whose coefficients (and image values) have distinct prime denominators, one prime each, so that
    their running common denominator passes _DEN_CAP after a few products and keeps growing."""
    primes = iter(draw(st.permutations(PRIMES)))
    numerator = st.integers(1, 40) | st.integers(-40, -1)
    coprime = st.builds(lambda n: Fraction(n, next(primes)), numerator)
    out = []
    for _ in range(draw(st.integers(3, 5))):
        terms = draw(st.lists(st.tuples(st.sampled_from(KEYS), coprime), min_size=3, max_size=6))
        table = draw(st.none() | st.dictionaries(st.sampled_from(KEYS), st.lists(
            st.tuples(st.sampled_from(KEYS), coprime), max_size=2), min_size=1))
        image = None if table is None else (lambda key, table=table: table.get(key, ()))
        out.append((draw(scale), terms, image))
    return out


@given(coprime_parts())
@settings(max_examples=200, deadline=None)
def test_pairwise_coprime_denominators_equal_the_ring_reference(drawn):
    """Past the cap the rest of the sum is added as Fractions; the result is the same sum, in lowest terms."""
    bits = running_lcm_bits(drawn)
    assume(any(b > _DEN_CAP for b in bits[:-1]))
    assert fractions(accumulate(integer_parts(drawn))) == reference(drawn)


def test_the_fraction_finish_takes_over_integer_sums_and_their_cancellations():
    """Small denominators first, then distinct primes that take the common denominator past the cap.

    'x' and (0, 1) are summed on both sides of the switch, and 'x' cancels to zero after it; 7 is summed only
    before it.  Each early and late term is a part of its own, so each is one block."""
    early = [("x", Fraction(5, 6)), (7, Fraction(-3, 4)), ((0, 1), Fraction(2)), ("x", Fraction(1, 3))]
    late = [((0, 1), Fraction(1, PRIMES[0]))] + [(None, Fraction(i + 1, p)) for i, p in enumerate(PRIMES[1:12])]
    late += [((0, 1), Fraction(-1, PRIMES[0])), ("x", Fraction(-7, 6))]
    image = {7: [(7, Fraction(1, 5))]}.get
    parts = ([(1, [term], None) for term in early] + [(Fraction(1, 2), [(7, Fraction(3))], lambda key: image(key, []))]
             + [(1, [term], None) for term in late])
    bits = running_lcm_bits(parts)
    switch = next(i for i, b in enumerate(bits) if b > _DEN_CAP)
    assert len(early) + 1 < switch < len(bits) - 2
    out = fractions(accumulate(integer_parts(parts)))
    assert out == reference(parts)
    assert "x" not in out and out[7] == Fraction(-3, 4) + Fraction(3, 10) and out[(0, 1)] == 2
    assert out[None] == sum(Fraction(i + 1, p) for i, p in enumerate(PRIMES[1:12]))


def test_the_cap_passed_inside_an_image_part_of_a_generator():
    """parts given as a generator, and the common denominator passes the cap in the middle of one image part's
    terms: the terms before the switch are summed as integers, the rest of that part and the later parts as
    Fractions, and 'x' cancels across the switch."""
    table = {i: [("x", Fraction(1, PRIMES[i])), (i % 3, Fraction(i + 1, PRIMES[i]))] for i in range(12)}
    image = lambda key: table.get(key, ())
    parts = [(1, [("x", Fraction(1, 6)), (0, Fraction(3, 4))], None),
             (Fraction(2, 3), [(i, Fraction(1, 1 + i % 2)) for i in range(12)], image),
             (Fraction(-2, 3), [(i, Fraction(1, 1 + i % 2)) for i in range(12)], lambda key: table.get(key, ())[:1]),
             (1, [("x", Fraction(-1, 6))], None)]
    bits = running_lcm_bits(parts)
    switch = next(i for i, b in enumerate(bits) if b > _DEN_CAP)
    assert 1 + 2 < switch < 1 + 12 - 2  # inside the first image part, with terms of it on both sides
    out = fractions(accumulate(part for part in integer_parts(parts)))
    assert out == reference(parts)
    assert "x" not in out and out[0] == Fraction(3, 4) + sum(
        Fraction(2, 3) * Fraction(1, 1 + i % 2) * Fraction(i + 1, PRIMES[i]) for i in range(0, 12, 3))
