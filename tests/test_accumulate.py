"""poly.accumulate against a plain dict sum written here, sharing no code with the package."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl_hermite.poly import accumulate

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


@given(parts())
@settings(max_examples=300, deadline=None)
def test_accumulate_equals_the_ring_reference(drawn):
    out = accumulate(drawn)
    assert all(type(c) is Fraction and c for c in out.values())
    assert out == reference(drawn)


@given(scale, term_lists, st.dictionaries(st.sampled_from(KEYS), term_lists))
@settings(max_examples=100, deadline=None)
def test_a_part_and_its_negation_cancel(s, terms, table):
    image = lambda key: table.get(key, ())
    assert accumulate([(s, terms, image), (-s, terms, image)]) == {}
    assert accumulate([(s, terms, None), (-s, terms, None)]) == {}


def test_units_and_fractions_keep_their_values():
    """Unit factors skip the product, a fraction multiplies, and the key that cancels (7) is gone."""
    image = {"x": [("x", Fraction(1)), (7, Fraction(-1)), ((0, 1), Fraction(2, 3))]}.get
    out = accumulate([(1, [("x", Fraction(1))], image), (-1, [("x", Fraction(-1, 2))], image),
                      (Fraction(3, 2), [(7, Fraction(1))], None)])
    assert out == {"x": Fraction(3, 2), (0, 1): Fraction(1)}
