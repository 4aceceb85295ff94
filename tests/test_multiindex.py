import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from arveson import multiindex as mi
from arveson.errors import InputError
from oracles import monomial_norm_sq


def test_as_index_basic():
    assert mi.as_index([1, 2, 0]) == (1, 2, 0)
    assert mi.as_index((0,)) == (0,)


def test_as_index_rejects_negative():
    with pytest.raises(InputError):
        mi.as_index([1, -1])


def test_as_index_rejects_empty():
    with pytest.raises(InputError):
        mi.as_index([])


def test_degree_guard():
    with pytest.raises(InputError):
        mi.as_index([mi.MAX_DEGREE + 1])


def test_index_factorial():
    assert mi.index_factorial((3, 2)) == math.factorial(3) * math.factorial(2)
    assert mi.index_factorial((0, 0, 0)) == 1


def test_multinomial_weight_is_integer_multinomial():
    # |alpha|! / alpha! counts the words with letter multiplicities alpha
    assert mi.multinomial_weight((2, 1)) == 3
    assert mi.multinomial_weight((1, 1, 1)) == 6
    assert mi.multinomial_weight((4, 0)) == 1


def test_monomial_norm_sq_exact():
    # squared norm of x^alpha is alpha!/|alpha|!, the oracle of the
    # closed-form monomial norms
    assert monomial_norm_sq((2, 1)) == Fraction(2, 6)
    assert monomial_norm_sq((0, 0)) == 1
    v = monomial_norm_sq((3, 3))
    assert v == Fraction(36, 720)
    assert isinstance(v, Fraction)


def test_enumerate_graded_lex_order_d2():
    got = mi.enumerate_indices(2, 2)
    want = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert got == want


def test_enumerate_count():
    # number of monomials of degree <= D in d variables is C(d+D, d)
    for d, D in [(1, 5), (2, 4), (3, 3)]:
        assert len(mi.enumerate_indices(d, D)) == math.comb(d + D, d)


def test_enumerate_degree_monotone():
    idx = mi.enumerate_indices(3, 4)
    degs = [mi.degree(a) for a in idx]
    assert degs == sorted(degs)


def test_add():
    assert mi.add((1, 0), (0, 2)) == (1, 2)
    with pytest.raises(InputError):
        mi.add((1, 0), (1,))


def test_unit():
    assert mi.unit(3, 1) == (0, 1, 0)
    with pytest.raises(InputError):
        mi.unit(2, 2)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4))
def test_multinomial_weight_matches_factorials(alpha):
    alpha = tuple(alpha)
    w = mi.multinomial_weight(alpha)
    assert w == math.factorial(sum(alpha)) // mi.index_factorial(alpha)
    assert w * mi.index_factorial(alpha) == math.factorial(sum(alpha))


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=6),
)
def test_enumerate_is_strictly_sorted_and_unique(d, D):
    idx = mi.enumerate_indices(d, D)
    assert len(set(idx)) == len(idx)
    # graded order, and within a degree the listing is reverse lexicographic
    for a, b in zip(idx, idx[1:]):
        assert (mi.degree(a), tuple(-x for x in a)) < (
            mi.degree(b),
            tuple(-x for x in b),
        )
