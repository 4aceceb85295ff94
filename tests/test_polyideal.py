import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from arveson import multiindex as mi
from arveson import numerics, polyideal
from arveson.errors import InputError, ValidationError
from arveson.polynomials import Polynomial


def x(j, d=2):
    return Polynomial.variable(d, j)


def test_slice_dim_of_square_maximal_ideal():
    # <x1^2, x1 x2, x2^2> up to degree 4: everything of degree 2..4
    gens = [Polynomial.monomial(a) for a in [(2, 0), (1, 1), (0, 2)]]
    ideal = polyideal.PolyIdeal(gens, 4)
    n_total = len(mi.enumerate_indices(2, 4))
    n_below = len(mi.enumerate_indices(2, 1))
    assert ideal.slice_dim == n_total - n_below


def test_contains_membership_with_cofactors():
    g1 = x(0) ** 2 - x(1)
    g2 = x(0) * x(1)
    ideal = polyideal.PolyIdeal([g1, g2], 6)
    p = (x(1) ** 2 + 3) * g1 + (x(0) - 1) * g2
    assert ideal.contains(p)
    assert not ideal.contains(x(0))
    assert not ideal.contains(Polynomial.constant(2, 1.0))


def test_contains_degree_guard():
    ideal = polyideal.PolyIdeal([x(0) ** 2], 3)
    with pytest.raises(InputError):
        ideal.contains(x(0) ** 4)


def test_localize_unit_generator_sees_low_jets():
    # x - 1 is a unit near 0, so the localization at 0 is everything
    g = x(0, 1) - 1
    ideal = polyideal.PolyIdeal([g], 6)
    loc = polyideal.localize(ideal, [0.0], 2)
    one = Polynomial.constant(1, 1.0)
    assert loc.contains(one)


def test_localize_order_two_zero():
    # x^2(x-1): at 0 the local ideal is m^2, at 1 it is m
    g = Polynomial.monomial((3,)) - Polynomial.monomial((2,))
    ideal = polyideal.PolyIdeal([g], 8)
    loc0 = polyideal.localize(ideal, [0.0], 3)
    assert not loc0.contains(x(0, 1))
    assert loc0.contains(x(0, 1) ** 2)
    assert loc0.contains(x(0, 1) ** 3)
    loc1 = polyideal.localize(ideal, [1.0], 3)
    assert loc1.contains(x(0, 1) - 1)
    assert not loc1.contains(Polynomial.constant(1, 1.0))


def test_localize_depth_guard():
    ideal = polyideal.PolyIdeal([x(0) ** 2], 4)
    with pytest.raises(InputError):
        polyideal.localize(ideal, [0.0, 0.0], 4)


def test_polynomial_order_one_variable():
    g = Polynomial.monomial((3,)) - Polynomial.monomial((2,))
    ideal = polyideal.PolyIdeal([g], 8)
    assert polyideal.polynomial_order(ideal, [0.0]) == 1
    assert polyideal.polynomial_order(ideal, [1.0]) == 0


def test_polynomial_order_square_maximal():
    gens = [Polynomial.monomial(a) for a in [(2, 0), (1, 1), (0, 2)]]
    ideal = polyideal.PolyIdeal(gens, 6)
    assert polyideal.polynomial_order(ideal, [0.0, 0.0]) == 1


def test_polynomial_order_rejects_nonisolated():
    # x1 alone vanishes on a whole line through the origin
    ideal = polyideal.PolyIdeal([x(0)], 6)
    with pytest.raises(ValidationError):
        polyideal.polynomial_order(ideal, [0.0, 0.0])


def test_polynomial_order_runs_out_of_degree():
    # order 3 at 0 needs jets of order 5, beyond what degree 4 certifies
    g = Polynomial.monomial((4,))
    ideal = polyideal.PolyIdeal([g], 4)
    with pytest.raises(ValidationError):
        polyideal.polynomial_order(ideal, [0.0])


def test_vanishing_ideal_slice_single_point():
    vi = polyideal.vanishing_ideal_slice([[0.5]], [0], 3)
    # polynomials of degree <= 3 vanishing at 0.5: dimension 3
    assert vi.slice_dim == 3
    for p in vi.generators:
        assert abs(p((0.5,))) < 1e-10


def test_vanishing_ideal_slice_with_multiplicity():
    vi = polyideal.vanishing_ideal_slice([[0.25, -0.5]], [1], 4)
    for p in vi.generators:
        assert abs(p((0.25, -0.5))) < 1e-10
        assert abs(p.partial(0)((0.25, -0.5))) < 1e-10
        assert abs(p.partial(1)((0.25, -0.5))) < 1e-10


def test_vanishing_ideal_slice_two_points_dimension():
    # degree <= 2 in one variable, double zero at 0 and simple zero at 0.7:
    # only multiples of x^2 kill the first jet, and x^2 misses the second
    vi = polyideal.vanishing_ideal_slice([[0.0], [0.7]], [1, 0], 2)
    assert vi.slice_dim == 0
    vi3 = polyideal.vanishing_ideal_slice([[0.0], [0.7]], [1, 0], 3)
    assert vi3.slice_dim == 1
    p = vi3.generators[0]
    assert abs(p((0.0,))) < 1e-10 and abs(p((0.7,))) < 1e-10


def test_vanishing_ideal_rejects_duplicates():
    with pytest.raises(InputError):
        polyideal.vanishing_ideal_slice([[0.1], [0.1]], [0, 0], 3)


def test_localize_matches_vanishing_slice_on_annihilated_jets():
    # cross check two independently built objects on shared territory:
    # membership in the localization at z with mu=1 implies the first jet
    # at z vanishes for ideal members built from vanishing data
    vi = polyideal.vanishing_ideal_slice([[0.3]], [1], 4)
    loc = polyideal.localize(vi, [0.3], 1)
    for p in vi.generators:
        assert loc.contains(p)


# The Polynomial-product constructions that the dense gathers replaced,
# kept as oracles: every column is an explicit product, so they share no
# index arithmetic with the code under test.


def oracle_slice(ideal):
    cols = []
    for g in ideal.generators:
        room = ideal.degree_bound - g.degree()
        for q_alpha in mi.enumerate_indices(ideal.d, room):
            prod = Polynomial.monomial(q_alpha) * g
            cols.append(prod.coeff_vector(ideal.basis))
    if not cols:
        return np.zeros((len(ideal.basis), 0), dtype=complex)
    return numerics.orth_columns(np.column_stack(cols))


def oracle_localize(ideal, z, mu):
    jet_basis = mi.enumerate_indices(ideal.d, mu)
    cols = []
    for g in ideal.generators:
        for beta in jet_basis:
            factor = Polynomial.constant(ideal.d, 1.0)
            for j, bj in enumerate(beta):
                if bj:
                    lin = Polynomial.variable(ideal.d, j) - Polynomial.constant(ideal.d, z[j])
                    for _ in range(bj):
                        factor = factor * lin
            cols.append((factor * g).jet(z, mu, jet_basis))
    if not cols:
        return np.zeros((len(jet_basis), 0), dtype=complex)
    return numerics.orth_columns(np.column_stack(cols))


def test_shift_index_by_hand_d2():
    # graded basis of d=2: (0,0) (1,0) (0,1) | (2,0) (1,1) (0,2) | (3,0) (2,1) ...
    gammas = np.array([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)])
    shifts = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])
    want = np.array(
        [
            [0, -1, -1, -1],
            [1, 0, -1, -1],
            [2, -1, 0, -1],
            [3, 1, -1, -1],
            [4, 2, 1, 0],
            [5, -1, 2, -1],
            [7, 4, 3, 1],
        ]
    )
    assert np.array_equal(polyideal._shift_index(gammas, shifts), want)


@st.composite
def ideal_point_case(draw):
    # z and the coefficients are dyadic with few bits, so both constructions
    # compute every jet exactly and the comparison never rests on how the
    # rank gate of orth_columns classifies roundoff; the bound on the grid
    # keeps |z| <= 0.9
    d = draw(st.integers(1, 3))
    top = 2 if d == 3 else 3
    k = {1: 10, 2: 7, 3: 5}[d]
    part = st.integers(-k, k)
    z = np.array([complex(draw(part), draw(part)) / 16 for _ in range(d)])
    coeff = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
    alpha = st.lists(st.integers(0, top), min_size=d, max_size=d).filter(lambda a: sum(a) <= top)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = Polynomial(d, dict(draw(st.lists(st.tuples(alpha.map(tuple), coeff), min_size=1, max_size=4))))
        if draw(st.booleans()):
            g = g - g(z)  # vanish at z, so the jet image is a proper subspace
        gens.append(g)
    degree_bound = max(g.degree() for g in gens) + draw(st.integers(0, 1))
    return polyideal.PolyIdeal(gens, max(degree_bound, 0), d=d), z


@settings(max_examples=60, deadline=None)
@given(ideal_point_case())
def test_dense_spans_match_polynomial_products(case):
    ideal, z = case
    want = oracle_slice(ideal)
    assert ideal.slice_dim == want.shape[1]
    assert numerics.subspace_equal(ideal.slice_basis, want, 1e-10)
    for mu in range(ideal.degree_bound - ideal.max_generator_degree + 2):
        got = polyideal.localize(ideal, z, mu)
        want = oracle_localize(ideal, z, mu)
        assert got.dim == want.shape[1]
        assert numerics.subspace_equal(got.basis, want, 1e-10)
