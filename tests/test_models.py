import numpy as np
import pytest
from numpy.testing import assert_allclose

from arveson import fockspace as fk
from arveson import models, polyideal, tuples
from arveson.errors import InputError
from arveson.polynomials import Polynomial


def test_monomial_model_square_maximal():
    m = models.monomial_model([(2, 0), (1, 1), (0, 2)], 2)
    assert m.dim == 3
    assert m.basis_indices == ((0, 0), (1, 0), (0, 1))
    E21 = np.zeros((3, 3))
    E21[1, 0] = 1
    E31 = np.zeros((3, 3))
    E31[2, 0] = 1
    assert_allclose(m.tuple.matrices[0], E21, atol=1e-13)
    assert_allclose(m.tuple.matrices[1], E31, atol=1e-13)
    S = sum(M @ M.conj().T for M in m.tuple.matrices)
    assert_allclose(S, np.diag([0.0, 1.0, 1.0]), atol=1e-13)


def test_monomial_model_weights_are_norm_ratios():
    # multiplication by x_j maps x^beta to x^(beta+ej); the model entry is
    # the ratio of the monomial norms
    m = models.monomial_model([(3, 0), (0, 2)], 2)
    basis = m.basis_indices
    Z1, Z2 = m.tuple.matrices
    # ||x^(2,0)||^2 = 2!/2! = 1 and ||x^(1,0)||^2 = 1
    assert_allclose(abs(Z1[basis.index((2, 0)), basis.index((1, 0))]), 1.0, rtol=1e-12)
    # ||x^(1,1)||^2 = 1/2 over ||x^(0,1)||^2 = 1
    assert_allclose(
        abs(Z1[basis.index((1, 1)), basis.index((0, 1))]),
        np.sqrt(0.5),
        rtol=1e-12,
    )
    # ||x^(2,1)||^2 = 2/6 over ||x^(2,0)||^2 = 1
    assert_allclose(
        abs(Z2[basis.index((2, 1)), basis.index((2, 0))]),
        np.sqrt(1 / 3),
        rtol=1e-12,
    )


def test_monomial_model_rejects_unit():
    with pytest.raises(InputError):
        models.monomial_model([(0, 0)], 2)


def test_monomial_model_rejects_infinite_quotient():
    # no pure power of x2 among the generators: quotient has all x2^k
    with pytest.raises(InputError):
        models.monomial_model([(2, 0)], 2)


def test_monomial_model_is_row_contraction():
    m = models.monomial_model([(3, 0), (1, 1), (0, 2)], 2)
    assert m.tuple.is_row_contraction(tol=1e-12)


def test_gauge_unitary_rotates_model():
    m = models.monomial_model([(2, 0), (1, 1), (0, 2)], 2)
    for t in [0.0, 0.7, np.pi / 3, 2.0]:
        W = models.gauge_unitary(m, t)
        assert_allclose(W @ W.conj().T, np.eye(m.dim), atol=1e-14)
        for Z in m.tuple.matrices:
            assert_allclose(
                W @ Z @ W.conj().T, np.exp(1j * t) * Z, atol=1e-14
            )


def test_annihilator_of_monomial_model_is_the_ideal_slice():
    gens = [(2, 0), (1, 1), (0, 2)]
    m = models.monomial_model(gens, 2)
    ann = tuples.annihilator_slice(m.tuple, 2)
    ideal = polyideal.PolyIdeal([Polynomial.monomial(g) for g in gens], 2)
    basis = ideal.basis
    from arveson import numerics

    A = np.column_stack([p.coeff_vector(basis) for p in ann])
    assert numerics.subspace_equal(
        numerics.orth_columns(A), ideal.slice_basis
    )


def test_jet_model_single_point_maximal_ideal():
    # one point, maximal ideal: the model is multiplication by the scalars
    z = [0.3, -0.2]
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    b = polyideal.PolyIdeal(
        [x1 - Polynomial.constant(2, z[0]), x2 - Polynomial.constant(2, z[1])], 6
    )
    m = models.jet_model([z], [b])
    assert m.dim == 1
    assert_allclose(m.tuple.matrices[0], [[z[0]]], atol=1e-10)
    assert_allclose(m.tuple.matrices[1], [[z[1]]], atol=1e-10)


def test_jet_model_two_points_diagonalizable():
    # two distinct points with maximal ideals: joint eigenvalues are the points
    pts = [[0.0], [0.5]]
    x = Polynomial.variable(1, 0)
    b0 = polyideal.PolyIdeal([x], 6)
    b1 = polyideal.PolyIdeal([x - Polynomial.constant(1, 0.5)], 6)
    m = models.jet_model(pts, [b0, b1])
    assert m.dim == 2
    Z = m.tuple.matrices[0]
    vals = np.sort(np.linalg.eigvals(Z).real)
    assert_allclose(vals, [0.0, 0.5], atol=1e-9)


def test_jet_model_is_row_contraction():
    pts = [[0.25, 0.0], [-0.3, 0.2]]
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    b1 = polyideal.PolyIdeal(
        [
            (x1 - 0.25) * (x1 - 0.25),
            (x1 - 0.25) * x2,
            x2 * x2,
        ],
        8,
    )
    b2 = polyideal.PolyIdeal([x1 + 0.3, x2 - 0.2], 8)
    m = models.jet_model(pts, [b1, b2])
    assert m.tuple.is_row_contraction(tol=1e-8)
    # local dimensions 3 (full first-order jet) and 1
    assert m.dim == 4
    assert m.local_dims == (3, 1)
    assert m.orders == (1, 0)


def test_jet_model_annihilates_products_of_local_ideals():
    pts = [[0.25], [-0.4]]
    x = Polynomial.variable(1, 0)
    b1 = polyideal.PolyIdeal([(x - 0.25) ** 2], 8)
    b2 = polyideal.PolyIdeal([x + 0.4], 8)
    m = models.jet_model(pts, [b1, b2])
    p = (x - 0.25) ** 2 * (x + 0.4)
    assert np.linalg.norm(tuples.apply_poly(p, m.tuple)) < 1e-8
    q = (x - 0.25) * (x + 0.4)
    assert np.linalg.norm(tuples.apply_poly(q, m.tuple)) > 1e-3


def test_jet_model_cyclic_vector():
    pts = [[0.25], [-0.4]]
    x = Polynomial.variable(1, 0)
    b1 = polyideal.PolyIdeal([(x - 0.25) ** 2], 8)
    b2 = polyideal.PolyIdeal([x + 0.4], 8)
    m = models.jet_model(pts, [b1, b2])
    k = tuples.krylov(m.tuple, m.cyclic, m.dim)
    assert k.is_cyclic


def test_jet_model_rejects_points_outside_ball():
    x = Polynomial.variable(1, 0)
    b = polyideal.PolyIdeal([x - 2.0], 6)
    with pytest.raises(InputError):
        models.jet_model([[2.0]], [b])


def test_jet_model_rejects_coincident_points():
    x = Polynomial.variable(1, 0)
    b = polyideal.PolyIdeal([x - 0.1], 6)
    with pytest.raises(InputError):
        models.jet_model([[0.1], [0.1]], [b, b])


def test_verify_localizations_two_point():
    pts = [[0.25, 0.0], [-0.3, 0.2]]
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    # m^2 + <x1 - z1> at the first point, maximal at the second
    sq = [
        (x1 - 0.25) * (x1 - 0.25),
        (x1 - 0.25) * x2,
        x2 * x2,
        x1 - 0.25,
    ]
    b1 = polyideal.PolyIdeal(sq, 8)
    b2 = polyideal.PolyIdeal([x1 + 0.3, x2 - 0.2], 8)
    m = models.jet_model(pts, [b1, b2])
    reports = models.verify_localizations(m, [b1, b2])
    assert len(reports) == 2
    assert all(r.matches for r in reports)
    assert reports[0].order == 1
    assert reports[1].order == 0


def _one_variable_jet_report(points, ideals):
    m = models.jet_model(points, ideals)
    return m, models.verify_localizations(m, ideals)


def test_jet_model_double_zero_at_real_point():
    # <(x - 0.3)^2> has a two-dimensional local quotient; with the maximal
    # ideal at 0.7 the model has dimension 3 and localizes back exactly
    x = Polynomial.variable(1, 0)
    ideals = [polyideal.PolyIdeal([(x - 0.3) ** 2], 8), polyideal.PolyIdeal([x - 0.7], 8)]
    m, reports = _one_variable_jet_report([[0.3], [0.7]], ideals)
    assert m.dim == 3
    assert m.orders == (1, 0)
    assert m.local_dims == (2, 1)
    assert all(r.matches for r in reports)


def test_jet_model_triple_zero_at_complex_point():
    # <(x - z)^3> at z = -0.4 + 0.2i has a three-dimensional local quotient.
    # The Taylor row of the stored (x - z)^3 rounds to exact zeros below
    # order 3; <(x - 0.3)^3> leaves roundoff jets there, which the relative
    # rank gate of orth_columns keeps, and is still refused
    z = complex(-0.4, 0.2)
    x = Polynomial.variable(1, 0)
    ideals = [polyideal.PolyIdeal([(x - z) ** 3], 8), polyideal.PolyIdeal([x - 0.5], 8)]
    m, reports = _one_variable_jet_report([[z], [0.5]], ideals)
    assert m.dim == 4
    assert m.orders == (2, 0)
    assert m.local_dims == (3, 1)
    assert all(r.matches for r in reports)
