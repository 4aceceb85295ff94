import numpy as np
import pytest
from numpy.testing import assert_allclose

from arveson import models, numerics, tuples
from arveson.errors import InputError, ValidationError
from arveson.polynomials import Polynomial
from test_acceptance import _downset_family, _perturbed_input, _staircase_generators

E21 = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
E31 = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=complex)


def pair():
    return tuples.validate([E21, E31])


def test_validate_accepts_commuting():
    T = pair()
    assert T.d == 2 and T.n == 3
    assert T.commutator_defect == 0.0
    assert T.is_row_contraction()


def test_validate_rejects_shape_mismatch():
    with pytest.raises(InputError):
        tuples.validate([np.eye(2), np.eye(3)])
    with pytest.raises(InputError):
        tuples.validate([])


def test_require_commuting_gate():
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    bad = tuples.validate([A, A.conj().T])
    assert bad.commutator_defect == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        bad.require_commuting()


def test_row_defect_detects_expansion():
    big = tuples.validate([2 * np.eye(2, dtype=complex)])
    assert not big.is_row_contraction()


def _hermitian_eig_row_defect(mats):
    gram = sum(M @ M.conj().T for M in mats)
    return max(0.0, float(numerics.hermitian_eig(gram)[0].max() - 1.0))


def test_row_defect_matches_hermitian_eig_oracle():
    # exact models have a diagonal Gram, whose eigenvalues every Hermitian
    # solver returns exactly; on perturbed tuples eigvalsh and eigh take
    # different LAPACK paths and may differ by rounding (seen: one ulp of 1)
    for d in (1, 2, 3):
        for comp in _downset_family(d, 3, 20):
            m = models.monomial_model(_staircase_generators(d, comp), d)
            assert m.tuple.row_defect == _hermitian_eig_row_defect(m.tuple.matrices)
    for seed in range(20):
        N, _, _ = _perturbed_input(seed)
        want = _hermitian_eig_row_defect(N.matrices)
        assert abs(N.row_defect - want) <= 1e-14, seed


def test_apply_poly_matches_direct():
    T = pair()
    p = Polynomial(2, {(1, 0): 2.0, (0, 1): -1j, (0, 0): 0.5})
    want = 2.0 * E21 - 1j * E31 + 0.5 * np.eye(3)
    assert_allclose(tuples.apply_poly(p, T), want, atol=1e-14)


def test_apply_poly_products_commute_with_order():
    rng = np.random.default_rng(5)
    # commuting pair: polynomials in a single matrix
    A = rng.standard_normal((4, 4))
    T = tuples.validate([A, A @ A])
    p = Polynomial(2, {(2, 1): 1.0})
    want = np.linalg.matrix_power(A, 2) @ (A @ A)
    assert_allclose(tuples.apply_poly(p, T), want, rtol=1e-10)


def test_krylov_cyclic_on_model():
    T = pair()
    xi = np.array([1.0, 0, 0], dtype=complex)
    k = tuples.krylov(T, xi, 3)
    assert k.is_cyclic
    assert k.layer_dims == (1, 2)
    assert k.layers_direct


def test_krylov_non_cyclic():
    T = pair()
    xi = np.array([0.0, 1.0, 0], dtype=complex)
    k = tuples.krylov(T, xi, 3)
    assert not k.is_cyclic
    assert k.layer_dims == (1,)


def test_annihilator_slice_of_model_pair():
    T = pair()
    ann = tuples.annihilator_slice(T, 2)
    # every degree-2 monomial dies, nothing of lower degree does
    dims = len(ann)
    assert dims == 3
    for p in ann:
        assert_allclose(tuples.apply_poly(p, T), 0, atol=1e-12)


def test_annihilator_scale_invariance():
    # scaling the tuple must not change the annihilator slice dimension
    T = pair()
    S = tuples.validate([100 * E21, 100 * E31])
    assert len(tuples.annihilator_slice(S, 2)) == len(
        tuples.annihilator_slice(T, 2)
    )


def test_moebius_at_zero_is_negation():
    T = pair()
    M = tuples.moebius(T, [0.0, 0.0])
    assert_allclose(M.matrices[0], -E21, atol=1e-14)
    assert_allclose(M.matrices[1], -E31, atol=1e-14)


def test_moebius_is_involution_on_joint_spectrum():
    # for a scalar pair the automorphism acts like the scalar formula
    z = np.array([0.2 + 0.1j, -0.3])
    w = np.array([0.4, 0.1 - 0.2j])
    T = tuples.validate([np.array([[z[0]]]), np.array([[z[1]]])])
    M = tuples.moebius(T, w)
    got = np.array([M.matrices[0][0, 0], M.matrices[1][0, 0]])
    # the automorphism sends w to 0
    Tw = tuples.validate([np.array([[w[0]]]), np.array([[w[1]]])])
    at_w = tuples.moebius(Tw, w)
    assert_allclose([at_w.matrices[j][0, 0] for j in range(2)], 0, atol=1e-12)
    # and it maps the ball to the ball
    assert np.linalg.norm(got) < 1.0


def test_moebius_preserves_row_contraction():
    T = pair()
    M = tuples.moebius(T, [0.3, -0.2])
    assert M.is_row_contraction(tol=1e-10)


def test_moebius_rejects_outside_ball():
    with pytest.raises(InputError):
        tuples.moebius(pair(), [1.0, 0.2])
