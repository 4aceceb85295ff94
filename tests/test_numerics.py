import numpy as np
import pytest
from numpy.testing import assert_allclose

from arveson import numerics
from arveson.errors import InputError, NumericalError


def test_as_cmatrix_shapes():
    a = numerics.as_cmatrix([[1, 2], [3, 4]])
    assert a.dtype == complex
    with pytest.raises(InputError):
        numerics.as_cmatrix([1, 2, 3])
    with pytest.raises(InputError):
        numerics.as_cmatrix([[1, np.nan]])


def test_operator_norm_rank_one():
    u = np.array([[3.0], [4.0]])
    assert_allclose(numerics.operator_norm(u @ u.T), 25.0, rtol=1e-12)


def test_hermitian_eig_orders_ascending():
    a = np.diag([3.0, -1.0, 2.0])
    vals, vecs = numerics.hermitian_eig(a)
    assert_allclose(vals, [-1.0, 2.0, 3.0], atol=1e-12)
    assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(InputError):
        numerics.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_schur_reconstructs():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q, u = numerics.schur(a)
    assert_allclose(q @ u @ q.conj().T, a, atol=1e-12 * np.linalg.norm(a))
    assert_allclose(np.tril(u, -1), 0, atol=1e-12 * np.linalg.norm(a))


def test_inv_sqrt_and_sqrtm():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((5, 5))
    s = b @ b.T + 5 * np.eye(5)
    r = numerics.sqrtm_psd(s)
    assert_allclose(r @ r, s, atol=1e-10)
    ri = numerics.inv_sqrt(s)
    assert_allclose(r @ ri, np.eye(5), atol=1e-10)


def test_inv_sqrt_rejects_indefinite():
    with pytest.raises(NumericalError):
        numerics.inv_sqrt(np.diag([1.0, -1.0]))


def test_nullspace_known_kernel():
    # kernel of [[1, 1, 0]] is a plane
    a = np.array([[1.0, 1.0, 0.0]])
    k = numerics.nullspace(a)
    assert k.shape == (3, 2)
    assert_allclose(a @ k, 0, atol=1e-12)
    assert_allclose(k.conj().T @ k, np.eye(2), atol=1e-12)


def test_nullspace_full_rank():
    assert numerics.nullspace(np.eye(3)).shape == (3, 0)


@pytest.mark.filterwarnings("error")
def test_rank_gap_with_subnormal_singular_value():
    # the gap test compares kept[-1] with gap * dropped[0]; a quotient by the
    # subnormal dropped value would overflow
    a = np.diag([1.0, 1e-310])
    assert numerics.orth_columns(a).shape == (2, 1)
    k = numerics.nullspace(a)
    assert k.shape == (2, 1)
    assert_allclose(abs(k[1, 0]), 1.0)
    straddling = np.diag([1.0, 2e-9, 5e-10])
    for f in (numerics.orth_columns, numerics.nullspace):
        with pytest.raises(NumericalError, match="ambiguous rank decision"):
            f(straddling)


def test_orth_columns_idempotent_span():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 3))
    b = np.hstack([a, a @ rng.standard_normal((3, 2))])
    q = numerics.orth_columns(b)
    assert q.shape == (6, 3)
    # same span: projection difference vanishes
    p1 = q @ q.conj().T
    qa = numerics.orth_columns(a)
    assert_allclose(p1, qa @ qa.conj().T, atol=1e-10)


def test_subspace_equal():
    rng = np.random.default_rng(3)
    a = numerics.orth_columns(rng.standard_normal((5, 2)))
    # same subspace in a rotated basis
    w = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    assert numerics.subspace_equal(a, a @ w)
    assert not numerics.subspace_equal(a, numerics.orth_columns(rng.standard_normal((5, 2))))
    assert not numerics.subspace_equal(a, a[:, :1])


def test_cond_of_diag():
    assert_allclose(numerics.cond(np.diag([4.0, 2.0])), 2.0, rtol=1e-12)


def test_solve_and_inv():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    x = numerics.solve(a, np.eye(4))
    assert_allclose(a @ x, np.eye(4), atol=1e-10)
    assert_allclose(numerics.inv(a), x, atol=1e-10)


def test_solve_singular_raises():
    with pytest.raises(NumericalError):
        numerics.inv(np.zeros((2, 2)))
