import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arveson import numerics
from arveson.errors import InputError, NumericalError
from oracles import hermitian_eig


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


# hermitian_eig is the tests' oracle of the library's Hermitian eigensolves
def test_hermitian_eig_orders_ascending():
    a = np.diag([3.0, -1.0, 2.0])
    vals, vecs = hermitian_eig(a)
    assert_allclose(vals, [-1.0, 2.0, 3.0], atol=1e-12)
    assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(InputError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_schur_reconstructs():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q, u = numerics.schur(a)
    assert_allclose(q @ u @ q.conj().T, a, atol=1e-12 * np.linalg.norm(a))
    assert_allclose(np.tril(u, -1), 0, atol=1e-12 * np.linalg.norm(a))


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


def test_inv_inverts():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    assert_allclose(a @ numerics.inv(a), np.eye(4), atol=1e-10)


def test_solve_singular_raises():
    with pytest.raises(NumericalError, match=r"^matrix inversion failed: the 2x2 matrix is singular$"):
        numerics.inv(np.zeros((2, 2)))
    # scipy's warning that rcond < eps is a refusal, and the filters it
    # went through are the caller's again afterwards
    filters = list(warnings.filters)
    with pytest.raises(
        NumericalError,
        match=r"^matrix inversion failed: the 2x2 matrix is too ill-conditioned to invert "
        r"\(2-norm reciprocal condition number 1\.000e-17\)$",
    ):
        numerics.inv(np.diag([1.0, 1e-17]))
    assert warnings.filters == filters


@pytest.mark.parametrize(
    "diagonal, rcond",
    [([1.0, 1e-20], "1.000e-20"), ([2.0, 1e-18, 1.0], "5.000e-19"), ([1e-3, 1.0, 1e-19], "1.000e-19")],
)
def test_inv_refusal_states_the_true_reciprocal_condition_number(diagonal, rcond):
    # scipy refuses these diagonals and reports their condition number as
    # "rcond" (1e+20 for the first, scipy 1.17); the refusal states s_min / s_max
    with pytest.raises(NumericalError, match=rf"\(2-norm reciprocal condition number {rcond}\)$"):
        numerics.inv(np.diag(diagonal))


def test_norm_and_inverse_norm_matches_separate_svds():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    norm, norm_inv = numerics.norm_and_inverse_norm(a)
    assert norm == numerics.operator_norm(a)
    assert abs(norm_inv - numerics.operator_norm(numerics.inv(a))) <= 1e-12 * norm_inv
    assert numerics.norm_and_inverse_norm(np.zeros((2, 2))) == (0.0, np.inf)
    with pytest.raises(InputError):
        numerics.norm_and_inverse_norm(np.ones((2, 3)))


# -- rank cut, pinned against the code it replaced ------------------------


def _oracle_rank(s, rtol, gap):
    cut = rtol * s[0]
    kept = s[s >= cut]
    dropped = s[s < cut]
    if kept.size and dropped.size and dropped[0] > 0:
        if kept[-1] < gap * dropped[0]:
            raise NumericalError("ambiguous rank decision")
    return int(kept.size)


def _oracle_nullspace(a, rtol=numerics.RANK_RTOL):
    # the former nullspace with its own copy of the cutoff and gap refusal
    a = numerics.as_cmatrix(a)
    m, n = a.shape
    if m == 0:
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(a)
    if (s[0] if s.size else 0.0) == 0.0:
        return np.eye(n, dtype=complex)
    rank = _oracle_rank(s, rtol, numerics.GAP_RATIO)
    return vh[rank:].conj().T


def _oracle_orth_columns(a, rtol=numerics.RANK_RTOL):
    # the former orth_columns, likewise
    a = numerics.as_cmatrix(a)
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if (s[0] if s.size else 0.0) == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    return u[:, : _oracle_rank(s, rtol, numerics.GAP_RATIO)]


def test_rank_decisions_match_the_former_copies():
    rng = np.random.default_rng(12)
    for trial in range(40):
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        a = (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))) @ (
            rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        )
        a *= 10.0 ** rng.uniform(-3, 3)
        for rtol in (numerics.RANK_RTOL, 1e-6):
            assert np.array_equal(numerics.nullspace(a, rtol), _oracle_nullspace(a, rtol)), trial
            assert np.array_equal(
                numerics.orth_columns(a, rtol), _oracle_orth_columns(a, rtol)
            ), trial
    for a in (np.zeros((3, 4)), np.zeros((0, 3)), np.zeros((3, 0))):
        assert np.array_equal(numerics.nullspace(a), _oracle_nullspace(a))
        assert np.array_equal(numerics.orth_columns(a), _oracle_orth_columns(a))


# -- SVDs through the LAPACK gufuncs, pinned against numpy ---------------


def _svd_cases():
    rng = np.random.default_rng(14)
    for trial in range(60):
        m, n = (int(x) for x in rng.integers(1, 31, size=2))
        r = int(rng.integers(0, min(m, n) + 1)) if trial % 2 else min(m, n)
        a = (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))) @ (
            rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        )
        yield a * 10.0 ** rng.uniform(-3, 3)
    yield np.zeros((4, 4))
    yield np.diag([1.0, 1e-310])


def _tall_cases():
    # shapes on which a threaded LAPACK call splits its work
    rng = np.random.default_rng(19)
    for shape in ((84, 78), (100, 100), (3, 70, 35)):
        yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _oracle_operator_norm(a):
    a = numerics.as_cmatrix(a)
    return 0.0 if a.size == 0 else float(np.linalg.svd(a, compute_uv=False)[0])


def _oracle_cond(a):
    s = np.linalg.svd(numerics.as_cmatrix(a), compute_uv=False)
    with np.errstate(over="ignore"):  # unguarded: s_min may be subnormal
        return np.inf if s[-1] == 0 else float(s[0] / s[-1])


def test_svd_forms_match_numpy():
    for a in itertools.chain(_svd_cases(), _tall_cases()):
        a = np.asarray(a, dtype=complex)
        assert np.array_equal(numerics._svd(a), np.linalg.svd(a, compute_uv=False))
        for full in (False, True):
            got = numerics._svd(a, uv=True, full=full)
            want = np.linalg.svd(a, full_matrices=full)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.filterwarnings("error")
def test_kernel_svds_match_the_former_numpy_calls():
    for a in _svd_cases():
        assert numerics.operator_norm(a) == _oracle_operator_norm(a)
        assert numerics.cond(a) == _oracle_cond(a)
        assert np.array_equal(numerics.nullspace(a), _oracle_nullspace(a))
        assert np.array_equal(numerics.orth_columns(a), _oracle_orth_columns(a))
        k = min(a.shape)
        square = a[:k, :k]
        s = np.linalg.svd(numerics.as_cmatrix(square), compute_uv=False)
        with np.errstate(over="ignore"):  # unguarded: s_min may be subnormal
            want = (float(s[0]), float(1.0 / s[-1]) if s[-1] > 0 else np.inf)
        assert numerics.norm_and_inverse_norm(square) == want


@pytest.mark.filterwarnings("error")
def test_subnormal_smallest_singular_value_reports_inf():
    for tiny in (1e-310, 5e-324):
        a = np.diag([1.0, tiny])
        assert numerics.norm_and_inverse_norm(a) == (1.0, np.inf)
        assert numerics.cond(a) == np.inf
    # the quotient overflows without a subnormal too
    assert numerics.cond(np.diag([1e300, 1e-10])) == np.inf


def test_empty_shapes_keep_their_results_and_stay_off_lapack(capfd):
    for shape in ((0, 3), (3, 0), (0, 0)):
        a = np.zeros(shape)
        assert np.array_equal(numerics.orth_columns(a), _oracle_orth_columns(a))
        assert np.array_equal(numerics.nullspace(a), _oracle_nullspace(a))
        assert numerics.operator_norm(a) == 0.0
    assert numerics.orth_columns(np.zeros((0, 3))).shape == (0, 0)
    assert numerics.orth_columns(np.zeros((3, 0))).shape == (3, 0)
    assert np.array_equal(numerics.nullspace(np.zeros((0, 3))), np.eye(3))
    assert numerics.nullspace(np.zeros((3, 0))).shape == (0, 0)
    assert capfd.readouterr().err == ""


def test_empty_shapes_raise_input_error():
    for f in (numerics.norm_and_inverse_norm, numerics.cond):
        with pytest.raises(InputError, match=r"\(0, 0\)"):
            f(np.zeros((0, 0)))
    with pytest.raises(InputError, match=r"\(0, 3\)"):
        numerics.cond(np.zeros((0, 3)))


@pytest.mark.filterwarnings("error")
def test_svd_non_convergence_raises_numerical_error(svd_fails):
    # LAPACK's failure reaches numerics as NaN with the invalid flag raised:
    # a NumericalError, and no RuntimeWarning
    for f in (numerics.operator_norm, numerics.cond, numerics.orth_columns, numerics.nullspace):
        with pytest.raises(NumericalError, match="^SVD of a 3x3 matrix failed: LAPACK did not converge$"):
            f(np.eye(3))
    with pytest.raises(NumericalError, match="^SVD of a 3x2 matrix failed"):
        numerics.operator_norms(np.ones((4, 3, 2)))


def test_nullspace_width_limit_is_256_mib_of_v_h():
    numerics.check_nullspace_width(numerics.MAX_NULLSPACE_COLS, "slice")
    assert 16 * numerics.MAX_NULLSPACE_COLS**2 == 256 * 2**20
    with pytest.raises(InputError, match="^slice: the kernel of 4097 columns"):
        numerics.check_nullspace_width(numerics.MAX_NULLSPACE_COLS + 1, "slice")


def test_operator_norms_match_operator_norm_bit_for_bit():
    # a stacked SVD returns the bits of the single-matrix SVDs on every
    # shape the certificates stack (n <= 20)
    rng = np.random.default_rng(18)
    for n in range(1, 21):
        for k in (1, 2, 3, 8):
            stacks = [
                rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)),
                1e-12 * rng.standard_normal((k, n, n)),
                np.zeros((k, n, n)),
            ]
            # rank one and a rectangular stack
            u = rng.standard_normal((k, n, 1)) + 1j * rng.standard_normal((k, n, 1))
            stacks.append(u @ u.conj().transpose(0, 2, 1))
            stacks.append(rng.standard_normal((k, n, max(1, n // 2))))
            for stack in stacks:
                got = numerics.operator_norms(stack)
                assert got.shape == (k,)
                assert [float(v) for v in got] == [numerics.operator_norm(a) for a in stack], (n, k)
    # tall stacks too, where a threaded LAPACK call splits its work
    for a in _tall_cases():
        stack = a if a.ndim == 3 else np.stack([a, 1e-3 * a.conj()])
        assert [float(v) for v in numerics.operator_norms(stack)] == list(map(numerics.operator_norm, stack))


def test_largest_eigenvalue_reads_the_hermitian_part():
    a = np.array([[2.0, 1.0], [3.0, 2.0]])
    h = numerics._hermitian_part(a)
    assert numerics.largest_eigenvalue(a) == float(np.linalg.eigvalsh(h)[-1]) == 4.0
