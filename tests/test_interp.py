import numpy as np
import pytest
from numpy.testing import assert_allclose

from arveson import interp
from arveson.errors import InputError


def pick_matrix(points, targets, c):
    pts = [np.asarray(p, dtype=complex) for p in points]
    n = len(pts)
    K = np.array(
        [[1.0 / (1.0 - np.vdot(pts[j], pts[i])) for j in range(n)] for i in range(n)]
    )
    a = np.asarray(targets, dtype=complex)
    return (c**2 - np.outer(a, a.conj())) * K


def is_psd(M, tol=1e-11):
    return float(np.linalg.eigvalsh((M + M.conj().T) / 2).min()) >= -tol


def test_separation_closed_form_two_points():
    rep = interp.separation_constants([[0.0], [0.5]])
    # |<k0, k0.5>|^2 / (|k0|^2 |k0.5|^2) = (1 - 0.25) = 3/4, delta = 1/4
    assert_allclose(rep.delta_weak, 0.25, atol=1e-12)
    assert_allclose(rep.gamma_carleson, 1 + np.sqrt(3) / 2, atol=1e-10)
    assert rep.worst_pair == (0, 1)


def test_separation_gram_is_normalized():
    rep = interp.separation_constants([[0.1, 0.2], [-0.3, 0.1], [0.0, -0.5]])
    G = rep.gram
    assert_allclose(np.diag(G).real, 1.0, atol=1e-12)
    assert rep.delta_weak > 0
    # Carleson constant always at least the largest eigenvalue weight
    assert rep.gamma_carleson >= 1.0


def test_separation_rejects_single_point():
    with pytest.raises(InputError):
        interp.separation_constants([[0.3]])


def test_separation_rejects_coincident():
    with pytest.raises(InputError):
        interp.separation_constants([[0.3], [0.3]])


def test_pick_two_point_closed_form():
    # data (0 -> 0, 0.5 -> 1): the minimal multiplier norm is 2
    r = interp.pick_min_norm([[0.0], [0.5]], [0.0, 1.0])
    assert_allclose(r.value, 2.0, atol=1e-6)
    assert r.lower <= r.value <= r.upper


def test_pick_constant_data():
    r = interp.pick_min_norm([[0.1], [0.4]], [0.7, 0.7])
    assert_allclose(r.value, 0.7, atol=1e-7)


def test_pick_certificate_brackets_value():
    # independent certificate: the Pick matrix flips definiteness at the value
    pts = [[0.2, 0.1], [-0.3, 0.4], [0.1, -0.5]]
    tgt = [0.3, -0.2 + 0.4j, 0.8]
    r = interp.pick_min_norm(pts, tgt)
    assert is_psd(pick_matrix(pts, tgt, r.value + 1e-6))
    assert not is_psd(pick_matrix(pts, tgt, max(r.value - 1e-5, 0)), tol=1e-13)


def test_pick_monotone_in_targets():
    pts = [[0.0], [0.5]]
    vals = [interp.pick_min_norm(pts, [0.0, t]).value for t in [0.5, 1.0, 2.0]]
    assert vals[0] < vals[1] < vals[2]


def test_pick_value_scales_linearly():
    pts = [[0.1], [-0.4]]
    tgt = [0.2, -0.7]
    v1 = interp.pick_min_norm(pts, tgt).value
    v3 = interp.pick_min_norm(pts, [3 * t for t in tgt]).value
    assert_allclose(v3, 3 * v1, rtol=1e-5)


def cholesky_min_eig(K, a, c):
    """Smallest eigenvalue of the Pick matrix after the congruence by the
    inverse Cholesky factor of K: same inertia, without K's conditioning."""
    Li = np.linalg.inv(np.linalg.cholesky(K))
    A = Li @ (np.outer(a, a.conj()) * K) @ Li.conj().T
    return float(np.linalg.eigvalsh(c * c * np.eye(len(a)) - (A + A.conj().T) / 2)[0])


def test_pick_value_is_sharp_on_ill_conditioned_kernel():
    # cond(K) is about 1e9; a PSD test relative to the norm of the Pick
    # matrix accepts levels below the optimum here
    k = np.arange(30)
    pts = (0.7 * np.exp(2j * np.pi * k / 30)).reshape(-1, 1)
    a = np.exp(6j * np.pi * k / 30) * np.linspace(0.2, 0.9, 30)
    r = interp.pick_min_norm(pts, a)
    K = interp.kernel_matrix(pts)
    assert np.linalg.cond(K) > 1e8
    assert cholesky_min_eig(K, a, r.value * (1 + 1e-6)) >= 0
    assert cholesky_min_eig(K, a, r.value * (1 - 1e-6)) < 0
    assert r.iterations == 0
    assert r.lower <= r.value < r.upper
    assert_allclose(r.upper, r.value * (1 + 1e-6), rtol=1e-15)
    assert r.margin >= 0


def test_strong_separation_rank_one_closed_form():
    # the pencil for the n-th indicator has rank one, with eigenvalue
    # K_nn (K^-1)_nn, so eps_n = 1 / sqrt(K_nn (K^-1)_nn)
    pts = [[0.1, 0.2], [-0.3, 0.1j], [0.0, -0.5], [0.45, 0.3], [-0.2, -0.6j]]
    rep = interp.strong_separation(pts)
    K = interp.kernel_matrix(pts)
    want = 1.0 / np.sqrt(np.diag(K).real * np.diag(np.linalg.inv(K)).real)
    assert_allclose(rep.eps, want, rtol=1e-9)


def test_strong_separation_two_points():
    rep = interp.strong_separation([[0.0], [0.5]])
    # the minimal norm of a multiplier that is 1 at one node and 0 at the
    # other is 2 for this pair, so the separation constant is 1/2
    assert_allclose(rep.eps, [0.5, 0.5], atol=1e-6)
    assert_allclose(rep.overall, 0.5, atol=1e-6)
    assert_allclose(rep.pick_norms, [2.0, 2.0], atol=1e-5)


def test_theta_jets_certificate_shape():
    pts = [[0.0], [0.5], [-0.6]]
    cert = interp.theta_jets(pts, omega=[0, 1], kappa=1)
    assert len(cert.rows) == 3
    in_omega = [r.in_omega for r in cert.rows]
    assert in_omega == [True, True, False]
    for r in cert.rows:
        # inside the window the jet is pinned to 1, outside to 0
        assert r.target == (1.0 if r.in_omega else 0.0)
        assert r.match_order == 1
        assert r.reason
    assert cert.kappa == 1
    assert cert.pick_norm >= 1.0
    assert cert.norm_proxy >= cert.pick_norm or cert.norm_proxy > 1.0


def test_theta_jets_rejects_bad_window():
    with pytest.raises(InputError):
        interp.theta_jets([[0.0], [0.5]], omega=[5], kappa=0)
