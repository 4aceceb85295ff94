import math

import numpy as np
import pytest
import scipy.optimize
from numpy.testing import assert_allclose

from arveson import fockspace, interp, models, polyideal, spectral
from arveson.errors import InputError, NumericalError
from arveson.polynomials import Polynomial
from oracles import hermitian_eig


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
    K = fockspace.kernel_gram(pts, [(0,)])
    assert np.linalg.cond(K) > 1e8
    assert cholesky_min_eig(K, a, r.value * (1 + 1e-6)) >= 0
    assert cholesky_min_eig(K, a, r.value * (1 - 1e-6)) < 0
    assert r.iterations == 0
    assert r.lower <= r.value < r.upper
    assert_allclose(r.upper, r.value * (1 + 1e-6), rtol=1e-15)
    assert r.margin >= 0


def test_strong_separation_rank_one_closed_form():
    # strong_separation reads every c_n off one inverse (the pencil of the
    # n-th indicator has rank one); the oracle solves each pencil on its own
    pts = [[0.1, 0.2], [-0.3, 0.1j], [0.0, -0.5], [0.45, 0.3], [-0.2, -0.6j]]
    rep = interp.strong_separation(pts)
    want = [interp.pick_min_norm(pts, np.eye(len(pts))[n]).value for n in range(len(pts))]
    assert_allclose(rep.pick_norms, want, rtol=1e-9)
    assert_allclose(rep.eps, 1.0 / np.array(want), rtol=1e-9)


def test_strong_separation_two_points():
    rep = interp.strong_separation([[0.0], [0.5]])
    # the minimal norm of a multiplier that is 1 at one node and 0 at the
    # other is 2 for this pair, so the separation constant is 1/2
    assert_allclose(rep.eps, [0.5, 0.5], atol=1e-6)
    assert_allclose(rep.overall, 0.5, atol=1e-6)
    assert_allclose(rep.pick_norms, [2.0, 2.0], atol=1e-5)


def _harmonic_prefix(n):
    # z_k = 1 - 1/(k+1), k = 1..n, in d = 1
    return [[1.0 - 1.0 / (k + 1)] for k in range(1, n + 1)]


def test_strong_separation_refuses_a_meaningless_inverse():
    # the Gram matrix of 12 points has rcond 2.2e-17 < eps: its inverse
    # read overall 3.2e-8 against a true 1.46e-8
    with pytest.raises(NumericalError, match=r"^matrix inversion failed: An ill-conditioned matrix detected: .* rcond = "):
        interp.strong_separation(_harmonic_prefix(12))
    assert interp.strong_separation(_harmonic_prefix(10)).overall == 4.09830897395188e-07


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


def test_theta_jets_norm_proxy_is_the_pick_norm_at_kappa_0():
    # (1 + c)^1 - 1 = c: theta = phi when kappa = 0
    cert = interp.theta_jets([[0.0], [0.5], [-0.6]], omega=[0, 1], kappa=0)
    assert cert.norm_proxy == pytest.approx(cert.pick_norm, rel=1e-14)


def test_theta_jets_rejects_bad_window():
    with pytest.raises(InputError):
        interp.theta_jets([[0.0], [0.5]], omega=[5], kappa=0)


def test_strong_separation_refuses_a_failed_pick_certificate(monkeypatch):
    monkeypatch.setattr(interp, "_pick_feasible", lambda K, a, c: (False, -1.0))
    with pytest.raises(NumericalError, match="indicator 0"):
        interp.strong_separation([[0.0], [0.5]])


# Kernel Gram and Pick matrices are Hermitian by construction; their
# eigenvalues must be bit-identical to those of oracles.hermitian_eig, which
# adds only an asymmetry check that cannot fire on them.


def test_separation_gamma_matches_hermitian_eig_oracle():
    for pts in ([[0.0], [0.5]], [[0.1, 0.2], [-0.3, 0.1j], [0.0, -0.5], [0.45, 0.3]]):
        rep = interp.separation_constants(pts)
        assert rep.gamma_carleson == float(hermitian_eig(rep.gram)[0][-1])


def test_pick_feasible_matches_hermitian_eig_oracle():
    pts = [[0.2, 0.1], [-0.3, 0.4], [0.1, -0.5]]
    K = fockspace.kernel_gram(pts, [(0, 0)])
    a = np.array([0.3, -0.2 + 0.4j, 0.8])
    for c in (0.5, 0.9, interp.pick_min_norm(pts, a).upper, 2.0):
        vals = hermitian_eig((c * c - np.outer(a, a.conj())) * K)[0]
        scale = max(1.0, float(abs(vals[-1])))
        want = (float(vals[0]) >= -interp.PICK_PSD_RTOL * scale, float(vals[0]))
        assert interp._pick_feasible(K, a, c) == want


def test_each_entry_point_validates_its_points_once(monkeypatch):
    calls = []
    gate = fockspace._as_points

    def counted(points):
        calls.append(1)
        return gate(points)

    monkeypatch.setattr(fockspace, "_as_points", counted)
    pts = [[0.1, 0.2], [-0.3, 0.1j], [0.0, -0.5]]
    for run in (
        lambda: interp.separation_constants(pts),
        lambda: interp.pick_min_norm(pts, [0.3, -0.2, 0.5]),
        lambda: interp.strong_separation(pts),
        lambda: interp.theta_jets(pts, [0], 1),
    ):
        calls.clear()
        run()
        assert len(calls) == 1


def test_pick_paths_lapack_calls(lapack_counts):
    # a pencil eigensolve or one inverse for the norms, one eigh per certificate
    pts = [[0.2, 0.1], [-0.3, 0.4], [0.1, -0.5], [0.0, 0.3]]
    interp.pick_min_norm(pts, [0.3, -0.2 + 0.4j, 0.8, 0.1])
    assert dict(lapack_counts) == {"gen_eigh": 1, "eigh": 1}
    lapack_counts.clear()
    interp.strong_separation(pts)
    assert dict(lapack_counts) == {"inv": 1, "eigh": 4}


def _maximal_ideals(pts):
    d = len(pts[0])
    return [
        polyideal.PolyIdeal(
            [Polynomial.variable(d, j) - Polynomial.constant(d, complex(z[j])) for j in range(d)], 2, d=d
        )
        for z in pts
    ]


def nelder_mead_min_cond(points):
    # tests-only oracle: Nelder-Mead over log D (d_1 = 1) from D = I, on a
    # normalized Gram formed here; returns sqrt(cond(D G D)) at the best D
    pts = [np.asarray(p, dtype=complex) for p in points]
    K = np.array([[1.0 / (1.0 - np.vdot(w, z)) for w in pts] for z in pts])
    s = np.sqrt(np.diag(K).real)
    G = K / np.outer(s, s)

    def cond_at(x):
        d = np.exp(np.concatenate([[0.0], x]))
        w = np.linalg.eigvalsh(d[:, None] * G * d[None, :])
        return w[-1] / w[0]

    res = scipy.optimize.minimize(
        cond_at,
        np.zeros(len(pts) - 1),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-9, "maxfev": 5000},
    )
    return math.sqrt(res.fun)


BRACKET_SETS = [
    [[0.1], [0.3], [0.55], [0.9]],
    [[0.0], [0.5], [0.8]],
    [[0.1, 0.2], [-0.3, 0.1j], [0.0, -0.5], [0.45, 0.3]],
]


def test_similarity_bracket_two_points_closed_form():
    # G = [[1, g], [g, 1]] with g = sqrt(3)/2: cond G = (1 + g)/(1 - g) = (2 + sqrt 3)^2,
    # and the 2x2 term makes the lower end equal the upper one
    b = interp.similarity_bracket([[0.0], [0.5]])
    assert_allclose([b.lower, b.upper], 2.0 + math.sqrt(3.0), rtol=1e-12)
    assert_allclose(b.pair_lower, 2.0 + math.sqrt(3.0), rtol=1e-12)
    assert_allclose(b.gram_cond, (2.0 + math.sqrt(3.0)) ** 2, rtol=1e-12)
    # (G^-1)_nn = 1 / (1 - g^2) = 4 and cond(G) / N
    assert_allclose(b.projection_lower, 2.0, rtol=1e-12)
    assert_allclose(b.scaling_lower, (2.0 + math.sqrt(3.0)) / math.sqrt(2.0), rtol=1e-12)
    assert b.points == ((0j,), (0.5 + 0j,))


def test_similarity_bracket_of_one_point_is_one():
    b = interp.similarity_bracket([[0.3, 0.4j]])
    assert (b.lower, b.upper, b.pair_lower, b.gram_cond) == (1.0, 1.0, None, 1.0)


@pytest.mark.parametrize("points", BRACKET_SETS)
def test_similarity_bracket_contains_an_attained_condition_number(points):
    b = interp.similarity_bracket(points)
    assert b.lower == max(b.projection_lower, b.scaling_lower, b.pair_lower)
    assert_allclose(b.upper, math.sqrt(b.gram_cond), rtol=0)
    attained = nelder_mead_min_cond(points)
    assert b.lower <= attained <= b.upper * (1 + 1e-12)
    # a rescaling beats the unit-diagonal witness: upper is no minimum
    assert attained < b.upper * (1 - 1e-3)


@pytest.mark.parametrize("points", BRACKET_SETS)
def test_similarity_bracket_lower_end_holds_for_the_jordan_witness(points):
    # the Jordan decomposition of the jet model is one similarity of the kind
    dec = spectral.jordan_decompose(models.jet_model(points, _maximal_ideals(points)).tuple)
    assert interp.similarity_bracket(points).lower <= dec.cond


def test_similarity_bracket_refuses_near_coincident_points():
    # the floor and the message of the jet model's Gram refusal
    pts = [[0.5], [0.5 + 1e-7]]
    with pytest.raises(NumericalError, match="eigenvalue ratio") as got:
        interp.similarity_bracket(pts)
    with pytest.raises(NumericalError) as want:
        models.jet_model(pts, _maximal_ideals(pts))
    assert str(got.value) == str(want.value)


def test_similarity_bracket_lapack_calls(lapack_counts):
    interp.similarity_bracket(BRACKET_SETS[2])
    assert dict(lapack_counts) == {"eigh": 1}
