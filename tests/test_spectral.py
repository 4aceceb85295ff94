import collections
import itertools

import mpmath
import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from arveson import models, numerics, polyideal, spectral, tuples
from arveson.errors import InputError, NumericalError
from arveson.polynomials import Polynomial
from oracles import oracle_jordan_similarity
from test_acceptance import _jordan_input, _jordan_shape, _planted_tuple


def jordan_block_tuple(points, sizes, nil_scale=0.5, seed=None, cond_cap=10.0):
    """Oracle construction: G (directsum_i z_i I + N_i) G^{ -1} with known
    joint spectrum, multiplicities, and block structure."""
    d = len(points[0])
    rng = np.random.default_rng(seed)
    blocks = [[] for _ in range(d)]
    for z, n in zip(points, sizes):
        for j in range(d):
            M = z[j] * np.eye(n, dtype=complex)
            if n > 1:
                # one shared nilpotent per block keeps coordinates commuting
                M += (nil_scale if j == 0 else 0.3 * nil_scale) * np.diag(
                    np.ones(n - 1), 1
                )
            blocks[j].append(M)
    mats = [scipy.linalg.block_diag(*blocks[j]) for j in range(d)]
    ntot = mats[0].shape[0]
    if seed is None:
        G = np.eye(ntot, dtype=complex)
    else:
        while True:
            G = np.eye(ntot) + 0.2 * rng.standard_normal((ntot, ntot))
            if np.linalg.cond(G) <= cond_cap:
                break
        G = G.astype(complex)
    Gi = np.linalg.inv(G)
    return tuples.validate([G @ M @ Gi for M in mats])


def test_joint_eigenvalues_diagonal():
    T = tuples.validate([np.diag([0.1, 0.5, 0.1]), np.diag([0.2, -0.3, 0.2])])
    spec = spectral.joint_eigenvalues(T)
    assert spec.count == 2
    got = {(round(p[0].real, 9), round(p[1].real, 9)) for p in spec.points}
    assert got == {(0.1, 0.2), (0.5, -0.3)}
    assert sorted(spec.multiplicities) == [1, 2]


def test_joint_eigenvalues_matches_known_points():
    pts = [(0.3 + 0.1j, -0.2), (-0.4, 0.25 + 0.3j)]
    T = jordan_block_tuple(pts, [3, 2], seed=1)
    spec = spectral.joint_eigenvalues(T, cluster_tol=1e-3)
    assert spec.count == 2
    for p in spec.points:
        err = min(np.linalg.norm(np.array(p) - np.array(q)) for q in pts)
        assert err < 1e-6


def test_riesz_idempotent_properties():
    pts = [(0.3, -0.2), (-0.4, 0.25)]
    T = jordan_block_tuple(pts, [2, 2], seed=2)
    spec = spectral.joint_eigenvalues(T, cluster_tol=1e-3)
    Q = spectral.riesz_idempotent(T, spec.points[0], spec)
    assert_allclose(Q @ Q, Q, atol=1e-8)
    for Tj in T.matrices:
        assert_allclose(Q @ Tj, Tj @ Q, atol=1e-8)
    assert np.linalg.matrix_rank(Q, tol=0.5) == 2


def _former_riesz_idempotent(T, z, spectrum):
    """Oracle: the idempotent as computed while each call factored the
    combination again, sorted by a callback, and solved the coupling block
    with scipy's solve_sylvester. Returns the sorted Schur form (R, Z, sdim)
    and the idempotent."""
    i = spectrum.locate(z)
    A = sum(cj * Tj for cj, Tj in zip(np.array(spectrum.combo), T.matrices))
    reps = np.array(spectrum.combined)
    R, Z, sdim = scipy.linalg.schur(
        A, output="complex", sort=lambda w: int(np.argmin(np.abs(reps - w))) == i
    )
    m, n = spectrum.multiplicities[i], T.n
    P = np.zeros((n, n), dtype=complex)
    P[:m, :m] = np.eye(m)
    if m < n:
        P[:m, m:] = scipy.linalg.solve_sylvester(R[:m, :m], -R[m:, m:], R[:m, m:])
    return R, Z, sdim, Z @ P @ Z.conj().T


# The 50 decompositions below make schur 53, trsen 524, trsyl 0, svd 291,
# eigh 0, inv 41 calls. While each block's basis was the first m left
# singular vectors of its idempotent, and the idempotents were gated on
# their norms and on resolving the identity, they made trsen 239, trsyl
# 239, svd 619: a rung that fails now reorders every cluster before the
# independence gate refuses it. While the similarity symmetrized the
# idempotents by the square root of sum Q^* Q (one eigh) and took a pivoted
# QR per block, its unitary gate and cond(X) one SVD each, they made svd
# 489, eigh 50, inv 0 (and qr 130); while the single-cluster spectra of 9 of them were
# reordered before the identity was returned, trsen was 248. While each
# idempotent was gated on its commutators with the coordinates, each symmetrized projection on its Hermitian defect, and the
# off-block residual took one SVD per coordinate, svd was 1033. While each
# idempotent that passed the norm gate took one more SVD for its Q^2 = Q
# gate, svd was 1154. While the commuting gate always measured the commutators
# and the coordinate norms took one SVD each, svd was 1255. While every rung of the clustering ladder drew and factored
# the combination again and computed every idempotent anew, they made schur
# 171, trsen 1344, trsyl 1334. While every idempotent of a rung was made
# before the projector-norm gate read each norm again, each idempotent's
# norm and rank took two more SVDs, and the eigensolve of sum Q^* Q ran
# behind the two-SVD asymmetry check of hermitian_eig, they made schur 53,
# trsen 533, trsyl 524, svd 4647, eigh 50. While the 9 single-cluster
# decompositions measured the gates of X = X_inv = I (cond, inverse, inverse
# defect, off-block residual), they made svd 318, inv 50.
def test_riesz_idempotent_matches_the_former_sorted_schur_path(monkeypatch, lapack_counts):
    # on the 50 tuples of acceptance criterion 4, the ztrsen reorder of the
    # kept Schur form is the sorted Schur form bit for bit, and the ztrsyl
    # idempotent agrees with the solve_sylvester one to roundoff; a spectrum
    # of one cluster makes no reorder and its idempotent is I exactly
    reorders = []
    trsen = numerics._trsen

    def recording(*args, **kwargs):
        reorders.append(trsen(*args, **kwargs))
        return reorders[-1]

    monkeypatch.setattr(numerics, "_trsen", recording)
    idempotents = singles = 0
    decompositions = collections.Counter()
    for seed in range(50):
        T = _jordan_input(seed)[0]
        lapack_counts.clear()
        spec = spectral.jordan_decompose(T).spectrum
        decompositions.update({k: lapack_counts[k] for k in ("schur", "trsen", "trsyl", "svd", "eigh", "inv")})
        for p in spec.points:
            reorders.clear()
            Q = spectral.riesz_idempotent(T, p, spec)
            idempotents += 1
            if spec.count == 1:
                assert reorders == [] and np.array_equal(Q, np.eye(T.n)), seed
                singles += 1
                continue
            R, Z, sdim, Q_old = _former_riesz_idempotent(T, p, spec)
            ((R_new, Z_new, _, sdim_new, _, _, _),) = reorders
            assert np.array_equal(R_new, R) and np.array_equal(Z_new, Z), (seed, p)
            assert sdim_new == sdim
            err = numerics.operator_norm(Q - Q_old)
            assert err <= 1e-10 * numerics.operator_norm(Q), (seed, p, err)
    assert (idempotents, singles) == (130, 9)
    assert decompositions == {"schur": 53, "trsen": 524, "trsyl": 0, "svd": 291, "eigh": 0, "inv": 41}


def _jordan_recover_round(seed, rnd):
    """The 50 designs of round rnd of the benchmark's jordan-recover
    workload: the criterion-4 shapes, planted in order from one stream per
    round."""
    rng = np.random.default_rng([seed, 2, rnd])
    for s in range(50):
        d, sizes = _jordan_shape(np.random.default_rng(6100 + s))
        mats, pts, _ = _planted_tuple(rng, d, sizes)
        yield tuples.validate(mats), pts, sizes


def _jordan_recover_design(seed, rnd, k):
    """Design k of round rnd of the benchmark's jordan-recover workload."""
    return next(itertools.islice(_jordan_recover_round(seed, rnd), k, None))


def test_jordan_certifies_planted_chains_of_length_five_and_six():
    # seed 3, round 3, design 23: points at least 0.88 apart; the 5-block and
    # 6-block idempotents commute with the coordinates only to about 3e-8,
    # which a fixed commutator gate refused at every radius. The check is
    # the benchmark's own: planted multiplicities and points, and residual
    T, pts, sizes = _jordan_recover_design(3, 3, 23)
    assert (T.d, sizes) == (3, [3, 2, 5, 6])
    dec = spectral.jordan_decompose(T)
    assert sorted(dec.spectrum.multiplicities) == sorted(sizes)
    got = np.array(dec.spectrum.points)
    for z, m in zip(pts, sizes):
        dist = np.linalg.norm(got - z, axis=1)
        i = int(np.argmin(dist))
        assert dist[i] <= 1e-8 and dec.spectrum.multiplicities[i] == m
    assert dec.residual <= 1e-7 * max(1.0, T.scale())


def test_jordan_refuses_idempotents_that_do_not_commute(monkeypatch):
    # the basis of the block at diagonal place 0 becomes S V, which spans
    # the range of the idempotent S Q S^-1 of rank m: the bases stay
    # independent and X still inverts them, but that range is not
    # invariant, and the output gates, with no commutator gate, must refuse
    # it. While the bases were the ranges of the idempotents, each was
    # replaced by S Q S^-1 instead
    T = jordan_block_tuple([(0.3, -0.2), (-0.4, 0.25)], [2, 2], seed=2)
    rng = np.random.default_rng(5)
    S = np.eye(T.n) + 1e-3 * (rng.standard_normal((T.n, T.n)) + 1j * rng.standard_normal((T.n, T.n)))
    reorder = numerics.reorder_schur
    calls = []

    def conjugated(select, U, Z):
        R, Zs = reorder(select, U, Z)
        if select[0]:
            calls.append(select)
            return R, S @ Zs
        return R, Zs

    monkeypatch.setattr(numerics, "reorder_schur", conjugated)
    with pytest.raises(NumericalError, match="off-block residual"):
        spectral.jordan_decompose(T)
    assert calls


def _double_point_model(zs):
    """Jet model of the real points zs in d = 1, each with ideal <(x - z)^2>."""
    x = Polynomial.variable(1, 0)
    ideals = [polyideal.PolyIdeal([(x - z) ** 2], 8) for z in zs]
    return models.jet_model([[z] for z in zs], ideals)


_SIX_POINTS = [0.15, -0.15, 0.45, -0.45, 0.75, -0.75]


def test_jordan_cond_matches_a_60_digit_oracle_on_the_six_point_model():
    # cond of the stacked orthonormal bases of the six spectral subspaces,
    # each spanned by the two eigenvectors of a double point (split about
    # 7e-4 apart by the rounding of the model), at 60 digits; the
    # symmetrized assembly read it to 8.5e-9 relative
    T = _double_point_model(_SIX_POINTS).tuple
    with mpmath.workdps(60):
        (Z,) = T.matrices
        vals, vecs = mpmath.eig(mpmath.matrix(Z.tolist()))
        columns = []
        for z in _SIX_POINTS:
            near = [k for k in range(T.n) if abs(vals[k] - z) < 1e-2]
            assert len(near) == 2, z
            pair = mpmath.matrix([[vecs[r, k] for k in near] for r in range(T.n)])
            basis, _ = mpmath.qr(pair, mode="skinny")
            columns += [basis.column(0), basis.column(1)]
        s = mpmath.svd_c(mpmath.matrix([[c[r] for c in columns] for r in range(T.n)]), compute_uv=False)
        oracle = float(max(s) / min(s))
    dec = spectral.jordan_decompose(T)
    assert dec.cond == pytest.approx(oracle, rel=1e-11)


def _certified_sweep():
    """Criterion 4's tuples, one round of the benchmark's jordan-recover
    designs (seed 3, round 3) and the certified double-point models."""
    for seed in range(50):
        yield _jordan_input(seed)[0]
    for T, _, _ in _jordan_recover_round(3, 3):
        yield T
    for count in range(2, 9):
        yield _double_point_model([1 - 2.0**-n for n in range(1, count + 1)]).tuple
    yield _double_point_model(_SIX_POINTS).tuple


def test_jordan_similarity_is_the_symmetrized_one_up_to_a_block_unitary():
    # X = Omega X_oracle with Omega block diagonal unitary: the bases of
    # each range differ by a unitary, and their errors are those of
    # subspaces of the Q_i, about n u ||Q_i||, amplified by cond (measured
    # at most 0.06 of the bound below, on a 4 x 4 tuple of cond 1.3)
    for k, T in enumerate(_certified_sweep()):
        dec = spectral.jordan_decompose(T)
        spec = dec.spectrum
        Qs = [spectral.riesz_idempotent(T, p, spec) for p in spec.points]
        _, X_inv_oracle, cond_oracle = oracle_jordan_similarity(Qs, spec.multiplicities)
        assert dec.cond == pytest.approx(cond_oracle, rel=1e-8), k
        tol = 100 * T.n * np.finfo(float).eps * dec.cond * max(numerics.operator_norm(Q) for Q in Qs)
        omega = dec.X @ X_inv_oracle
        offsets = np.cumsum((0,) + spec.multiplicities)
        for lo, hi in zip(offsets, offsets[1:]):
            block = dec.X_inv[:, lo:hi]
            assert numerics.operator_norm(block.conj().T @ block - np.eye(hi - lo)) <= 1e-12, k
            unit = omega[lo:hi, lo:hi]
            assert numerics.operator_norm(unit.conj().T @ unit - np.eye(hi - lo)) <= tol, k
            omega[lo:hi, lo:hi] = 0.0
        assert numerics.operator_norm(omega) <= tol, k


def test_jordan_decomposition_agrees_with_the_riesz_idempotents():
    # the decomposition forms no idempotent: block n of X_inv spans the
    # range of Q_n, the rows of X in block n have the norm of Q_n (the lower
    # end of the block-similarity bracket, max_n ||Q_n||, without any Q),
    # and the identity defect of the assembled projections is the inverse
    # defect (measured: distance 6.8e-15, norms 2.4e-10 relative)
    for k, T in enumerate(_certified_sweep()):
        dec = spectral.jordan_decompose(T)
        spec = dec.spectrum
        offsets = np.cumsum((0,) + spec.multiplicities)
        for p, lo, hi in zip(spec.points, offsets, offsets[1:]):
            Q = spectral.riesz_idempotent(T, p, spec)
            left = np.linalg.svd(Q)[0][:, : hi - lo]
            assert numerics.subspace_distance(left, dec.X_inv[:, lo:hi]) <= 1e-12, (k, p)
            assert numerics.operator_norm(dec.X[lo:hi]) == pytest.approx(numerics.operator_norm(Q), rel=1e-8), (k, p)
        assert dec.idempotent_defect == numerics.operator_norm(dec.X_inv @ dec.X - np.eye(T.n)), k


def test_jordan_refuses_dependent_spectral_subspaces(monkeypatch):
    # at radius 1e-6 the N = 3 double-point model splits into spurious
    # singletons whose ranges are nearly dependent; 1/cond^2 of their
    # stacked orthonormal bases is 2.04e-15, below PD_RTOL. The ladder is
    # capped at that radius, so that refusal is the last failure
    monkeypatch.setattr(spectral, "CLUSTER_TOL_CAP", 1e-6)
    T = _double_point_model([1 - 2.0**-n for n in range(1, 4)]).tuple
    with pytest.raises(
        NumericalError,
        match=r"last failure: spectral subspaces not safely independent: their stacked orthonormal "
        r"bases have cond 2\.2\d\de\+07, and 1/cond\^2 = 2\.0\d\de-15 is at most 1e-12$",
    ):
        spectral.jordan_decompose(T)


def test_jordan_refuses_an_inexact_inverse(monkeypatch):
    # an inverse off by 1e-6 in each entry leaves X_inv X - I of norm 3e-6
    inv = numerics.inv
    monkeypatch.setattr(numerics, "inv", lambda a: inv(a) + 1e-6)
    T = tuples.validate([np.diag([0.1, 0.5, 0.1]), np.diag([0.2, -0.3, 0.2])])
    with pytest.raises(
        NumericalError, match=r"does not invert the stacked spectral bases \(defect 3\.000e-06 exceeds 3\.000e-08\)$"
    ):
        spectral.jordan_decompose(T)


# cond and radius of the decomposition at the smallest of the radii 1e-6,
# 1e-5, 1e-4, 1e-3 that certified it while a failed positive-definiteness
# check of sum Q^* Q (now the subspace-independence gate) refused the input
# instead of widening the radius
@pytest.mark.parametrize(
    "zs, radius, cond",
    [
        ([1 - 2.0**-n for n in range(1, 4)], 1e-5, 254.77527460297173),
        ([1 - 2.0**-n for n in range(1, 5)], 1e-4, 964.5207319820688),
        ([1 - 2.0**-n for n in range(1, 6)], 1e-4, 2498.395940609871),
        ([1 - 2.0**-n for n in range(1, 7)], 1e-4, 5028.259054035361),
        ([1 - 2.0**-n for n in range(1, 8)], 1e-3, 8431.14025921637),
        ([1 - 2.0**-n for n in range(1, 9)], 1e-3, 12358.488023431135),
        (_SIX_POINTS, 1e-3, 12112.216906084725),
    ],
)
def test_jordan_certifies_double_points_at_the_default_radius(zs, radius, cond):
    # the Schur diagonal spreads each double eigenvalue wider than 1e-6; the
    # spurious singletons pass the projector-norm gate and fail only the
    # subspace-independence gate, which must widen the radius too
    dec = spectral.jordan_decompose(_double_point_model(zs).tuple)
    assert dec.spectrum.multiplicities == (2,) * len(zs)
    assert dec.spectrum.cluster_tol == pytest.approx(radius)
    assert dec.cond == pytest.approx(cond, rel=1e-8)


@pytest.mark.parametrize("count", [9, 10])
def test_jordan_refuses_double_points_closer_than_their_scatter(count):
    # z_9 - z_8 = 2^-9 lies within twice the radius 1e-3 the double points
    # need, so that radius and the next join distinct double points into one
    # cluster; its Schur diagonal spreads a fifth or more of the way to the
    # next cluster, and no radius is certified
    zs = [1 - 2.0**-n for n in range(1, count + 1)]
    with pytest.raises(NumericalError, match="no clustering radius.*spreads"):
        spectral.jordan_decompose(_double_point_model(zs).tuple)


def test_riesz_idempotents_are_the_hermite_interpolants():
    # on the jet model Z of <(x - z_n)^2>, the spectral idempotent of z_n is
    # p_n(Z) for the Hermite interpolant with p_n(z_m) = delta_nm and
    # p_n'(z_m) = 0: p_n = L_n^2 (1 - 2 L_n'(z_n) (x - z_n)), L_n the
    # Lagrange basis polynomial; the idempotent norms are 84.8, 62.7, 112.2
    zs = [1 - 2.0**-n for n in range(1, 4)]
    T = _double_point_model(zs).tuple
    (Z,) = T.matrices
    I = np.eye(T.n)
    spec = spectral.jordan_decompose(T).spectrum
    for n, zn in enumerate(zs):
        others = [zm for m, zm in enumerate(zs) if m != n]
        L = I.astype(complex)
        for zm in others:
            L = L @ (Z - zm * I) / (zn - zm)
        slope = sum(1.0 / (zn - zm) for zm in others)
        oracle = L @ L @ (I - 2.0 * slope * (Z - zn * I))
        Q = spectral.riesz_idempotent(T, [zn], spec)
        err = numerics.operator_norm(Q - oracle)
        assert err <= 1e-7 * numerics.operator_norm(oracle), (zn, err)


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_clustering_radius_must_be_positive_and_finite(tol):
    # 0 and negative radii used to escalate forever, inf merged distinct
    # eigenvalues into one "nilpotent" block, nan failed far downstream
    T = tuples.validate([np.diag([0.1, 0.5, 0.1]), np.diag([0.2, -0.3, 0.2])])
    with pytest.raises(InputError, match="cluster_tol"):
        spectral.joint_eigenvalues(T, cluster_tol=tol)
    with pytest.raises(InputError, match="cluster_tol"):
        spectral.jordan_decompose(T, cluster_tol=tol)


def test_jordan_decompose_recovers_structure():
    pts = [(0.3 + 0.1j, -0.2), (-0.4, 0.25 + 0.3j), (0.1, 0.6)]
    sizes = [3, 2, 1]
    T = jordan_block_tuple(pts, sizes, seed=3)
    dec = spectral.jordan_decompose(T, seed=0)
    assert sorted(dec.spectrum.multiplicities) == sorted(sizes)
    assert dec.residual <= 1e-7 * max(1.0, T.scale())
    # eigenvalues to high accuracy: cluster means are well conditioned
    for p in dec.spectrum.points:
        err = min(np.linalg.norm(np.array(p) - np.array(q)) for q in pts)
        assert err < 1e-8
    # explicit similarity actually block diagonalizes
    assert_allclose(dec.X @ dec.X_inv, np.eye(T.n), atol=1e-9)
    # each recovered nilpotent is nilpotent
    for nil, m in zip(dec.nilpotents, dec.spectrum.multiplicities):
        for M in nil.matrices:
            assert np.linalg.norm(np.linalg.matrix_power(M, m)) < 1e-7


def test_jordan_single_cluster_nilpotent():
    N1 = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    N2 = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=complex)
    T = tuples.validate([N1, N2])
    dec = spectral.jordan_decompose(T)
    assert dec.spectrum.count == 1
    assert dec.spectrum.multiplicities == (3,)
    assert_allclose(dec.spectrum.points[0], [0, 0], atol=1e-10)


def test_jordan_escalates_past_defective_scatter():
    # a defective eigenvalue scatters the triangular diagonal far beyond
    # any tiny clustering radius; the decomposition must still certify
    pts = [(0.5, 0.1), (-0.3, -0.4)]
    T = jordan_block_tuple(pts, [4, 3], seed=4)
    dec = spectral.jordan_decompose(T, cluster_tol=1e-10, seed=0)
    assert sorted(dec.spectrum.multiplicities) == [3, 4]


def test_riesz_idempotent_refuses_a_split_defective_eigenvalue():
    # at radius 1e-10 the tuple above splits into 7 singletons whose
    # "idempotents" couple nearly coincident spectra, with norms 9.9e9 to
    # 2.6e11; each must be refused where it is made, not later
    pts = [(0.5, 0.1), (-0.3, -0.4)]
    T = jordan_block_tuple(pts, [4, 3], seed=4)
    spec = spectral.joint_eigenvalues(T, cluster_tol=1e-10, seed=0)
    assert spec.multiplicities == (1,) * 7
    for p in spec.points:
        with pytest.raises(NumericalError, match="spectral projector norm"):
            spectral.riesz_idempotent(T, p, spec)


def test_jordan_rejects_noncommuting():
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    bad = tuples.validate([A, A.conj().T])
    with pytest.raises(Exception):
        spectral.jordan_decompose(bad)


def test_eigenvalue_accuracy_on_conjugated_tuples():
    rng = np.random.default_rng(11)
    for trial in range(5):
        k = int(rng.integers(2, 4))
        pts = []
        while len(pts) < k:
            cand = tuple(rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2))
            if all(
                np.linalg.norm(np.array(cand) - np.array(q)) >= 0.3 for q in pts
            ):
                pts.append(cand)
        sizes = list(rng.integers(1, 4, k))
        T = jordan_block_tuple(pts, sizes, seed=int(rng.integers(1 << 30)))
        dec = spectral.jordan_decompose(T, seed=trial)
        for p in dec.spectrum.points:
            err = min(np.linalg.norm(np.array(p) - np.array(q)) for q in pts)
            assert err < 1e-8


# Exact numbers of dense LAPACK calls made by jordan_decompose on the
# README example tuple. While each block's basis was read off its
# idempotent, made with a ztrsyl solve and gated on its norm, and the
# idempotents were gated on resolving the identity, the same call made
# svd 9, trsyl 2. While the similarity symmetrized the idempotents by
# the square root of sum Q^* Q and took a pivoted QR per block, the same
# call made svd 7, eigh 1, inv 0 (and qr 2). While the symmetrizer
# Y = S^(1/2) and its inverse came from two eigensolves of S (sqrtm_psd and
# inv_sqrt), each behind the two-SVD asymmetry check of hermitian_eig, the
# same call made svd 31, eigh 2, eigvalsh 4, inv 0. While validate measured
# both defects of every block and nilpotent part it wrapped, none of which
# is read, svd 29 and eigvalsh 4. While each idempotent factored the combination again with a
# sorted schur and solved its coupling with solve_sylvester (two more schur
# calls each), the same call made schur 7, trsen 0, trsyl 0; svd was 26 then
# too, its rank check going through np.linalg.svd. While each idempotent's
# norm and rank took SVDs of their own, and the eigensolve of sum Q^* Q ran
# behind the asymmetry check of hermitian_eig, svd was 26. While the
# commuting gate always measured the commutator and the two coordinate
# norms took one SVD each, svd was 20. While each idempotent's Q^2 = Q gate
# took an SVD of its own, svd was 18. While each idempotent was gated on its
# commutators, each symmetrized projection on its Hermitian defect, and the
# off-block residual took one SVD per coordinate, svd was 16.
def test_jordan_decompose_lapack_calls(lapack_counts):
    T = tuples.validate([np.diag([0.1, 0.5, 0.1]), np.diag([0.2, -0.3, 0.2])])
    lapack_counts.clear()
    spectral.jordan_decompose(T)
    want = {"svd": 4, "eigh": 0, "eigvalsh": 0, "inv": 1, "schur": 1, "trsen": 2, "trsyl": 0}
    assert {k: lapack_counts[k] for k in want} == want


def test_jordan_decompose_makes_one_range_basis_per_block(monkeypatch, lapack_counts):
    # each rung reorders the kept Schur form once for each cluster of a
    # multi-cluster spectrum that it has no basis for yet, putting that
    # cluster's places first; a single cluster keeps I and reorders
    # nothing, and inverts nothing. While each basis was read off an
    # idempotent, the test counted one numerics.range_basis call per block;
    # while a single cluster inverted X_inv = I, inv was 10
    reorder, decompose = numerics.reorder_schur, spectral._decompose
    selected, counts = [], collections.Counter()

    def recording(select, U, Z):
        selected.append(tuple(np.flatnonzero(select)))
        return reorder(select, U, Z)

    def rung(T, spectrum, bases):
        selected.clear()
        new = [places for places in spectrum.places if places not in bases] if spectrum.count > 1 else []
        try:
            dec = decompose(T, spectrum, bases)
        except NumericalError:
            assert selected == new[: len(selected)]
            raise
        assert selected == new
        counts[spectrum.count > 1] += 1
        return dec

    monkeypatch.setattr(numerics, "reorder_schur", recording)
    monkeypatch.setattr(spectral, "_decompose", rung)
    for seed in range(10):
        spectral.jordan_decompose(_jordan_input(seed)[0])
    assert counts == {True: 7, False: 3}
    assert lapack_counts["inv"] == 7


def test_a_single_cluster_is_decomposed_by_the_identity(lapack_counts):
    # X = X_inv = I with cond 1 and zero defects, and the rung that ends on
    # one cluster makes no LAPACK call: the 9 single-cluster tuples of
    # criterion 4 and tuples on C^1
    rng = np.random.default_rng(5)
    cases = [_jordan_input(seed)[0] for seed in range(50)]
    cases += [tuples.validate([rng.standard_normal((1, 1)) for _ in range(d)]) for d in (1, 2, 3)]
    singles = 0
    for T in cases:
        dec = spectral.jordan_decompose(T)
        if dec.spectrum.count > 1:
            continue
        singles += 1
        lapack_counts.clear()
        again = spectral._decompose(T, dec.spectrum, {})
        assert sum(lapack_counts.values()) == 0
        I = np.eye(T.n)
        for got in (dec, again):
            assert np.array_equal(got.X, I) and np.array_equal(got.X_inv, I)
            assert (got.cond, got.idempotent_defect, got.residual) == (1.0, 0.0, 0.0)
            (block,) = got.blocks
            assert all(np.array_equal(B, Tj) for B, Tj in zip(block.matrices, T.matrices))
    assert singles == 12


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
def test_idempotents_of_a_near_defective_pair_are_idempotent_of_rank_m(delta):
    # eigenvalues 0 and delta of [[0, 1], [0, delta]] in a random unitary
    # basis: each Riesz idempotent has norm about 1/delta, up to 1e7, and
    # Q = Z' [I Y; 0 0] Z'* keeps Q^2 = Q and rank m within rounding
    rng = np.random.default_rng(7)
    W, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    T = tuples.validate([W @ np.array([[0.0, 1.0], [0.0, delta]]) @ W.conj().T])
    spec = spectral.joint_eigenvalues(T, cluster_tol=delta / 10)
    assert spec.multiplicities == (1, 1)
    for p, m in zip(spec.points, spec.multiplicities):
        Q = spectral.riesz_idempotent(T, p, spec)
        s = np.linalg.svd(Q, compute_uv=False)
        assert 0.5 / delta < s[0] < 2.0 / delta
        assert np.linalg.norm(Q @ Q - Q, 2) <= spectral.IDEMPOTENT_TOL * s[0] ** 2
        assert int((s > 0.5).sum()) == m
