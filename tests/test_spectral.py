import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from arveson import numerics, spectral, tuples
from arveson.errors import InputError, NumericalError
from test_acceptance import _jordan_input


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


def test_riesz_idempotent_matches_the_former_sorted_schur_path(monkeypatch):
    # on the 50 tuples of acceptance criterion 4, the ztrsen reorder of the
    # kept Schur form is the sorted Schur form bit for bit, and the ztrsyl
    # idempotent agrees with the solve_sylvester one to roundoff
    reorders = []
    trsen = numerics._trsen

    def recording(*args, **kwargs):
        reorders.append(trsen(*args, **kwargs))
        return reorders[-1]

    monkeypatch.setattr(numerics, "_trsen", recording)
    idempotents = 0
    for seed in range(50):
        T = _jordan_input(seed)[0]
        spec = spectral.jordan_decompose(T).spectrum
        for p in spec.points:
            reorders.clear()
            Q = spectral.riesz_idempotent(T, p, spec)
            R, Z, sdim, Q_old = _former_riesz_idempotent(T, p, spec)
            ((R_new, Z_new, _, sdim_new, _, _, _),) = reorders
            assert np.array_equal(R_new, R) and np.array_equal(Z_new, Z), (seed, p)
            assert sdim_new == sdim
            err = numerics.operator_norm(Q - Q_old)
            assert err <= 1e-10 * numerics.operator_norm(Q), (seed, p, err)
            idempotents += 1
    assert idempotents == 130


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
    assert sorted(dec.block_sizes) == sorted(sizes)
    assert dec.residual <= 1e-7 * max(1.0, T.scale())
    # eigenvalues to high accuracy: cluster means are well conditioned
    for p in dec.spectrum.points:
        err = min(np.linalg.norm(np.array(p) - np.array(q)) for q in pts)
        assert err < 1e-8
    # explicit similarity actually block diagonalizes
    assert_allclose(dec.X @ dec.X_inv, np.eye(T.n), atol=1e-9)
    # each recovered nilpotent is nilpotent
    for nil, m in zip(dec.nilpotents, dec.block_sizes):
        for M in nil.matrices:
            assert np.linalg.norm(np.linalg.matrix_power(M, m)) < 1e-7


def test_jordan_single_cluster_nilpotent():
    N1 = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    N2 = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=complex)
    T = tuples.validate([N1, N2])
    dec = spectral.jordan_decompose(T)
    assert dec.spectrum.count == 1
    assert dec.block_sizes == (3,)
    assert_allclose(dec.spectrum.points[0], [0, 0], atol=1e-10)


def test_jordan_escalates_past_defective_scatter():
    # a defective eigenvalue scatters the triangular diagonal far beyond
    # any tiny clustering radius; the decomposition must still certify
    pts = [(0.5, 0.1), (-0.3, -0.4)]
    T = jordan_block_tuple(pts, [4, 3], seed=4)
    dec = spectral.jordan_decompose(T, cluster_tol=1e-10, seed=0)
    assert sorted(dec.block_sizes) == [3, 4]


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
# README example tuple. While the symmetrizer Y = S^(1/2) and its inverse
# came from two eigensolves of S (sqrtm_psd and inv_sqrt), each behind the
# two-SVD asymmetry check of hermitian_eig, the same call made svd 31,
# eigh 2, eigvalsh 4, inv 0. While validate measured both defects of every
# block and nilpotent part it wrapped, none of which is read, svd 29 and
# eigvalsh 4. While each idempotent factored the combination again with a
# sorted schur and solved its coupling with solve_sylvester (two more schur
# calls each), the same call made schur 7, trsen 0, trsyl 0; svd was 26 then
# too, its rank check going through np.linalg.svd.
def test_jordan_decompose_lapack_calls(lapack_counts):
    T = tuples.validate([np.diag([0.1, 0.5, 0.1]), np.diag([0.2, -0.3, 0.2])])
    lapack_counts.clear()
    spectral.jordan_decompose(T)
    want = {"svd": 26, "eigh": 1, "eigvalsh": 0, "inv": 0, "schur": 1, "trsen": 2, "trsyl": 2}
    assert {k: lapack_counts[k] for k in want} == want
