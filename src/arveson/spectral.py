"""Joint spectra and simultaneous block diagonalization.

The joint spectrum of a commuting tuple is read off a simultaneous Schur
triangularization driven by one random real linear combination. Riesz
idempotents come from reordering that Schur form cluster by cluster and
solving a Sylvester equation for the coupling block, and the block
diagonalization symmetrizes them into orthogonal projections before
assembling the similarity, so the conditioning of the output is exactly
the conditioning forced by the angles between the spectral subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import numerics
from .errors import InputError, NumericalError
from .tuples import CommutingTuple, validate

TRIANGULARIZE_RTOL = 1e-7
TRIANGULARIZE_ATTEMPTS = 5  # random combinations tried before giving up
IDEMPOTENT_TOL = 1e-8
BLOCK_RESIDUAL_RTOL = 1e-7
# largest clustering radius jordan_decompose will escalate to; triangular
# diagonals of a defective eigenvalue scatter like eps**(1/k) for a chain
# of length k, far wider than any fixed small radius
CLUSTER_TOL_CAP = 2e-2
# a split cluster couples nearly coincident spectra, so its Sylvester
# block and hence the "idempotent" blow up; genuine spectral projectors
# at desk scale stay far below this
PROJECTOR_NORM_GATE = 1e8


@dataclass(frozen=True)
class JointSpectrum:
    """Clustered joint eigenvalues of a commuting tuple.

    ``points[i]`` is a d-tuple of complex coordinates, ``combined[i]`` its
    image under the real combination ``combo`` that was triangularized.
    Distinct points are separated by more than twice ``cluster_tol``.
    """

    points: tuple
    multiplicities: tuple
    combo: tuple
    combined: tuple
    cluster_tol: float

    @property
    def count(self) -> int:
        return len(self.points)

    def locate(self, z) -> int:
        z = np.asarray(z, dtype=complex).reshape(-1)
        dists = [float(np.linalg.norm(np.array(p) - z)) for p in self.points]
        i = int(np.argmin(dists))
        if dists[i] > self.cluster_tol:
            raise InputError(
                f"point {tuple(z.tolist())} is not a joint eigenvalue "
                f"(closest cluster at distance {dists[i]:.3e})"
            )
        return i


def _cluster(values: np.ndarray, tol: float):
    """Union-find clustering at distance tol, re-merged until the
    representatives are separated by more than 2*tol."""
    m = values.shape[0]
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for i in range(m):
        for j in range(i + 1, m):
            if np.linalg.norm(values[i] - values[j]) <= tol:
                union(i, j)
    while True:
        groups = {}
        for i in range(m):
            groups.setdefault(find(i), []).append(i)
        reps = {r: values[idx].mean(axis=0) for r, idx in groups.items()}
        merged = False
        keys = list(groups)
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                if np.linalg.norm(reps[keys[a]] - reps[keys[b]]) <= 2 * tol:
                    union(keys[a], keys[b])
                    merged = True
        if not merged:
            return groups, reps


def joint_eigenvalues(
    T: CommutingTuple,
    cluster_tol: float = 1e-6,
    seed: int = 0,
) -> JointSpectrum:
    """Diagonal d-tuples of a simultaneous triangularization, clustered.

    A random real combination A = sum c_j T_j is Schur-triangularized and
    the same unitary must triangularize every coordinate; an attempt is
    rejected (and c redrawn) if some strict lower part survives or the
    combination fails to separate the clusters it produced.
    """
    T.require_commuting()
    rng = np.random.default_rng(seed)
    scale = max(1.0, T.scale())
    last_defect = None
    for _ in range(TRIANGULARIZE_ATTEMPTS):
        c = rng.standard_normal(T.d)
        c /= np.linalg.norm(c)
        A = sum(cj * Tj for cj, Tj in zip(c, T.matrices))
        Q, _ = numerics.schur(A)
        diags = []
        defect = 0.0
        for Tj in T.matrices:
            B = Q.conj().T @ Tj @ Q
            defect = max(defect, float(np.abs(np.tril(B, -1)).max()))
            diags.append(np.diag(B))
        last_defect = defect
        if defect > TRIANGULARIZE_RTOL * scale:
            continue
        values = np.column_stack(diags)
        groups, reps = _cluster(values, cluster_tol)
        order = sorted(
            groups,
            key=lambda r: tuple(x for z in reps[r] for x in (z.real, z.imag)),
        )
        points = [tuple(reps[r].tolist()) for r in order]
        mults = [len(groups[r]) for r in order]
        combined = [complex(np.dot(c, np.array(p))) for p in points]
        if len(points) > 1:
            sep_spec = min(
                np.linalg.norm(np.array(points[i]) - np.array(points[j]))
                for i in range(len(points))
                for j in range(i + 1, len(points))
            )
            sep_comb = min(
                abs(combined[i] - combined[j])
                for i in range(len(points))
                for j in range(i + 1, len(points))
            )
            # the combination must keep distinct clusters distinct, or the
            # scalar interpolation behind the idempotents degenerates
            if sep_comb < 0.02 * sep_spec:
                continue
        return JointSpectrum(
            points=tuple(points),
            multiplicities=tuple(mults),
            combo=tuple(float(x) for x in c),
            combined=tuple(combined),
            cluster_tol=cluster_tol,
        )
    raise NumericalError(
        f"no random combination triangularized the tuple in {TRIANGULARIZE_ATTEMPTS} "
        f"attempts (last defect {last_defect:.3e}); the tuple may be too far "
        f"from commuting"
    )


def riesz_idempotent(T: CommutingTuple, z, spectrum: JointSpectrum) -> np.ndarray:
    """Spectral idempotent of the cluster at z.

    The Schur form of the triangularized combination is reordered so the
    cluster's eigenvalues lead, and the coupling block is eliminated by a
    Sylvester solve; the conditioning of the result is the separation
    between the cluster and the rest of the spectrum, with none of the
    intermediate growth a polynomial in the combination would suffer.
    """
    i = spectrum.locate(z)
    c = np.array(spectrum.combo)
    A = sum(cj * Tj for cj, Tj in zip(c, T.matrices))
    n = T.n
    reps = np.array(spectrum.combined)

    def in_cluster(w):
        return int(np.argmin(np.abs(reps - w))) == i

    try:
        R, Zs, sdim = scipy.linalg.schur(A, output="complex", sort=in_cluster)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Schur reordering failed for the cluster at {spectrum.points[i]}: "
            f"{exc}"
        ) from exc
    m = spectrum.multiplicities[i]
    if sdim != m:
        raise NumericalError(
            f"reordering selected {sdim} eigenvalues for a cluster of "
            f"multiplicity {m}; the clustering radius mislabels the spectrum"
        )
    if m == n:
        return np.eye(n, dtype=complex)
    R11 = R[:m, :m]
    R12 = R[:m, m:]
    R22 = R[m:, m:]
    try:
        Y = scipy.linalg.solve_sylvester(R11, -R22, R12)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(
            "Sylvester solve for the spectral coupling block failed; the "
            "cluster is not separated from the rest of the spectrum"
        ) from exc
    P = np.zeros((n, n), dtype=complex)
    P[:m, :m] = np.eye(m)
    P[:m, m:] = Y
    Q = Zs @ P @ Zs.conj().T
    scale = max(1.0, numerics.operator_norm(Q))
    if numerics.operator_norm(Q @ Q - Q) > IDEMPOTENT_TOL * scale**2:
        raise NumericalError(
            "computed spectral idempotent fails Q^2 = Q beyond tolerance"
        )
    for Tj in T.matrices:
        comm = numerics.operator_norm(Q @ Tj - Tj @ Q)
        if comm > IDEMPOTENT_TOL * scale * max(1.0, T.scale()):
            raise NumericalError(
                "spectral idempotent does not commute with the tuple"
            )
    s = np.linalg.svd(Q, compute_uv=False)
    rank = int((s > 0.5).sum())
    if rank != spectrum.multiplicities[i]:
        raise NumericalError(
            f"idempotent rank {rank} disagrees with cluster multiplicity "
            f"{spectrum.multiplicities[i]}"
        )
    return Q


@dataclass(frozen=True)
class JordanDecomposition:
    spectrum: JointSpectrum
    X: np.ndarray
    X_inv: np.ndarray
    cond: float
    residual: float
    blocks: tuple
    nilpotents: tuple
    idempotent_defect: float = field(default=0.0)

    @property
    def block_sizes(self) -> tuple:
        return self.spectrum.multiplicities


def jordan_decompose(
    T: CommutingTuple,
    cluster_tol: float = 1e-6,
    seed: int = 0,
) -> JordanDecomposition:
    """Similarity X with X T_j X^{-1} block diagonal, one block per joint
    eigenvalue, each block a scalar plus a commuting nilpotent tuple.

    The raw Riesz idempotents Q_i are symmetrized by Y = (sum Q_i* Q_i)^{1/2}
    into orthogonal projections, so X = U* Y with unitary U and the reported
    condition number is intrinsic to the tuple, not to basis choices.
    """
    T.require_commuting()
    n = T.n
    I = np.eye(n, dtype=complex)
    # A clustering radius below the diagonal scatter of a defective
    # eigenvalue splits it into spurious singletons. Splits are not
    # detectable from the diagonal values alone (they look exactly like
    # close simple eigenvalues) but they fail the idempotent certificates,
    # so escalate the radius until the certificates pass.
    ladder = [cluster_tol]
    while ladder[-1] < CLUSTER_TOL_CAP:
        ladder.append(min(ladder[-1] * 10.0, CLUSTER_TOL_CAP))
    spectrum = None
    last_err = None
    for ct in ladder:
        try:
            cand = joint_eigenvalues(T, cluster_tol=ct, seed=seed)
            Qs = [riesz_idempotent(T, p, cand) for p in cand.points]
            scale_q = max(1.0, max(numerics.operator_norm(Q) for Q in Qs))
            if scale_q > PROJECTOR_NORM_GATE:
                raise NumericalError(
                    f"spectral projector norm {scale_q:.3e} exceeds "
                    f"{PROJECTOR_NORM_GATE:g}; the clustering split a "
                    f"defective eigenvalue or the split is untrustworthy"
                )
            # sum Q_i = I is a polynomial identity, so the defect is pure
            # rounding and must be small in absolute terms
            defect = numerics.operator_norm(sum(Qs) - I)
            if defect > IDEMPOTENT_TOL * n:
                raise NumericalError(
                    f"spectral idempotents do not resolve the identity "
                    f"(defect {defect:.3e})"
                )
        except NumericalError as exc:
            last_err = exc
            continue
        spectrum = cand
        break
    if spectrum is None:
        raise NumericalError(
            f"no clustering radius up to {CLUSTER_TOL_CAP:g} produced "
            f"certified spectral idempotents; last failure: {last_err}"
        )
    S = sum(Q.conj().T @ Q for Q in Qs)
    Y, Y_inv = numerics.sqrt_and_inv_sqrt(S)
    Us = []
    for Q, m in zip(Qs, spectrum.multiplicities):
        P = Y @ Q @ Y_inv
        herm = numerics.operator_norm(P - P.conj().T)
        if herm > IDEMPOTENT_TOL * max(1.0, numerics.operator_norm(P)):
            raise NumericalError(
                f"symmetrized projection is not Hermitian (defect {herm:.3e})"
            )
        qr_q, qr_r, _ = scipy.linalg.qr(P, pivoting=True)
        phases = np.ones(m, dtype=complex)
        for j in range(m):
            rjj = qr_r[j, j]
            if abs(rjj) > 0:
                phases[j] = rjj / abs(rjj)
        Us.append(qr_q[:, :m] * phases)
    U = np.hstack(Us)
    if numerics.operator_norm(U.conj().T @ U - I) > IDEMPOTENT_TOL * n:
        raise NumericalError("projection ranges failed to assemble unitarily")
    X = U.conj().T @ Y
    X_inv = Y_inv @ U
    scale = max(1.0, T.scale())
    residual = 0.0
    transformed = [X @ Tj @ X_inv for Tj in T.matrices]
    offsets = np.concatenate([[0], np.cumsum(spectrum.multiplicities)])
    mask = np.zeros((n, n), dtype=bool)
    for i in range(spectrum.count):
        lo, hi = offsets[i], offsets[i + 1]
        mask[lo:hi, lo:hi] = True
    for B in transformed:
        off = B.copy()
        off[mask] = 0.0
        residual = max(residual, numerics.operator_norm(off))
    if residual > BLOCK_RESIDUAL_RTOL * scale:
        raise NumericalError(
            f"off-block residual {residual:.3e} exceeds "
            f"{BLOCK_RESIDUAL_RTOL * scale:.3e}"
        )
    blocks = []
    nilpotents = []
    for i, (p, m) in enumerate(zip(spectrum.points, spectrum.multiplicities)):
        lo, hi = offsets[i], offsets[i + 1]
        blk = [B[lo:hi, lo:hi] for B in transformed]
        blocks.append(validate(blk))
        nilpotents.append(
            validate([b - zj * np.eye(m, dtype=complex) for b, zj in zip(blk, p)])
        )
    return JordanDecomposition(
        spectrum=spectrum,
        X=X,
        X_inv=X_inv,
        cond=numerics.cond(X),
        residual=residual,
        blocks=tuple(blocks),
        nilpotents=tuple(nilpotents),
        idempotent_defect=defect,
    )
