"""Joint spectra and simultaneous block diagonalization.

The joint spectrum of a commuting tuple is read off a simultaneous Schur
triangularization driven by one random real linear combination, and that
one Schur form serves every spectral subspace: LAPACK ``ztrsen`` reorders
it so a cluster's diagonal places lead, and the leading Schur vectors are
an orthonormal basis of the cluster's spectral subspace. A block
diagonalization factors the combination once: a wider clustering radius
re-clusters the kept triangular diagonal, unless the combination no
longer separates the clusters. The inverse of the block diagonalizing
similarity stacks those bases, so the conditioning of the output is
exactly the conditioning forced by the angles between the spectral
subspaces. The Riesz idempotent of a cluster, for callers that want the
matrix, eliminates the coupling block of the same reordered form with one
``ztrsyl`` Sylvester solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import InputError, NumericalError
from .tuples import CommutingTuple, validate

CLUSTER_TOL = 1e-6  # default clustering radius
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
# a cluster's Schur diagonal must stay within this fraction of the way to
# the nearest other cluster. A radius wide enough to join distinct
# eigenvalues leaves a cluster spread 1/5 to 2/5 of that way on the
# double-point jet models of 1 - 2^-n, n = 9, 10; certified clusters stay
# below 1/100 on planted Jordan tuples and 1/50 on those jet models, n <= 8
CLUSTER_SPREAD_RATIO = 0.05


@dataclass(frozen=True)
class JointSpectrum:
    """Clustered joint eigenvalues of a commuting tuple.

    ``points[i]`` is a d-tuple of complex coordinates, ``combined[i]`` its
    image under the real combination ``combo`` that was triangularized.
    Distinct points are separated by more than twice ``cluster_tol``.
    ``schur`` is the Schur form (Z, U), A = Z U Z*, of that combination, and
    row k of ``diagonal`` is the d-tuple on the k-th diagonal place of the
    coordinates in that basis: the values the clusters group.
    ``places[i]`` lists the diagonal places of cluster i in ascending order.
    """

    points: tuple
    multiplicities: tuple
    combo: tuple
    combined: tuple
    cluster_tol: float
    schur: tuple = field(repr=False, compare=False)
    diagonal: np.ndarray = field(repr=False, compare=False)
    places: tuple = field(repr=False, compare=False)

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


def _clustered(diagonal: np.ndarray, combo: tuple, schur: tuple, cluster_tol: float) -> JointSpectrum:
    """The triangular diagonal clustered at ``cluster_tol``; NumericalError
    when the combination fails to keep the clusters apart."""
    groups, reps = _cluster(diagonal, cluster_tol)
    order = sorted(
        groups,
        key=lambda r: tuple(x for z in reps[r] for x in (z.real, z.imag)),
    )
    points = [tuple(reps[r].tolist()) for r in order]
    combined = [complex(np.dot(combo, np.array(p))) for p in points]
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
        # the combination must keep distinct clusters distinct: the leading
        # Schur vectors of a reordered cluster span its invariant subspace
        # only to about u ||A|| / sep(R11, R22) (Golub & Van Loan, Matrix
        # Computations, section 7.2), and sep is at most the distance
        # between the combined values of the cluster and the rest
        if sep_comb < 0.02 * sep_spec:
            raise NumericalError(
                f"the combination does not separate the clusters at radius {cluster_tol:g}"
            )
    return JointSpectrum(
        points=tuple(points),
        multiplicities=tuple(len(groups[r]) for r in order),
        combo=combo,
        combined=tuple(combined),
        cluster_tol=cluster_tol,
        schur=schur,
        diagonal=diagonal,
        places=tuple(tuple(groups[r]) for r in order),
    )


def joint_eigenvalues(
    T: CommutingTuple,
    cluster_tol: float = CLUSTER_TOL,
    seed: int = 0,
) -> JointSpectrum:
    """Diagonal d-tuples of a simultaneous triangularization, clustered.

    A random real combination A = sum c_j T_j is Schur-triangularized and
    the same unitary must triangularize every coordinate; an attempt is
    rejected (and c redrawn) if some strict lower part survives or the
    combination fails to separate the clusters it produced. The clustering
    radius must be a positive finite number.
    """
    if not 0 < cluster_tol < np.inf:  # refuses nan as well
        raise InputError(f"cluster_tol must be a positive finite number, got {cluster_tol!r}")
    T.require_commuting()
    rng = np.random.default_rng(seed)
    scale = max(1.0, T.scale())
    last_defect = None
    for _ in range(TRIANGULARIZE_ATTEMPTS):
        c = rng.standard_normal(T.d)
        c /= np.linalg.norm(c)
        A = sum(cj * Tj for cj, Tj in zip(c, T.matrices))
        Q, U = numerics.schur(A)
        diags = []
        defect = 0.0
        for Tj in T.matrices:
            B = Q.conj().T @ Tj @ Q
            defect = max(defect, float(np.abs(np.tril(B, -1)).max()))
            diags.append(np.diag(B))
        last_defect = defect
        if defect > TRIANGULARIZE_RTOL * scale:
            continue
        try:
            return _clustered(
                np.column_stack(diags), tuple(float(x) for x in c), (Q, U), cluster_tol
            )
        except NumericalError:
            continue
    raise NumericalError(
        f"no random combination triangularized the tuple in {TRIANGULARIZE_ATTEMPTS} "
        f"attempts (last defect {last_defect:.3e}); the tuple may be too far "
        f"from commuting"
    )


def riesz_idempotent(T: CommutingTuple, z, spectrum: JointSpectrum) -> np.ndarray:
    """Spectral idempotent of the cluster at z.

    The Schur form Z U Z* of the spectrum's combination is reordered by
    LAPACK ``ztrsen`` so the cluster's diagonal places lead, giving Z' R Z'*,
    and the coupling block is eliminated by one ``ztrsyl`` solve of
    R11 Y - Y R22 = R12 on the triangular blocks; then Q = Z' [I Y; 0 0] Z'*.
    The conditioning of the result is the separation between the cluster
    and the rest of the spectrum, with none of the intermediate growth a
    polynomial in the combination would suffer. The norm of Q is gated,
    ||Q|| <= ``PROJECTOR_NORM_GATE``; a failure raises NumericalError.

    Q^2 = Q and rank Q = m hold by construction and are not measured.
    P = [I Y; 0 0] satisfies P^2 = P exactly in floating point; its
    singular values are sqrt(1 + sigma_i(Y)^2) >= 1, m of them, and exactly
    0 for the rest. Z' is unitary to O(n u), so Weyl's inequality and the
    backward error of the two products bound the rounding of ||Q^2 - Q||
    by c n u ||Q||^2 and that of each singular value of Q by c n u ||Q||.
    Past the norm gate, neither the ``IDEMPOTENT_TOL`` test of Q^2 = Q nor
    a cut of the singular values at 0.5 can fail for any n below about 1e6.

    Nor is [Q, T_j] measured. Q commutes with the combination up to the
    ``ztrsyl`` residual, and with each T_j only as well as commuting is
    conditioned: on planted Jordan chains of length 5 and 6, Q commutes with
    the combination to 5e-15 and with a coordinate to about 3e-8, which a
    fixed gate on [Q, T_j] refused. ``jordan_decompose`` makes no Q: the
    range of Q is the span of the first m columns of Z', and ||Q|| is the
    norm of the rows of X that belong to the cluster (see ``_decompose``).
    """
    i = spectrum.locate(z)
    n = T.n
    Z, U = spectrum.schur
    m = spectrum.multiplicities[i]
    if m == n:
        return np.eye(n, dtype=complex)
    select = np.isin(np.arange(n), spectrum.places[i])
    R, Zs = numerics.reorder_schur(select, U, Z)
    P = np.zeros((n, n), dtype=complex)
    P[:m, :m] = np.eye(m)
    P[:m, m:] = numerics.triangular_sylvester(R[:m, :m], R[m:, m:], R[:m, m:])
    Q = Zs @ P @ Zs.conj().T
    norm = numerics.operator_norm(Q)
    if norm > PROJECTOR_NORM_GATE:
        raise NumericalError(
            f"spectral projector norm {norm:.3e} exceeds "
            f"{PROJECTOR_NORM_GATE:g}; the clustering split a "
            f"defective eigenvalue or the split is untrustworthy"
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


def jordan_decompose(
    T: CommutingTuple,
    cluster_tol: float = CLUSTER_TOL,
    seed: int = 0,
) -> JordanDecomposition:
    """Similarity X with X T_j X^{-1} block diagonal, one block per joint
    eigenvalue, each block a scalar plus a commuting nilpotent tuple.

    X_inv stacks an orthonormal basis of each spectral subspace, the range
    of the Riesz idempotent Q_i, and X is its inverse. Other orthonormal
    bases change X only by a block diagonal unitary, so the reported
    condition number is intrinsic to the tuple, not to basis choices: it is
    the orthonormal-range witness of Demmel, SIAM J. Numer. Anal. 20 (1983).

    The joint spectrum is computed once, at ``cluster_tol``. A radius below
    the diagonal scatter of a defective eigenvalue splits it into spurious
    singletons that look like close simple eigenvalues and fail some
    certificate below (independence of the spectral subspaces, inverse
    defect, off-block residual). These gate the output X, X_inv and blocks
    directly; they imply that the assembled projections X_inv E_n X resolve
    the identity, are bounded in norm and commute with the tuple (the
    proofs are in ``_decompose``). A radius wide enough to join
    distinct eigenvalues leaves a cluster whose diagonal spreads a fair part
    of the way to the next one, beyond ``CLUSTER_SPREAD_RATIO``. Any failed
    certificate re-clusters the kept triangular diagonal at a tenfold
    radius, up to ``CLUSTER_TOL_CAP``, reusing every basis whose Schur
    diagonal places it left unchanged.
    A rung with no spectrum yet, or whose kept combination no longer
    separates its clusters, calls ``joint_eigenvalues`` at that radius.
    """
    ct, spectrum, bases = cluster_tol, None, {}
    while True:
        try:
            if spectrum is not None:
                try:
                    spectrum = _clustered(spectrum.diagonal, spectrum.combo, spectrum.schur, ct)
                except NumericalError:
                    spectrum = None
            if spectrum is None:
                spectrum, bases = joint_eigenvalues(T, cluster_tol=ct, seed=seed), {}
            return _decompose(T, spectrum, bases)
        except NumericalError as exc:
            if ct >= CLUSTER_TOL_CAP:
                raise NumericalError(
                    f"no clustering radius up to {CLUSTER_TOL_CAP:g} produced "
                    f"certified spectral subspaces; last failure: {exc}"
                ) from exc
            ct = min(ct * 10.0, CLUSTER_TOL_CAP)


def _decompose(T: CommutingTuple, spectrum: JointSpectrum, bases: dict) -> JordanDecomposition:
    """The decomposition on one clustering, every certificate raising
    NumericalError. ``bases`` maps the diagonal places of a cluster to the
    basis already taken for it from the same Schur form.

    V_i is the first m_i columns of Z' from the ``ztrsen`` reorder
    Z U Z* = Z' R Z'* that puts cluster i's places first. They span
    range(Q_i), since Q_i = Z' [I Y; 0 0] Z'* (``riesz_idempotent``; Golub &
    Van Loan, Matrix Computations, section 7.6). X_inv = V = [V_1 ... V_b]
    and X is its computed inverse. A single cluster takes X = X_inv = I,
    which passes the gates below exactly (cond 1, inverse defect 0, no
    off-block part), so it measures none of them. The
    subspace-independence gate refuses 1/cond(V)^2 <= ``numerics.PD_RTOL``,
    read off one SVD of V that also gives the reported cond; since
    sum Q_i* Q_i = (V V*)^-1, it is the test that this sum be safely
    positive definite. The inverse-defect gate bounds
    ||F|| <= ``IDEMPOTENT_TOL`` * n for F = X_inv X - I, and the residual
    gate proves each range invariant under every T_j, up to the off-block
    part R_j of X T_j X_inv.

    Those gates imply three properties of the assembled projections
    P_n = X_inv E_n X, E_n the coordinate projection onto block n, so none
    is measured:
    - Identity: sum_n P_n - I = X_inv X - I = F, within the inverse-defect
      bound; ``idempotent_defect`` reports ||F||.
    - Norm: ||P_n|| = ||X[block n, :]|| <= ||X|| <= cond(X_inv), as V_n
      has orthonormal columns and so ||X_inv|| >= 1 (up to the rounding of
      the inverse). The independence gate holds cond below 10^6, far below
      ``PROJECTOR_NORM_GATE``.
    - Commuting: E_n commutes with the block diagonal part of X T_j X_inv,
      and X_inv X T_j X_inv X = (I + F) T_j (I + F), so
      X_inv [E_n, R_j] X = [P_n, T_j] + P_n T_j F - F T_j P_n. With
      kappa = ||X|| ||X_inv|| >= ||P_n||, up to the rounding of the
      products, ||[P_n, T_j]|| <= 2 kappa (||R_j|| + ||T_j|| ||F||).
    """
    n = T.n
    I = np.eye(n, dtype=complex)
    Z, U = spectrum.schur
    points = np.array(spectrum.points)
    gaps = np.linalg.norm(points[:, None] - points, axis=2) + np.diag(np.full(spectrum.count, np.inf))
    for i, (p, places) in enumerate(zip(spectrum.points, spectrum.places)):
        spread = np.linalg.norm(spectrum.diagonal[list(places)] - points[i], axis=1).max(initial=0.0)
        gap = gaps[i].min()
        if spread > CLUSTER_SPREAD_RATIO * gap:
            raise NumericalError(
                f"the cluster at {p} spreads {spread:.3e}, more than "
                f"{CLUSTER_SPREAD_RATIO:g} of the distance {gap:.3e} to the next "
                f"cluster; it may join distinct eigenvalues"
            )
    single = spectrum.count == 1
    if single:
        # X = X_inv = I: cond 1, no inverse defect and no off-block part
        X = X_inv = I
        cond, defect, residual = 1.0, 0.0, 0.0
    else:
        for places in spectrum.places:
            if places not in bases:
                select = np.bincount(places, minlength=n) > 0
                bases[places] = numerics.reorder_schur(select, U, Z)[1][:, : len(places)]
        X_inv = np.hstack([bases[places] for places in spectrum.places])
        cond = numerics.cond(X_inv)
        if cond**-2 <= numerics.PD_RTOL:
            raise NumericalError(
                f"spectral subspaces not safely independent: their stacked "
                f"orthonormal bases have cond {cond:.3e}, and 1/cond^2 = "
                f"{cond**-2:.3e} is at most {numerics.PD_RTOL:g}"
            )
        X = numerics.inv(X_inv)
        defect = numerics.operator_norm(X_inv @ X - I)
        if defect > IDEMPOTENT_TOL * n:
            raise NumericalError(
                f"the similarity does not invert the stacked spectral bases "
                f"(defect {defect:.3e} exceeds {IDEMPOTENT_TOL * n:.3e})"
            )
    transformed = np.array([X @ Tj @ X_inv for Tj in T.matrices])
    offsets = np.concatenate([[0], np.cumsum(spectrum.multiplicities)])
    if not single:
        mask = np.zeros((n, n), dtype=bool)
        for i in range(spectrum.count):
            lo, hi = offsets[i], offsets[i + 1]
            mask[lo:hi, lo:hi] = True
        off = transformed.copy()
        off[:, mask] = 0.0
        residual = float(numerics.operator_norms(off).max())
        scale = max(1.0, T.scale())
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
        cond=cond,
        residual=residual,
        blocks=tuple(blocks),
        nilpotents=tuple(nilpotents),
        idempotent_defect=defect,
    )
