"""Dense complex-matrix kernel used by all higher modules.

Thin, contract-checked wrappers around LAPACK via numpy/scipy. No other
module calls a factorization, so ``CALLS`` counts every LAPACK call by kind
(``svd`` for ``zgesdd`` and stacked SVDs, ``gen_eigh`` for the generalized
``eigh``, else the routine's name). All tolerances are relative to the
input norm; rank decisions go through one cut (:func:`_rank`), which refuses
to guess when the singular-value gap is ambiguous.

Single-matrix SVDs (:func:`_svd`) call the ``zgesdd`` handle of
``scipy.linalg.lapack`` with the workspace numpy would query, from a table of
shapes (:func:`_gesdd_work`), without numpy's per-call dispatch, which costs
as much as the SVD on the few-row matrices certificates make by the thousand;
stacked SVDs stay on numpy (:func:`operator_norms`: the largest singular
value of every matrix of a stack from one call). Both agree bit for bit,
except where the OpenBLAS builds of numpy and scipy split a threaded call
apart (tall, 64 rows and up). The ``ztrsen`` (:func:`reorder_schur`) and
``ztrsyl`` (:func:`triangular_sylvester`) handles are bound here too, the one
home of ``scipy.linalg.lapack``. Hermitian eigenvalues that a gate compares
come from :func:`largest_eigenvalue`, Hermitian eigensolves from
:func:`hermitian_part_eig`, and the pivoted QR of spectral projections from
:func:`pivoted_qr`.
"""

from __future__ import annotations

import collections
import functools

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import InputError, NumericalError

DEFAULT_TOL = 1e-9
RANK_RTOL = 1e-9
GAP_RATIO = 1e6
PD_RTOL = 1e-12
# widest matrix whose kernel :func:`nullspace` may be asked for: its full SVD
# holds an n x n V^H, 256 MiB of complex doubles at this width
MAX_NULLSPACE_COLS = 4096

_gesdd = scipy.linalg.lapack.zgesdd
_gesdd_lwork = scipy.linalg.lapack.zgesdd_lwork
_trsen = scipy.linalg.lapack.ztrsen
_trsyl = scipy.linalg.lapack.ztrsyl
CALLS = collections.defaultdict(int)  # its increment costs a third of a Counter's


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    out = np.asarray(a, dtype=complex)
    if out.ndim != 2:
        raise InputError(f"expected a matrix, got array of ndim {out.ndim}")
    if not np.isfinite(out).all():
        raise InputError("matrix contains non-finite entries")
    return out


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")


@functools.lru_cache(maxsize=None)
def _gesdd_work(m: int, n: int, uv: bool, full: bool) -> int:
    """The ``zgesdd`` workspace of an m x n SVD in one form, queried once."""
    work, _ = _gesdd_lwork(m, n, compute_uv=uv, full_matrices=full)
    return int(work.real)


def _svd(a: np.ndarray, uv: bool = False, full: bool = False):
    """s, or (u, s, vh) with ``uv`` (square u, vh with ``full``), of a
    nonempty matrix: LAPACK rejects an empty one."""
    m, n = a.shape
    CALLS["svd"] += 1
    u, s, vh, info = _gesdd(a, compute_uv=uv, full_matrices=full, lwork=_gesdd_work(m, n, uv, full))
    if info:
        raise NumericalError(f"SVD of a {m}x{n} matrix failed: LAPACK zgesdd info {info}")
    return (u, s, vh) if uv else s


def operator_norm(a) -> float:
    """Largest singular value."""
    a = as_cmatrix(a)
    if a.size == 0:
        return 0.0
    return float(_svd(a)[0])


def operator_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a nonempty k x m x n stack,
    from one stacked SVD; entry i equals ``operator_norm(stack[i])`` bit for
    bit (see the module docstring for the threaded exception). A stack of
    one goes to :func:`_svd`, whose call costs less than numpy's dispatch."""
    stack = np.asarray(stack, dtype=complex)
    if len(stack) == 1:
        return _svd(stack[0])[:1]
    CALLS["svd"] += 1
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _hermitian_part(a) -> np.ndarray:
    """(a + a^*)/2, the matrix every Hermitian eigensolve is handed (LAPACK
    reads one triangle only). A matrix Hermitian by construction (a Gram
    matrix, a sum of M M^* or of Q^* Q, a Pick matrix) comes here directly:
    its asymmetry is rounding only, so none is measured."""
    a = as_cmatrix(a)
    _require_square(a)
    return (a + a.conj().T) / 2.0


def hermitian_part_eig(a) -> tuple:
    """Eigenvalues (ascending) and unitary eigenvectors of the Hermitian
    part of ``a`` (one ``eigh``); for a matrix Hermitian by construction,
    as :func:`_hermitian_part`."""
    CALLS["eigh"] += 1
    return np.linalg.eigh(_hermitian_part(a))


def generalized_eigvalsh(a, b) -> np.ndarray:
    """Eigenvalues (ascending) of the Hermitian pencil (a, b), b positive definite."""
    CALLS["gen_eigh"] += 1
    try:
        return scipy.linalg.eigh(a, b, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigensolve failed: {exc}") from exc


def pivoted_qr(a) -> tuple:
    """(Q, R) of the column-pivoted QR factorization A P = Q R."""
    CALLS["qr"] += 1
    q, r, _ = scipy.linalg.qr(a, pivoting=True)
    return q, r


def largest_eigenvalue(a) -> float:
    """Largest eigenvalue of the Hermitian part of ``a`` (one ``eigvalsh``);
    for a matrix Hermitian by construction, as :func:`_hermitian_part`."""
    CALLS["eigvalsh"] += 1
    return float(np.linalg.eigvalsh(_hermitian_part(a))[-1])


def schur(a):
    """Complex Schur form A = Q U Q* with Q unitary, U upper triangular."""
    a = as_cmatrix(a)
    _require_square(a)
    CALLS["schur"] += 1
    u, q = scipy.linalg.schur(a, output="complex")
    return q, u


def reorder_schur(select, U, Z) -> tuple:
    """(R, Z') with Z U Z* = Z' R Z'* and the places ``select`` marks leading."""
    CALLS["trsen"] += 1
    R, Zs, _, _, _, _, info = _trsen(select, U, Z, job="N")
    if info:
        raise NumericalError(f"Schur reordering failed: LAPACK ztrsen info {info}")
    return R, Zs


def triangular_sylvester(A, B, C) -> np.ndarray:
    """Y with A Y - Y B = C, A and B upper triangular; close eigenvalues are perturbed (info 1)."""
    CALLS["trsyl"] += 1
    Y, scale, info = _trsyl(A, B, C, isgn=-1)
    if info < 0:
        raise NumericalError(f"Sylvester solve failed: LAPACK ztrsyl info {info}")
    return Y / scale


def det(a):
    CALLS["det"] += 1
    return np.linalg.det(as_cmatrix(a))


def inv(a) -> np.ndarray:
    a = as_cmatrix(a)
    _require_square(a)
    CALLS["inv"] += 1
    try:
        return scipy.linalg.inv(a)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix inversion failed: {exc}") from exc


def sqrt_and_inv_sqrt(a) -> tuple:
    """(S^(1/2), S^(-1/2)) of a positive definite S, Hermitian by
    construction (unchecked), from one eigensolve of its Hermitian part. S
    counts as positive definite when its smallest eigenvalue exceeds
    ``PD_RTOL`` times its largest."""
    vals, vecs = hermitian_part_eig(a)
    top = float(vals[-1])
    if top <= 0 or float(vals[0]) <= PD_RTOL * top:
        raise NumericalError(
            f"matrix not safely positive definite: min eigenvalue {vals[0]:.3e}, "
            f"max {top:.3e}"
        )
    return (vecs * np.sqrt(vals)) @ vecs.conj().T, (vecs * (vals ** -0.5)) @ vecs.conj().T


def cond(a) -> float:
    """2-norm condition number."""
    a = as_cmatrix(a)
    if a.size == 0:
        raise InputError(f"no condition number for an empty matrix of shape {a.shape}")
    s = _svd(a)
    if s[-1] == 0:
        return np.inf
    return float(s[0]) / float(s[-1])  # past the double range: inf, no warning


def norm_and_inverse_norm(a) -> tuple:
    """(||a||, ||a^-1||) from one SVD: the singular values of a^-1 are the
    reciprocals of those of a, so ||a^-1|| = 1/s_min (inf if singular, and
    inf without a warning past the double range, for a subnormal s_min)."""
    a = as_cmatrix(a)
    _require_square(a)
    if a.size == 0:
        raise InputError(f"no inverse norm for an empty matrix of shape {a.shape}")
    s = _svd(a)
    return float(s[0]), (1.0 / float(s[-1]) if s[-1] > 0 else np.inf)


def _rank(s: np.ndarray, rtol: float) -> int:
    """Numerical rank from descending singular values: those below
    rtol * s[0] count as zero (all of them when s[0] is 0). The decision must
    be unambiguous: the smallest kept singular value must exceed the largest
    discarded one by ``GAP_RATIO``, otherwise a NumericalError is raised
    rather than a silent misclassification."""
    s = s.tolist()
    if not s or s[0] == 0.0:
        return 0
    cut = rtol * s[0]
    rank = sum(v >= cut for v in s)
    if 0 < rank < len(s) and 0 < s[rank] and s[rank - 1] < GAP_RATIO * s[rank]:
        raise NumericalError(
            "ambiguous rank decision: singular values "
            f"{s[rank - 1]:.3e} vs {s[rank]:.3e} straddle the cutoff with "
            f"gap ratio below {GAP_RATIO:.1e}"
        )
    return rank


def check_nullspace_width(cols: int, what: str) -> None:
    """Refuse a :func:`nullspace` of more than ``MAX_NULLSPACE_COLS``
    columns with ``InputError``; called before the matrix is built."""
    if cols > MAX_NULLSPACE_COLS:
        raise InputError(
            f"{what}: the kernel of {cols} columns needs a full SVD whose V^H "
            f"alone takes {16 * cols * cols} bytes; the limit is "
            f"{MAX_NULLSPACE_COLS} columns ({16 * MAX_NULLSPACE_COLS**2} bytes)"
        )


def nullspace(a, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``a``, past the rank
    cut of :func:`_rank`; a zero matrix keeps the standard basis."""
    a = as_cmatrix(a)
    n = a.shape[1]
    if a.size == 0:
        return np.eye(n, dtype=complex)
    _, s, vh = _svd(a, uv=True, full=True)
    rank = _rank(s, rtol)
    return vh[rank:].conj().T if rank else np.eye(n, dtype=complex)


def orth_columns(a, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``a``, up to the
    rank cut of :func:`_rank`."""
    a = as_cmatrix(a)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = _svd(a, uv=True)
    return u[:, : _rank(s, rtol)]


def subspace_distance(b1, b2) -> float:
    """Norm of the difference of the orthogonal projections onto the spans
    of two orthonormal column families: 0 for one subspace, 1 (inf when the
    dimensions differ) for subspaces that are far apart."""
    b1 = as_cmatrix(b1)
    b2 = as_cmatrix(b2)
    if b1.shape[1] != b2.shape[1]:
        return np.inf
    if b1.shape[1] == 0:
        return 0.0
    return operator_norm(b1 @ b1.conj().T - b2 @ b2.conj().T)


def subspace_equal(b1, b2, tol: float = 1e-8) -> bool:
    """Whether two orthonormal column families span the same subspace."""
    return subspace_distance(b1, b2) <= tol
