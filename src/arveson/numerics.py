"""Dense complex-matrix kernel used by all higher modules.

Thin, contract-checked wrappers around LAPACK via numpy/scipy. No other
module calls a factorization, so ``CALLS`` counts every LAPACK call by kind
(``svd`` for the SVD gufuncs, ``gen_eigh`` for the generalized
``eigh``, else the routine's name). All tolerances are relative to the
input norm; rank decisions go through one cut (:func:`_rank`), which refuses
to guess when the singular-value gap is ambiguous.

Every SVD (:func:`_svd`), of one matrix or of a stack, calls the LAPACK
gufuncs that ``np.linalg.svd`` calls, without its dispatch, which costs as
much as the SVD on the few-row matrices certificates make by the thousand;
so a stack entry equals the SVD of its matrix bit for bit
(:func:`singular_values`, :func:`operator_norms`). The ``ztrsen``
(:func:`reorder_schur`) and ``ztrsyl`` (:func:`triangular_sylvester`)
handles are bound here too, the one home of ``scipy.linalg.lapack``: the
reorder gives the spectral subspaces of ``spectral.jordan_decompose``, and
the Sylvester solve serves only ``spectral.riesz_idempotent``. Hermitian
eigenvalues that a gate compares come from :func:`largest_eigenvalue`,
Hermitian eigensolves from :func:`hermitian_part_eig`.
"""

from __future__ import annotations

import collections
import warnings

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
from numpy.linalg import _umath_linalg

from .errors import InputError, NumericalError

DEFAULT_TOL = 1e-9
RANK_RTOL = 1e-9
GAP_RATIO = 1e6
# floor of 1/cond^2 of the stacked orthonormal spectral bases that
# spectral.jordan_decompose assembles: below it the subspaces are not
# safely independent
PD_RTOL = 1e-12
# widest matrix whose kernel :func:`nullspace` may be asked for: its full SVD
# holds an n x n V^H, 256 MiB of complex doubles at this width
MAX_NULLSPACE_COLS = 4096

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


def _svd(a: np.ndarray, uv: bool = False, full: bool = False):
    """s, or (u, s, vh) with ``uv`` (square u, vh with ``full``), of a
    complex matrix or of each matrix of a stack. LAPACK's failure to
    converge comes back as NaN with the invalid flag raised."""
    CALLS["svd"] += 1
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            if not uv:
                return _umath_linalg.svd(a, signature="D->d")
            if full:
                return _umath_linalg.svd_f(a, signature="D->DdD")
            return _umath_linalg.svd_s(a, signature="D->DdD")
    except FloatingPointError as exc:
        m, n = a.shape[-2:]
        raise NumericalError(f"SVD of a {m}x{n} matrix failed: LAPACK did not converge") from exc


def operator_norm(a) -> float:
    """Largest singular value."""
    a = as_cmatrix(a)
    if a.size == 0:
        return 0.0
    return float(_svd(a)[0])


def singular_values(stack) -> np.ndarray:
    """The singular values (descending, one row per matrix) of each matrix
    of a nonempty k x m x n stack, from one stacked SVD; row i equals the
    values of ``stack[i]`` alone bit for bit."""
    return _svd(np.asarray(stack, dtype=complex))


def operator_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a nonempty k x m x n stack,
    from one stacked SVD; entry i equals ``operator_norm(stack[i])`` bit for
    bit."""
    return singular_values(stack)[:, 0]


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
    """a^-1; an inverse that scipy flags as meaningless (reciprocal
    condition number below the double epsilon) is refused, not returned,
    with the 2-norm reciprocal condition number from one SVD."""
    a = as_cmatrix(a)
    _require_square(a)
    CALLS["inv"] += 1
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            return scipy.linalg.inv(a)
    except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
        # scipy decides; its text reports a 1-norm estimate, and misreports
        # it for some inputs, so the message states the 2-norm number
        s = _svd(a)
        state = "singular" if s[-1] == 0 else (
            f"too ill-conditioned to invert (2-norm reciprocal condition number {s[-1] / s[0]:.3e})"
        )
        raise NumericalError(f"matrix inversion failed: the {len(a)}x{len(a)} matrix is {state}") from exc


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
    _, s, vh = _svd(a, uv=True, full=True)
    rank = _rank(s, rtol)
    return vh[rank:].conj().T if rank else np.eye(a.shape[1], dtype=complex)


def orth_columns(a, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``a``, up to the
    rank cut of :func:`_rank`."""
    a = as_cmatrix(a)
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
