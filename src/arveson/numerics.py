"""Dense complex-matrix kernel used by all higher modules.

Thin, contract-checked wrappers around LAPACK via numpy/scipy. All tolerances
are relative to the input norm; rank decisions go through :func:`nullspace`,
which refuses to guess when the singular-value gap is ambiguous.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError

DEFAULT_TOL = 1e-9
RANK_RTOL = 1e-9
GAP_RATIO = 1e6


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    out = np.asarray(a, dtype=complex)
    if out.ndim != 2:
        raise InputError(f"expected a matrix, got array of ndim {out.ndim}")
    if not np.all(np.isfinite(out)):
        raise InputError("matrix contains non-finite entries")
    return out


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")


def operator_norm(a) -> float:
    """Largest singular value."""
    a = as_cmatrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def hermitian_eig(a, tol: float = 1e-10):
    """Eigenvalues (ascending) and unitary eigenvectors of a Hermitian matrix.

    The input is symmetrized internally; a deviation from Hermitian symmetry
    beyond ``tol`` relative to the norm is an error.
    """
    a = as_cmatrix(a)
    _require_square(a)
    scale = max(operator_norm(a), 1.0)
    defect = operator_norm(a - a.conj().T)
    if defect > tol * scale:
        raise InputError(
            f"matrix is not Hermitian: asymmetry {defect:.3e} exceeds {tol:.1e}*{scale:.3e}"
        )
    h = (a + a.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def schur(a):
    """Complex Schur form A = Q U Q* with Q unitary, U upper triangular."""
    a = as_cmatrix(a)
    _require_square(a)
    u, q = scipy.linalg.schur(a, output="complex")
    return q, u


def solve(a, b) -> np.ndarray:
    a = as_cmatrix(a)
    _require_square(a)
    b = np.asarray(b, dtype=complex)
    try:
        return scipy.linalg.solve(a, b)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"linear solve failed: {exc}") from exc


def inv(a) -> np.ndarray:
    a = as_cmatrix(a)
    _require_square(a)
    try:
        return scipy.linalg.inv(a)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix inversion failed: {exc}") from exc


def inv_sqrt(a, rtol: float = 1e-12) -> np.ndarray:
    """Inverse square root of a positive definite Hermitian matrix."""
    vals, vecs = hermitian_eig(a)
    top = float(vals[-1])
    if top <= 0 or float(vals[0]) <= rtol * top:
        raise NumericalError(
            f"matrix not safely positive definite: min eigenvalue {vals[0]:.3e}, "
            f"max {top:.3e}"
        )
    return (vecs * (vals ** -0.5)) @ vecs.conj().T


def sqrtm_psd(a) -> np.ndarray:
    """Square root of a positive semidefinite Hermitian matrix."""
    vals, vecs = hermitian_eig(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def cond(a) -> float:
    """2-norm condition number."""
    a = as_cmatrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0:
        return np.inf
    return float(s[0] / s[-1])


def norm_and_inverse_norm(a) -> tuple:
    """(||a||, ||a^-1||) from one SVD: the singular values of a^-1 are the
    reciprocals of those of a, so ||a^-1|| = 1/s_min (inf if singular)."""
    a = as_cmatrix(a)
    _require_square(a)
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0]), (float(1.0 / s[-1]) if s[-1] > 0 else np.inf)


def nullspace(a, rtol: float = RANK_RTOL, gap: float = GAP_RATIO) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``a``.

    Singular values below rtol*sigma_max count as zero. The decision must be
    unambiguous: the smallest kept singular value must exceed the largest
    discarded one by the ``gap`` ratio, otherwise a NumericalError is raised
    rather than a silent misclassification.
    """
    a = as_cmatrix(a)
    m, n = a.shape
    if m == 0:
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(n, dtype=complex)
    cut = rtol * smax
    kept = s[s >= cut]
    dropped = s[s < cut]
    if kept.size and dropped.size and dropped[0] > 0:
        if kept[-1] < gap * dropped[0]:
            raise NumericalError(
                "ambiguous rank decision: singular values "
                f"{kept[-1]:.3e} vs {dropped[0]:.3e} straddle the cutoff with "
                f"gap ratio below {gap:.1e}"
            )
    rank = int(kept.size)
    extra = n - min(m, n)  # columns beyond the singular-value count
    basis = vh[rank:].conj().T
    if extra > 0 and basis.shape[1] < (n - rank):
        raise NumericalError("inconsistent nullspace dimensions")  # pragma: no cover
    return basis


def orth_columns(a, rtol: float = RANK_RTOL, gap: float = GAP_RATIO) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``a``."""
    a = as_cmatrix(a)
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    cut = rtol * smax
    kept = s[s >= cut]
    dropped = s[s < cut]
    if kept.size and dropped.size and dropped[0] > 0:
        if kept[-1] < gap * dropped[0]:
            raise NumericalError(
                "ambiguous rank decision in column-span computation: "
                f"{kept[-1]:.3e} vs {dropped[0]:.3e}"
            )
    return u[:, : kept.size]


def subspace_equal(b1, b2, tol: float = 1e-8) -> bool:
    """Whether two orthonormal column families span the same subspace."""
    b1 = as_cmatrix(b1)
    b2 = as_cmatrix(b2)
    if b1.shape[1] != b2.shape[1]:
        return False
    if b1.shape[1] == 0:
        return True
    p1 = b1 @ b1.conj().T
    p2 = b2 @ b2.conj().T
    return operator_norm(p1 - p2) <= tol
