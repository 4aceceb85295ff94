"""Commuting tuples of matrices: validation, calculus, Krylov data.

A tuple T = (T_1, ..., T_d) on C^n is the basic object everything else
consumes. The tuple carries its worst commutator and row-contraction
defects instead of silently trusting the caller; they are measured on
first read, so a tuple that is never inspected costs no SVD. Downstream
code calls ``require_commuting`` before relying on functional calculus.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import multiindex as mi
from . import numerics
from .errors import InputError, NumericalError, ValidationError
from .polynomials import Polynomial


@dataclass(frozen=True)
class CommutingTuple:
    """Validated coordinates with their measured defects. The defects and
    the coordinate operator norms (``norms``, whose maximum is ``scale``)
    are computed on first read and cached, so every gate reading them
    shares one measurement."""

    matrices: tuple

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @functools.cached_property
    def commutator_defect(self) -> float:
        """Largest operator norm of a commutator T_i T_j - T_j T_i."""
        mats = self.matrices
        defect = 0.0
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                defect = max(
                    defect,
                    numerics.operator_norm(mats[i] @ mats[j] - mats[j] @ mats[i]),
                )
        return defect

    @functools.cached_property
    def row_defect(self) -> float:
        """How far ||sum T_j T_j^*|| exceeds 1 (0 for a row contraction)."""
        gram = numerics._hermitian_part(sum(M @ M.conj().T for M in self.matrices))
        excess = np.linalg.eigvalsh(gram)[-1] - 1.0
        return max(0.0, float(excess))

    @functools.cached_property
    def norms(self) -> tuple:
        """Operator norm of each coordinate."""
        return tuple(numerics.operator_norm(T) for T in self.matrices)

    def scale(self) -> float:
        """Largest operator norm among the coordinates."""
        return max(self.norms)

    def is_row_contraction(self, tol: float = numerics.DEFAULT_TOL) -> bool:
        return self.row_defect <= tol

    def require_commuting(self, tol: float = numerics.DEFAULT_TOL) -> None:
        bound = tol * max(1.0, self.scale()) ** 2
        if self.commutator_defect > bound:
            raise ValidationError(
                f"commutator defect {self.commutator_defect:.3e} exceeds "
                f"tolerance {bound:.3e}"
            )

    def __repr__(self) -> str:
        return (
            f"CommutingTuple(d={self.d}, n={self.n}, "
            f"commutator_defect={self.commutator_defect:.2e}, "
            f"row_defect={self.row_defect:.2e})"
        )


def validate(matrices: Sequence[np.ndarray]) -> CommutingTuple:
    """Wrap matrices as a tuple: at least one, square, of one size n >= 1, finite.

    No defect is measured here; ``commutator_defect`` and ``row_defect``
    are measured on first read.
    """
    if len(matrices) == 0:
        raise InputError("a tuple needs at least one matrix")
    mats = tuple(numerics.as_cmatrix(M) for M in matrices)
    n = mats[0].shape[0]
    if n == 0:
        raise InputError(f"matrix 0 has shape {mats[0].shape}; a tuple acts on C^n with n >= 1")
    for k, M in enumerate(mats):
        if M.shape != (n, n):
            raise InputError(
                f"matrix {k} has shape {M.shape}, expected ({n}, {n})"
            )
    return CommutingTuple(matrices=mats)


@functools.lru_cache(maxsize=None)
def _parent_table(d: int, ell: int) -> tuple:
    """(keys, js, parents) of degree ell >= 1: the indices alpha with
    |alpha| = ell in graded-lex order, the first nonzero coordinate j of
    each, and the position of alpha - e_j among the indices of degree
    ell - 1. A combinatorial table, like ``multiindex._homogeneous``."""
    keys = mi._homogeneous(d, ell)
    position = {alpha: i for i, alpha in enumerate(mi._homogeneous(d, ell - 1))}
    js = np.array([next(i for i, a in enumerate(alpha) if a > 0) for alpha in keys])
    parents = np.array([position[a[:j] + (a[j] - 1,) + a[j + 1 :]] for a, j in zip(keys, js)])
    js.flags.writeable = parents.flags.writeable = False  # shared through the cache
    return keys, js, parents


@functools.lru_cache(maxsize=None)
def _weight_table(d: int, ell: int) -> types.MappingProxyType:
    """{alpha: |alpha|!/alpha!} over |alpha| = ell, like :func:`_parent_table`."""
    return types.MappingProxyType({a: mi.multinomial_weight(a) for a in mi._homogeneous(d, ell)})


def _levels(T: CommutingTuple, start: np.ndarray):
    """Yield (keys, stack) for |alpha| = 0, 1, 2, ...: the indices of that
    degree in graded-lex order and stack[i] = T^keys[i] start, for an n x m
    block ``start``. A degree is one stacked product T_j (T^(alpha - e_j)
    start), j the first nonzero coordinate of alpha. The generator never
    ends: bound it with ``zip(range(n), _levels(...))``, so that a consumer
    that stops at a dead degree computes nothing beyond it.
    """
    Ns = np.stack(T.matrices)
    keys, stack = ((0,) * T.d,), start[None]
    for ell in itertools.count(1):
        yield keys, stack
        keys, js, parents = _parent_table(T.d, ell)
        stack = Ns[js] @ stack[parents]


def _power_cache(T: CommutingTuple, degree: int) -> dict:
    """All T^alpha for |alpha| <= degree, one product each (:func:`_levels`)."""
    cache = {}
    for _, (keys, stack) in zip(range(degree + 1), _levels(T, np.eye(T.n, dtype=complex))):
        cache.update(zip(keys, stack))
    return cache


def apply_poly(p: Polynomial, T: CommutingTuple) -> np.ndarray:
    """p(T) by functional calculus; requires the tuple to commute."""
    if p.d != T.d:
        raise InputError(f"polynomial dimension {p.d}, expected {T.d}")
    T.require_commuting()
    out = np.zeros((T.n, T.n), dtype=complex)
    if p.is_zero():
        return out
    cache = _power_cache(T, p.degree())
    for alpha, c in p.coeffs.items():
        out += c * cache[alpha]
    return out


@dataclass(frozen=True)
class KrylovData:
    basis: np.ndarray
    is_cyclic: bool
    layer_dims: tuple
    layers_direct: bool
    layer_bases: tuple = field(repr=False)


def krylov(T: CommutingTuple, xi: np.ndarray, max_degree: int) -> KrylovData:
    """Span of {T^alpha xi : |alpha| <= max_degree}, organized by degree.

    layer_dims[l] is the dimension of span{T^alpha xi : |alpha| = l};
    layers_direct records whether those homogeneous layers sum directly
    (their dimensions add up to the full Krylov dimension). Trailing zero
    layers are dropped. The orbit vectors come from :func:`_levels`, one
    stacked matvec per degree.
    """
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.size != T.n:
        raise InputError(f"vector has size {xi.size}, expected {T.n}")
    if np.linalg.norm(xi) == 0:
        raise InputError("cyclic vector candidate is zero")
    layer_bases = []
    layer_dims = []
    all_cols = []
    s = max(1.0, T.scale())
    ref = float(np.linalg.norm(xi))
    # the dead-layer break below means nothing past the first dead layer is
    # ever computed
    for ell, (_, stack) in zip(range(max_degree + 1), _levels(T, xi[:, None])):
        V = stack[:, :, 0].T
        scale = float(np.abs(V).max())
        # every orbit vector at this degree is bounded by s^ell |xi|, so a
        # layer this far below that bound is numerically zero; deeper layers
        # are products with this one and inherit the same relative bound
        thresh = 1e-13 * ref * s**ell
        if scale == 0.0 or (math.isfinite(thresh) and scale <= thresh):
            break
        B = numerics.orth_columns(V)
        layer_bases.append(B)
        layer_dims.append(B.shape[1])
        all_cols.append(V)
    if all_cols:
        basis = numerics.orth_columns(np.hstack(all_cols))
    else:
        basis = np.zeros((T.n, 0), dtype=complex)
    total = basis.shape[1]
    return KrylovData(
        basis=basis,
        is_cyclic=(total == T.n),
        layer_dims=tuple(layer_dims),
        layers_direct=(sum(layer_dims) == total),
        layer_bases=tuple(layer_bases),
    )


def annihilator_coeffs(
    T: CommutingTuple,
    degree_bound: int,
    tol: float = numerics.DEFAULT_TOL,
) -> tuple:
    """(basis, K): the monomials of degree <= degree_bound in graded order
    and a matrix whose unit columns are coefficient vectors on them spanning
    {p : p(T) = 0 up to tolerance}.

    Columns vec(T^alpha) are rescaled by max(1, scale^|alpha|) so that a
    tuple with large norm does not drown low-degree relations; the kernel
    coefficients are rescaled back before they are normalized.
    """
    T.require_commuting(tol)
    basis = mi.enumerate_indices(T.d, degree_bound)
    cache = _power_cache(T, degree_bound)
    s = max(1.0, T.scale())
    col_scales = np.array([max(1.0, s ** mi.degree(a)) for a in basis])
    A = np.column_stack([cache[a].ravel() / w for a, w in zip(basis, col_scales)])
    coeffs = numerics.nullspace(A, rtol=tol) / col_scales[:, None]
    for j in range(coeffs.shape[1]):
        coeffs[:, j] /= np.linalg.norm(coeffs[:, j])
    return basis, coeffs


def annihilator_slice(
    T: CommutingTuple, degree_bound: int, tol: float = numerics.DEFAULT_TOL
) -> list:
    """``annihilator_coeffs`` as a list of polynomials."""
    basis, coeffs = annihilator_coeffs(T, degree_bound, tol)
    return [Polynomial.from_coeff_vector(T.d, c, basis) for c in coeffs.T]


def moebius(T: CommutingTuple, w: Sequence[complex]) -> CommutingTuple:
    """Ball automorphism applied to the tuple by functional calculus.

    gamma_w(T)_k = (w_k I - (1-s) w_k/|w|^2 C - s T_k)(I - C)^{-1} with
    C = sum conj(w_j) T_j and s = sqrt(1 - |w|^2). Fixes nothing pointwise
    but swaps 0 and w, and is an involution on tuples with I - C invertible.
    """
    w = np.asarray(w, dtype=complex).reshape(-1)
    if w.size != T.d:
        raise InputError(f"automorphism point has size {w.size}, expected {T.d}")
    wnorm_sq = float(np.vdot(w, w).real)
    if wnorm_sq >= 1.0:
        raise InputError(
            f"automorphism point with norm {math.sqrt(wnorm_sq):.6g} is not "
            f"inside the open unit ball"
        )
    T.require_commuting()
    n = T.n
    if wnorm_sq == 0.0:
        return validate([-Tk for Tk in T.matrices])
    s = math.sqrt(1.0 - wnorm_sq)
    C = sum(np.conj(wj) * Tk for wj, Tk in zip(w, T.matrices))
    I = np.eye(n, dtype=complex)
    try:
        R = numerics.inv(I - C)
    except NumericalError as exc:
        raise NumericalError(
            f"resolvent (I - C)^(-1) failed for the automorphism point: {exc}"
        ) from exc
    coef = (1.0 - s) / wnorm_sq
    out = []
    for k in range(T.d):
        num = w[k] * I - coef * w[k] * C - s * T.matrices[k]
        out.append(num @ R)
    return validate(out)
