"""Commuting tuples of matrices: validation, power walks, Krylov data and
the annihilator.

A tuple T = (T_1, ..., T_d) on C^n is the basic object everything else
consumes. The tuple carries its worst commutator and row-contraction
defects instead of silently trusting the caller; they are measured on
first read, so a tuple that is never inspected costs no SVD, and a gate
whose proved screen decides (``CommutingTuple``) measures nothing. Downstream
code calls ``require_commuting`` before relying on functional calculus.
Polynomials in T appear only as coefficient vectors on a monomial basis:
the annihilator is the dense matrix of ``annihilator_coeffs``.
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


@dataclass(frozen=True)
class CommutingTuple:
    """Validated coordinates with their measured defects. The defects and
    the coordinate operator norms (``norms``, whose maximum is ``scale``)
    are computed on first read and cached, so every gate reading them
    shares one measurement.

    The gates ``require_commuting`` and ``is_row_contraction`` first try a
    screen: a proved bound, free of factorizations, that the measured value
    the gate compares lies within its threshold. When a screen decides, the
    gate passes without measuring; when it cannot, the gate measures, with
    the same threshold and message; a defect already measured decides
    without a screen. Each screen reads the very matrices its measurement
    would factor, so only the rounding of that measurement must fit in the
    screen's margin tol/2: the screens decide only when

        (1 + tol/2) room <= tol/2,   room = ``numerics.room(n)``,

    which holds up to n = 65 at the default tol = 1e-9: the room covers the
    measurement (lemma (spectrum) of ``numerics``) and the screen's sums.
    """

    matrices: tuple

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def _commutators(self):
        """T_i T_j - T_j T_i over i < j, each computed as its defect is."""
        return (A @ B - B @ A for A, B in itertools.combinations(self.matrices, 2))

    def _gram(self) -> np.ndarray:
        """sum T_j T_j^*, computed as the row defect reads it."""
        return sum(M @ M.conj().T for M in self.matrices)

    def _screens(self, tol: float) -> bool:
        """Whether tol leaves the screens their rounding room (class docstring)."""
        return (1.0 + tol / 2) * numerics.room(self.n) <= tol / 2

    @functools.cached_property
    def commutator_defect(self) -> float:
        """Largest operator norm of a commutator T_i T_j - T_j T_i."""
        return max(map(numerics.operator_norm, self._commutators()), default=0.0)

    @functools.cached_property
    def row_defect(self) -> float:
        """How far ||sum T_j T_j^*|| exceeds 1 (0 for a row contraction)."""
        return _row_defect(self._gram())

    @functools.cached_property
    def _commutator_fro(self) -> float:
        """Largest computed Frobenius norm of a commutator, which the
        commuting screen compares: 0 for d = 1, inf when one is NaN."""
        squares = (float(np.vdot(C, C).real) for C in self._commutators())
        return math.sqrt(max((s if s == s else math.inf for s in squares), default=0.0))

    @functools.cached_property
    def norms(self) -> tuple:
        """Operator norm of each coordinate, from one stacked SVD."""
        return tuple(numerics.operator_norms(np.array(self.matrices)).tolist())

    def scale(self) -> float:
        """Largest operator norm among the coordinates."""
        return max(self.norms)

    def is_row_contraction(self, tol: float = numerics.DEFAULT_TOL) -> bool:
        """Whether ``row_defect <= tol``.

        Screen: max(||G||_1, ||G||_inf) <= 1 + tol/2 for the computed
        G = sum T_j T_j^*, its absolute row sums computed within (n + 3) u.
        The eigensolve reads H = fl((G + G^*)/2), with entries at most
        (|g_ij| + |g_ji|)/2 (1 + u), so ||H||_2 <= ||H||_1 = ||H||_inf <=
        (1 + u) max(||G||_1, ||G||_inf), H being Hermitian (Higham, ch. 6).
        By (spectrum) of ``numerics`` and its budget the computed top
        eigenvalue is at most (1 + tol/2)(1 + room), and the defect
        fl(lambda - 1), exact near 1, at most tol/2 + (1 + tol/2) room <= tol
        (class docstring). A screen that cannot decide hands its G to the
        eigensolve, which stores ``row_defect``: G is formed once.
        """
        if "row_defect" not in self.__dict__ and self._screens(tol):
            G = self._gram()
            a = np.abs(G)
            if max(np.add.reduce(a, 0).max(), np.add.reduce(a, 1).max()) <= 1.0 + tol / 2:
                return True
            # the measurement reads this G, as a cached_property would store it
            self.__dict__["row_defect"] = _row_defect(G)
        return self.row_defect <= tol

    def require_commuting(self, tol: float = numerics.DEFAULT_TOL) -> None:
        """Raise ValidationError unless ``commutator_defect`` is at most
        tol max(1, scale)^2.

        Screen: every computed commutator C has computed Frobenius norm at
        most tol/2. By lemma (spectrum) of ``numerics`` the measured defect,
        the top computed singular value of C, is at most (1 + room)(tol/2 +
        n ``numerics.FROBENIUS_UNDERFLOW``) < tol <= tol max(1, scale)^2, as
        (1 + tol/2) room <= tol/2 (class docstring) and the underflow term
        is far below u; so neither the defect nor the norms are measured.
        The largest computed Frobenius norm is cached on the tuple, like
        ``norms``, so a tuple gated again forms no commutator.
        """
        if "commutator_defect" not in self.__dict__ and self._screens(tol):
            if self._commutator_fro <= tol / 2:
                return
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


def _row_defect(G: np.ndarray) -> float:
    return max(0.0, numerics.largest_eigenvalue(G) - 1.0)


def _frobenius_bound(T: CommutingTuple) -> float:
    """S = max(1, max_j fl(||T_j||_F)), a NaN square (an overflow) read as inf,
    without a factorization. By (Frobenius) and (spectrum) of ``numerics``,
    with S >= 1 absorbing the underflow term, ||T_j||_2 <= ||T_j||_F <=
    (1 + room) S, room = ``numerics.room(n)``, and so is the computed top
    singular value of T_j."""
    squares = (float(np.vdot(M, M).real) for M in T.matrices)
    return max(1.0, math.sqrt(max(s if s == s else math.inf for s in squares)))


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
    Ns = np.array(T.matrices)
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

    A layer of degree l and largest entry m is dead when m = 0 or
    m <= fl(a fl(s^l)), with a = fl(1e-13 |xi|) and s = max(1, scale):
    every orbit vector of degree l is bounded by s^l |xi|. The coordinate
    norms behind s are measured only for a layer that the screen
    m > fl(a (2 P_l)) cannot call live, where P_l is the running product of
    l factors S = max(1, max_j fl(||T_j||_F)); norms measured before the
    call decide without the screen. The screen never calls a dead layer
    live: s <= (1 + room) S (``_frobenius_bound``, room =
    ``numerics.room(n)``), and a power is rounded to within an ulp, so with
    u the unit roundoff fl(s^l) <= s^l (1 + 2u) <= S^l (1 + room)^l (1 + 2u),
    while P_l >= S^l (1 - u)^l. For l (room + 2u) <= 1/2 the ratio
    (1 + room)^l (1 + 2u) / (1 - u)^l is at most e^(1/2) (1 + 2u) < 2,
    so fl(s^l) <= 2 P_l, the doubling being exact. Rounding is monotone
    and a >= 0, so fl(a fl(s^l)) <= fl(a (2 P_l)) < m: the layer is live
    by the measured rule too. A product P_l that overflows calls nothing
    live, and degrees past the bound on l are not screened.
    """
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.size != T.n:
        raise InputError(f"vector has size {xi.size}, expected {T.n}")
    if np.linalg.norm(xi) == 0:
        raise InputError("cyclic vector candidate is zero")
    layer_bases = []
    layer_dims = []
    all_cols = []
    a = 1e-13 * float(np.linalg.norm(xi))
    # the screen of the docstring, unless the norms are measured already
    S = None if "norms" in T.__dict__ else _frobenius_bound(T)
    reach = 0.5 / (numerics.room(T.n) + 2 * numerics.UNIT_ROUNDOFF)
    P = 1.0
    # the dead-layer break below means nothing past the first dead layer is
    # ever computed; deeper layers are products with a dead one
    for ell, (_, stack) in zip(range(max_degree + 1), _levels(T, xi[:, None])):
        V = stack[:, :, 0].T
        scale = float(np.abs(V).max())
        if scale == 0.0:
            break
        if S is None or ell > reach or not scale > a * (2.0 * P):
            thresh = a * max(1.0, T.scale()) ** ell
            if math.isfinite(thresh) and scale <= thresh:
                break
        if S is not None:
            P *= S
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
    # a negative bound passes here and is refused by enumerate_indices
    numerics.check_nullspace_width(math.comb(T.d + max(degree_bound, 0), T.d), "annihilator slice")
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
