"""End-to-end reproductions of the troubled-similarity examples.

Both families exhibit tuples similar to their model with similarity
constants that are forced to blow up: a one-variable 2x2 family where
every intertwiner has condition number at least 1/eps, and a two-variable
3x3 nilpotent family where every intertwiner has condition number at
least f(eps)^2/eps. Both minima are certified exactly: a witness attains
a compression lower bound. The dichotomy demo assembles direct sums
where either everything is tame (order zero) or the constants degrade
block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import models, numerics, polyideal, spectral, tuples
from .errors import InputError, NumericalError
from .polynomials import Polynomial


def _intertwiner_space(sources, targets) -> np.ndarray:
    """Orthonormal basis of {vec X : X S_j = T_j X for all j} (column stacking)."""
    n = sources[0].shape[0]
    m = targets[0].shape[0]
    rows = []
    for S, T in zip(sources, targets):
        rows.append(np.kron(S.T, np.eye(m)) - np.kron(np.eye(n), T))
    return numerics.nullspace(np.vstack(rows))


def _unvec(v: np.ndarray, m: int, n: int) -> np.ndarray:
    return v.reshape((n, m)).T  # column-stacked


def _vec(X: np.ndarray) -> np.ndarray:
    return X.T.reshape(-1)


MIN_COND_RTOL = 1e-9  # relative slack of the witness over the lower bound


def _certified_min_cond(W: np.ndarray, keep: slice, keep_inv: slice) -> float:
    """cond(W), certified minimal: the caller proves that every X of the
    family has ||X|| >= ||W[keep, keep]|| and ||X^-1|| >= ||W^-1[keep_inv,
    keep_inv]||, and W must attain that lower bound to MIN_COND_RTOL."""
    lower = numerics.operator_norm(W[keep, keep]) * numerics.operator_norm(
        numerics.inv(W)[keep_inv, keep_inv]
    )
    value = numerics.cond(W)
    if not value <= lower * (1.0 + MIN_COND_RTOL):
        raise NumericalError(f"witness cond {value!r} exceeds the compression bound {lower!r}")
    return value


@dataclass(frozen=True)
class OneVariableRow:
    lam: complex
    eps: float
    nullspace_dim: int
    form_matches: bool
    cyclic_ok: bool
    annihilator_matches: bool
    measured_min_cond: float
    formula_min_cond: float
    rel_err: float
    within_one_percent: bool


@dataclass(frozen=True)
class OneVariableReport:
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(
            r.nullspace_dim == 2
            and r.form_matches
            and r.cyclic_ok
            and r.annihilator_matches
            and r.within_one_percent
            for r in self.rows
        )


def _block_pair_1var(lam: complex, eps: float):
    S = np.array([[lam, 1.0 - abs(lam)], [0.0, lam]], dtype=complex)
    T = np.array([[lam, eps * (1.0 - abs(lam))], [0.0, lam]], dtype=complex)
    return S, T


def _min_cond_1var(eps: float) -> float:
    """Minimal cond 1/eps over the intertwiners a [[1, s], [0, eps]], a != 0:
    ||X|| >= |X_11| = 1 and ||X^-1|| >= |(X^-1)_22| = 1/eps for every s, and
    the witness s = 0 attains both."""
    W = np.array([[1.0, 0.0], [0.0, eps]], dtype=complex)
    return _certified_min_cond(W, slice(0, 1), slice(1, 2))


def example_one_variable(eps_list=(0.1, 0.01, 0.001), lams=(0.5,)) -> OneVariableReport:
    """2x2 single-variable family: every intertwiner has cond >= 1/eps.

    For each (lam, eps) the full intertwiner space of X T = S X is
    computed; it is two dimensional of the form [[a, b], [0, eps a]], the
    vector (0, 1) is cyclic for both blocks, both annihilators equal the
    square of the maximal ideal at lam, and the minimal condition number
    over the family, certified by ``_min_cond_1var``, matches 1/eps.
    """
    if not eps_list or not lams:
        raise InputError("need at least one eps and one base point")
    rows = []
    for lam in lams:
        lam = complex(lam)
        if abs(lam) >= 1.0:
            raise InputError(f"lambda must lie in the open unit disc, got {lam}")
        for eps in eps_list:
            if not 0.0 < eps <= 1.0:
                raise InputError(f"eps must lie in (0, 1], got {eps}")
            S, T = _block_pair_1var(lam, eps)
            basis = _intertwiner_space([T], [S])
            dim = basis.shape[1]
            expected = np.column_stack(
                [
                    _vec(np.array([[1.0, 0.0], [0.0, eps]], dtype=complex)),
                    _vec(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),
                ]
            )
            form_ok = dim == 2 and numerics.subspace_equal(
                basis, numerics.orth_columns(expected), 1e-9
            )
            xi = np.array([0.0, 1.0], dtype=complex)
            TS = tuples.validate([S])
            TT = tuples.validate([T])
            cyc = (
                tuples.krylov(TS, xi, 2).is_cyclic
                and tuples.krylov(TT, xi, 2).is_cyclic
            )
            vanish = polyideal._vanishing_kernel([[lam]], 1, 2)[1]
            ann_ok = True
            for blk in (TS, TT):
                got = numerics.orth_columns(tuples.annihilator_coeffs(blk, 2)[1])
                ann_ok = ann_ok and numerics.subspace_equal(got, vanish, 1e-8)
            measured = _min_cond_1var(eps)
            formula = 1.0 / eps
            rel = abs(measured - formula) / formula
            rows.append(
                OneVariableRow(
                    lam=lam,
                    eps=float(eps),
                    nullspace_dim=dim,
                    form_matches=bool(form_ok),
                    cyclic_ok=bool(cyc),
                    annihilator_matches=bool(ann_ok),
                    measured_min_cond=measured,
                    formula_min_cond=formula,
                    rel_err=rel,
                    within_one_percent=bool(rel <= 0.01),
                )
            )
    return OneVariableReport(rows=tuple(rows))


def f_two_variable(eps: float) -> float:
    """Normalizing constant: the row norm of (N1, N1 + eps N2)."""
    return math.sqrt(1.0 + eps**2 / 2.0 + math.sqrt(1.0 + eps**4 / 4.0))


@dataclass(frozen=True)
class TwoVariableRow:
    eps: float
    f_formula: float
    f_measured: float
    nullspace_dim: int
    form_matches: bool
    det_identity_ok: bool
    measured_min_cond: float
    lower_bound: float
    bound_holds: bool
    witness_cond: float


@dataclass(frozen=True)
class MoebiusRow:
    point: tuple
    annihilator_matches: bool
    transport_residual: float


@dataclass(frozen=True)
class TwoVariableReport:
    rows: tuple
    moebius_rows: tuple

    @property
    def ok(self) -> bool:
        return all(
            r.nullspace_dim == 3 and r.form_matches and r.det_identity_ok and r.bound_holds
            for r in self.rows
        ) and all(m.annihilator_matches for m in self.moebius_rows)


def _two_variable_base():
    model = models.monomial_model([(2, 0), (1, 1), (0, 2)], 2)
    return model.tuple.matrices


def two_variable_family(eps: float):
    """(R_1, R_2) = (N_1, N_1 + eps N_2) / f(eps), a cyclic nilpotent
    row contraction with the same annihilator as the model pair."""
    N1, N2 = _two_variable_base()
    M1 = N1.copy()
    M2 = N1 + eps * N2
    f = f_two_variable(eps)
    return M1 / f, M2 / f, f


def _x_of(a, b, c, eps, f) -> np.ndarray:
    return np.array(
        [[a, 0.0, 0.0], [b, a / f, a / f], [c, 0.0, a * eps / f]], dtype=complex
    )


def _min_cond_2var(eps: float, f: float) -> float:
    """Minimal condition number f^2/eps over the intertwiners X(a, b, c).

    a = 0 is singular and X(a, b, c) = a X(1, b/a, c/a), so take
    X(1, b, c) = [[1, 0], [v, B]] with v = (b, c)^T and
    B = (1/f) [[1, 1], [0, eps]], which does not depend on (b, c). B is the
    compression of X to the coordinates {2, 3}, and since X is block lower
    triangular, B^-1 is the same compression of X^-1. So
    cond X >= ||B|| ||B^-1|| = f^2/eps, the singular values of B being 1
    and eps/f^2, and the witness X(1, 0, 0) = diag(1, B) attains it.
    """
    W = _x_of(1.0, 0.0, 0.0, eps, f)
    return _certified_min_cond(W, slice(1, 3), slice(1, 3))


def example_two_variable(
    eps_list=(0.1, 0.01, 0.001), points=((0.1 + 0.05j, -0.2 + 0.0j),), seed: int = 0
) -> TwoVariableReport:
    """3x3 two-variable nilpotent family with forced condition growth.

    The intertwiner space of X N = R(eps) X is three dimensional with the
    closed parametric form [[a,0,0],[b,a/f,a/f],[c,0,a eps/f]], its
    determinant is a^3 eps / f^2, and the geometric mean of the singular
    values forces cond(X) >= eps^(-1/3) f^(2/3) (``lower_bound``); the exact
    minimum f^2/eps is certified by ``_min_cond_2var``. Ball automorphisms move
    the common annihilator to the vanishing ideal of the image point and
    transport intertwiners unchanged.
    """
    if not eps_list:
        raise InputError("eps_list must be nonempty")
    N1, N2 = _two_variable_base()
    N = tuples.validate([N1, N2])
    rng = np.random.default_rng(seed)
    rows = []
    for eps in eps_list:
        if not 0.0 < eps <= 1.0:
            raise InputError(f"eps must lie in (0, 1], got {eps}")
        R1, R2, f = two_variable_family(eps)
        M1 = N1
        M2 = N1 + eps * N2
        gram = M1 @ M1.conj().T + M2 @ M2.conj().T
        f_meas = math.sqrt(float(np.linalg.eigh(numerics._hermitian_part(gram))[0][-1]))
        basis = _intertwiner_space([N1, N2], [R1, R2])
        dim = basis.shape[1]
        expected = np.column_stack(
            [
                _vec(_x_of(1.0, 0.0, 0.0, eps, f)),
                _vec(_x_of(0.0, 1.0, 0.0, eps, f)),
                _vec(_x_of(0.0, 0.0, 1.0, eps, f)),
            ]
        )
        form_ok = dim == 3 and numerics.subspace_equal(
            basis, numerics.orth_columns(expected), 1e-9
        )
        det_ok = True
        for _ in range(8):
            a, b, c = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 0.8
            a += 1.0  # keep a away from zero
            X = _x_of(a, b, c, eps, f)
            want = a**3 * eps / f**2
            det_ok = det_ok and abs(np.linalg.det(X) - want) <= 1e-9 * abs(want)
        measured = _min_cond_2var(eps, f)
        bound = eps ** (-1.0 / 3.0) * f ** (2.0 / 3.0)
        rows.append(
            TwoVariableRow(
                eps=float(eps),
                f_formula=f,
                f_measured=f_meas,
                nullspace_dim=dim,
                form_matches=bool(form_ok),
                det_identity_ok=bool(det_ok),
                measured_min_cond=measured,
                lower_bound=bound,
                bound_holds=bool(measured >= bound - 1e-6),
                witness_cond=measured,
            )
        )

    moebius_rows = []
    eps0 = eps_list[0]
    R1, R2, f = two_variable_family(eps0)
    R = tuples.validate([R1, R2])
    X0 = _x_of(1.0, 0.1, 0.2j, eps0, f)
    for z in points:
        z = np.asarray(z, dtype=complex).reshape(-1)
        GN = tuples.moebius(N, z)
        GR = tuples.moebius(R, z)
        vanish = polyideal._vanishing_kernel([z], 1, 2)[1]
        got = numerics.orth_columns(tuples.annihilator_coeffs(GN, 2)[1])
        ann_ok = numerics.subspace_equal(got, vanish, 1e-8)
        transport = max(
            numerics.operator_norm(X0 @ GNj - GRj @ X0)
            for GNj, GRj in zip(GN.matrices, GR.matrices)
        )
        moebius_rows.append(
            MoebiusRow(
                point=tuple(z.tolist()),
                annihilator_matches=bool(ann_ok),
                transport_residual=float(transport),
            )
        )
    return TwoVariableReport(rows=tuple(rows), moebius_rows=tuple(moebius_rows))


@dataclass(frozen=True)
class DichotomyBlockRow:
    point: tuple
    eps: float | None
    block_min_cond: float


@dataclass(frozen=True)
class DichotomyReport:
    kappa: int
    rows: tuple
    global_min_cond: float
    global_nullspace_dim: int | None
    blocks_forced_diagonal: bool | None
    jet_model_cond: float | None

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.global_min_cond)


def dichotomy_demo(points=None, kappa: int = 0, eps_list=None) -> DichotomyReport:
    """Order zero stays similar to a diagonal model; order one degrades.

    kappa = 0: the jet model of the points is block-diagonalized and the
    similarity condition number reported (finite, set by the point
    geometry alone). kappa = 1: 2x2 blocks with degrading eps are summed;
    spectral disjointness forces every global intertwiner block diagonal,
    so the minimal global condition number is the worst per-block one.
    """
    if kappa not in (0, 1):
        raise InputError(f"kappa must be 0 or 1, got {kappa}")
    if kappa == 0:
        if points is None:
            points = [[0.0], [0.5]]
        pts = [np.asarray(p, dtype=complex).reshape(-1) for p in points]
        d = pts[0].size
        ideals = []
        for z in pts:
            gens = [
                Polynomial.variable(d, j) - Polynomial.constant(d, z[j])
                for j in range(d)
            ]
            ideals.append(polyideal.PolyIdeal(gens, 2, d=d))
        model = models.jet_model(pts, ideals)
        dec = spectral.jordan_decompose(model.tuple)
        rows = tuple(
            DichotomyBlockRow(point=p, eps=None, block_min_cond=1.0)
            for p in dec.spectrum.points
        )
        return DichotomyReport(
            kappa=0,
            rows=rows,
            global_min_cond=dec.cond,
            global_nullspace_dim=None,
            blocks_forced_diagonal=None,
            jet_model_cond=dec.cond,
        )

    if eps_list is None:
        eps_list = [2.0 ** (-n) for n in range(1, 7)]
    if points is None:
        points = [1.0 - 2.0 ** (-(n + 1)) for n in range(1, len(eps_list) + 1)]
    lams = [complex(p) for p in np.asarray(points, dtype=complex).reshape(-1)]
    if len(lams) != len(eps_list):
        raise InputError(
            f"{len(lams)} points but {len(eps_list)} eps values"
        )
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if abs(lams[i] - lams[j]) < 1e-12:
                raise InputError("block eigenvalues must be distinct")
    S_blocks = []
    T_blocks = []
    rows = []
    for lam, eps in zip(lams, eps_list):
        S, T = _block_pair_1var(lam, eps)
        S_blocks.append(S)
        T_blocks.append(T)
        rows.append(
            DichotomyBlockRow(
                point=(lam,), eps=float(eps), block_min_cond=_min_cond_1var(eps)
            )
        )
    S_full = scipy.linalg.block_diag(*S_blocks).astype(complex)
    T_full = scipy.linalg.block_diag(*T_blocks).astype(complex)
    basis = _intertwiner_space([T_full], [S_full])
    dim = basis.shape[1]
    # distinct eigenvalues force every intertwiner block diagonal, so the
    # intertwiner space is exactly the direct sum of the per-block ones
    forced = dim == 2 * len(lams)
    off_mass = 0.0
    n = S_full.shape[0]
    for k in range(dim):
        X = _unvec(basis[:, k], n, n)
        for i in range(len(lams)):
            for j in range(len(lams)):
                if i == j:
                    continue
                off_mass = max(
                    off_mass,
                    float(
                        np.abs(X[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]).max()
                    ),
                )
    forced = bool(forced and off_mass <= 1e-9)
    return DichotomyReport(
        kappa=1,
        rows=tuple(rows),
        global_min_cond=max(r.block_min_cond for r in rows),
        global_nullspace_dim=dim,
        blocks_forced_diagonal=forced,
        jet_model_cond=None,
    )
