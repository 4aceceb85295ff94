"""Interpolating-sequence diagnostics for finite point sets in the ball.

Everything is phrased through the normalized kernel Gram matrix. For a
finite set the optimal Carleson constant is exactly its largest
eigenvalue, weak separation is read off its entries, and multiplier
interpolation feasibility at level c is positive semidefiniteness of the
Pick matrix (c^2 - a_n conj(a_m)) k(l_n, l_m), so the minimal norm is one
generalized eigenvalue. The smallest condition number of a similarity that
makes the point model normal is bracketed from one eigensolve of the Gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fockspace, models, numerics
from .errors import InputError, NumericalError

PICK_PSD_RTOL = 1e-12
PICK_CERT_RTOL = 1e-6  # relative offset of the level the value is certified at


def _normalized_gram(pts: list) -> np.ndarray:
    """G_mn = k(z_m, z_n) / sqrt(k(z_m, z_m) k(z_n, z_n)), the Gram of the
    normalized kernels; its diagonal is one."""
    K = fockspace.kernel_gram(pts, [(0,) * pts[0].size])
    norms = np.sqrt(np.diag(K).real)
    return K / np.outer(norms, norms)


@dataclass(frozen=True)
class SeparationReport:
    points: tuple
    delta_weak: float
    gamma_carleson: float
    worst_pair: tuple
    gram: np.ndarray

    @property
    def count(self) -> int:
        return len(self.points)


def separation_constants(points) -> SeparationReport:
    """Weak separation and Carleson constants of a finite point set.

    delta_weak is the smallest 1 - |<k_n, k_m>|^2 over normalized kernel
    pairs; gamma_carleson is the largest eigenvalue of the normalized
    Gram, which is the best constant in
    sum |f(l_n)|^2 / ||k_n||^2 <= gamma ||f||^2 for a finite set.
    """
    pts = fockspace._as_points(points)
    if len(pts) < 2:
        raise InputError("separation needs at least two points")
    G = _normalized_gram(pts)
    m = len(pts)
    delta = 1.0
    worst = (0, 0)
    for i in range(m):
        for j in range(i + 1, m):
            v = 1.0 - abs(G[i, j]) ** 2
            if v < delta:
                delta = v
                worst = (i, j)
    gamma = float(numerics.hermitian_part_eig(G)[0][-1])
    return SeparationReport(
        points=tuple(tuple(p.tolist()) for p in pts),
        delta_weak=float(delta),
        gamma_carleson=gamma,
        worst_pair=worst,
        gram=G,
    )


@dataclass(frozen=True)
class SimilarityBracket:
    points: tuple
    lower: float
    upper: float
    projection_lower: float
    scaling_lower: float
    pair_lower: float | None
    gram_cond: float


def similarity_bracket(points) -> SimilarityBracket:
    """Proved bracket on the smallest condition number of a similarity that
    makes the model of distinct points normal.

    The model (the jet model of the maximal ideals) compresses the
    coordinate multipliers to span{k_n}, and its adjoints have the
    normalized kernels k_n / ||k_n|| as joint eigenvectors with pairwise
    distinct joint eigenvalues conj(z_n). If X Z X^-1 is a commuting normal
    tuple, the joint eigenvectors X^-* k_n / ||k_n|| of its adjoint are
    pairwise orthogonal, so X^-* W = U D with W = [k_1 / ||k_1||, ...], U
    unitary and D > 0 diagonal; every D arises. Since W^* W = G, the
    normalized Gram, cond(X)^2 = cond(D^-1 G D^-1), and the bracketed number
    is m = sqrt(min_D cond(D G D)) over positive diagonal D. For any such D
    put A = D G D, d_n = D_nn:

    - ``upper`` = sqrt(cond G): D = I is one choice.
    - ``projection_lower`` = max_n sqrt((G^-1)_nn), which is max_n ||Q_n||
      for the model's Riesz idempotents since G_nn = 1:
      lambda_max(A) >= A_nn = d_n^2 and 1/lambda_min(A) >= (A^-1)_nn =
      (G^-1)_nn / d_n^2, so cond A >= (G^-1)_nn.
    - ``scaling_lower`` = sqrt(cond(G) / N) (van der Sluis, 1969):
      lambda_max(G) <= tr G = N, and x^* G x = (D^-1 x)^* A (D^-1 x) >=
      lambda_min(A) |x|^2 / max_n d_n^2 with max_n d_n^2 = max_n A_nn <=
      lambda_max(A), so cond G <= N cond A.
    - ``pair_lower`` = max_{m != n} sqrt((1 + |g_mn|) / (1 - |g_mn|)), for
      N >= 2 (None for one point): by interlacing cond A is at least the
      cond c of its 2x2 principal block [[a, s], [conj s, b]], |s|^2 =
      ab |g_mn|^2, and c + 1/c + 2 = (a + b)^2 / (ab (1 - |g_mn|^2)) is
      least at a = b, where the eigenvalues are a (1 +- |g_mn|).

    ``lower`` is the largest of the three, and ``gram_cond`` is cond G; the
    inverse diagonal (G^-1)_nn = sum_k |v_nk|^2 / lambda_k comes from the
    same eigh. Rounding, nothing clamped: each entry of the computed G has
    relative error O(u / (1 - r^2)), r = max_n |z_n|, from forming
    1 - <z_m, z_n> and the norms, and the eigensolve returns the exact
    eigenpairs of a matrix within O(n u ||G||) of it; as lambda_max >= 1,
    Weyl's inequality leaves every reported number a relative error
    O(n u cond(G) / (1 - r^2)). On two points both ends are 2 + sqrt(3),
    and ``lower`` exceeds ``upper`` in the last bits. A Gram
    with lambda_min <= models.GRAM_FLOOR_RTOL * lambda_max is refused with
    NumericalError, as ``models.jet_model`` refuses it.
    """
    pts = fockspace._as_points(points)
    n = len(pts)
    G = _normalized_gram(pts)
    vals, vecs = numerics.hermitian_part_eig(G)
    models.require_gram_floor(vals)
    cond = float(vals[-1] / vals[0])
    inv_diag = (np.abs(vecs) ** 2) @ (1.0 / vals)
    terms = [math.sqrt(float(inv_diag.max())), math.sqrt(cond / n)]
    if n >= 2:
        # (1 + g) / (1 - g) increases with g, also in floating point
        g = float(np.abs(G[~np.eye(n, dtype=bool)]).max())
        terms.append(math.sqrt((1.0 + g) / (1.0 - g)))
    return SimilarityBracket(
        points=tuple(tuple(p.tolist()) for p in pts),
        lower=max(terms),
        upper=math.sqrt(cond),
        projection_lower=terms[0],
        scaling_lower=terms[1],
        pair_lower=terms[2] if n >= 2 else None,
        gram_cond=cond,
    )


@dataclass(frozen=True)
class PickResult:
    value: float
    margin: float
    lower: float
    upper: float
    iterations: int

    def __float__(self) -> float:
        return self.value


def _pick_feasible(K: np.ndarray, a: np.ndarray, c: float):
    vals = numerics.hermitian_part_eig((c * c - np.outer(a, a.conj())) * K)[0]
    scale = max(1.0, float(abs(vals[-1])))
    return float(vals[0]) >= -PICK_PSD_RTOL * scale, float(vals[0])


def pick_min_norm(points, targets) -> PickResult:
    """Smallest multiplier norm interpolating targets on the points.

    Feasibility at level c is c^2 K - (a a^*) o K >= 0, so the optimum is
    the square root of the top eigenvalue of the pencil ((a a^*) o K, K).
    The value is certified by the Pick matrix being positive semidefinite
    at ``upper`` = value * (1 + PICK_CERT_RTOL); ``margin`` is its smallest
    eigenvalue there and ``lower`` = max |a_n| is the trivial bound.
    Nothing is iterated, so ``iterations`` is 0.
    """
    return _pick_min_norm(fockspace._as_points(points), targets)


def _pick_min_norm(pts: list, targets) -> PickResult:
    a = np.asarray(targets, dtype=complex).reshape(-1)
    if a.size != len(pts):
        raise InputError(f"{len(pts)} points but {a.size} targets")
    K = fockspace.kernel_gram(pts, [(0,) * pts[0].size])
    lo = float(np.abs(a).max())
    top = numerics.generalized_eigvalsh(np.outer(a, a.conj()) * K, K)[-1]
    value = float(np.sqrt(max(top, lo * lo)))  # sqrt(fl(lo^2)) is lo
    hi = value * (1.0 + PICK_CERT_RTOL)
    ok, margin = _pick_feasible(K, a, hi)
    if not ok:
        raise NumericalError(
            f"Pick matrix is not positive semidefinite at {hi!r} (min eigenvalue "
            f"{margin:.3e}), just above the pencil value {value!r}"
        )
    return PickResult(value=value, margin=margin, lower=lo, upper=hi, iterations=0)


@dataclass(frozen=True)
class StrongSeparationReport:
    points: tuple
    eps: tuple
    overall: float
    pick_norms: tuple


def strong_separation(points) -> StrongSeparationReport:
    """Best per-point constants for separating each point by a contractive
    multiplier vanishing on the rest.

    The optimal contractive separator at l_n is phi_n / c_n where phi_n
    interpolates the n-th indicator with minimal norm c_n, so
    eps_n = 1 / c_n and every eps_n lies in (0, 1]. The Pick pencil of e_n
    has rank one, so c_n = sqrt(max(K_nn (K^-1)_nn, 1)) from one inverse,
    certified as in ``pick_min_norm`` by one PSD check at c_n (1 + PICK_CERT_RTOL).
    """
    pts = fockspace._as_points(points)
    K = fockspace.kernel_gram(pts, [(0,) * pts[0].size])
    top = np.diag(K).real * np.diag(numerics.inv(K)).real
    norms = np.sqrt(np.maximum(top, 1.0))
    for n, (c, e) in enumerate(zip(norms.tolist(), np.eye(len(pts)))):
        hi = c * (1.0 + PICK_CERT_RTOL)
        ok, margin = _pick_feasible(K, e, hi)
        if not ok:
            raise NumericalError(
                f"Pick matrix of indicator {n} is not positive semidefinite at "
                f"{hi!r} (min eigenvalue {margin:.3e})"
            )
    return StrongSeparationReport(
        points=tuple(tuple(p.tolist()) for p in pts),
        eps=tuple((1.0 / norms).tolist()),
        overall=float(1.0 / norms.max()),
        pick_norms=tuple(norms.tolist()),
    )


@dataclass(frozen=True)
class ThetaJetRow:
    point: tuple
    in_omega: bool
    target: float
    match_order: int
    reason: str


@dataclass(frozen=True)
class ThetaJetCertificate:
    """Order bookkeeping for theta = 1 - (1 - phi^(kappa+1))^(kappa+1).

    phi interpolates the indicator of Omega; theta then matches 1 on Omega
    and 0 off Omega to order kappa (vanishing order kappa+1 of the
    mismatch). The orders follow from composition alone, so they hold for
    every interpolant.

    ``norm_proxy`` bounds the multiplier norm of theta. With
    psi = phi^(kappa+1) and k = kappa + 1, the binomial expansion gives
    theta = 1 - (1 - psi)^k = -sum_{i=1..k} C(k, i) (-psi)^i, so
    ||theta|| <= sum_{i=1..k} C(k, i) ||psi||^i = (1 + ||psi||)^k - 1. The
    multiplier norm is submultiplicative, so ||psi|| <= c^(kappa+1) for
    c = ``pick_norm`` = ||phi||, and
    ||theta|| <= (1 + c^(kappa+1))^(kappa+1) - 1, which is c for kappa = 0.
    """

    points: tuple
    omega: tuple
    kappa: int
    pick_norm: float
    pick_margin: float
    norm_proxy: float
    rows: tuple


def theta_jets(points, omega, kappa: int) -> ThetaJetCertificate:
    """Idempotent-like multiplier certificate for a subset of the points."""
    pts = fockspace._as_points(points)
    omega = sorted(set(int(i) for i in omega))
    if not omega:
        raise InputError("omega must select at least one point")
    if omega[0] < 0 or omega[-1] >= len(pts):
        raise InputError(f"omega index out of range 0..{len(pts) - 1}")
    if kappa < 0:
        raise InputError(f"kappa must be >= 0, got {kappa}")
    indicator = np.zeros(len(pts))
    indicator[omega] = 1.0
    r = _pick_min_norm(pts, indicator)
    c = r.value
    proxy = (1.0 + c ** (kappa + 1)) ** (kappa + 1) - 1.0
    rows = []
    for n, p in enumerate(pts):
        inside = n in omega
        if inside:
            reason = (
                "1 - phi^(k+1) = (1 - phi) * (1 + ... + phi^k) vanishes at the "
                "point, so its (k+1)-st power vanishes to order k+1"
            )
        else:
            reason = (
                "phi^(k+1) vanishes to order k+1 at the point and divides "
                "theta = 1 - (1 - phi^(k+1))^(k+1)"
            )
        rows.append(
            ThetaJetRow(
                point=tuple(p.tolist()),
                in_omega=inside,
                target=1.0 if inside else 0.0,
                match_order=kappa,
                reason=reason,
            )
        )
    return ThetaJetCertificate(
        points=tuple(tuple(p.tolist()) for p in pts),
        omega=tuple(omega),
        kappa=kappa,
        pick_norm=c,
        pick_margin=r.margin,
        norm_proxy=proxy,
        rows=tuple(rows),
    )
