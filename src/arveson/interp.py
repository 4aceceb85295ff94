"""Interpolating-sequence diagnostics for finite point sets in the ball.

Everything is phrased through the normalized kernel Gram matrix. For a
finite set the optimal Carleson constant is exactly its largest
eigenvalue, weak separation is read off its entries, and multiplier
interpolation feasibility at level c is positive semidefiniteness of the
Pick matrix (c^2 - a_n conj(a_m)) k(l_n, l_m), so the minimal norm is one
generalized eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from . import fockspace, numerics
from .errors import InputError, NumericalError

PICK_PSD_RTOL = 1e-12
PICK_CERT_RTOL = 1e-6  # relative offset of the level the value is certified at


def _as_points(points) -> list:
    pts = [np.asarray(p, dtype=complex).reshape(-1) for p in points]
    if not pts:
        raise InputError("need at least one point")
    d = pts[0].size
    for k, p in enumerate(pts):
        if p.size != d:
            raise InputError(f"point {k} has dimension {p.size}, expected {d}")
        if float(np.linalg.norm(p)) >= 1.0:
            raise InputError(
                f"point {k} with norm {float(np.linalg.norm(p)):.6g} is not "
                f"inside the open unit ball"
            )
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.linalg.norm(pts[i] - pts[j]) < 1e-12:
                raise InputError(f"points {i} and {j} coincide")
    return pts


def kernel_matrix(points) -> np.ndarray:
    pts = _as_points(points)
    return fockspace.kernel_gram(pts, [(0,) * pts[0].size])


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
    pts = _as_points(points)
    if len(pts) < 2:
        raise InputError("separation needs at least two points")
    K = kernel_matrix(pts)
    norms = np.sqrt(np.diag(K).real)
    G = K / np.outer(norms, norms)
    m = len(pts)
    delta = 1.0
    worst = (0, 0)
    for i in range(m):
        for j in range(i + 1, m):
            v = 1.0 - abs(G[i, j]) ** 2
            if v < delta:
                delta = v
                worst = (i, j)
    gamma = float(numerics.hermitian_eig(G)[0][-1])
    return SeparationReport(
        points=tuple(tuple(p.tolist()) for p in pts),
        delta_weak=float(delta),
        gamma_carleson=gamma,
        worst_pair=worst,
        gram=G,
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
    M = (c * c - np.outer(a, a.conj())) * K
    vals = numerics.hermitian_eig(M)[0]
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
    pts = _as_points(points)
    a = np.asarray(targets, dtype=complex).reshape(-1)
    if a.size != len(pts):
        raise InputError(f"{len(pts)} points but {a.size} targets")
    K = kernel_matrix(pts)
    lo = float(np.abs(a).max())
    try:
        top = scipy.linalg.eigh(np.outer(a, a.conj()) * K, K, eigvals_only=True)[-1]
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"kernel Gram matrix is numerically singular: {exc}") from exc
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
    eps_n = 1 / c_n and every eps_n lies in (0, 1].
    """
    pts = _as_points(points)
    m = len(pts)
    eps = []
    norms = []
    for n in range(m):
        e = np.zeros(m)
        e[n] = 1.0
        r = pick_min_norm(pts, e)
        norms.append(r.value)
        eps.append(1.0 / r.value)
    return StrongSeparationReport(
        points=tuple(tuple(p.tolist()) for p in pts),
        eps=tuple(eps),
        overall=float(min(eps)),
        pick_norms=tuple(norms),
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
    mismatch), with multiplier norm at most the reported proxy. The orders
    follow from composition alone, so they hold for every interpolant.
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
    pts = _as_points(points)
    omega = sorted(set(int(i) for i in omega))
    if not omega:
        raise InputError("omega must select at least one point")
    if omega[0] < 0 or omega[-1] >= len(pts):
        raise InputError(f"omega index out of range 0..{len(pts) - 1}")
    if kappa < 0:
        raise InputError(f"kappa must be >= 0, got {kappa}")
    indicator = np.zeros(len(pts))
    indicator[omega] = 1.0
    r = pick_min_norm(pts, indicator)
    c = r.value
    proxy = 1.0 + (1.0 + c ** (kappa + 1)) ** (kappa + 1)
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
