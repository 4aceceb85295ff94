"""Reproducing kernels of the Drury-Arveson space on the unit ball of C^d.

The space carries the kernel k(x,z) = 1/(1 - <x,z>). Its derivative
kernels K_{z,a} = d^a k_z / d conj(z)^a = |a|! x^a (1 - <x,z>)^(-(|a|+1))
represent the functionals p -> (d^a p)(z), so every inner product between
them is a derivative of a kernel and has a finite closed form; nothing here
expands a kernel in monomials.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import multiindex as mi
from .errors import InputError


def _require_in_ball(z: np.ndarray) -> float:
    r = float(np.linalg.norm(z))
    if r >= 1.0:
        raise InputError(f"point with norm {r:.6g} is not inside the open unit ball")
    return r


def _distinct_points(points) -> list:
    """Points as 1-d complex arrays: at least one, of one dimension and
    pairwise distinct."""
    pts = [np.asarray(p, dtype=complex).reshape(-1) for p in points]
    if not pts:
        raise InputError("need at least one point")
    d = pts[0].size
    for k, p in enumerate(pts):
        if p.size != d:
            raise InputError(f"point {k} has dimension {p.size}, expected {d}")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.linalg.norm(pts[i] - pts[j]) < 1e-12:
                raise InputError(f"points {i} and {j} coincide")
    return pts


def _as_points(points) -> list:
    """:func:`_distinct_points`, each in the open unit ball."""
    pts = _distinct_points(points)
    for k, p in enumerate(pts):
        r = float(np.linalg.norm(p))
        if r >= 1.0:
            raise InputError(f"point {k} with norm {r:.6g} is not inside the open unit ball")
    return pts


def kernel_gram(points, jets: Sequence[Sequence[int]]) -> np.ndarray:
    """Gram matrix of the derivative kernels K_{z,a} over points and jets.

    Rows and columns run over (point, multi-index) pairs, point-major: the
    entry at (i*J + r, k*J + s), with J = len(jets), a = jets[r],
    b = jets[s], z = points[i] and w = points[k], is

        <K_{w,b}, K_{z,a}> = (d^a K_{w,b})(z)
          = sum_{c <= a, c <= b} C(a,c) b!/(b-c)! (|a|+|b|-|c|)!
                z^(b-c) conj(w)^(a-c) (1 - <z,w>)^-(|a|+|b|-|c|+1),

    the Leibniz rule applied to x^b (1 - <x,w>)^(-(|b|+1)). With the single
    jet 0 this is the kernel matrix k(z_i, z_k).
    """
    Z = np.asarray(points, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] == 0 or Z.shape[1] == 0:
        raise InputError("points must form a nonempty (m, d) array")
    if not np.all(np.isfinite(Z.view(float))):
        raise InputError("points have non-finite entries")
    for z in Z:
        _require_in_ball(z)
    m, d = Z.shape
    jets = [mi.as_index(a) for a in jets]
    for a in jets:
        if len(a) != d:
            raise InputError(f"jet {a} has length {len(a)}, expected {d}")
    R = 1.0 / (1.0 - Z @ Z.conj().T)
    out = np.zeros((m, len(jets), m, len(jets)), dtype=complex)
    for r, a in enumerate(jets):
        for s, b in enumerate(jets):
            for c in itertools.product(*(range(min(ai, bi) + 1) for ai, bi in zip(a, b))):
                n = mi.degree(a) + mi.degree(b) - sum(c)
                coef = math.factorial(n)
                for ai, bi, ci in zip(a, b, c):
                    coef *= math.comb(ai, ci) * math.perm(bi, ci)
                zpow = np.prod(Z ** np.subtract(b, c), axis=1)
                wpow = np.prod(Z.conj() ** np.subtract(a, c), axis=1)
                out[:, r, :, s] += coef * np.outer(zpow, wpow) * R ** (n + 1)
    return out.reshape(m * len(jets), m * len(jets))
