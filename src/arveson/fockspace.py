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


def _as_point(z: Sequence[complex], d: int | None = None) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or z.size == 0:
        raise InputError("point must be a nonempty vector")
    if d is not None and z.size != d:
        raise InputError(f"point has dimension {z.size}, expected {d}")
    if not np.all(np.isfinite(z.view(float))):
        raise InputError("point has non-finite entries")
    return z


def _require_in_ball(z: np.ndarray) -> float:
    r = float(np.linalg.norm(z))
    if r >= 1.0:
        raise InputError(f"point with norm {r:.6g} is not inside the open unit ball")
    return r


def kernel(z: Sequence[complex], w: Sequence[complex]) -> complex:
    """k(z,w) = 1/(1 - <z,w>) for z, w inside the open unit ball."""
    z = _as_point(z)
    w = _as_point(w, z.size)
    _require_in_ball(z)
    _require_in_ball(w)
    return 1.0 / (1.0 - complex(np.vdot(w, z)))


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
