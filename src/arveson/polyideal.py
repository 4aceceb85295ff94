"""Degree slices of polynomial ideals and their local jet geometry.

An ideal never appears here in closed form; it is handled through two
finite-dimensional shadows. ``PolyIdeal`` stores the span of q*g for
generators g and monomials q inside a fixed degree bound, which is enough
for membership tests up to that degree. ``localize`` passes to the space
of Taylor jets at a point, and ``polynomial_order`` finds the smallest k
with m_z^(k+1) contained in the jet image, i.e. the vanishing order the
ideal prescribes at an isolated common zero.

Both spans are built on dense coefficient arrays, never by multiplying
``Polynomial`` objects: x^q * g has coefficient g[gamma - q] at x^gamma,
and (x - z)^beta * g has Taylor coefficient t_g[gamma - beta] at z, where
t_g is the Taylor row of g. Every column is a gather through
``_shift_index``, and every Taylor row comes from one table of the Taylor
coefficients of monomials (``_taylor_table``).

The slice is built on first read of ``slice_basis`` (``slice_dim``,
``contains`` and ``repr`` read it), so an ambiguous rank decision there
raises ``NumericalError`` at that read, not in the constructor. An ideal
given by a dense coefficient matrix, such as a tuple's annihilator from
``tuples.annihilator_coeffs``, is localized by ``localize_coeffs`` without
becoming polynomials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fockspace, multiindex as mi
from . import numerics
from .errors import InputError, ValidationError
from .polynomials import Polynomial


class PolyIdeal:
    """Span of {q * g : g generator, deg(q*g) <= degree_bound}."""

    def __init__(self, generators: Sequence[Polynomial], degree_bound: int, d: int | None = None):
        generators = [g for g in generators if not g.is_zero()]
        if d is None:
            if not generators:
                raise InputError("cannot infer dimension from an empty generator list")
            d = generators[0].d
        for g in generators:
            if g.d != d:
                raise InputError("generators live in different dimensions")
        if degree_bound < 0:
            raise InputError(f"degree_bound must be >= 0, got {degree_bound}")
        self.d = int(d)
        self.degree_bound = int(degree_bound)
        self.generators = list(generators)
        self.max_generator_degree = max((g.degree() for g in generators), default=0)
        if self.max_generator_degree > degree_bound:
            raise InputError(
                f"generator degree {self.max_generator_degree} exceeds the "
                f"degree bound {degree_bound}"
            )
        self.basis = mi.enumerate_indices(self.d, self.degree_bound)

    @functools.cached_property
    def slice_basis(self) -> np.ndarray:
        """Orthonormal basis of the degree slice, built on first read; an
        ambiguous rank decision raises ``NumericalError`` there."""
        if not self.generators:
            return np.zeros((len(self.basis), 0), dtype=complex)
        # the multipliers x^q with |q| <= room are the first C(d+room, d)
        # basis indices, so one index map serves every generator
        counts = [
            math.comb(self.d + self.degree_bound - g.degree(), self.d) for g in self.generators
        ]
        basis = np.array(self.basis, dtype=np.int64)
        index = _shift_index(basis, basis[: max(counts)])
        cols = []
        for g, count in zip(self.generators, counts):
            padded = np.append(g.coeff_vector(self.basis), 0)  # index -1 reads a zero
            cols.append(padded[index[:, :count]])
        return numerics.orth_columns(np.concatenate(cols, axis=1))

    @property
    def slice_dim(self) -> int:
        return self.slice_basis.shape[1]

    def contains(self, p: Polynomial, tol: float = numerics.DEFAULT_TOL) -> bool:
        """Membership of p in the degree slice, relative to ||p||."""
        if p.d != self.d:
            raise InputError(f"polynomial dimension {p.d}, expected {self.d}")
        if p.is_zero():
            return True
        if p.degree() > self.degree_bound:
            raise InputError(
                f"membership query degree {p.degree()} exceeds bound {self.degree_bound}"
            )
        v = p.coeff_vector(self.basis)
        resid = v - self.slice_basis @ (self.slice_basis.conj().T @ v)
        return float(np.linalg.norm(resid)) <= tol * float(np.linalg.norm(v))

    def __repr__(self) -> str:
        return (
            f"PolyIdeal(d={self.d}, generators={len(self.generators)}, "
            f"degree_bound={self.degree_bound}, slice_dim={self.slice_dim})"
        )


@dataclass(frozen=True)
class LocalJetIdeal:
    """Orthonormal basis of the order-mu jet image of an ideal at a point.

    Jet coordinates are Taylor coefficients p_beta = d^beta p(z) / beta!
    indexed by the graded lex monomials of degree <= mu.
    """

    z: tuple
    mu: int
    d: int
    jet_basis: tuple
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def contains_jet(self, jet: np.ndarray, tol: float = numerics.DEFAULT_TOL) -> bool:
        jet = np.asarray(jet, dtype=complex)
        if jet.shape != (len(self.jet_basis),):
            raise InputError(
                f"jet has shape {jet.shape}, expected ({len(self.jet_basis)},)"
            )
        nrm = float(np.linalg.norm(jet))
        if nrm == 0.0:
            return True
        resid = jet - self.basis @ (self.basis.conj().T @ jet)
        return float(np.linalg.norm(resid)) <= tol * nrm

    def contains(self, p: Polynomial, tol: float = numerics.DEFAULT_TOL) -> bool:
        return self.contains_jet(p.jet(self.z, self.mu, self.jet_basis), tol)


def localize(ideal: PolyIdeal, z: Sequence[complex], mu: int) -> LocalJetIdeal:
    """Order-mu jet image of the ideal at z.

    Spanned by jets of (x - z)^beta * g over generators g and |beta| <= mu;
    multiplying by centered monomials up to the jet order itself is what
    makes the span complete (a factor of higher degree cannot influence
    jets of order <= mu, while units at z need the full range).
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (ideal.d,):
        raise InputError(f"point has shape {z.shape}, expected ({ideal.d},)")
    if mu < 0:
        raise InputError(f"jet order must be >= 0, got {mu}")
    max_mu = ideal.degree_bound - ideal.max_generator_degree + 1
    if mu > max_mu:
        raise InputError(
            f"jet order {mu} exceeds what degree_bound={ideal.degree_bound} "
            f"supports (max {max_mu})"
        )
    return _local_jets(ideal.generators, z, mu)


def localize_coeffs(coeffs: np.ndarray, basis: Sequence[tuple], z, mu: int) -> LocalJetIdeal:
    """Order-mu jet image at z of the ideal generated by the columns of
    ``coeffs``, coefficient vectors on the monomials ``basis``.

    The dense form of ``localize``: the Taylor rows are one product with the
    Taylor table of the basis monomials, and no degree bound is checked.
    """
    z = np.asarray(z, dtype=complex)
    alphas = np.array(basis, dtype=np.int64)
    if alphas.shape[1:] != z.shape or coeffs.shape[0] != len(alphas):
        raise InputError(
            f"point of shape {z.shape} with {coeffs.shape[0]} coefficients on "
            f"monomials of shape {alphas.shape}"
        )
    return _jet_span(z, mu, lambda jets: coeffs.T @ _taylor_table(alphas, z, jets))


def _local_jets(generators: Sequence[Polynomial], z: np.ndarray, mu: int) -> LocalJetIdeal:
    """``localize`` without its input checks, at a point of shape (d,)."""
    return _jet_span(z, mu, lambda jets: _taylor_rows(generators, z, jets))


def _jet_span(z: np.ndarray, mu: int, taylor_rows) -> LocalJetIdeal:
    """Span of the jets of (x - z)^beta * g, |beta| <= mu, from the Taylor
    rows t_g = ``taylor_rows(jets)`` of the generators: column (g, beta)
    holds t_g[gamma - beta] in row gamma."""
    jet_basis = mi.enumerate_indices(z.size, mu)
    jets = np.array(jet_basis, dtype=np.int64)
    rows = taylor_rows(jets)
    m = len(jet_basis)
    padded = np.zeros((rows.shape[0], m + 1), dtype=complex)  # index -1 reads a zero
    padded[:, :m] = rows
    cols = padded[:, _shift_index(jets, jets)]
    basis = numerics.orth_columns(cols.transpose(1, 0, 2).reshape(m, -1))
    return LocalJetIdeal(z=tuple(z.tolist()), mu=mu, d=z.size, jet_basis=jet_basis, basis=basis)


def _binomials(n: int, k: int) -> np.ndarray:
    """Table of C(i, j) for 0 <= i <= n, 0 <= j <= k (zero for j > i)."""
    return np.array([[math.comb(i, j) for j in range(k + 1)] for i in range(n + 1)])


def _shift_index(gammas: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Position of gamma - shift in the graded order of
    ``multiindex.enumerate_indices``, for every row gamma of ``gammas``
    (axis 0) and row shift of ``shifts`` (axis 1); -1 where x^shift does
    not divide x^gamma.

    The position of alpha with |alpha| = n is the count C(n-1+d, d) of
    lower degrees plus, for each coordinate j < d-1, the count
    C(r_j - alpha_j + d-j-2, d-j-1) of same-degree indices that agree
    before j and are larger at j, where r_j = n - sum_{i<j} alpha_i.
    """
    d = gammas.shape[1]
    binom = _binomials(int(gammas.sum(axis=1).max(initial=0)) + d, d)
    rest = np.maximum(gammas.sum(axis=1)[:, None] - shifts.sum(axis=1)[None, :], 0)
    pos = binom[rest + d - 1, d]
    divides = np.ones(pos.shape, dtype=bool)
    for j in range(d):
        a = gammas[:, None, j] - shifts[None, :, j]
        divides &= a >= 0
        if j < d - 1:
            a = np.clip(a, 0, rest)
            pos += binom[rest - a + d - j - 2, d - j - 1]
            rest = rest - a
    return np.where(divides, pos, -1)


def _taylor_table(alphas: np.ndarray, z: np.ndarray, jets: np.ndarray) -> np.ndarray:
    """Taylor coefficients of the monomials x^alpha (rows of ``alphas``) at
    z on the indices ``jets``: prod_j C(a_j, gamma_j) z_j^(a_j - gamma_j)."""
    top = int(alphas.max(initial=0))
    binom = _binomials(top, top).astype(float)
    table = np.ones((len(alphas), len(jets)), dtype=complex)
    for j in range(z.size):
        a = alphas[:, None, j]
        gamma = jets[None, :, j]
        ok = gamma <= a
        power = z[j] ** np.where(ok, a - gamma, 0)
        table *= np.where(ok, binom[a, np.minimum(gamma, a)] * power, 0)
    return table


def _taylor_rows(generators: Sequence[Polynomial], z: np.ndarray, jets: np.ndarray) -> np.ndarray:
    """Taylor coefficients of each generator at z on the indices ``jets``:
    t_g[gamma] = sum_a c_a prod_j C(a_j, gamma_j) z_j^(a_j - gamma_j), from
    one Taylor table over the union of the generators' exponents."""
    row_of = {}
    for g in generators:
        for alpha in g.coeffs:
            row_of.setdefault(alpha, len(row_of))
    table = _taylor_table(np.array(list(row_of), dtype=np.int64).reshape(-1, z.size), z, jets)
    rows = np.empty((len(generators), len(jets)), dtype=complex)
    for i, g in enumerate(generators):
        # summed term by term, as Polynomial.shift sums; a BLAS product may
        # fuse multiply-adds and leave other roundoff in cancelling jets
        weight = table[[row_of[alpha] for alpha in g.coeffs]]
        rows[i] = np.einsum("k,km->m", np.array(list(g.coeffs.values())), weight)
    return rows


def _isolation_probes(d: int, z: np.ndarray, seed: int, radius: float) -> np.ndarray:
    """64 seeded random points and the 2d axis points at distance radius
    from z, one per row."""
    v = np.random.default_rng(seed).standard_normal((64, 2, d))
    v = v[:, 0] + 1j * v[:, 1]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    axis = radius * np.stack([np.eye(d), -np.eye(d)], axis=1).reshape(2 * d, d)
    return z + np.concatenate([radius * v, axis])


def _isolation_mesh_check(ideal: PolyIdeal, z: np.ndarray) -> None:
    # Definite non-isolation test: a nearby point where every generator
    # vanishes means z cannot be an isolated common zero.
    radius = 0.1
    probes = _isolation_probes(ideal.d, z, seed=0, radius=radius)
    vanish = np.ones(len(probes), dtype=bool)
    for g in ideal.generators:
        alphas = np.array(list(g.coeffs), dtype=np.int64)
        c = np.array(list(g.coeffs.values()))
        values = np.prod(probes[:, None, :] ** alphas, axis=2) @ c
        vanish &= np.abs(values) <= 1e-10 * (1.0 + np.abs(c).max())
    if vanish.any():
        raise ValidationError(
            f"common zero of all generators at distance {radius} from the "
            f"point; it is not isolated"
        )


def polynomial_order(
    ideal: PolyIdeal,
    z: Sequence[complex],
    tol: float = numerics.DEFAULT_TOL,
) -> int:
    """Smallest k >= 0 with every jet of m_z^(k+1) inside the jet image.

    The search is capped by what the degree bound supports; failure to
    terminate inside the cap raises, since order is only defined when the
    ideal contains a power of the maximal ideal at z.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (ideal.d,):
        raise InputError(f"point has shape {z.shape}, expected ({ideal.d},)")
    if not ideal.generators:
        raise ValidationError("the zero ideal has no finite vanishing order")
    _isolation_mesh_check(ideal, z)
    max_mu = ideal.degree_bound - ideal.max_generator_degree + 1
    kappa = 0
    while kappa + 2 <= max_mu:
        mu = kappa + 2
        local = localize(ideal, z, mu)
        # the jets of order kappa+1 and above are unit vectors, so each
        # residual is a column of I - B B^* on those indices
        B = local.basis
        high = [k for k, beta in enumerate(local.jet_basis) if sum(beta) > kappa]
        resid = np.eye(len(local.jet_basis))[:, high] - B @ B.conj().T[:, high]
        if np.all(np.linalg.norm(resid, axis=0) <= tol):
            return kappa
        kappa += 1
    raise ValidationError(
        f"vanishing order at {tuple(z.tolist())} exceeds what "
        f"degree_bound={ideal.degree_bound} can certify"
    )


def vanishing_ideal_slice(
    points: Sequence[Sequence[complex]],
    kappa: int,
    degree_bound: int,
    tol: float = numerics.RANK_RTOL,
) -> PolyIdeal:
    """Degree slice of the polynomials whose derivatives of order <= kappa
    vanish at every point; kappa may be one order for all points or one
    order per point."""
    pts = fockspace._distinct_points(points)
    d = pts[0].size
    try:
        kappas = [int(kappa)] * len(pts)
    except TypeError:
        kappas = [int(k) for k in kappa]
        if len(kappas) != len(pts):
            raise InputError(
                f"got {len(kappas)} orders for {len(pts)} points"
            )
    if any(k < 0 for k in kappas):
        raise InputError(f"orders must be >= 0, got {kappas}")
    basis = mi.enumerate_indices(d, degree_bound)
    alphas = np.array(basis, dtype=np.int64)
    # p -> d^alpha p(z) is alpha! times the Taylor coefficient of p at z on
    # (x - z)^alpha, and every row is normalized
    rows = np.vstack([
        _taylor_table(alphas, z, np.array(mi.enumerate_indices(d, kz), dtype=np.int64)).T
        for z, kz in zip(pts, kappas)
    ])
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    rows /= np.where(norms > 0, norms, 1.0)
    kernel = numerics.nullspace(rows, rtol=tol)
    gens = [Polynomial.from_coeff_vector(d, kernel[:, j], basis) for j in range(kernel.shape[1])]
    return PolyIdeal(gens, degree_bound, d=d)
