"""Degree slices of polynomial ideals and their local jet geometry.

An ideal never appears here in closed form; it is handled through two
finite-dimensional shadows. ``PolyIdeal`` holds its generators as the
columns of one coefficient matrix on the monomials below a fixed degree
bound, and stores the span of q*g for generators g and monomials q inside
that bound, which is enough for membership tests up to that degree.
``localize`` passes to the space of Taylor jets at a point, and
``polynomial_order`` finds the smallest k with m_z^(k+1) contained in the
jet image, i.e. the vanishing order the ideal prescribes at an isolated
common zero.

``Polynomial`` objects enter only through the ``PolyIdeal`` constructor,
which turns each generator into a column once; ``PolyIdeal.from_terms``
takes the coefficient tables the JSON loader reads instead, and
``vanishing_ideal_slice`` hands its kernel matrix over as it is. Both
spans are gathers on that matrix: x^q * g has coefficient g[gamma - q] at
x^gamma, and (x - z)^beta * g has Taylor coefficient t_g[gamma - beta] at
z, where t_g is the Taylor row of g. Every column is a gather through
``_shift_index``, and the Taylor rows of all generators are one
contraction of the matrix with the Taylor table of the monomials
(``_taylor_rows``).

The slice is built on first read of ``slice_basis`` (``slice_dim``,
``contains`` and ``repr`` read it), so an ambiguous rank decision there
raises ``NumericalError`` at that read, not in the constructor. An ideal
given by any other coefficient matrix, such as a tuple's annihilator from
``tuples.annihilator_coeffs``, is localized by ``localize_coeffs`` through
the same Taylor rows.
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
    """Span of {q * g : g generator, deg(q*g) <= degree_bound}.

    The generators are the columns of ``coeffs``, coefficient vectors on the
    monomials ``basis`` of degree <= degree_bound in graded order, one column
    per nonzero generator.
    """

    def __init__(self, generators: Sequence[Polynomial], degree_bound: int, d: int | None = None):
        self._set(*_generator_columns([(g.d, g.coeffs) for g in generators], degree_bound, d))

    @classmethod
    def from_terms(cls, generators: Sequence[tuple], degree_bound: int, d: int | None = None) -> "PolyIdeal":
        """The constructor, with each generator given as the pair
        (d, {alpha: nonzero coefficient}) that ``serialization.load_generators``
        reads, so that no ``Polynomial`` is built."""
        return cls._from_coeffs(*_generator_columns(generators, degree_bound, d))

    @classmethod
    def _from_coeffs(cls, d: int, degree_bound: int, coeffs: np.ndarray) -> "PolyIdeal":
        """The ideal generated by the nonzero columns of ``coeffs``, laid
        out on the monomials of degree <= degree_bound; nothing is checked."""
        ideal = cls.__new__(cls)
        ideal._set(d, degree_bound, coeffs)
        return ideal

    def _set(self, d: int, degree_bound: int, coeffs: np.ndarray) -> None:
        self.d = d
        self.degree_bound = degree_bound
        self.basis = mi.enumerate_indices(d, degree_bound)
        self.coeffs = coeffs

    @functools.cached_property
    def _alphas(self) -> np.ndarray:
        return np.array(self.basis, dtype=np.int64)

    @functools.cached_property
    def _degrees(self) -> np.ndarray:
        """Degree of each generator: the highest degree of its nonzero
        coefficients."""
        return np.where(self.coeffs != 0, self._alphas.sum(axis=1)[:, None], 0).max(axis=0, initial=0)

    @functools.cached_property
    def max_generator_degree(self) -> int:
        return int(self._degrees.max(initial=0))

    @functools.cached_property
    def slice_basis(self) -> np.ndarray:
        """Orthonormal basis of the degree slice, built on first read; an
        ambiguous rank decision raises ``NumericalError`` there."""
        m = self.coeffs.shape[1]
        if not m:
            return np.zeros((len(self.basis), 0), dtype=complex)
        # the multipliers x^q with |q| <= room are the first C(d+room, d)
        # basis indices, so one index map serves every generator
        counts = [math.comb(self.d + self.degree_bound - int(k), self.d) for k in self._degrees]
        index = _shift_index(self._alphas, self._alphas[: max(counts)])
        padded = np.vstack([self.coeffs, np.zeros((1, m))])  # index -1 reads a zero
        cols = [padded[index[:, :count], g] for g, count in enumerate(counts)]
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
            f"PolyIdeal(d={self.d}, generators={self.coeffs.shape[1]}, "
            f"degree_bound={self.degree_bound}, slice_dim={self.slice_dim})"
        )


def _generator_columns(generators: Sequence[tuple], degree_bound: int, d: int | None) -> tuple:
    """(d, degree_bound, coeffs) of the ideal of ``generators``, pairs
    (d, {alpha: nonzero coefficient}): zero generators are dropped, then
    the dimensions, the degree bound and the generator degrees are checked,
    and each generator left is one column of ``coeffs``."""
    generators = [(gd, table) for gd, table in generators if table]
    if d is None:
        if not generators:
            raise InputError("cannot infer dimension from an empty generator list")
        d = generators[0][0]
    if any(gd != d for gd, _ in generators):
        raise InputError("generators live in different dimensions")
    if degree_bound < 0:
        raise InputError(f"degree_bound must be >= 0, got {degree_bound}")
    top = max((mi.degree(alpha) for _, table in generators for alpha in table), default=0)
    if top > degree_bound:
        raise InputError(
            f"generator degree {top} exceeds the degree bound {degree_bound}"
        )
    basis = mi.enumerate_indices(int(d), int(degree_bound))
    position = {alpha: i for i, alpha in enumerate(basis)}
    rows = np.zeros((len(generators), len(basis)), dtype=complex)
    for row, (_, table) in zip(rows, generators):
        for alpha, c in table.items():
            row[position[alpha]] = c
    return int(d), int(degree_bound), rows.T


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
    return _jet_span(ideal.coeffs, ideal._alphas, z, mu)


def localize_coeffs(coeffs: np.ndarray, basis: Sequence[tuple], z, mu: int) -> LocalJetIdeal:
    """Order-mu jet image at z of the ideal generated by the columns of
    ``coeffs``, coefficient vectors on the monomials ``basis``: ``localize``
    without the degree bound that a ``PolyIdeal`` carries and checks."""
    z = np.asarray(z, dtype=complex)
    alphas = np.array(basis, dtype=np.int64)
    if alphas.shape[1:] != z.shape or coeffs.shape[0] != len(alphas):
        raise InputError(
            f"point of shape {z.shape} with {coeffs.shape[0]} coefficients on "
            f"monomials of shape {alphas.shape}"
        )
    return _jet_span(coeffs, alphas, z, mu)


def _jet_span(coeffs: np.ndarray, alphas: np.ndarray, z: np.ndarray, mu: int) -> LocalJetIdeal:
    """Span of the jets of (x - z)^beta * g, |beta| <= mu, over the
    generators g, the columns of ``coeffs`` on the monomials x^alpha (rows
    of ``alphas``): column (g, beta) holds t_g[gamma - beta] in row gamma,
    where t_g is the Taylor row of g at z."""
    jet_basis = mi.enumerate_indices(z.size, mu)
    jets = np.array(jet_basis, dtype=np.int64)
    rows = _taylor_rows(coeffs, alphas, z, jets)
    m = len(jet_basis)
    padded = np.zeros((rows.shape[0], m + 1), dtype=complex)  # index -1 reads a zero
    padded[:, :m] = rows
    cols = padded[:, _shift_index(jets, jets)]
    basis = numerics.orth_columns(cols.transpose(1, 0, 2).reshape(m, -1))
    return LocalJetIdeal(z=tuple(z.tolist()), mu=mu, d=z.size, jet_basis=jet_basis, basis=basis)


@functools.lru_cache(maxsize=None)
def _binomials(n: int, k: int) -> np.ndarray:
    """Table of C(i, j) for 0 <= i <= n, 0 <= j <= k (zero for j > i)."""
    table = np.array([[math.comb(i, j) for j in range(k + 1)] for i in range(n + 1)])
    table.flags.writeable = False  # shared through the cache
    return table


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


def _taylor_rows(coeffs: np.ndarray, alphas: np.ndarray, z: np.ndarray, jets: np.ndarray) -> np.ndarray:
    """Taylor coefficients at z, on the indices ``jets``, of the generators
    in the columns of ``coeffs`` on the monomials x^alpha (rows of
    ``alphas``): t_g[gamma] = sum_alpha g_alpha prod_j C(a_j, gamma_j)
    z_j^(a_j - gamma_j), one row per generator."""
    # summed term by term; a BLAS product may fuse multiply-adds and leave
    # other roundoff in cancelling jets
    return np.einsum("kg,km->gm", coeffs, _taylor_table(alphas, z, jets))


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
    used = (ideal.coeffs != 0).any(axis=1)  # the monomials some generator has
    values = np.prod(probes[:, None, :] ** ideal._alphas[used], axis=2) @ ideal.coeffs[used]
    vanish = np.abs(values) <= 1e-10 * (1.0 + np.abs(ideal.coeffs).max(axis=0))
    if vanish.all(axis=1).any():
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
    if not ideal.coeffs.shape[1]:
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
    # a negative bound passes here and is refused by enumerate_indices
    numerics.check_nullspace_width(math.comb(d + max(degree_bound, 0), d), "vanishing ideal slice")
    alphas = np.array(mi.enumerate_indices(d, degree_bound), dtype=np.int64)
    # p -> d^alpha p(z) is alpha! times the Taylor coefficient of p at z on
    # (x - z)^alpha, and every row is normalized
    rows = np.vstack([
        _taylor_table(alphas, z, np.array(mi.enumerate_indices(d, kz), dtype=np.int64)).T
        for z, kz in zip(pts, kappas)
    ])
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    rows /= np.where(norms > 0, norms, 1.0)
    return PolyIdeal._from_coeffs(d, int(degree_bound), numerics.nullspace(rows, rtol=tol))
