import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from arveson import fockspace as fk
from arveson import multiindex as mi
from arveson.errors import InputError
from arveson.polynomials import Polynomial


# -- Fock-slice oracle -----------------------------------------------------
# The degree-<=D slice of H^2_d in the orthonormalized monomial basis, with
# truncated derivative kernels and multiplication matrices: the expansion
# the closed forms of the library replace, kept to check them.

KERNEL_TAIL_TOL = 1e-14


def truncation_degree(rho: float, tol: float = KERNEL_TAIL_TOL) -> int:
    """Smallest D with rho^(2(D+1))/(1-rho^2) < tol.

    This is the exact squared norm of the degree->D tail of a kernel vector
    k_z with ||z|| = rho, so Gram matrices of kernel data built on the
    degree-D slice are accurate to tol.
    """
    if not 0.0 <= rho < 1.0:
        raise InputError(f"rho must lie in [0, 1), got {rho}")
    if rho == 0.0:
        return 0
    D = 0
    while rho ** (2 * (D + 1)) / (1.0 - rho**2) >= tol:
        D += 1
        if D > mi.MAX_DEGREE:
            raise InputError(f"truncation degree exceeds {mi.MAX_DEGREE} for rho={rho}")
    return D


class FockTruncation:
    """Degree-<=D slice of H^2_d in the orthonormalized monomial basis."""

    def __init__(self, d: int, max_degree: int):
        if d < 1:
            raise InputError(f"dimension must be >= 1, got {d}")
        if max_degree < 0:
            raise InputError(f"max_degree must be >= 0, got {max_degree}")
        self.d = int(d)
        self.max_degree = int(max_degree)
        self.basis = mi.enumerate_indices(d, max_degree)
        self.position = {alpha: i for i, alpha in enumerate(self.basis)}
        self.norms_sq = [mi.monomial_norm_sq(alpha) for alpha in self.basis]
        self.norms = np.array([math.sqrt(float(q)) for q in self.norms_sq])
        self.dim = len(self.basis)

    def dim_up_to(self, degree: int) -> int:
        """Number of basis monomials of degree <= degree (a basis prefix)."""
        degree = min(degree, self.max_degree)
        if degree < 0:
            return 0
        return math.comb(self.d + degree, self.d)

    def onb_coeffs(self, p: Polynomial) -> np.ndarray:
        """Coefficients of p in the orthonormalized basis."""
        if p.d != self.d:
            raise InputError(f"polynomial dimension {p.d}, expected {self.d}")
        return p.coeff_vector(self.basis) * self.norms

    def from_onb_coeffs(self, vec: np.ndarray) -> Polynomial:
        return Polynomial.from_coeff_vector(self.d, np.asarray(vec) / self.norms, self.basis)

    def __repr__(self) -> str:
        return f"FockTruncation(d={self.d}, max_degree={self.max_degree}, dim={self.dim})"


@dataclass(frozen=True)
class JetVector:
    """Truncation of the derivative kernel d^a k_z / d conj(z)^a.

    Pairing any polynomial p of degree <= D against ``coeffs`` (a plain
    conjugate-linear dot in the orthonormal basis) returns d^a p(z); the
    discarded tail has norm at most ``tail_bound``.
    """

    z: tuple
    alpha: tuple
    coeffs: np.ndarray
    tail_bound: float

    def pair(self, p: Polynomial, trunc: FockTruncation) -> complex:
        return complex(np.vdot(self.coeffs, trunc.onb_coeffs(p)))


def _jet_tail_bound(rho: float, order: int, max_degree: int) -> float:
    # tail^2 = (m!)^2 sum_{k > D-m} C(k+m, m)^2 rho^(2k); the k-th terms are
    # orthogonal (distinct degrees) and multiplication by x^alpha contracts.
    if rho == 0.0:
        return 0.0
    m = order
    k = max_degree - m + 1
    total = 0.0
    term = math.comb(k + m, m) ** 2 * rho ** (2 * k)
    while True:
        total += term
        ratio = ((k + 1 + m) / (k + 1)) ** 2 * rho**2
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < 1e-18 * max(total, 1e-300):
            total += term * ratio / (1.0 - ratio)
            break
        k += 1
        term *= ratio
        if k > 100000:
            raise InputError(f"jet tail bound does not converge for rho={rho}")
    return math.factorial(m) * math.sqrt(total)


def jet_vector(z: Sequence[complex], alpha: Sequence[int], trunc: FockTruncation) -> JetVector:
    """Degree-<=D expansion of |a|! x^a (1 - <x,z>)^(-(|a|+1)).

    Coefficient bookkeeping: the raw coefficient of x^(a+b) is
    (|a|+|b|)!/b! conj(z)^b, and the orthonormal coefficient carries the
    extra factor ||x^(a+b)||.
    """
    z = fk._as_point(z, trunc.d)
    rho = fk._require_in_ball(z)
    alpha = mi.as_index(alpha)
    if len(alpha) != trunc.d:
        raise InputError(f"order {alpha} has length {len(alpha)}, expected {trunc.d}")
    m = mi.degree(alpha)
    if m > trunc.max_degree:
        raise InputError(
            f"jet order {m} exceeds the truncation degree {trunc.max_degree}"
        )
    zbar = z.conj()
    coeffs = np.zeros(trunc.dim, dtype=complex)
    for beta in mi.enumerate_indices(trunc.d, trunc.max_degree - m):
        gamma = mi.add(alpha, beta)
        k = mi.degree(beta)
        # exact square of (raw coefficient) * ||x^gamma||, evaluated once
        weight_sq = Fraction(
            math.factorial(m + k) * mi.index_factorial(gamma),
            mi.index_factorial(beta) ** 2,
        )
        zpow = 1.0 + 0j
        for zj, bj in zip(zbar, beta):
            if bj:
                zpow *= zj**bj
        coeffs[trunc.position[gamma]] = math.sqrt(float(weight_sq)) * zpow
    return JetVector(
        z=tuple(z.tolist()),
        alpha=alpha,
        coeffs=coeffs,
        tail_bound=_jet_tail_bound(rho, m, trunc.max_degree),
    )


def mult_matrix(p: Polynomial, trunc: FockTruncation) -> np.ndarray:
    """Matrix of v -> truncate_D(p * v) in the orthonormalized basis."""
    if p.d != trunc.d:
        raise InputError(f"polynomial dimension {p.d}, expected {trunc.d}")
    if p.degree() > trunc.max_degree:
        raise InputError(
            f"multiplier degree {p.degree()} exceeds truncation degree {trunc.max_degree}"
        )
    M = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    for tau, c in p.coeffs.items():
        for j, beta in enumerate(trunc.basis):
            gamma = mi.add(tau, beta)
            i = trunc.position.get(gamma)
            if i is None:
                continue
            ratio = math.sqrt(float(trunc.norms_sq[i] / trunc.norms_sq[j]))
            M[i, j] += c * ratio
    return M


# -- oracles ---------------------------------------------------------------

def kernel_series_oracle(z, w, terms=4000):
    """Sum the kernel series directly in high precision."""
    with mpmath.workdps(50):
        ip = mpmath.fsum(
            mpmath.mpc(zi) * mpmath.conj(mpmath.mpc(wi)) for zi, wi in zip(z, w)
        )
        return complex(mpmath.fsum(ip**k for k in range(terms)))


def jet_norm_sq_oracle(z, alpha, cutoff=200):
    """Squared norm of the order-alpha jet at z, summed coefficient by
    coefficient in high precision: the component on x^(alpha+beta) carries
    (m+k)! (alpha+beta)! / (beta!)^2 * |z^beta|^2 with m=|alpha|, k=|beta|."""
    m = sum(alpha)
    d = len(z)
    with mpmath.workdps(60):
        zs = [mpmath.mpf(abs(x) ** 2) for x in z]
        terms = []
        for beta in mi.enumerate_indices(d, cutoff):
            k = sum(beta)
            w = mpmath.factorial(m + k)
            for aj, bj in zip(alpha, beta):
                w *= mpmath.factorial(aj + bj)
            for bj in beta:
                w /= mpmath.factorial(bj) ** 2
            for zj, bj in zip(zs, beta):
                w *= zj**bj
            terms.append(w)
        return float(mpmath.fsum(terms))


# -- truncation ------------------------------------------------------------

def test_truncation_degree_rule():
    rho = 0.5
    D = truncation_degree(rho)
    assert rho ** (2 * (D + 1)) / (1 - rho**2) < KERNEL_TAIL_TOL
    assert rho ** (2 * D) / (1 - rho**2) >= KERNEL_TAIL_TOL


def test_truncation_degree_zero_point():
    assert truncation_degree(0.0) == 0


def test_fock_truncation_layout():
    t = FockTruncation(2, 3)
    assert t.dim == math.comb(2 + 3, 2)
    assert t.dim_up_to(2) == 6
    assert t.basis[0] == (0, 0)
    assert t.position[(1, 0)] == 1
    assert t.norms_sq[t.position[(1, 1)]] == Fraction(1, 2)


def test_monomial_norms_against_weight():
    # the squared monomial norm is the reciprocal multinomial weight
    t = FockTruncation(3, 4)
    for a in t.basis:
        assert t.norms_sq[t.position[a]] == Fraction(1, mi.multinomial_weight(a))


def test_onb_coeffs_round_trip():
    t = FockTruncation(2, 4)
    p = Polynomial(2, {(2, 1): 1.5 - 0.5j, (0, 0): 2.0, (0, 4): -1.0})
    v = t.onb_coeffs(p)
    q = t.from_onb_coeffs(v)
    r = p - q
    assert all(abs(c) < 1e-12 for c in r.coeffs.values())


def test_onb_coeffs_norm_is_space_norm():
    t = FockTruncation(2, 3)
    p = Polynomial.monomial((2, 1), 1.0)
    # ||x^(2,1)||^2 = 2!1!/3! = 1/3
    assert_allclose(np.linalg.norm(t.onb_coeffs(p)) ** 2, 1 / 3, rtol=1e-14)


# -- kernel ----------------------------------------------------------------

def test_kernel_matches_series():
    z = [0.3 + 0.2j, -0.4]
    w = [0.1 - 0.5j, 0.25 + 0.25j]
    assert_allclose(fk.kernel(z, w), kernel_series_oracle(z, w), rtol=1e-13)


def test_kernel_rejects_sphere():
    with pytest.raises(InputError):
        fk.kernel([1.0, 0.0], [0.0, 0.0])


def test_kernel_at_origin():
    assert fk.kernel([0.0], [0.7]) == pytest.approx(1.0)


def test_kernel_gram_order_zero_is_kernel():
    pts = [(0.3, 0.2j), (-0.5, 0.1), (0.0, 0.0)]
    want = [[fk.kernel(z, w) for w in pts] for z in pts]
    assert_allclose(fk.kernel_gram(pts, [(0, 0)]), want, rtol=1e-15)


def test_kernel_gram_diagonal_matches_series_oracle():
    z = (0.3, -0.4)
    jets = [(0, 0), (1, 0), (1, 1), (0, 2)]
    G = fk.kernel_gram([z], jets)
    want = [jet_norm_sq_oracle(z, alpha, cutoff=120) for alpha in jets]
    assert_allclose(np.diag(G).real, want, rtol=1e-12)


def test_kernel_gram_matches_truncated_jets():
    # entry (r, s) is <K_s, K_r>, the plain dot of truncated jet vectors
    pts = [(0.3 + 0.1j, -0.2), (-0.25, 0.4 - 0.2j), (0.1j, 0.05)]
    jets = mi.enumerate_indices(2, 2)
    t = FockTruncation(2, 40)
    V = np.column_stack([jet_vector(z, a, t).coeffs for z in pts for a in jets])
    assert_allclose(fk.kernel_gram(pts, jets), V.conj().T @ V, rtol=0, atol=1e-12)


def test_kernel_gram_rejects_sphere():
    with pytest.raises(InputError):
        fk.kernel_gram([(0.0, 0.0), (0.6, 0.8)], [(0, 0)])


# -- jets ------------------------------------------------------------------

def test_jet_pairing_is_derivative():
    t = FockTruncation(2, 8)
    z = (0.2 - 0.1j, 0.3)
    p = Polynomial(2, {(3, 1): 2.0, (1, 2): -1j, (0, 0): 0.5})
    for alpha in [(0, 0), (1, 0), (2, 1), (0, 3)]:
        j = jet_vector(z, alpha, t)
        want = p.derivative(alpha)(z)
        assert_allclose(j.pair(p, t), want, atol=1e-12)


def test_jet_vector_norm_matches_series_oracle():
    t = FockTruncation(2, truncation_degree(0.5))
    z = (0.3, -0.4)
    for alpha in [(0, 0), (1, 0), (1, 1)]:
        j = jet_vector(z, alpha, t)
        truncated = np.linalg.norm(j.coeffs) ** 2
        want = jet_norm_sq_oracle(z, alpha, cutoff=120)
        # truncated mass brackets the true squared norm from below, and the
        # tail bound covers what was cut
        assert truncated <= want + 1e-12
        assert truncated + j.tail_bound**2 >= want - 1e-12
        assert want - truncated <= j.tail_bound**2 + 1e-12


def test_jet_tail_bound_dominates_discarded_mass():
    # compare the reported tail bound with the actual mass beyond the cut
    z = (0.45, 0.1)
    alpha = (1, 0)
    small = FockTruncation(2, 12)
    big = FockTruncation(2, 40)
    js = jet_vector(z, alpha, small)
    jb = jet_vector(z, alpha, big)
    discarded = np.linalg.norm(jb.coeffs) ** 2 - np.linalg.norm(js.coeffs) ** 2
    assert js.tail_bound**2 >= discarded - 1e-15
    assert js.tail_bound < 5e-3


def test_jet_zero_order_is_kernel_vector():
    t = FockTruncation(1, truncation_degree(0.6))
    z = (0.6,)
    j = jet_vector(z, (0,), t)
    # pairing with p recovers p(z)
    p = Polynomial(1, {(3,): 1.0, (1,): -2.0, (0,): 1.0})
    assert_allclose(j.pair(p, t), p(z), rtol=1e-12)
    # squared norm approaches k(z, z)
    assert_allclose(
        np.linalg.norm(j.coeffs) ** 2, fk.kernel(z, z).real, atol=1e-13
    )


def test_jet_rejects_outside_ball():
    t = FockTruncation(1, 4)
    with pytest.raises(InputError):
        jet_vector((1.2,), (0,), t)


# -- multiplication --------------------------------------------------------

def test_mult_matrix_multiplies_when_room():
    t = FockTruncation(2, 5)
    p = Polynomial(2, {(1, 0): 1.0, (0, 1): -2.0})
    q = Polynomial(2, {(2, 1): 1.0, (0, 0): 3.0})
    M = mult_matrix(p, t)
    got = M @ t.onb_coeffs(q)
    want = t.onb_coeffs(p * q)
    assert_allclose(got, want, atol=1e-13)


def test_mult_matrix_truncates_top_degree():
    t = FockTruncation(1, 3)
    x = Polynomial.variable(1, 0)
    M = mult_matrix(x, t)
    top = t.onb_coeffs(Polynomial.monomial((3,)))
    assert_allclose(M @ top, 0, atol=1e-14)


def test_coordinate_multipliers_form_row_contraction():
    t = FockTruncation(3, 4)
    Ms = [mult_matrix(Polynomial.variable(3, j), t) for j in range(3)]
    S = sum(M @ M.conj().T for M in Ms)
    vals = np.linalg.eigvalsh(S)
    assert vals.max() <= 1 + 1e-12
    # the top eigenvalue is exactly 1: row sums within a nonconstant degree
    assert_allclose(vals.max(), 1.0, rtol=1e-12)


def test_mult_matrix_degree_guard():
    t = FockTruncation(1, 2)
    with pytest.raises(InputError):
        mult_matrix(Polynomial.monomial((3,)), t)
