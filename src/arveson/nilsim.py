"""Similarity of commuting nilpotent tuples to their ideal models.

A cyclic commuting nilpotent row contraction N with monomial annihilator
is conjugated onto the compressed shift model by the correspondence
X : sqrt(|a|!/a!) N^a xi -> normalized monomial at a. The certificate
couples that matrix with the quantitative hypotheses (epsilon on the
weighted orbit norms, gauge constant gamma from the homogeneous layers)
and the resulting norm bounds

    ||X|| <= (L+1) gamma / sqrt(1 - epsilon card),   ||X^{-1}|| <= L + 1.

gamma is measured on a grid; the certificate also carries the bound with
gamma replaced by ``gamma_upper``, a proved upper bound on the gauge
supremum (Bernstein's inequality on the grid, see ``NilsimHypotheses``).

Necessity runs the other way: any intertwiner produces a distinguished
cyclic vector, gauge operators with norm at most cond(X), and a floor of
1/cond(X)^2 on every weighted orbit norm. ``necessity_check`` decides the
gauge norm and the conjugation defect for every t from proved bounds, and
reads the sampled gauges only where a bound cannot decide.

The orbit inequalities behind the theorem are decided by ``lemma_checks``
for every coefficient vector, from weighted orbit Grams: nothing is sampled.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import models, multiindex as mi, numerics, tuples
from .errors import InputError, NumericalError, ValidationError

NILPOTENT_RTOL = 1e-9
RESIDUAL_RTOL = 1e-8
BOUND_SLACK = 1e-7
# grid points over [0, 2pi) for the gauge supremum gamma; the grid maximum
# certifies gamma_upper while the top layer label is below 2 GAMMA_GRID / pi
GAMMA_GRID = 64
NECESSITY_TOL = 1e-8
NECESSITY_GAUGE_SAMPLES = 8
LEMMA_TOL = 1e-10


@dataclass(frozen=True)
class NilsimHypotheses:
    """Measured hypothesis data for the similarity theorem.

    epsilon is the worst defect 1 - (|a|!/a!) ||N^a xi||^2 over the support
    Xi = {a : N^a != 0} (the zero index included), L the top degree in Xi.
    gamma is the norm of the layer gauge Y_t = B diag(e^{i l t}) B^-1
    maximized over the ``GAMMA_GRID`` points t_k = 2 pi k / M (M =
    ``GAMMA_GRID``), available only when the homogeneous layers span
    directly; with orthonormal layers it is exactly 1. The gauges of
    (pi, 2pi) whose norm a proved bound puts below the maximum over [0, pi]
    are not factored (``_grid_gamma``), which leaves the maximum unchanged
    to the last bit. A grid maximum is an estimate from below of the
    supremum gamma* = sup_t ||Y_t||.

    ``gamma_upper`` is a proved upper bound on gamma*. Fix unit vectors u,
    v and let Lmax be the top layer label. f(t) = u^* Y_t v is a
    trigonometric polynomial with frequencies 0..Lmax, so
    g(t) = e^{-i Lmax t/2} f(t) is an entire function of exponential type
    Lmax/2 with sup |g| <= gamma* on the real line. Bernstein's inequality
    (Boas, Entire Functions, 1954, ch. 11) gives |g'| <= (Lmax/2) gamma*.
    Every t lies within pi/M of a grid point t_k, hence
    |f(t)| <= ||Y_{t_k}|| + (pi Lmax / 2M) gamma*, and taking the supremum
    over u, v and t,

        gamma* <= gamma / (1 - pi Lmax / (2M))   whenever pi Lmax < 2M.

    For larger Lmax the bound is vacuous and ``gamma_upper`` is None. With
    orthonormal layers B^-1 is taken as B^H, and ||Y_t|| <= ||B||^2 =
    ||B^H B|| <= 1 + ||B^H B - I||. Both values carry the relative factor
    1 + ``BOUND_SLACK``, which covers the rounding of the computed gauges and
    of their SVD (a few n u cond(B) relative, with u the unit roundoff).
    Without a direct layer decomposition ``gamma_upper`` is None.
    """

    xi: np.ndarray
    support: tuple
    card: int
    L: int
    epsilon: float
    layers_direct: bool
    layer_dims: tuple
    gamma: float | None
    gamma_upper: float | None
    _layer_basis: np.ndarray | None = field(default=None, repr=False)
    _layer_labels: tuple = field(default=(), repr=False)
    _layer_basis_inv: np.ndarray | None = field(default=None, repr=False)
    # {alpha: N^alpha xi} over the degrees up to the first one at which every
    # power vanishes identically, or below the first one proved to bound
    # every deeper power by tol (``check_hypotheses``)
    _orbit: dict = field(default_factory=dict, repr=False)

    @property
    def admissible(self) -> bool:
        return (
            self.layers_direct
            and self.gamma is not None
            and self.epsilon * self.card < 1.0
        )

    def gauge(self, t: float) -> np.ndarray:
        """Y_t = B diag(e^{i l t}) B^{-1} scaling the l-th layer by e^{ilt}."""
        if self._layer_basis is None:
            raise ValidationError(
                "layers are not a direct sum; no layer gauge is available"
            )
        return _layer_gauge(self._layer_basis, self._layer_labels, self._layer_basis_inv, t)


def _layer_gauge(B: np.ndarray, labels: tuple, B_inv: np.ndarray, t: float) -> np.ndarray:
    """B diag(e^{i l t}) B_inv, with l the layer label of each column of B."""
    phases = np.array([cmath.exp(1j * ell * t) for ell in labels])
    return (B * phases) @ B_inv


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a complex vector with the arithmetic of
    ``np.linalg.norm`` (the dots of its real and imaginary parts), without
    its dispatch, which costs twice the dots on the short vectors here."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _require_unit(xi, n: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.size != n:
        raise InputError(f"vector has size {xi.size}, expected {n}")
    nrm = _norm(xi)
    if not abs(nrm - 1.0) <= 1e-9:  # refuses a non-finite norm as well
        raise InputError(f"cyclic vector must be a unit vector, got norm {nrm:.6g}")
    return xi / nrm


def _require_nilpotent(N: tuples.CommutingTuple, top: tuple, tol: float = NILPOTENT_RTOL) -> None:
    """The nilpotency gate on N_j^n = N_j N_j^(n-1), with ``top`` the walk's
    (keys, stack) of degree n - 1, which holds every N_j^(n-1)."""
    keys, stack = top
    pure = [keys.index(tuple(N.n - 1 if i == j else 0 for i in range(N.d))) for j in range(N.d)]
    powers = np.array(N.matrices) @ stack[pure]
    for j, (P, norm) in enumerate(zip(powers, N.norms)):
        gate = tol * max(1.0, norm) ** N.n
        if float(np.linalg.norm(P)) <= gate:
            # Frobenius dominates the spectral norm
            continue
        norm_P = numerics.operator_norm(P)
        if norm_P > gate:
            raise ValidationError(
                f"matrix {j + 1} is not nilpotent within tolerance "
                f"(||N^n|| = {norm_P:.3e})"
            )


@functools.lru_cache(maxsize=None)
def _phases(samples: int, top: int) -> np.ndarray:
    """e^{i l t} at t = 2 pi k / samples (rows k) for l = 0..top (columns),
    shared read-only through the cache."""
    ts = [2.0 * np.pi * k / samples for k in range(samples)]
    table = np.array([[cmath.exp(1j * ell * t) for ell in range(top + 1)] for t in ts])
    table.flags.writeable = False
    return table


def _proved_dead(top: float, S: float, n: int, ell: int, floor: float) -> bool:
    """Whether every power of degree ell + 1 .. n that the walk of
    ``check_hypotheses`` would compute (``tuples._levels`` up to degree
    n - 1, then each N_j N_j^(n-1) of ``_require_nilpotent``) is proved to
    have computed Frobenius norm at most ``floor``, given that the computed
    Frobenius norms of degree ell are at most ``top`` and
    S = max(1, max_j fl(||N_j||_F)).

    Proof. Let u be the unit roundoff and delta = 16 n^3 u the room of
    ``tuples.CommutingTuple``. A computed Frobenius norm is within the
    relative (n^2 + 2) u <= delta of the exact one, up to the squares and
    sums that underflow, which move the sum of squares by at most
    n^2 2^-1073 in all and so the norm by at most n 2^-536. Hence
    ||N_j||_2 <= ||N_j||_F <= (1 + delta) S, and each computed power of
    degree ell has ||P||_F <= (1 + delta)(top + n 2^-536). A power of
    degree m + 1 is computed as fl(N_j P) from a computed P of degree m,
    with |fl(N_j P) - N_j P| <= 2 gamma_(n+2) |N_j| |P| <= delta |N_j| |P|
    entrywise for complex data (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 3.6), and || |N_j| |P| ||_F <=
    ||N_j||_F ||P||_F, so ||fl(N_j P)||_F <= (1 + delta)^2 S ||P||_F. By
    induction a computed power of degree ell + k has Frobenius norm at most
    (1 + delta)^(2k + 1) (top + n 2^-536) S^k, and computed Frobenius norm at
    most (1 + delta)^(2k + 2) (top + n 2^-535) S^k, which for S >= 1 and
    k <= n - ell is at most (1 + delta)^(2n + 2) (top + n 2^-535) S^(n - ell).
    The test value is 2 (top + n 2^-535) S^(n - ell) rounded by at most
    n + 1 operations, so it is at least (1 - u)^(n + 1) times its exact
    value. When (2n + 2) delta <= 1/2, (1 + delta)^(2n + 2) <= e^(1/2) <
    1.65 <= 2 (1 - u)^(n + 1), so a test value at most ``floor`` bounds
    every one of those computed norms by ``floor``. The check costs one
    product per degree left; a product that overflows decides nothing.
    """
    if (2 * n + 2) * 16 * n**3 * tuples._UNIT_ROUNDOFF > 0.5:
        return False
    return 2.0 * (top + n * 2.0**-535) * math.prod([S] * (n - ell)) <= floor


def _grid_gamma(B: np.ndarray, B_inv: np.ndarray, labels: tuple) -> float:
    """max_k fl(||W_k||) over the M = ``GAMMA_GRID`` computed gauges
    W_k = fl(fl(B P_k) B_inv), P_k = diag(e^{i l t_k}) the computed phases
    of t_k = 2 pi k / M, bit for bit, from one stacked SVD of W_0 .. W_(M/2)
    (t in [0, pi]) and one more of only the W_k' (k' > M/2) that
    ``_paired_below`` cannot put under g, the computed maximum of the first
    half. Every gauge whose computed norm reaches g is factored, so the
    maximum is over a subset that holds the maximizer: the same float as
    over all M. Only the factored gauges are formed; each product stands
    alone in the stack, so a gauge has the same bits in any stack.
    """
    half = GAMMA_GRID // 2
    phases = _phases(GAMMA_GRID, labels[-1])[:, list(labels)]
    s = numerics.singular_values((B[None] * phases[: half + 1, None, :]) @ B_inv)
    gamma = float(s[:, 0].max())
    rest = np.flatnonzero(~_paired_below(B, B_inv, s, gamma)) + half + 1
    if rest.size:
        W = (B[None] * phases[rest, None, :]) @ B_inv
        gamma = max(gamma, float(numerics.operator_norms(W).max()))
    return gamma


def _paired_below(B: np.ndarray, B_inv: np.ndarray, s: np.ndarray, g: float) -> np.ndarray:
    """For k' = M/2 + 1 .. M - 1 (M = ``GAMMA_GRID``), whether the computed
    norm of the gauge W_k' of ``_grid_gamma`` is proved to be below g, from
    ``s``, the computed singular values of W_0 .. W_(M/2). A NaN proves
    nothing.

    Pairing. t -> Y_t = B diag(e^{i l t}) B^-1 is a group action and
    t_(M-k) = -t_k modulo 2 pi, so ||Y_(t_k')|| = 1/s_min(Y_(t_p)) with
    p = M - k'. For the computed factors let V_k = B P_k B_inv exactly,
    E = B_inv B - I, E' = B B_inv - I and Phi = P_k' P_p - I, so that

        V_k' V_p = I + F,   F = E' + B Phi B_inv + B P_k' E P_p B_inv,

    and ||V_k'|| <= (1 + ||F||) / s_min(V_p) wherever s_min(V_p) > 0.

    Rounding. The gauges are formed only for n >= 2 (a 1 x 1 layer basis
    is a unit vector), so delta = 16 n^3 u >= 128 u, with u the unit
    roundoff; delta is the room of ``tuples.CommutingTuple``, used as in
    ``_gauge_bounds``: a computed product of n x n matrices is within
    delta ||A|| ||B|| of AB, a computed Frobenius norm within the relative
    delta (underflow moves it by far less than delta^2), and each computed
    singular value of A within delta ||A|| of the exact one. t_k =
    fl(fl(2 fl(pi) k) / M) is within the relative 2u of 2 pi k / M, the
    angle fl(l t_k) within 19 n u of 2 pi l k / M (l <= n - 1), and
    cmath.exp returns its cosine and sine, each within an ulp: every
    computed phase is within 22 n u of e^{2 pi i l k / M}, so |p| <= 1 + delta
    and |Phi_ll| <= 45 n u <= delta. With the computed Frobenius norms b of
    B, b' of B_inv, e of the computed E and e' of the computed E', and
    h = 1 + delta:
    - kappa = b b' h >= ||B||_F ||B_inv||_F >= ||B|| ||B_inv||;
    - ||E|| <= eps = (e + delta kappa) h^2, ||E'|| <= eps' likewise (the
      product within delta kappa, the difference and its norm within the
      relative u and delta);
    - ||F|| <= f = eps' + delta kappa + h^2 kappa eps;
    - ||W_k - V_k|| <= eta = 2 delta kappa: fl(B P_k) is within the
      relative 3u of B P_k entrywise, and the product adds
      delta ||fl(B P_k)|| ||B_inv||;
    - with s_p and S_p the computed extreme singular values of W_p,
      ||W_p|| <= S_p / (1 - delta), so
      s_min(V_p) >= d = s_p - delta S_p / (1 - delta) - eta;
    - for d > 0 the computed ||W_k'|| is at most
      h (||V_k'|| + eta) <= h ((1 + f) / d + eta).

    So fl(||W_k'||) < g whenever d > 0 and 1 + f < d q with
    q = g / h - eta. The test takes den = fl(s_p - 2 (delta S_p + eta)),
    at most d when positive (its subtrahend exceeds the exact one by more
    than 0.9 delta S_p >= u s_p, the rounding of the difference), and
    q_c = fl(g (1 - 2 delta) - 2 eta), at most q when positive, and passes
    when q_c > 0 and fl(den q_c) > fl((1 + f) h) for the computed f. Then
    den > 0, fl(den q_c) <= (1 + u) d q, and the factor h >= 1 + 128 u
    covers the rounding of (1 + f) h, a dozen operations on non-negative
    numbers each within the relative u: d q > 1 + f.
    """
    n = len(B)
    delta = 16 * n**3 * tuples._UNIT_ROUNDOFF
    h = 1.0 + delta
    I = np.eye(n)
    kappa = _norm(B.ravel()) * _norm(B_inv.ravel()) * h
    eps = (_norm((B_inv @ B - I).ravel()) + delta * kappa) * h * h
    eps_ = (_norm((B @ B_inv - I).ravel()) + delta * kappa) * h * h
    f = eps_ + delta * kappa + h * h * kappa * eps
    eta = 2.0 * delta * kappa
    q = g * (1.0 - 2.0 * delta) - 2.0 * eta
    # the partners M - k' of k' = M/2 + 1 .. M - 1 are M/2 - 1 .. 1
    pair = s[GAMMA_GRID // 2 - 1 : 0 : -1]
    if not q > 0.0:
        return np.zeros(len(pair), dtype=bool)
    den = pair[:, -1] - 2.0 * (delta * pair[:, 0] + eta)
    return den * q > (1.0 + f) * h


def check_hypotheses(
    N: tuples.CommutingTuple,
    xi,
    tol: float = numerics.DEFAULT_TOL,
) -> NilsimHypotheses:
    """Measure (epsilon, gamma, L, card Xi) for a cyclic nilpotent tuple.

    The powers N^alpha come one degree at a time from ``tuples._levels``,
    as one stack per degree over the degrees 0..n-1, walked right after the
    commuting gate, with the Frobenius norms of each degree, which the
    support reads as well. The walk ends early in two ways:
    - at a degree whose powers all vanish identically (kept, as zeros): so
      do all deeper powers and every N_j^n;
    - at the first degree ell whose computed Frobenius norms are all at
      most tol and for which ``_proved_dead`` proves that every deeper
      computed power, each N_j^n of the nilpotency gate included, has
      computed Frobenius norm at most min(tol, ``NILPOTENT_RTOL``) (degree
      ell is not kept). No such power could enter the support, whose rule
      skips a Frobenius norm at most tol, or fail the nilpotency gate, whose
      threshold is at least ``NILPOTENT_RTOL``; so the support, epsilon and
      the verdict are those of the walk over every degree below n.
    The bound S of that proof is formed only at a degree whose norms are
    all at most tol, so a walk that dies exactly, as on every exact model,
    pays nothing for it. Only a walk alive at degree n - 1 runs
    ``_require_nilpotent``, which takes each N_j^n as N_j times the
    N_j^(n-1) of that degree.

    The orbit vectors N^alpha xi of the kept degrees are kept for the
    correspondence. A stopping degree lies past L, since degree L holds a
    support power, whose Frobenius norm exceeds tol; a model basis index at
    or past it gets a zero column in the correspondence, as one past a
    vanishing degree does.

    gamma is the largest gauge norm on a grid over [0, 2pi): one stacked
    SVD over [0, pi] and one over the gauges of (pi, 2pi) that the pairing
    Y_(-t) = Y_t^-1 cannot bound below the first maximum (``_grid_gamma``),
    and gamma_upper the bound that grid certifies (see
    ``NilsimHypotheses``); for orthonormal layers gamma is exactly 1. When
    the layers fail to span directly the gauge is reported as unavailable,
    not estimated.
    """
    N.require_commuting(tol)
    levels = []  # (keys, stack, Frobenius norms) per degree
    S = None
    for ell, (keys, stack) in zip(range(N.n), tuples._levels(N, np.eye(N.n, dtype=complex))):
        fros = np.linalg.norm(stack, axis=(1, 2)).tolist()
        if not stack.any():
            levels.append((keys, stack, fros))
            break  # all deeper powers are products with these and vanish too
        if all(f <= tol for f in fros):
            S = S or tuples._frobenius_bound(N)
            if _proved_dead(max(fros), S, N.n, ell, min(tol, NILPOTENT_RTOL)):
                break  # every deeper computed power is below tol (docstring)
        levels.append((keys, stack, fros))
    else:
        _require_nilpotent(N, levels[-1][:2])
    if not N.is_row_contraction(tol):
        raise ValidationError(
            f"row contraction defect {N.row_defect:.3e} exceeds tolerance"
        )
    xi = _require_unit(xi, N.n)
    kry = tuples.krylov(N, xi, N.n)
    if not kry.is_cyclic:
        raise ValidationError(
            f"vector is not cyclic: orbit spans {kry.basis.shape[1]} of {N.n} "
            f"dimensions"
        )

    support = []
    orbit = {}
    eps = 0.0
    root_n = math.sqrt(N.n)
    for ell, (keys, stack, fros) in enumerate(levels):
        vecs = stack @ xi
        orbit.update(zip(keys, vecs))
        weights = tuples._weight_table(N.d, ell)
        # Frobenius norms, only compared with tol: they dominate the
        # spectral norms
        for i, fro in enumerate(fros):
            if fro <= tol or (fro <= tol * root_n and numerics.operator_norm(stack[i]) <= tol):
                continue
            support.append(keys[i])
            eps = max(eps, 1.0 - weights[keys[i]] * _norm(vecs[i]) ** 2)
    eps = max(eps, 0.0)
    L = max(mi.degree(a) for a in support)

    layer_basis = None
    labels = ()
    B_inv = None
    gamma = None
    gamma_upper = None
    if kry.layers_direct:
        layer_basis = np.hstack(kry.layer_bases)
        labels = tuple(
            ell for ell, B in enumerate(kry.layer_bases) for _ in range(B.shape[1])
        )
        gram_defect = numerics.operator_norm(
            layer_basis.conj().T @ layer_basis - np.eye(layer_basis.shape[1])
        )
        if gram_defect <= 1e-12:
            # orthonormal layers make every W_t an isometry, so the supremum
            # is 1 without any grid search
            gamma = 1.0
            gamma_upper = (1.0 + gram_defect) * (1.0 + BOUND_SLACK)
            B_inv = layer_basis.conj().T
        else:
            B_inv = numerics.inv(layer_basis)
            gamma = _grid_gamma(layer_basis, B_inv, labels)
            # between grid points the gauge norm moves by at most
            # (pi / M)(Lmax / 2) gamma* (Bernstein); the labels end at Lmax
            drift = np.pi * labels[-1] / (2.0 * GAMMA_GRID)
            if drift < 1.0:
                gamma_upper = gamma * (1.0 + BOUND_SLACK) / (1.0 - drift)

    return NilsimHypotheses(
        xi=xi,
        support=tuple(support),
        card=len(support),
        L=L,
        epsilon=eps,
        layers_direct=kry.layers_direct,
        layer_dims=kry.layer_dims,
        gamma=gamma,
        gamma_upper=gamma_upper,
        _layer_basis=layer_basis,
        _layer_labels=labels,
        _layer_basis_inv=B_inv,
        _orbit=orbit,
    )


def _annihilator_matches_ideal(
    N: tuples.CommutingTuple,
    generators,
    model: models.ModelTuple,
) -> bool:
    gens = [mi.as_index(g) for g in generators]
    box_degree = max((mi.degree(b) for b in model.basis_indices), default=0)
    D = max(box_degree + 1, max(mi.degree(g) for g in gens))
    basis, A = tuples.annihilator_coeffs(N, D)
    # for monomial generators the degree slice is the span of the divisible
    # monomials, the coordinate subspace of those outside the model basis
    comp = set(model.basis_indices)
    in_ideal = np.array([b not in comp for b in basis])
    k = int(in_ideal.sum())
    if A.shape[1] == 0:
        return k == 0
    if A.shape[1] != k:
        return False
    E = np.eye(len(basis), dtype=complex)[:, in_ideal]
    return numerics.subspace_equal(numerics.orth_columns(A), E)


def correspondence_similarity(
    N: tuples.CommutingTuple,
    xi,
    generators,
) -> tuple:
    """X mapping sqrt(w_a) N^a xi to the model basis vectors, ungated.

    Returns (X, model, residual). This is the raw change of basis behind
    the similarity theorem; it exists whenever the weighted orbit is a
    basis, regardless of whether the quantitative hypotheses hold, so the
    norm bounds attached to the certificate do not apply to it. A singular
    orbit matrix means the ideal is wrong and raises ValidationError.
    """
    model = _model_on(N, generators)
    xi = _require_unit(xi, N.n)
    cache = tuples._power_cache(N, max(mi.degree(b) for b in model.basis_indices))
    orbit = {beta: cache[beta] @ xi for beta in model.basis_indices}
    X, _, residual = _correspondence(N, orbit, model)
    return X, model, residual


def _model_on(N: tuples.CommutingTuple, generators) -> models.ModelTuple:
    """The monomial model of the ideal, refused unless it acts on C^n."""
    model = models.monomial_model(generators, N.d)
    if model.dim != N.n:
        raise ValidationError(
            f"tuple acts on dimension {N.n} but the ideal complement has "
            f"dimension {model.dim}"
        )
    return model


def _correspondence(N: tuples.CommutingTuple, orbit: dict, model: models.ModelTuple) -> tuple:
    """(X, U, residual) with U the weighted orbit matrix and X = U^-1.
    ``orbit`` maps alpha to N^alpha xi; an index it lacks lies past a degree
    at which every power of N vanishes, so its column is zero."""
    zero = np.zeros(N.n, dtype=complex)
    basis = model.basis_indices
    roots = [math.sqrt(tuples._weight_table(N.d, mi.degree(beta))[beta]) for beta in basis]
    U = np.multiply(np.array([orbit.get(beta, zero) for beta in basis]).T, roots, order="C")
    try:
        X = numerics.inv(U)
    except NumericalError as exc:
        raise ValidationError(
            "the weighted orbit over the model basis is not a basis: "
            "its matrix is singular"
        ) from exc
    # the d residuals X N_j U - Z_j as one stack: one SVD call
    Ns, Zs = np.array(N.matrices), np.array(model.tuple.matrices)
    residual = float(numerics.operator_norms(X @ Ns @ U - Zs).max())
    return X, U, residual


@dataclass(frozen=True)
class SimilarityCertificate:
    X: np.ndarray
    X_inv: np.ndarray
    model: models.ModelTuple
    hypotheses: NilsimHypotheses
    norm_X: float
    norm_X_inv: float
    cond: float
    bound_X: float
    # the bound with gamma_upper for gamma, None when that is vacuous
    bound_X_certified: float | None
    bound_X_inv: float
    bounds_hold: bool
    residual: float


def _within(value: float, tol: float, factor: float, N: tuples.CommutingTuple) -> bool:
    """Whether value <= tol * max(1, scale) * factor, the coordinate norms
    behind scale measured only when value <= tol * factor does not decide.
    Rounding is monotone, so fl(tol max(1, scale)) >= tol, and for
    factor >= 0 and a finite scale fl(tol factor) is at most the measured
    threshold: the screen passes only what the measurement passes. A NaN
    value or factor fails both comparisons, as it fails the measured one."""
    return value <= tol * factor or value <= tol * max(1.0, N.scale()) * factor


def build_similarity(
    N: tuples.CommutingTuple,
    xi,
    generators,
    tol: float = numerics.DEFAULT_TOL,
) -> SimilarityCertificate:
    """Certified similarity X N_j X^{-1} = Z_j onto the monomial model.

    Requires the annihilator of N to match the monomial ideal, the
    hypotheses to be admissible (epsilon card Xi < 1 and a direct layer
    decomposition), and the conjugation residual to be at rounding level;
    the returned norms are checked against the theorem bounds.

    The residual gate implies the annihilator condition: X N_j X^{-1} = Z_j
    gives p(N) = X^{-1} p(Z) X, so p(N) = 0 exactly when p(Z) = 0, and
    correspondence_similarity has already matched the dimensions. The
    annihilator is therefore computed only when the residual gate fails,
    where it tells a wrong ideal (ValidationError) from an ill-conditioned
    correspondence (NumericalError).

    One SVD of X gives every norm the certificate reports: ||X|| is the
    largest singular value s_max and ||X^-1|| = 1/s_min, since the singular
    values of X^-1 are the reciprocals of those of X; cond is their product.
    X^-1 itself is the orbit matrix U that X inverts, so no inverse is
    taken here.
    """
    hyps = check_hypotheses(N, xi, tol=tol)
    model = _model_on(N, generators)
    X, X_inv, residual = _correspondence(N, hyps._orbit, model)
    norm_X, norm_X_inv = numerics.norm_and_inverse_norm(X)
    cond = norm_X * norm_X_inv
    intertwines = _within(residual, RESIDUAL_RTOL, cond, N)
    if not intertwines and not _annihilator_matches_ideal(N, generators, model):
        raise ValidationError(
            "annihilator of the tuple does not match the monomial ideal"
        )
    if not hyps.layers_direct:
        raise ValidationError(
            "homogeneous layers of the orbit are not a direct sum; the gauge "
            "hypothesis fails"
        )
    if hyps.epsilon * hyps.card >= 1.0:
        raise ValidationError(
            f"epsilon card Xi = {hyps.epsilon * hyps.card:.6g} >= 1; the "
            f"similarity bounds do not apply"
        )
    if not intertwines:
        raise NumericalError(
            f"conjugation residual {residual:.3e} is too large; the "
            f"correspondence matrix is unreliable"
        )
    root = math.sqrt(1.0 - hyps.epsilon * hyps.card)
    bound_X = (hyps.L + 1) * hyps.gamma / root
    bound_X_certified = (
        None if hyps.gamma_upper is None else (hyps.L + 1) * hyps.gamma_upper / root
    )
    bound_X_inv = float(hyps.L + 1)
    holds = (
        norm_X <= bound_X * (1.0 + BOUND_SLACK)
        and norm_X_inv <= bound_X_inv * (1.0 + BOUND_SLACK)
    )
    return SimilarityCertificate(
        X=X,
        X_inv=X_inv,
        model=model,
        hypotheses=hyps,
        norm_X=norm_X,
        norm_X_inv=norm_X_inv,
        cond=cond,
        bound_X=bound_X,
        bound_X_certified=bound_X_certified,
        bound_X_inv=bound_X_inv,
        bounds_hold=holds,
        residual=residual,
    )


def _gauge_stack(degrees: list) -> np.ndarray:
    """The gauges W_t of ``models.gauge_unitary`` at the sample points, as
    one stack of diagonals, for a model basis of these degrees (graded)."""
    n = len(degrees)
    W = np.zeros((NECESSITY_GAUGE_SAMPLES, n * n), dtype=complex)
    W[:, :: n + 1] = _phases(NECESSITY_GAUGE_SAMPLES, degrees[-1])[:, degrees]
    return W.reshape(-1, n, n)


@dataclass(frozen=True, eq=False)
class _GaugeSamples:
    """The transported gauges Y_t = X_inv W_t X at the sample points t_k =
    2 pi k / ``NECESSITY_GAUGE_SAMPLES``, with Y_inv the stack of
    X_inv W_t^* X, and their two sampled values, each measured on first read
    by one stacked SVD."""

    X: np.ndarray
    X_inv: np.ndarray
    W: np.ndarray
    Ns: np.ndarray
    Y_inv: np.ndarray

    @functools.cached_property
    def Y(self) -> np.ndarray:
        return self.X_inv @ self.W @ self.X

    @functools.cached_property
    def norm_max(self) -> float:
        """The largest ||Y_t||."""
        return float(numerics.operator_norms(self.Y).max())

    @functools.cached_property
    def commute_defect(self) -> float:
        """The largest ||Y_t N_j Y_inv_t - e^{it} N_j||, over t and j."""
        Ns = self.Ns
        phases = _phases(NECESSITY_GAUGE_SAMPLES, 1)[:, 1]
        D = self.Y[:, None] @ Ns[None] @ self.Y_inv[:, None] - phases[:, None, None, None] * Ns[None]
        return float(numerics.operator_norms(D.reshape(-1, *Ns.shape[1:])).max())


def _gauge_bounds(X, X_inv, norm_X: float, norm_X_inv: float, cond: float, resid: float) -> tuple:
    """(G, C): proved bounds, for every real t, on ||Y_t|| and on
    max_j ||Y_t N_j Y'_t - e^{it} N_j||, with Y_t = X_inv W_t X,
    Y'_t = X_inv W_t^* X and W_t the model gauge, which bound the sampled
    values of ``necessity_check`` as computed as well. Both are inf when
    the rounding room theta below exceeds 1/4.

    Exact identities. Let E = X_inv X - I and E' = X X_inv - I, so that
    X_inv = (I + E) X^-1, and R_j = X N_j - Z_j X. W_t is diagonal and
    unitary, and the model is graded, so W_t Z_j W_t^* = e^{it} Z_j. Then
    ||Y_t|| <= ||X_inv|| ||X|| <= (1 + ||E||) ||X^-1|| ||X||, and
    X N_j X_inv = Z_j (I + E') + R_j X_inv, X_inv Z_j X = N_j + E N_j - X_inv R_j
    give

        Y_t N_j Y'_t - e^{it} N_j = e^{it} (E N_j - X_inv R_j)
            + X_inv W_t Z_j E' W_t^* X + X_inv W_t R_j X_inv W_t^* X.

    Z_j is a weighted partial permutation whose entries are square roots of
    correctly rounded quotients at most 1, so ||Z_j|| <= 1, and
    N_j = X^-1 (Z_j X + R_j) gives ||N_j|| <= ||X^-1|| (||X|| + ||R_j||).

    Rounding. With u the unit roundoff and delta = 16 n^3 u, the room of
    ``tuples.CommutingTuple``: a computed product of n x n matrices is
    within n gamma_(n+2) ||A|| ||B|| <= delta ||A|| ||B|| of AB in the
    2-norm (|fl(AB) - AB| <= gamma_(n+2) |A| |B| for complex data, and
    || |A| ||_2 <= ||A||_F <= sqrt(n) ||A||_2; Higham, *Accuracy and
    Stability of Numerical Algorithms*, sections 3.5-3.6), a computed sum
    or difference within delta times its norm, a computed Frobenius norm
    within the relative delta, and each computed singular value within
    delta ||A|| of the exact one (backward stability and Weyl's
    inequality). The sampled phases are e^{i l t} for the computed t, each
    within the relative 8 n u <= delta / 2 (the rounded product l t and the
    rounded cos and sin).

    With a = ``norm_X``, b = ``norm_X_inv`` (from one SVD of X),
    c = ``cond``, r = ``resid``, e and e' the computed Frobenius norms of the
    computed E and E', and h = 1 + theta with theta = 4 delta (1 + c) <= 1/4:
    - ||X|| <= a / (1 - delta) <= a h, and ||X^-1|| = 1/s_min(X) <= b h,
      since s_min(X) >= s_min - delta ||X|| with s_min the computed one;
      so kappa = ||X|| ||X^-1|| <= K = c h^3.
    - ||E|| <= e (1 + delta)^2 + delta ||X_inv|| ||X|| and
      ||X_inv|| ||X|| <= (1 + ||E||) kappa, so ||E|| <= eps = (e + delta K) h^2
      (delta K <= theta / 2); likewise ||E'|| <= eps' = (e' + delta K) h^2.
      Then ||X_inv|| ||X|| <= y = (1 + eps) K.
    - The computed R_j is within delta ||X|| (||N_j|| + 1) + 2 delta r of R_j,
      so with the bound on ||N_j|| above, ||N_j|| <= m = (K + b h r) h and
      ||R_j|| <= rho = r h + delta a h (m + 1).

    Gauge. ||Y_t|| <= y for every t. A computed sample is within 3 delta y
    of the exact Y_t of its computed t (two products, the phases), and its
    computed norm at most (1 + delta) times its norm, so

        G = y h^2 >= max(||Y_t||, sampled norm).

    Commutator. The identity bounds the defect for every t by

        D = eps m + (1 + eps) b h rho + (1 + eps) eps' K + (1 + eps)^2 K b h rho.

    A computed sample differs from it by at most 10 delta (1 + y^2) m: 6 delta
    y^2 m from the computed Y_t and Y'_t (within 3 delta y each, with
    ||Y_t N_j|| <= y m), 2 delta y^2 m from the two products of the sample,
    2 delta m from the rounded phase and its product with N_j, and
    delta (1 + y^2) m from the subtraction; the terms of order delta^2 fit
    in the coefficients, each rounded up. Its computed norm is at most
    (1 + delta) times its norm, so

        C = (D + 10 delta (1 + y^2) m) h^2 >= max(defect, sampled defect).

    The last factor h in G and C covers the rounding of their own
    evaluation: a few dozen operations on non-negative numbers, each within
    the relative u, against theta > 7 delta >= 112 u (c >= 1 up to
    rounding). So a computed bound within a gate's computed threshold proves
    that every sampled value lies within it too.
    """
    n = len(X)
    delta = 16 * n**3 * tuples._UNIT_ROUNDOFF
    theta = 4.0 * delta * (1.0 + cond)
    if not theta <= 0.25:  # refuses a non-finite cond as well
        return np.inf, np.inf
    I = np.eye(n)
    e = _norm((X_inv @ X - I).ravel())
    e_ = _norm((X @ X_inv - I).ravel())
    h = 1.0 + theta
    K = cond * h**3
    eps = (e + delta * K) * h**2
    eps_ = (e_ + delta * K) * h**2
    y = (1.0 + eps) * K
    bh = norm_X_inv * h
    m = (K + bh * resid) * h
    rho = resid * h + delta * norm_X * h * (m + 1.0)
    D = eps * m + (1.0 + eps) * bh * rho + (1.0 + eps) * eps_ * K + (1.0 + eps) ** 2 * K * bh * rho
    return y * h**2, (D + 10.0 * delta * (1.0 + y * y) * m) * h**2


@dataclass(frozen=True)
class NecessityReport:
    """The outcome of ``necessity_check``.

    ``gauge_norm_bound`` and ``gauge_commute_bound`` are the proved bounds
    of ``_gauge_bounds``: they hold for every t. ``gauge_decided_by`` is
    "proof" when they decide the gauge-norm and commutator gates, and
    "samples" when the gates read the sampled values instead.
    ``gauge_norm_max`` and ``gauge_commute_defect`` are the largest values
    at the ``NECESSITY_GAUGE_SAMPLES`` sample points, measured on first read
    (one stacked SVD each) unless the samples already decided.
    """

    ok: bool
    cond: float
    intertwine_residual: float
    xi: np.ndarray
    orbit_floor: float
    worst_orbit_margin: float
    per_alpha: tuple
    gauge_ok: bool
    gauge_fix_defect: float
    gauge_norm_bound: float
    gauge_commute_bound: float
    gauge_decided_by: str
    _samples: _GaugeSamples = field(repr=False, compare=False)

    @property
    def gauge_norm_max(self) -> float:
        return self._samples.norm_max

    @property
    def gauge_commute_defect(self) -> float:
        return self._samples.commute_defect


def necessity_check(
    N: tuples.CommutingTuple,
    X,
    generators,
    xi=None,
) -> NecessityReport:
    """Consequences any intertwiner X N_j X^{-1} = Z_j must satisfy.

    From X alone: the normalized xi = X^{-1} 1 is cyclic, the transported
    gauge Y_t = X^{-1} W_t X has norm at most cond(X), conjugates N to
    e^{it} N while fixing xi, and every surviving weighted orbit norm is
    at least 1 / cond(X)^2.

    The gauge norm and the conjugation defect are decided for every t by
    the bounds of ``_gauge_bounds``, read off the residual, the norms of X
    and two products; only when a bound misses its gate do the gates read
    the ``NECESSITY_GAUGE_SAMPLES`` sampled gauges instead. A bound bounds
    the sampled value too, so the gates decide as the samples would. The
    fixed-vector defect ||Y'_t xi - xi|| is always measured at the samples.
    """
    model = _model_on(N, generators)
    X = numerics.as_cmatrix(X)
    if X.shape != (N.n, N.n):
        raise InputError(f"intertwiner has shape {X.shape}, expected ({N.n}, {N.n})")
    X_inv = numerics.inv(X)
    norm_X, norm_X_inv = numerics.norm_and_inverse_norm(X)
    Ns, Zs = np.array(N.matrices), np.array(model.tuple.matrices)
    resid = float(numerics.operator_norms(X @ Ns - Zs @ X).max())
    if not _within(resid, NECESSITY_TOL, norm_X, N):
        raise ValidationError(
            f"matrix does not intertwine the tuple with the model "
            f"(residual {resid:.3e})"
        )
    if xi is None:
        v = X_inv @ model.cyclic
        xi = v / np.linalg.norm(v)
    else:
        xi = _require_unit(xi, N.n)
    cond = norm_X * norm_X_inv
    # The survival floor: w |N^a xi|^2 = w |X^-1 Z^a 1|^2 / |X^-1 1|^2 with
    # |X^-1 Z^a 1| >= |Z^a 1| / |X| and |X^-1 1| <= |X^-1|, so the provable
    # constant is 1/cond^2. It is attained: scaling the model by s makes
    # every orbit norm s^(2|a|) with cond(X) = s^(-L).
    floor = 1.0 / cond**2

    degrees = [mi.degree(b) for b in model.basis_indices]
    cache = tuples._power_cache(N, degrees[-1])
    per_alpha = []
    worst = np.inf
    for beta, ell in zip(model.basis_indices, degrees):
        val = tuples._weight_table(N.d, ell)[beta] * _norm(cache[beta] @ xi) ** 2
        per_alpha.append((beta, val))
        worst = min(worst, val - floor)
    orbit_ok = worst >= -NECESSITY_TOL

    W = _gauge_stack(degrees)
    Y_inv = X_inv @ np.swapaxes(W.conj(), -1, -2) @ X
    fix = max(_norm(Yi @ xi - xi) for Yi in Y_inv)
    samples = _GaugeSamples(X, X_inv, W, Ns, Y_inv)
    norm_bound, commute_bound = _gauge_bounds(X, X_inv, norm_X, norm_X_inv, cond, resid)

    def gates(norm, commute):
        return norm <= cond * (1.0 + NECESSITY_TOL) and _within(commute, NECESSITY_TOL, max(1.0, cond), N)

    proved = gates(norm_bound, commute_bound)
    gauge_ok = (
        (proved or gates(samples.norm_max, samples.commute_defect))
        and fix <= NECESSITY_TOL * max(1.0, cond)
    )
    return NecessityReport(
        ok=bool(orbit_ok and gauge_ok),
        cond=cond,
        intertwine_residual=resid,
        xi=xi,
        orbit_floor=floor,
        worst_orbit_margin=float(worst),
        per_alpha=tuple(per_alpha),
        gauge_ok=bool(gauge_ok),
        gauge_fix_defect=fix,
        gauge_norm_bound=norm_bound,
        gauge_commute_bound=commute_bound,
        gauge_decided_by="proof" if proved else "samples",
        _samples=samples,
    )


@dataclass(frozen=True)
class LemmaSection:
    name: str
    ran: bool
    worst_slack: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class LemmaCheckReport:
    epsilon: float
    sections: tuple

    @property
    def ok(self) -> bool:
        return all(s.passed for s in self.sections if s.ran)


def _section(name: str, worst: float, limit: float, skipped: str) -> LemmaSection:
    """The verdict worst <= limit; a worst slack of -inf, where nothing
    qualified, skips the section with the note ``skipped``."""
    if worst == -np.inf:
        return LemmaSection(name, False, 0.0, True, skipped)
    return LemmaSection(name, True, worst, worst <= limit)


def lemma_checks(
    T: tuples.CommutingTuple,
    xi,
    epsilon: float,
) -> LemmaCheckReport:
    """The orbit inequalities behind the similarity theorem, each decided
    for every coefficient vector.

    On each degree l, Q is the set of indices a with |a| = l whose weighted
    orbit norm w_a |T^a xi|^2 (w_a = |a|!/a!) is at least 1 - epsilon, and
    G_ab = sqrt(w_a w_b) <T^a xi, T^b xi> the weighted Gram of their orbit
    vectors, so that h = sum_a c_a sqrt(w_a) T^a xi has |h|^2 = c^* G c.

    ``same_length_orthogonality`` reads the worst off-diagonal slack
    w_l = max |G_ab| - epsilon over the pairs a != b of Q on each level,
    and passes when no level exceeds ``LEMMA_TOL``.

    ``same_length_lower_bound`` is (1 - epsilon |S|) |c|^2 <= |h|^2 for
    every S in Q and every c supported on S. The diagonal of G_S is at
    least 1 - epsilon and its off-diagonal entries are at most
    epsilon + w_l in modulus, so by Gershgorin every eigenvalue of G_S is
    at least 1 - epsilon - (|S| - 1)(epsilon + w_l). For a unit c the
    failure (1 - epsilon |S|) - |h|^2 is therefore at most
    (|S| - 1) w_l <= (|Q| - 1) max(w_l, 0), and the section reports the
    largest of these bounds over the levels; a single index is exact. Level
    0 is xi alone, which ``_require_unit`` made a unit vector, so it
    qualifies at every epsilon >= 0, whatever the last bit of its computed
    norm, and the section always runs.

    ``two_sided_equivalence`` is lower |c|^2 <= |h|^2 <= (L + 1) |c|^2
    over the support Xi of ``check_hypotheses`` (read for the caller's
    vector, as ``build_similarity`` reads it), with
    lower = (1 - e card) / ((L + 1) gamma^2) and e the larger of epsilon
    and the measured one. Over unit c, |h|^2 ranges exactly over
    [lambda_min, lambda_max] of the card x card weighted orbit Gram: one
    eigensolve. It needs the nilpotent gauge hypotheses; without them the
    section is reported as skipped, not failed.
    """
    T.require_commuting()
    if not T.is_row_contraction(numerics.DEFAULT_TOL):
        raise ValidationError(
            f"row contraction defect {T.row_defect:.3e} exceeds tolerance"
        )
    unit = _require_unit(xi, T.n)
    if not 0 <= epsilon < np.inf:  # refuses nan as well
        raise InputError(f"epsilon must be a finite number >= 0, got {epsilon}")

    # {a: sqrt(w_a) T^a xi}, one stacked matvec per degree below n
    orbit = {}
    orthogonality, lower_bound = -np.inf, 0.0
    for ell, (keys, stack) in zip(range(T.n), tuples._levels(T, unit[:, None])):
        table = tuples._weight_table(T.d, ell)
        weights = np.array([table[a] for a in keys], dtype=float)
        V = stack[:, :, 0]
        H = V * np.sqrt(weights)[:, None]
        orbit.update(zip(keys, H))
        if ell == 0:
            continue  # xi alone: a single index, which qualifies
        # w_a |T^a xi|^2 with the vector norm of T^a xi itself
        Hq = H[weights * np.array([np.linalg.norm(v) for v in V]) ** 2 >= 1.0 - epsilon]
        k = len(Hq)
        if k > 1:
            G = Hq.conj() @ Hq.T
            w = float(np.abs(G[~np.eye(k, dtype=bool)]).max()) - epsilon
            orthogonality = max(orthogonality, w)
            lower_bound = max(lower_bound, (k - 1) * max(w, 0.0))
    sections = (
        _section("same_length_orthogonality", orthogonality, LEMMA_TOL, "no qualifying pair at this epsilon"),
        LemmaSection("same_length_lower_bound", True, lower_bound, lower_bound <= LEMMA_TOL),
    )

    try:
        hyps = check_hypotheses(T, xi)
    except (ValidationError, NumericalError) as exc:
        skipped = f"hypotheses unavailable: {exc}"
    else:
        skipped = None if hyps.gamma is not None else "layers are not a direct sum; gauge unverified"
    if skipped is not None:
        two_sided = _section("two_sided_equivalence", -np.inf, 0.0, skipped)
        return LemmaCheckReport(epsilon=epsilon, sections=(*sections, two_sided))
    eps_eff = max(epsilon, hyps.epsilon)
    lower_factor = (1.0 - eps_eff * hyps.card) / ((hyps.L + 1) * hyps.gamma**2)
    H = np.array([orbit[a] for a in hyps.support])
    lam = numerics.hermitian_part_eig(H.conj() @ H.T)[0]
    worst = max(lower_factor - float(lam[0]), float(lam[-1]) - (hyps.L + 1))
    note = f"evaluated at epsilon = {eps_eff:.6g}"
    if lower_factor <= 0:
        note += "; lower bound vacuous (epsilon card Xi >= 1)"
    two_sided = LemmaSection("two_sided_equivalence", True, worst, worst <= LEMMA_TOL * (hyps.L + 1), note)
    return LemmaCheckReport(epsilon=epsilon, sections=(*sections, two_sided))
