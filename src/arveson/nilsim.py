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
1/cond(X) on every weighted orbit norm.
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
LEMMA_SAMPLES = 100
LEMMA_TOL = 1e-10


@dataclass(frozen=True)
class NilsimHypotheses:
    """Measured hypothesis data for the similarity theorem.

    epsilon is the worst defect 1 - (|a|!/a!) ||N^a xi||^2 over the support
    Xi = {a : N^a != 0} (the zero index included), L the top degree in Xi.
    gamma is the norm of the layer gauge Y_t = B diag(e^{i l t}) B^-1
    maximized over the ``GAMMA_GRID`` points t_k = 2 pi k / M (M =
    ``GAMMA_GRID``), available only when the homogeneous layers span
    directly; with orthonormal layers it is exactly 1. A grid maximum is an
    estimate from below of the supremum gamma* = sup_t ||Y_t||.

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
    # power vanishes identically
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


def _require_unit(xi, n: int) -> np.ndarray:
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.size != n:
        raise InputError(f"vector has size {xi.size}, expected {n}")
    nrm = float(np.linalg.norm(xi))
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


def check_hypotheses(
    N: tuples.CommutingTuple,
    xi,
    tol: float = numerics.DEFAULT_TOL,
) -> NilsimHypotheses:
    """Measure (epsilon, gamma, L, card Xi) for a cyclic nilpotent tuple.

    The powers N^alpha come one degree at a time from ``tuples._levels``,
    as one stack per degree over the degrees 0..n-1, walked right after the
    commuting gate. If every power of some degree vanishes identically, so
    does every N_j^n, and the nilpotency gate is read from the walk; otherwise
    ``_require_nilpotent`` takes each N_j^n as N_j times the N_j^(n-1) of the
    walk's last degree. The orbit vectors N^alpha xi are kept for the
    correspondence. gamma is the largest gauge norm on a grid over
    [0, 2pi) (one stacked SVD), and gamma_upper the bound that grid
    certifies (see ``NilsimHypotheses``); for orthonormal layers gamma is
    exactly 1. When the layers fail to span directly the gauge is reported
    as unavailable, not estimated.
    """
    N.require_commuting(tol)
    levels = []
    for _, level in zip(range(N.n), tuples._levels(N, np.eye(N.n, dtype=complex))):
        levels.append(level)
        if not level[1].any():
            break  # all deeper powers are products with these and vanish too
    else:
        _require_nilpotent(N, levels[-1])
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
    for ell, (keys, stack) in enumerate(levels):
        vecs = stack @ xi
        orbit.update(zip(keys, vecs))
        weights = tuples._weight_table(N.d, ell)
        # Frobenius norms, only compared with tol: they dominate the
        # spectral norms
        fros = np.linalg.norm(stack, axis=(1, 2)).tolist()
        for i, fro in enumerate(fros):
            if fro <= tol or (fro <= tol * root_n and numerics.operator_norm(stack[i]) <= tol):
                continue
            support.append(keys[i])
            eps = max(eps, 1.0 - weights[keys[i]] * float(np.linalg.norm(vecs[i])) ** 2)
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
            phases = _phases(GAMMA_GRID, labels[-1])[:, list(labels)]
            W = (layer_basis[None] * phases[:, None, :]) @ B_inv
            gamma = float(numerics.operator_norms(W).max())
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
    W = np.zeros((NECESSITY_GAUGE_SAMPLES, n, n), dtype=complex)
    W[:, range(n), range(n)] = _phases(NECESSITY_GAUGE_SAMPLES, degrees[-1])[:, degrees]
    return W


@dataclass(frozen=True)
class NecessityReport:
    ok: bool
    cond: float
    intertwine_residual: float
    xi: np.ndarray
    orbit_floor: float
    worst_orbit_margin: float
    per_alpha: tuple
    gauge_ok: bool
    gauge_norm_max: float
    gauge_commute_defect: float
    gauge_fix_defect: float


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
        val = tuples._weight_table(N.d, ell)[beta] * float(np.linalg.norm(cache[beta] @ xi)) ** 2
        per_alpha.append((beta, val))
        worst = min(worst, val - floor)
    orbit_ok = worst >= -NECESSITY_TOL

    # every sample at once: one SVD call for the gauges Y_t, one for the
    # commutator defects Y_t N_j Y_t^-1 - e^{it} N_j
    ts = [2.0 * np.pi * k / NECESSITY_GAUGE_SAMPLES for k in range(NECESSITY_GAUGE_SAMPLES)]
    W = _gauge_stack(degrees)
    Y = X_inv @ W @ X
    Y_inv = X_inv @ np.swapaxes(W.conj(), -1, -2) @ X
    gauge_norm = float(numerics.operator_norms(Y).max())
    phases = np.array([cmath.exp(1j * t) for t in ts])
    D = Y[:, None] @ Ns[None] @ Y_inv[:, None] - phases[:, None, None, None] * Ns[None]
    commute = float(numerics.operator_norms(D.reshape(-1, N.n, N.n)).max())
    fix = max(float(np.linalg.norm(Yi @ xi - xi)) for Yi in Y_inv)
    gauge_ok = (
        gauge_norm <= cond * (1.0 + NECESSITY_TOL)
        and _within(commute, NECESSITY_TOL, max(1.0, cond), N)
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
        gauge_norm_max=gauge_norm,
        gauge_commute_defect=commute,
        gauge_fix_defect=fix,
    )


@dataclass(frozen=True)
class LemmaSection:
    name: str
    ran: bool
    samples: int
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


def lemma_checks(
    T: tuples.CommutingTuple,
    xi,
    epsilon: float,
    seed: int = 0,
) -> LemmaCheckReport:
    """Numerical witnesses for the orbit inequalities.

    Checks, on the qualifying index sets of the given tuple: near
    orthogonality of same-length orbit vectors, the same-length lower
    bound on random coefficient vectors, and (when the tuple is nilpotent
    with a direct layer gauge) the two-sided norm equivalence on the full
    support. Sections whose hypotheses the tuple does not meet are
    reported as skipped, not failed.
    """
    T.require_commuting()
    if not T.is_row_contraction(numerics.DEFAULT_TOL):
        raise ValidationError(
            f"row contraction defect {T.row_defect:.3e} exceeds tolerance"
        )
    unit = _require_unit(xi, T.n)
    if not 0 <= epsilon < np.inf:  # refuses nan as well
        raise InputError(f"epsilon must be a finite number >= 0, got {epsilon}")
    rng = np.random.default_rng(seed)
    cache = tuples._power_cache(T, max(T.n - 1, 0))
    orbit = {a: P @ unit for a, P in cache.items()}
    weighted = {
        a: mi.multinomial_weight(a) * float(np.linalg.norm(v)) ** 2
        for a, v in orbit.items()
    }
    by_level = {}
    for a in cache:
        by_level.setdefault(mi.degree(a), []).append(a)

    sections = []

    # same-length near orthogonality on qualifying pairs
    worst = -np.inf
    pairs = 0
    for ell, idxs in by_level.items():
        Q = [a for a in idxs if weighted[a] >= 1.0 - epsilon]
        for i in range(len(Q)):
            for j in range(i + 1, len(Q)):
                a, b = Q[i], Q[j]
                w = math.sqrt(mi.multinomial_weight(a) * mi.multinomial_weight(b))
                val = w * abs(complex(np.vdot(orbit[b], orbit[a])))
                worst = max(worst, val - epsilon)
                pairs += 1
    sections.append(
        LemmaSection(
            name="same_length_orthogonality",
            ran=pairs > 0,
            samples=pairs,
            worst_slack=float(worst) if pairs else 0.0,
            passed=bool(pairs == 0 or worst <= LEMMA_TOL),
            note="" if pairs else "no qualifying pair at this epsilon",
        )
    )

    # same-length lower bound on random supported coefficients
    worst = -np.inf
    runs = 0
    for ell, idxs in by_level.items():
        Q = [a for a in idxs if weighted[a] >= 1.0 - epsilon]
        if not Q:
            continue
        for _ in range(max(1, LEMMA_SAMPLES // max(1, len(by_level)))):
            mask = rng.random(len(Q)) < 0.7
            if not mask.any():
                mask[rng.integers(len(Q))] = True
            S = [a for a, m_ in zip(Q, mask) if m_]
            c = rng.standard_normal(len(S)) + 1j * rng.standard_normal(len(S))
            h = sum(
                cv * math.sqrt(mi.multinomial_weight(a)) * orbit[a]
                for cv, a in zip(c, S)
            )
            lhs = (1.0 - epsilon * len(S)) * float(np.vdot(c, c).real)
            rhs = float(np.vdot(h, h).real)
            worst = max(worst, lhs - rhs)
            runs += 1
    sections.append(
        LemmaSection(
            name="same_length_lower_bound",
            ran=runs > 0,
            samples=runs,
            worst_slack=float(worst) if runs else 0.0,
            passed=bool(runs == 0 or worst <= LEMMA_TOL * max(1.0, abs(worst) + 1.0)),
            note="" if runs else "no qualifying index at this epsilon",
        )
    )

    # full two-sided equivalence; needs the nilpotent gauge hypotheses, read
    # from the caller's vector as build_similarity reads them
    try:
        hyps = check_hypotheses(T, xi)
    except (ValidationError, NumericalError) as exc:
        sections.append(
            LemmaSection(
                name="two_sided_equivalence",
                ran=False,
                samples=0,
                worst_slack=0.0,
                passed=True,
                note=f"hypotheses unavailable: {exc}",
            )
        )
        return LemmaCheckReport(epsilon=epsilon, sections=tuple(sections))
    if hyps.gamma is None:
        sections.append(
            LemmaSection(
                name="two_sided_equivalence",
                ran=False,
                samples=0,
                worst_slack=0.0,
                passed=True,
                note="layers are not a direct sum; gauge unverified",
            )
        )
        return LemmaCheckReport(epsilon=epsilon, sections=tuple(sections))
    eps_eff = max(epsilon, hyps.epsilon)
    lower_factor = (1.0 - eps_eff * hyps.card) / ((hyps.L + 1) * hyps.gamma**2)
    upper_factor = float(hyps.L + 1)
    worst = -np.inf
    for _ in range(LEMMA_SAMPLES):
        c = rng.standard_normal(hyps.card) + 1j * rng.standard_normal(hyps.card)
        h = sum(
            cv * math.sqrt(mi.multinomial_weight(a)) * orbit[a]
            for cv, a in zip(c, hyps.support)
        )
        csq = float(np.vdot(c, c).real)
        hsq = float(np.vdot(h, h).real)
        worst = max(worst, lower_factor * csq - hsq, hsq - upper_factor * csq)
    note = f"evaluated at epsilon = {eps_eff:.6g}"
    if lower_factor <= 0:
        note += "; lower bound vacuous (epsilon card Xi >= 1)"
    sections.append(
        LemmaSection(
            name="two_sided_equivalence",
            ran=True,
            samples=LEMMA_SAMPLES,
            worst_slack=float(worst),
            passed=bool(worst <= LEMMA_TOL * max(1.0, upper_factor)),
            note=note,
        )
    )
    return LemmaCheckReport(epsilon=epsilon, sections=tuple(sections))
