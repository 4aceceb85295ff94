"""Reference implementations the tests compare the library against.

Each was a library function that only tests needed; it lives here,
computing what it computed there, as the oracle of the library code that
does the same work.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from arveson import multiindex as mi
from arveson import nilsim, numerics, serialization, spectral, tuples
from arveson.errors import InputError, NumericalError, ValidationError

HERMITIAN_RTOL = 1e-10
LEMMA_SAMPLES = 100


def hermitian_eig(a):
    """Eigenvalues (ascending) and unitary eigenvectors of a Hermitian matrix.

    The input is symmetrized internally; a deviation from Hermitian symmetry
    beyond ``HERMITIAN_RTOL`` relative to the norm is an error. It is the
    reference, bit for bit, of the library's eigensolves.
    """
    a = numerics.as_cmatrix(a)
    numerics._require_square(a)
    scale = max(numerics.operator_norm(a), 1.0)
    defect = numerics.operator_norm(a - a.conj().T)
    if defect > HERMITIAN_RTOL * scale:
        raise InputError(
            f"matrix is not Hermitian: asymmetry {defect:.3e} exceeds {HERMITIAN_RTOL:.1e}*{scale:.3e}"
        )
    return numerics.hermitian_part_eig(a)


def oracle_jordan_similarity(Qs, multiplicities):
    """(X, X_inv, cond) assembled from the spectral idempotents Qs as
    ``spectral.jordan_decompose`` assembled them before it stacked
    orthonormal range bases: Y = (sum Q_i^* Q_i)^(1/2) from one eigensolve,
    refused unless its smallest eigenvalue exceeds ``numerics.PD_RTOL``
    times its largest; the first m_i columns of a pivoted QR of each
    P_i = Y Q_i Y^-1, phased so the diagonal of R is positive, stacked into
    U and refused unless ||U^* U - I|| <= ``spectral.IDEMPOTENT_TOL`` n; X = U^* Y,
    X_inv = Y^-1 U and cond = cond(X)."""
    n = Qs[0].shape[0]
    I = np.eye(n, dtype=complex)
    vals, vecs = numerics.hermitian_part_eig(sum(Q.conj().T @ Q for Q in Qs))
    top = float(vals[-1])
    if top <= 0 or float(vals[0]) <= numerics.PD_RTOL * top:
        raise NumericalError(f"matrix not safely positive definite: min eigenvalue {vals[0]:.3e}, max {top:.3e}")
    Y = (vecs * np.sqrt(vals)) @ vecs.conj().T
    Y_inv = (vecs * (vals**-0.5)) @ vecs.conj().T
    Us = []
    for Q, m in zip(Qs, multiplicities):
        q, r, _ = scipy.linalg.qr(Y @ Q @ Y_inv, pivoting=True)
        phases = np.ones(m, dtype=complex)
        for j in range(m):
            if abs(r[j, j]) > 0:
                phases[j] = r[j, j] / abs(r[j, j])
        Us.append(q[:, :m] * phases)
    U = np.hstack(Us)
    unitary = numerics.operator_norm(U.conj().T @ U - I)
    if unitary > spectral.IDEMPOTENT_TOL * n:
        raise NumericalError(f"projection ranges failed to assemble unitarily (defect {unitary:.3e})")
    X = U.conj().T @ Y
    return X, Y_inv @ U, numerics.cond(X)


def monomial_norm_sq(alpha) -> Fraction:
    """Exact squared norm alpha!/|alpha|! of the monomial x^alpha in the
    Drury-Arveson space."""
    alpha = mi.as_index(alpha)
    return Fraction(mi.index_factorial(alpha), math.factorial(mi.degree(alpha)))


def dump_polynomial(p) -> dict:
    """A ``Polynomial`` in the wire format: its terms in graded order,
    earlier variables first within a degree."""
    terms = [
        {"alpha": list(alpha), "coeff": serialization.dump_complex(c)}
        for alpha, c in sorted(p.coeffs.items(), key=lambda kv: (sum(kv[0]), [-a for a in kv[0]]))
    ]
    return {"d": p.d, "terms": terms}


def oracle_lemma_checks(T, xi, epsilon, seed):
    """The orbit inequalities of ``nilsim.lemma_checks`` on sampled inputs:
    every qualifying same-length pair, ``LEMMA_SAMPLES`` random subsets
    and Gaussian coefficient vectors for the same-length lower bound, and
    ``LEMMA_SAMPLES`` Gaussian vectors for the two-sided equivalence. A
    sample can witness a failure, never prove a pass; the verdicts are
    those of the exact library sections wherever no failure hides between
    samples."""
    T.require_commuting()
    if not T.is_row_contraction(numerics.DEFAULT_TOL):
        raise ValidationError(f"row contraction defect {T.row_defect:.3e} exceeds tolerance")
    unit = nilsim._require_unit(xi, T.n)
    if not 0 <= epsilon < np.inf:
        raise InputError(f"epsilon must be a finite number >= 0, got {epsilon}")
    rng = np.random.default_rng(seed)
    cache = tuples._power_cache(T, max(T.n - 1, 0))
    orbit = {a: P @ unit for a, P in cache.items()}
    weighted = {a: mi.multinomial_weight(a) * float(np.linalg.norm(v)) ** 2 for a, v in orbit.items()}
    # xi alone is a unit vector, so the zero index qualifies at every epsilon
    weighted[(0,) * T.d] = 1.0
    by_level = {}
    for a in cache:
        by_level.setdefault(mi.degree(a), []).append(a)
    tol = nilsim.LEMMA_TOL

    def section(name, runs, worst, passed, note):
        return nilsim.LemmaSection(
            name=name,
            ran=runs > 0,
            worst_slack=float(worst) if runs else 0.0,
            passed=bool(runs == 0 or passed),
            note="" if runs else note,
        )

    # same-length near orthogonality on qualifying pairs
    worst = -np.inf
    pairs = 0
    for idxs in by_level.values():
        Q = [a for a in idxs if weighted[a] >= 1.0 - epsilon]
        for i in range(len(Q)):
            for j in range(i + 1, len(Q)):
                a, b = Q[i], Q[j]
                w = math.sqrt(mi.multinomial_weight(a) * mi.multinomial_weight(b))
                worst = max(worst, w * abs(complex(np.vdot(orbit[b], orbit[a]))) - epsilon)
                pairs += 1
    sections = [
        section("same_length_orthogonality", pairs, worst, worst <= tol, "no qualifying pair at this epsilon")
    ]

    # same-length lower bound on random supported coefficients
    worst = -np.inf
    runs = 0
    for idxs in by_level.values():
        Q = [a for a in idxs if weighted[a] >= 1.0 - epsilon]
        if not Q:
            continue
        for _ in range(max(1, LEMMA_SAMPLES // max(1, len(by_level)))):
            mask = rng.random(len(Q)) < 0.7
            if not mask.any():
                mask[rng.integers(len(Q))] = True
            S = [a for a, m_ in zip(Q, mask) if m_]
            c = rng.standard_normal(len(S)) + 1j * rng.standard_normal(len(S))
            h = sum(cv * math.sqrt(mi.multinomial_weight(a)) * orbit[a] for cv, a in zip(c, S))
            lhs = (1.0 - epsilon * len(S)) * float(np.vdot(c, c).real)
            worst = max(worst, lhs - float(np.vdot(h, h).real))
            runs += 1
    sections.append(
        section(
            "same_length_lower_bound",
            runs,
            worst,
            worst <= tol * max(1.0, abs(worst) + 1.0),
            "no qualifying index at this epsilon",
        )
    )

    # full two-sided equivalence on the hypotheses of the caller's vector
    try:
        hyps = nilsim.check_hypotheses(T, xi)
    except (ValidationError, NumericalError) as exc:
        skipped = f"hypotheses unavailable: {exc}"
    else:
        skipped = None if hyps.gamma is not None else "layers are not a direct sum; gauge unverified"
    if skipped is not None:
        sections.append(section("two_sided_equivalence", 0, 0.0, True, skipped))
        return nilsim.LemmaCheckReport(epsilon=epsilon, sections=tuple(sections))
    eps_eff = max(epsilon, hyps.epsilon)
    lower_factor = (1.0 - eps_eff * hyps.card) / ((hyps.L + 1) * hyps.gamma**2)
    upper_factor = float(hyps.L + 1)
    worst = -np.inf
    for _ in range(LEMMA_SAMPLES):
        c = rng.standard_normal(hyps.card) + 1j * rng.standard_normal(hyps.card)
        h = sum(cv * math.sqrt(mi.multinomial_weight(a)) * orbit[a] for cv, a in zip(c, hyps.support))
        csq = float(np.vdot(c, c).real)
        hsq = float(np.vdot(h, h).real)
        worst = max(worst, lower_factor * csq - hsq, hsq - upper_factor * csq)
    sections.append(
        nilsim.LemmaSection(
            name="two_sided_equivalence",
            ran=True,
            worst_slack=float(worst),
            passed=bool(worst <= tol * max(1.0, upper_factor)),
            note=f"evaluated at epsilon = {eps_eff:.6g}"
            + ("; lower bound vacuous (epsilon card Xi >= 1)" if lower_factor <= 0 else ""),
        )
    )
    return nilsim.LemmaCheckReport(epsilon=epsilon, sections=tuple(sections))
