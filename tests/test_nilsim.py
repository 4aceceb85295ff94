import cmath
import dataclasses
import functools
import importlib.util
import math
import pathlib
import sys
import types

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from arveson import models, multiindex as mi, nilsim, numerics, repro, tuples
from arveson.errors import InputError, ValidationError
from oracles import oracle_lemma_checks
from test_acceptance import _downset_family, _lemma_draws, _perturbed_input, _staircase_generators
from test_tuples import _oracle_power_cache

SQUARE = [(2, 0), (1, 1), (0, 2)]
ROOT = pathlib.Path(__file__).resolve().parents[1]


def square_model():
    return models.monomial_model(SQUARE, 2)


def test_check_hypotheses_exact_model():
    m = square_model()
    h = nilsim.check_hypotheses(m.tuple, m.cyclic)
    assert h.epsilon <= 1e-12
    assert h.card == 3
    assert h.L == 1
    assert h.layers_direct
    assert h.gamma == pytest.approx(1.0, abs=1e-9)
    assert h.admissible


def test_check_hypotheses_requires_unit_vector():
    m = square_model()
    with pytest.raises(InputError):
        nilsim.check_hypotheses(m.tuple, 2 * m.cyclic)


def test_check_hypotheses_requires_nilpotent():
    T = tuples.validate([np.array([[0.5]]), np.array([[0.1]])])
    with pytest.raises(ValidationError):
        nilsim.check_hypotheses(T, np.array([1.0]))


_SHIFT3 = np.diag([1.0, 1.0], 1)


@pytest.mark.parametrize(
    "mats, message",
    [
        ([np.array([[0.5]]), np.array([[0.1]])], "matrix 1 is not nilpotent within tolerance (||N^n|| = 5.000e-01)"),
        ([0.5 * _SHIFT3, 0.5 * _SHIFT3 + 0.25 * np.eye(3)], "matrix 2 is not nilpotent within tolerance (||N^n|| = 2.296e-01)"),
        ([0.6 * _SHIFT3, 0.5 * _SHIFT3 @ _SHIFT3 + 1e-3 * np.eye(3)], "matrix 2 is not nilpotent within tolerance (||N^n|| = 1.500e-06)"),
    ],
)
def test_non_nilpotent_tuple_keeps_its_message(mats, message):
    xi = np.zeros(len(mats[0]))
    xi[-1] = 1.0
    with pytest.raises(ValidationError) as got:
        nilsim.check_hypotheses(tuples.validate(mats), xi)
    assert str(got.value) == message


def test_nilpotency_is_read_from_a_walk_that_dies(monkeypatch):
    # the walk covers the degrees below n, so it dies on a model whose top
    # degree is below n - 1, scaled or not (no module takes matrix powers:
    # tests/test_package.py), and the gate on N_j^n never runs
    def gate(*args, **kwargs):
        raise AssertionError("the walk survived: the nilpotency gate ran")

    monkeypatch.setattr(nilsim, "_require_nilpotent", gate)
    cube = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    for gens, d in ((SQUARE, 2), ([(3, 0), (0, 2)], 2), (cube, 3)):
        m = models.monomial_model(gens, d)
        for s in (1.0, 0.9):
            nilsim.check_hypotheses(tuples.validate([s * Z for Z in m.tuple.matrices]), m.cyclic)


def test_nilpotency_gate_runs_when_the_walk_survives(monkeypatch):
    # one Jordan block: N^(n-1) != 0, so no degree below n dies and the
    # gate takes N_j^n for each j, as N_j times the N_j^(n-1) of the walk's
    # last degree
    calls = []

    def gate(*args, _orig=nilsim._require_nilpotent, **kwargs):
        calls.append(1)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(nilsim, "_require_nilpotent", gate)
    N = tuples.validate([0.6 * _SHIFT3, 0.8 * _SHIFT3])
    h = nilsim.check_hypotheses(N, np.array([0.0, 0.0, 1.0]))
    assert h.L == 2 and h.card == 6
    assert calls == [1]


@pytest.mark.parametrize(
    "mats, j",
    [
        ([_SHIFT3 + 0.1 * np.eye(3)], 0),
        ([0.5 * _SHIFT3, 0.5 * (_SHIFT3 + 0.1 * np.eye(3))], 1),
    ],
)
def test_nilpotency_gate_fires_when_the_walk_survives(monkeypatch, mats, j):
    # J + 0.1 I never dies, so the gate reads N_j^n from the walk and must
    # refuse it with the former message and the former ||N_j^n||
    norms = []

    def recorded(a, _orig=numerics.operator_norm):
        norms.append(_orig(a))
        return norms[-1]

    monkeypatch.setattr(numerics, "operator_norm", recorded)
    N = tuples.validate(mats)
    with pytest.raises(ValidationError) as got:
        nilsim.check_hypotheses(N, np.array([0.0, 0.0, 1.0]))
    monkeypatch.undo()
    want = numerics.operator_norm(np.linalg.matrix_power(N.matrices[j], N.n))
    assert_allclose(norms[-1], want, rtol=1e-12, atol=0)
    assert str(got.value) == f"matrix {j + 1} is not nilpotent within tolerance (||N^n|| = {want:.3e})"


def test_check_hypotheses_requires_cyclic():
    m = square_model()
    xi = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValidationError):
        nilsim.check_hypotheses(m.tuple, xi)


def test_gauge_conjugation_rotates_layers():
    m = square_model()
    h = nilsim.check_hypotheses(m.tuple, m.cyclic)
    for t in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        Y = h.gauge(t)
        Yi = np.linalg.inv(Y)
        for Nj in m.tuple.matrices:
            assert_allclose(Y @ Nj @ Yi, np.exp(1j * t) * Nj, atol=1e-13)


def test_build_similarity_identity_on_exact_model():
    m = square_model()
    cert = nilsim.build_similarity(m.tuple, m.cyclic, SQUARE)
    assert_allclose(cert.X, np.eye(3), atol=1e-12)
    assert cert.cond == pytest.approx(1.0, abs=1e-12)
    assert cert.bounds_hold
    assert cert.residual <= 1e-12


def perturbed_square(delta):
    """Commuting perturbation of the square monomial model, rescaled back
    into the row contraction regime."""
    m = square_model()
    N1, N2 = [M.copy() for M in m.tuple.matrices]
    mats = [N1, N2 + delta * N1]
    s = np.sqrt(np.linalg.norm(sum(M @ M.conj().T for M in mats), 2))
    return tuples.validate([M / s for M in mats]), m.cyclic


def test_build_similarity_perturbed_admissible():
    T, xi = perturbed_square(0.05)
    cert = nilsim.build_similarity(T, xi, SQUARE)
    h = cert.hypotheses
    assert 0 < h.epsilon < 1
    assert h.epsilon * h.card < 1
    assert cert.bounds_hold
    assert cert.norm_X <= cert.bound_X + 1e-9
    assert cert.norm_X_inv <= cert.bound_X_inv + 1e-9
    # the certificate really intertwines
    Z = cert.model.tuple.matrices
    Xi = cert.X_inv
    for Tj, Zj in zip(T.matrices, Z):
        assert np.linalg.norm(cert.X @ Tj @ Xi - Zj) < 1e-8 * cert.cond


def test_build_similarity_rejects_wrong_ideal():
    m = square_model()
    with pytest.raises(ValidationError):
        nilsim.build_similarity(m.tuple, m.cyclic, [(3, 0), (1, 1), (0, 3)])


def test_build_similarity_rejects_same_dimension_wrong_ideal():
    # N1 = N2 = J / sqrt(2) on C^3 has annihilator <x - y, x^3>; the wrong
    # ideal <x^3, y> has a three-dimensional complement on which the orbit
    # of e1 is a basis, so the correspondence matrix exists but does not
    # intertwine, and the refusal must name the annihilator
    J = np.diag([1.0, 1.0], -1)
    T = tuples.validate([J / np.sqrt(2), J / np.sqrt(2)])
    xi = np.array([1.0, 0.0, 0.0])
    gens = [(3, 0), (0, 1)]
    X, model, residual = nilsim.correspondence_similarity(T, xi, gens)
    assert model.dim == T.n
    assert residual > 0.5
    with pytest.raises(ValidationError, match="annihilator"):
        nilsim.build_similarity(T, xi, gens)


def test_singular_orbit_matrix_is_a_wrong_ideal():
    # the square model kills x^2, so against <x^3, y> (same dimension 3)
    # the weighted orbit {xi, N1 xi, N1^2 xi} has a zero column: it is not
    # a basis, which is a broken precondition, not a numerical failure
    # the same holds for the cube of the maximal ideal against <x^4, y, z>,
    # whose basis index x^3 lies past the first degree at which every power
    # of the tuple vanishes
    cube = models.monomial_model(
        [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)], 3
    )
    for m, gens in ((square_model(), [(3, 0), (0, 1)]), (cube, [(4, 0, 0), (0, 1, 0), (0, 0, 1)])):
        with pytest.raises(ValidationError, match="not a basis"):
            nilsim.correspondence_similarity(m.tuple, m.cyclic, gens)
        with pytest.raises(ValidationError, match="not a basis"):
            nilsim.build_similarity(m.tuple, m.cyclic, gens)


def test_troubled_family_is_never_admissible():
    # the troubled two-variable family fails epsilon * card < 1 at every t
    for t in [0.05, 0.1, 0.3]:
        R1, R2, f = repro.two_variable_family(t)
        T = tuples.validate([R1, R2])
        xi = np.array([1.0, 0.0, 0.0], dtype=complex)
        h = nilsim.check_hypotheses(T, xi)
        assert h.epsilon >= 0.5 - 1e-12
        assert h.epsilon * h.card > 1
        assert not h.admissible
        with pytest.raises(ValidationError, match="epsilon card Xi"):
            nilsim.build_similarity(T, xi, SQUARE)


def test_correspondence_similarity_exists_for_troubled_family():
    # the similarity itself exists with ||X^-1|| <= L + 1 even when the
    # two-sided certificate is out of reach
    t = 0.2
    R1, R2, f = repro.two_variable_family(t)
    T = tuples.validate([R1, R2])
    xi = np.array([1.0, 0.0, 0.0], dtype=complex)
    X, model, residual = nilsim.correspondence_similarity(T, xi, SQUARE)
    assert residual < 1e-10
    # the orbit matrix has unit norm by the choice of f, so ||X^-1|| = 1
    assert np.linalg.norm(np.linalg.inv(X), 2) <= 1.0 + 1e-9
    assert_allclose(np.linalg.norm(X, 2), f**2 / t, rtol=1e-9)


def test_necessity_check_on_certified_similarity():
    T, xi = perturbed_square(0.05)
    cert = nilsim.build_similarity(T, xi, SQUARE)
    rep = nilsim.necessity_check(T, cert.X, SQUARE)
    assert rep.ok
    assert rep.gauge_ok
    # every weighted orbit norm clears the conditioning floor; the floor is
    # 1/cond^2 and tight (a scaled model attains it with equality)
    assert rep.worst_orbit_margin >= -1e-9
    assert rep.orbit_floor == pytest.approx(1.0 / rep.cond**2, rel=1e-9)


def test_necessity_floor_is_tight_on_scaled_model():
    # N = 0.9 Z on <x^2> has X = diag(1, 1/0.9), cond = 1/0.9, and the
    # single surviving orbit norm is 0.81 = 1/cond^2 on the nose; any
    # stronger floor would reject a genuine intertwiner
    m = models.monomial_model([(2,)], 1)
    N = tuples.validate([0.9 * Z for Z in m.tuple.matrices])
    cert = nilsim.build_similarity(N, m.cyclic, [(2,)])
    rep = nilsim.necessity_check(N, cert.X, [(2,)])
    assert rep.ok
    assert rep.cond == pytest.approx(1.0 / 0.9, rel=1e-12)
    assert min(v for _, v in rep.per_alpha) == pytest.approx(0.81, rel=1e-12)
    assert rep.worst_orbit_margin == pytest.approx(0.0, abs=1e-12)


def test_necessity_check_rejects_non_intertwiner():
    m = square_model()
    X = np.eye(3)
    X[0, 0] = 2.0
    T = tuples.validate([m.tuple.matrices[0], m.tuple.matrices[1]])
    with pytest.raises(ValidationError):
        nilsim.necessity_check(T, np.array([[1.0, 1, 0], [0, 1, 0], [1, 0, 1]]), SQUARE)


def test_necessity_check_refuses_a_wrong_dimension_ideal_as_build_similarity_does():
    # the ideal <x^4> has a complement of dimension 4, the tuple acts on C^3;
    # this used to read "intertwiner has shape (4, 3), expected (4, 3)"
    m = models.monomial_model([(3,)], 1)
    message = "tuple acts on dimension 3 but the ideal complement has dimension 4"
    with pytest.raises(ValidationError) as got:
        nilsim.necessity_check(m.tuple, np.eye(4, 3), [(4,)])
    with pytest.raises(ValidationError) as want:
        nilsim.build_similarity(m.tuple, m.cyclic, [(4,)])
    assert str(got.value) == str(want.value) == message


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (2, 2)])
def test_necessity_check_names_the_square_shape_of_a_wrong_intertwiner(shape):
    m = models.monomial_model([(3,)], 1)
    with pytest.raises(InputError) as got:
        nilsim.necessity_check(m.tuple, np.ones(shape), [(3,)])
    assert str(got.value) == f"intertwiner has shape {shape}, expected (3, 3)"


def test_lemma_checks_on_exact_model():
    m = models.monomial_model([(3, 0), (2, 1), (1, 2), (0, 3)], 2)
    rep = nilsim.lemma_checks(m.tuple, m.cyclic, epsilon=0.05)
    assert rep.ok
    names = [s.name for s in rep.sections]
    assert "same_length_orthogonality" in names
    assert "same_length_lower_bound" in names
    assert "two_sided_equivalence" in names
    for s in rep.sections:
        assert s.passed


def test_lemma_checks_perturbed_tuple():
    T, xi = perturbed_square(0.08)
    rep = nilsim.lemma_checks(T, xi, epsilon=0.2)
    assert rep.ok


def test_lemma_checks_scaled_tuple_stays_sound():
    # shrinking the tuple grows epsilon; the two-sided section can go
    # vacuous but must never report a violated inequality
    m = square_model()
    T = tuples.validate([0.9 * M for M in m.tuple.matrices])
    rep = nilsim.lemma_checks(T, m.cyclic, epsilon=0.3)
    assert rep.ok


def _lemma_sweep():
    """(T, xi, epsilon, seed): the inputs of the lemma tests above, the
    criterion-7 draws and the perturbed inputs at four epsilons."""
    m = models.monomial_model([(3, 0), (2, 1), (1, 2), (0, 3)], 2)
    square = square_model()
    cases = [
        (m.tuple, m.cyclic, 0.05, 0),
        (*perturbed_square(0.08), 0.2, 1),
        (tuples.validate([0.9 * M for M in square.tuple.matrices]), square.cyclic, 0.3, 2),
    ]
    for k, (d, gens, s) in enumerate(_lemma_draws()):
        model = models.monomial_model(gens, d)
        cases.append((tuples.validate([s * Z for Z in model.tuple.matrices]), model.cyclic, 0.0, k))
    for seed in range(40):
        N, xi, _ = _perturbed_input(seed)
        cases.extend((N, xi, eps, seed) for eps in (0.0, 0.1, 0.3, 1.0))
    return cases


def test_lemma_checks_agrees_with_the_sampled_oracle():
    # each exact section runs and passes where the sampled one does; the
    # sweep reaches both outcomes of ran in same_length_orthogonality,
    # same_length_lower_bound always runs (level 0 qualifies), and the
    # two-sided section skips only on the inputs of the test below
    cases = _lemma_sweep()
    assert len(cases) == 363
    seen = set()
    for k, (T, xi, epsilon, seed) in enumerate(cases):
        got = nilsim.lemma_checks(T, xi, epsilon)
        want = oracle_lemma_checks(T, xi, epsilon, seed)
        assert [s.name for s in got.sections] == [s.name for s in want.sections]
        for a, b in zip(got.sections, want.sections):
            assert (a.ran, a.passed, a.note) == (b.ran, b.passed, b.note), (k, a, b)
            seen.add((a.name, a.ran))
    assert len(seen) == 4
    assert ("same_length_lower_bound", False) not in seen


# the perturbed inputs on which same_length_orthogonality runs at epsilon
# 0.1; at epsilon 0 it runs on none of them. same_length_lower_bound runs on
# every input; while level 0 qualified by |xi|^2 >= 1 - epsilon in floating
# point, it was skipped on seed 17 at epsilon 0
_ORTHOGONALITY_RUNS = {9, 12, 14, 15, 17, 20, 22, 23, 25, 30, 31, 36, 38, 39}


def test_lemma_checks_runs_the_pinned_sections():
    for seed in range(40):
        N, xi, _ = _perturbed_input(seed)
        for epsilon in (0.0, 0.1):
            rep = nilsim.lemma_checks(N, xi, epsilon)
            assert rep.ok, (seed, epsilon)
            ran = {s.name for s in rep.sections if s.ran}
            want = {"same_length_lower_bound", "two_sided_equivalence"}
            if epsilon and seed in _ORTHOGONALITY_RUNS:
                want.add("same_length_orthogonality")
            assert ran == want, (seed, epsilon)


@pytest.mark.parametrize("s", [0.5, 0.8])
def test_lemma_checks_reads_the_orbit_gram_eigenvalues_of_a_scaled_staircase(s, lapack_counts):
    # the scaled model has the diagonal weighted orbit Gram diag(s^(2|a|)),
    # so lambda_min = s^(2L) and lambda_max = 1; the two-sided slack is
    # lower - lambda_min at epsilon 0 and lambda_max - (L + 1) once epsilon
    # pushes the lower factor below lambda_min - L - 1
    m = models.monomial_model([(3, 0), (2, 1), (1, 2), (0, 3)], 2)
    N = tuples.validate([s * Z for Z in m.tuple.matrices])
    h = nilsim.check_hypotheses(N, m.cyclic)
    assert (h.L, h.card) == (2, 6)
    lapack_counts.clear()
    lam = {}
    for epsilon in (0.0, 2.0):
        rep = nilsim.lemma_checks(N, m.cyclic, epsilon)
        assert rep.ok
        two_sided = rep.sections[2]
        assert two_sided.ran
        lower = (1.0 - max(epsilon, h.epsilon) * h.card) / ((h.L + 1) * h.gamma**2)
        lam[epsilon] = (lower - two_sided.worst_slack, two_sided.worst_slack + h.L + 1)
    assert lam[0.0][0] == pytest.approx(s ** (2 * h.L), rel=1e-12, abs=0)
    assert lam[2.0][1] == pytest.approx(1.0, rel=1e-12, abs=0)
    assert lapack_counts["eigh"] == 2  # one eigensolve per call


def _layers_not_direct():
    # N_1 e_1 = 0.6 e_2, N_1 e_2 = 0.6 e_3 and N_2 e_1 = 0.6 e_3: layer 1
    # spans e_2 and e_3, so layer 2 (e_3) lies inside it
    N1 = np.zeros((3, 3))
    N1[1, 0] = N1[2, 1] = 0.6
    N2 = np.zeros((3, 3))
    N2[2, 0] = 0.6
    return tuples.validate([N1, N2]), np.eye(3)[0]


@pytest.mark.parametrize(
    "case, note",
    [
        (
            lambda: (tuples.validate([np.diag([0.5, 0.3])]), np.ones(2) / math.sqrt(2)),
            "hypotheses unavailable: matrix 1 is not nilpotent within tolerance (||N^n|| = 2.500e-01)",
        ),
        (_layers_not_direct, "layers are not a direct sum; gauge unverified"),
    ],
)
def test_lemma_checks_skips_the_two_sided_section_without_its_hypotheses(case, note):
    # one variable or orthogonal same-length vectors: no qualifying pair
    # either, and the lower bound holds exactly on the single indices
    T, xi = case()
    rep = nilsim.lemma_checks(T, xi, epsilon=0.1)
    pairs, lower, two_sided = rep.sections
    assert (pairs.ran, pairs.passed, pairs.note) == (False, True, "no qualifying pair at this epsilon")
    assert (lower.ran, lower.passed, lower.worst_slack, lower.note) == (True, True, 0.0, "")
    assert (two_sided.ran, two_sided.passed, two_sided.note) == (False, True, note)
    assert rep.ok


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_cyclic_vectors_are_refused(bad):
    # a non-finite norm fails |norm - 1| <= tol as a wrong finite norm does
    m = square_model()
    xi = m.cyclic.copy()
    xi[-1] = bad
    for call in (
        lambda: nilsim.check_hypotheses(m.tuple, xi),
        lambda: nilsim.correspondence_similarity(m.tuple, xi, SQUARE),
        lambda: nilsim.necessity_check(m.tuple, np.eye(m.dim), SQUARE, xi=xi),
        lambda: nilsim.lemma_checks(m.tuple, xi, epsilon=0.05),
    ):
        with pytest.raises(InputError, match="cyclic vector must be a unit vector"):
            call()


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -0.1])
def test_lemma_checks_refuses_epsilon_outside_zero_to_inf(epsilon):
    m = square_model()
    with pytest.raises(InputError, match="epsilon must be a finite number >= 0"):
        nilsim.lemma_checks(m.tuple, m.cyclic, epsilon=epsilon)


def _separate_norms(X):
    norm_X = numerics.operator_norm(X)
    norm_X_inv = numerics.operator_norm(numerics.inv(X))
    return norm_X, norm_X_inv, norm_X * norm_X_inv


def test_certificate_norms_match_separate_svds():
    # ||X||, ||X^-1|| and cond come from one set of singular values of X;
    # each must agree with its own SVD (and an explicit inverse)
    for seed in range(20):
        N, xi, gens = _perturbed_input(seed)
        cert = nilsim.build_similarity(N, xi, gens)
        want = _separate_norms(cert.X)
        got = (cert.norm_X, cert.norm_X_inv, cert.cond)
        assert_allclose(got, want, rtol=1e-12, atol=0)
        nec = nilsim.necessity_check(N, cert.X, gens)
        assert_allclose(nec.cond, want[2], rtol=1e-12, atol=0)
    # the troubled family is refused a certificate, but its correspondence
    # matrix still goes through the necessity check
    for t in (0.05, 0.15, 0.3):
        R1, R2, _ = repro.two_variable_family(t)
        T = tuples.validate([R1, R2])
        X, _, _ = nilsim.correspondence_similarity(T, np.array([1.0, 0, 0]), SQUARE)
        nec = nilsim.necessity_check(T, X, SQUARE)
        assert_allclose(nec.cond, _separate_norms(X)[2], rtol=1e-12, atol=0)


# Exact numbers of dense LAPACK calls made by build_similarity on an exact
# staircase model, so that a deleted call cannot come back unnoticed. Before
# ||X||, ||X^-1|| and cond came from one SVD, the nilpotency gate reused the
# cached coordinate norms and validate called eigvalsh instead of
# hermitian_eig, the same calls made
#   <x^3, y^2> (d=2, n=6): svd 20, eigh 1, eigvalsh 0, inv 2;
#   <x^2, y^2, z^2, xy, xz, yz> (d=3, n=4): svd 24, eigh 1, eigvalsh 0, inv 2.
# While the hypotheses measured the gauge defect eagerly (d SVDs), they made
# svd 14 and 17. The commutator SVDs and the eigvalsh now count here because
# the defects of m.tuple are measured on first read, inside the call; the
# model rebuilt for the correspondence no longer measures its own. While the
# commuting and row-contraction gates always measured (d(d-1)/2 SVDs and
# one eigvalsh) and the coordinate norms and the conjugation residuals took
# one SVD per coordinate, they made svd 12, eigvalsh 1 and svd 14, eigvalsh
# 1. The screens of those gates decide both models without a factorization,
# and the norms and the residuals are one stacked SVD each. While krylov's
# dead-layer rule and the residual gate always read the coordinate norms
# (one stacked SVD), they made svd 9 and 7; their screens decide both models.
@pytest.mark.parametrize(
    "gens, d, want",
    [
        ([(3, 0), (0, 2)], 2, {"svd": 8, "eigh": 0, "eigvalsh": 0, "inv": 1}),
        (
            [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)],
            3,
            {"svd": 6, "eigh": 0, "eigvalsh": 0, "inv": 1},
        ),
    ],
)
def test_build_similarity_lapack_calls(gens, d, want, lapack_counts):
    m = models.monomial_model(gens, d)
    lapack_counts.clear()
    nilsim.build_similarity(m.tuple, m.cyclic, gens)
    assert {k: lapack_counts[k] for k in want} == want


def _oracle_hypotheses(N, xi, tol=1e-9):
    # the former level loop of check_hypotheses and its gamma grid
    xi = xi / float(np.linalg.norm(xi))
    kry = tuples.krylov(N, xi, N.n)
    support = []
    eps = 0.0
    root_n = math.sqrt(N.n)
    level = {(0,) * N.d: np.eye(N.n, dtype=complex)}
    for ell in range(max(N.n - 1, 0) + 1):
        if ell > 0:
            nxt = {}
            for alpha in mi._homogeneous(N.d, ell):
                j = next(i for i, a in enumerate(alpha) if a > 0)
                parent = list(alpha)
                parent[j] -= 1
                nxt[alpha] = N.matrices[j] @ level[tuple(parent)]
            level = nxt
        alive = False
        for alpha in mi._homogeneous(N.d, ell):
            P = level[alpha]
            fro = float(np.linalg.norm(P))
            if fro > 0.0:
                alive = True
            if fro <= tol:
                continue
            if fro <= tol * root_n and numerics.operator_norm(P) <= tol:
                continue
            support.append(alpha)
            val = mi.multinomial_weight(alpha) * float(np.linalg.norm(P @ xi)) ** 2
            eps = max(eps, 1.0 - val)
        if not alive:
            break
    B = np.hstack(kry.layer_bases)
    labels = [ell for ell, L in enumerate(kry.layer_bases) for _ in range(L.shape[1])]
    if numerics.operator_norm(B.conj().T @ B - np.eye(B.shape[1])) <= 1e-12:
        return tuple(support), max(eps, 0.0), 1.0, kry.layer_dims
    B_inv = numerics.inv(B)

    def norm_at(t):
        phases = np.array([cmath.exp(1j * ell * t) for ell in labels])
        return numerics.operator_norm((B * phases) @ B_inv)

    ts = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    gamma = max(norm_at(t) for t in ts)
    return tuple(support), max(eps, 0.0), gamma, kry.layer_dims


def test_check_hypotheses_matches_the_former_loops():
    # the scaled inputs have orthonormal layers (gamma 1); the conjugated
    # ones take gamma from the grid, now one stacked SVD, which the oracle
    # evaluates one gauge at a time
    for seed in range(20):
        N, xi, _ = _perturbed_input(seed)
        h = nilsim.check_hypotheses(N, xi)
        support, eps, gamma, layer_dims = _oracle_hypotheses(N, xi)
        assert h.support == support, seed
        assert h.epsilon == eps, seed
        assert h.gamma == gamma, seed
        assert h.layer_dims == layer_dims, seed


def _brent_gamma(h):
    # the former gamma: the 64-point grid maximum refined once by Brent's
    # method on the two grid cells around the maximizer
    def norm_at(t):
        return numerics.operator_norm(h.gauge(t))

    grid = 64
    ts = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    vals = [norm_at(t) for t in ts]
    k = int(np.argmax(vals))
    width = 2.0 * np.pi / grid
    res = scipy.optimize.minimize_scalar(
        lambda t: -norm_at(t),
        bounds=(ts[k] - width, ts[k] + width),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return max(vals[k], -float(res.fun))


def _fine_grid_gamma(h, points=20_000, chunk=2_000):
    labels = np.array(h._layer_labels)
    B, B_inv = h._layer_basis, h._layer_basis_inv
    best = 0.0
    for start in range(0, points, chunk):
        ts = 2.0 * np.pi * np.arange(start, start + chunk) / points
        W = (B[None] * np.exp(1j * np.outer(ts, labels))[:, None, :]) @ B_inv
        best = max(best, float(np.linalg.svd(W, compute_uv=False)[:, 0].max()))
    return best


def test_gamma_upper_brackets_the_gauge_supremum():
    # the conjugated inputs have layers that are not orthonormal, so gamma
    # is a grid maximum and gamma_upper its Bernstein bound
    for seed in range(8, 40):
        N, xi, gens = _perturbed_input(seed)
        h = nilsim.check_hypotheses(N, xi)
        assert h.gamma > 1.0, seed
        assert h.gamma <= _brent_gamma(h) <= h.gamma_upper, seed
        assert _fine_grid_gamma(h) <= h.gamma_upper, seed
        cert = nilsim.build_similarity(N, xi, gens)
        assert cert.bound_X <= cert.bound_X_certified, seed


def _conjugated_jordan_block(n):
    rng = np.random.default_rng(42)
    S = np.eye(n) + 1e-3 * rng.standard_normal((n, n)) / math.sqrt(n)
    J = np.diag(np.ones(n - 1), -1)
    M = S @ J @ np.linalg.inv(S)
    M /= np.linalg.norm(M, 2)
    return tuples.validate([M]), S[:, 0] / np.linalg.norm(S[:, 0])


def test_gamma_upper_is_none_when_the_grid_is_too_coarse():
    # a conjugated 42 x 42 Jordan block has layer labels up to 41, and
    # pi 41 >= 2 GAMMA_GRID, so the grid certifies nothing
    n = 42
    h = nilsim.check_hypotheses(*_conjugated_jordan_block(n))
    assert h.layers_direct and h._layer_labels[-1] == n - 1
    assert h.gamma > 1.0
    assert h.gamma_upper is None


def test_grid_phases_gathered_by_label_match_the_per_t_rows():
    # the rows the gamma grid formed one cmath.exp at a time, per input
    ts = np.linspace(0.0, 2.0 * np.pi, nilsim.GAMMA_GRID, endpoint=False)
    cases = [_perturbed_input(seed)[:2] for seed in range(8, 40)]
    for N, xi in cases + [_conjugated_jordan_block(42)]:
        labels = nilsim.check_hypotheses(N, xi)._layer_labels
        want = np.array([[cmath.exp(1j * ell * t) for ell in labels] for t in ts])
        got = nilsim._phases(nilsim.GAMMA_GRID, labels[-1])[:, list(labels)]
        assert np.array_equal(got, want)


def test_phase_tables_are_read_only():
    for table in (nilsim._phases(nilsim.GAMMA_GRID, 3), nilsim._phases(nilsim.NECESSITY_GAUGE_SAMPLES, 3)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


@functools.lru_cache(maxsize=None)
def _staircase_models():
    # every model of the exact staircase family of criterion 5
    return tuple(
        models.monomial_model(_staircase_generators(d, comp), d)
        for d in (1, 2, 3)
        for comp in _downset_family(d, 3, 20)
    )


def test_necessity_gauge_stack_matches_gauge_unitary():
    ts = [2.0 * np.pi * k / nilsim.NECESSITY_GAUGE_SAMPLES for k in range(nilsim.NECESSITY_GAUGE_SAMPLES)]
    for m in _staircase_models():
        got = nilsim._gauge_stack([mi.degree(b) for b in m.basis_indices])
        want = np.stack([models.gauge_unitary(m, t) for t in ts])
        assert np.array_equal(got, want), m.basis_indices


def test_monomial_model_matrices_pass_validate_unchanged():
    # monomial_model skips validate: its matrices are square, of one size and
    # finite by construction, so validate must hand back the same arrays
    fam = _staircase_models()
    assert len(fam) == 2542
    for m in fam:
        got = tuples.validate(m.tuple.matrices).matrices
        assert len(got) == m.d and all(a is b for a, b in zip(got, m.tuple.matrices))


def test_lemma_checks_reads_the_hypotheses_of_the_callers_vector(monkeypatch):
    # the two-sided section reads the hypotheses build_similarity reports
    # for (N, xi), not those of xi normalized once more; on some of these
    # inputs the second normalization moves epsilon or gamma
    seen = []

    def spy(*args, _orig=nilsim.check_hypotheses, **kwargs):
        seen.append(_orig(*args, **kwargs))
        return seen[-1]

    moved = 0
    for seed in range(40):
        N, xi, _ = _perturbed_input(seed)
        want = nilsim.check_hypotheses(N, xi)
        renormalized = nilsim.check_hypotheses(N, nilsim._require_unit(xi, N.n))
        moved += (renormalized.epsilon, renormalized.gamma) != (want.epsilon, want.gamma)
        seen.clear()
        with monkeypatch.context() as mp:
            mp.setattr(nilsim, "check_hypotheses", spy)
            nilsim.lemma_checks(N, xi, epsilon=0.1)
        assert len(seen) == 1, seed
        assert (seen[0].epsilon, seen[0].gamma) == (want.epsilon, want.gamma), seed
    assert moved > 0


def _walk_end(N, cache, tol=1e-9):
    # the last degree the walk keeps: the first whose powers all vanish, or
    # the one before the first whose norms, grown by S = max(1, ||N_j||_F)
    # per degree left, stay below tol / 2
    S = max(1.0, max(float(np.linalg.norm(M)) for M in N.matrices))
    for ell in range(N.n):
        fros = [float(np.linalg.norm(cache[a])) for a in mi._homogeneous(N.d, ell)]
        if not any(fros):
            return ell
        if 2.0 * max(fros) * S ** (N.n - ell) <= tol:
            return ell - 1
    return N.n - 1


def test_check_hypotheses_orbit_matches_per_index_products():
    # the orbit N^alpha xi kept for the correspondence, against one product
    # per index, over the degrees the walk keeps
    cases = [_perturbed_input(seed)[:2] for seed in range(10)]
    for gens, d in (([(3, 0), (0, 2)], 2), (SQUARE, 2), ([(2, 0, 0), (0, 1, 0), (0, 0, 1)], 3)):
        m = models.monomial_model(gens, d)
        cases.append((m.tuple, m.cyclic))
    for N, xi in cases:
        h = nilsim.check_hypotheses(N, xi)
        cache = _oracle_power_cache(N, N.n - 1)
        top = _walk_end(N, cache)
        want = {a: cache[a] @ h.xi for a in cache if mi.degree(a) <= top}
        assert list(h._orbit) == list(want)
        assert all(np.array_equal(h._orbit[a], want[a]) for a in want)


def _oracle_necessity(N, X, generators):
    # the former necessity_check with its per-sample gauge loop
    model = models.monomial_model(generators, N.d)
    X = numerics.as_cmatrix(X)
    scale = max(1.0, N.scale())
    X_inv = numerics.inv(X)
    norm_X, norm_X_inv = numerics.norm_and_inverse_norm(X)
    resid = max(
        numerics.operator_norm(X @ Nj - Zj @ X)
        for Nj, Zj in zip(N.matrices, model.tuple.matrices)
    )
    v = X_inv @ model.cyclic
    xi = v / np.linalg.norm(v)
    cond = norm_X * norm_X_inv
    floor = 1.0 / cond**2
    cache = tuples._power_cache(N, max(mi.degree(b) for b in model.basis_indices))
    per_alpha = []
    worst = np.inf
    for beta in model.basis_indices:
        val = mi.multinomial_weight(beta) * float(np.linalg.norm(cache[beta] @ xi)) ** 2
        per_alpha.append((beta, val))
        worst = min(worst, val - floor)
    orbit_ok = worst >= -nilsim.NECESSITY_TOL
    gauge_norm = commute = fix = 0.0
    for k in range(nilsim.NECESSITY_GAUGE_SAMPLES):
        t = 2.0 * np.pi * k / nilsim.NECESSITY_GAUGE_SAMPLES
        W = models.gauge_unitary(model, t)
        Y = X_inv @ W @ X
        Y_inv = X_inv @ W.conj().T @ X
        gauge_norm = max(gauge_norm, numerics.operator_norm(Y))
        commute = max(
            commute,
            max(
                numerics.operator_norm(Y @ Nj @ Y_inv - cmath.exp(1j * t) * Nj)
                for Nj in N.matrices
            ),
        )
        fix = max(fix, float(np.linalg.norm(Y_inv @ xi - xi)))
    tol = nilsim.NECESSITY_TOL
    gauge_ok = (
        gauge_norm <= cond * (1.0 + tol)
        and commute <= tol * scale * max(1.0, cond)
        and fix <= tol * max(1.0, cond)
    )
    return types.SimpleNamespace(
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


def _assert_matches_the_oracle(got, N, X, gens, where):
    # every value the oracle computes, the two sampled values read lazily
    # included; the report adds only the proved bounds and which check decided
    want = vars(_oracle_necessity(N, X, gens))
    added = {"gauge_norm_bound", "gauge_commute_bound", "gauge_decided_by", "_samples"}
    lazy = {"gauge_norm_max", "gauge_commute_defect"}
    assert set(want) == {f.name for f in dataclasses.fields(got)} - added | lazy
    for name, b in want.items():
        a = getattr(got, name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), (where, name)
        else:
            assert a == b, (where, name)


def test_necessity_check_matches_the_per_sample_loop():
    for seed in range(20):
        N, xi, gens = _perturbed_input(seed)
        X = nilsim.build_similarity(N, xi, gens).X
        got = nilsim.necessity_check(N, X, gens)
        assert got.gauge_decided_by == "proof"
        _assert_matches_the_oracle(got, N, X, gens, seed)


@functools.lru_cache(maxsize=None)
def _necessity_input(seed, twisted):
    # a certified intertwiner X, or X (I + N_1 / 2): any X C with C an
    # invertible polynomial in N intertwines as well, with a gauge that is
    # not the model's
    N, xi, gens = _perturbed_input(seed)
    X = nilsim.build_similarity(N, xi, gens).X
    if twisted:
        X = X @ (np.eye(N.n) + 0.5 * N.matrices[0])
    return N, X, gens, nilsim.necessity_check(N, X, gens)


@given(st.integers(0, 39), st.booleans(), st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_necessity_bounds_hold_between_the_samples(seed, twisted, t):
    # the proved bounds hold for every t, not only on the sample grid
    k = t * nilsim.NECESSITY_GAUGE_SAMPLES / (2.0 * math.pi)
    assume(abs(k - round(k)) > 1e-3)
    N, X, gens, rep = _necessity_input(seed, twisted)
    assert rep.gauge_decided_by == "proof"
    X_inv = numerics.inv(X)
    W = models.gauge_unitary(models.monomial_model(gens, N.d), t)
    Y, Y_inv = X_inv @ W @ X, X_inv @ W.conj().T @ X
    assert numerics.operator_norm(Y) <= rep.gauge_norm_bound
    for Nj in N.matrices:
        assert numerics.operator_norm(Y @ Nj @ Y_inv - cmath.exp(1j * t) * Nj) <= rep.gauge_commute_bound


@pytest.mark.parametrize("s", [0.03, 0.01])
def test_necessity_check_falls_back_to_the_samples(s, lapack_counts):
    # N = s Z on <x^3> with X = diag(s^-deg), cond 1/s^2: the commutator
    # bound, of order n^3 u cond^3, misses its gate, so the sampled gauges
    # decide in the call, as the per-sample oracle does
    m = models.monomial_model([(3,)], 1)
    N = tuples.validate([s * Z for Z in m.tuple.matrices])
    X = np.diag([s ** -mi.degree(b) for b in m.basis_indices])
    N.scale()  # the gates' fallback reads it; measured here, not counted
    lapack_counts.clear()
    rep = nilsim.necessity_check(N, X, [(3,)])
    assert rep.gauge_decided_by == "samples"
    assert rep.gauge_commute_bound > nilsim.NECESSITY_TOL * rep.cond
    assert rep.ok and rep.gauge_ok
    # ||X||, the residuals and the two sampled values
    assert lapack_counts["svd"] == 4
    lapack_counts.clear()
    rep.gauge_norm_max, rep.gauge_commute_defect
    assert lapack_counts["svd"] == 0
    _assert_matches_the_oracle(rep, N, X, [(3,)], s)


# Exact numbers of dense LAPACK calls made by necessity_check where its
# bounds decide. While the gates always read the sampled gauges, one stacked
# SVD for their norms and one for their commutators, it made svd 4.
def test_necessity_check_lapack_calls(lapack_counts):
    for seed in (0, 9):
        N, X, gens, _ = _necessity_input(seed, False)
        lapack_counts.clear()
        rep = nilsim.necessity_check(N, X, gens)
        assert rep.gauge_decided_by == "proof"
        want = {"svd": 2, "eigh": 0, "eigvalsh": 0, "inv": 1}
        assert {k: lapack_counts[k] for k in want} == want
        # each sampled value is one stacked SVD, measured on first read only
        for name in ("gauge_norm_max", "gauge_commute_defect"):
            lapack_counts.clear()
            assert getattr(rep, name) == getattr(rep, name)
            assert lapack_counts["svd"] == 1


def test_build_similarity_uses_the_hypotheses_xi_as_is():
    # X^-1 is the weighted orbit of the unit vector check_hypotheses made,
    # not of that vector normalized once more; on two of these inputs the
    # second normalization moves the last bits of xi
    moved = 0
    for seed in range(20):
        N, xi, gens = _perturbed_input(seed)
        cert = nilsim.build_similarity(N, xi, gens)
        x = cert.hypotheses.xi
        cache = tuples._power_cache(N, N.n)
        U = np.column_stack(
            [math.sqrt(mi.multinomial_weight(b)) * (cache[b] @ x) for b in cert.model.basis_indices]
        )
        assert np.array_equal(cert.X_inv, U), seed
        moved += not np.array_equal(nilsim._require_unit(x, N.n), x)
    assert moved > 0


# Exact numbers of dense LAPACK calls made by build_similarity on a
# conjugated staircase, whose layers are not orthonormal, so gamma comes
# from the grid, one stacked SVD. While a Brent refine followed the grid,
# the same call made svd 17, 9 of them the refine's. While the 64 grid
# gauges took one SVD each, the hypotheses measured the gauge defect eagerly
# and the model rebuilt for the correspondence measured its row defect, it
# made svd 83, eigh 0, eigvalsh 1, inv 2. While the d = 2 conjugation
# residuals took one SVD each, svd was 8.
def test_build_similarity_grid_branch_lapack_calls(lapack_counts):
    N, xi, gens = _perturbed_input(9)
    lapack_counts.clear()
    cert = nilsim.build_similarity(N, xi, gens)
    assert cert.hypotheses.gamma > 1.0
    want = {"svd": 7, "eigh": 0, "eigvalsh": 0, "inv": 2}
    assert {k: lapack_counts[k] for k in want} == want


@given(
    st.floats(0, 1e3) | st.sampled_from([math.nan, math.inf, 0.0]),
    st.sampled_from([nilsim.RESIDUAL_RTOL, nilsim.NECESSITY_TOL, 1e-300, 1.0]),
    st.floats(0, 1e20) | st.sampled_from([math.nan, math.inf, 0.0, 1.0]),
    st.floats(1e-3, 1e3),
)
def test_within_decides_as_the_measured_gate(value, tol, factor, scale):
    N = tuples.validate([scale * np.eye(2, dtype=complex)])
    assert nilsim._within(value, tol, factor, N) == (value <= tol * max(1.0, N.scale()) * factor)


def test_walk_stops_after_the_top_degree_of_a_conjugated_tuple(monkeypatch):
    # the powers past degree L of a conjugated staircase are roundoff; when
    # degree L + 1 is below n, the walk computes it, proves every deeper
    # power below tol and stops, without the nilpotency gate on N_j^n
    inputs = [_perturbed_input(seed) for seed in range(8, 40)]
    reached, gates = [], []

    def levels(T, start, _orig=tuples._levels):
        # the walk over the powers themselves, not krylov's over the orbit
        for ell, level in enumerate(_orig(T, start)):
            if start.shape[1] == T.n:
                reached.append(ell)
            yield level

    def gate(*args, _orig=nilsim._require_nilpotent, **kwargs):
        gates.append(1)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(tuples, "_levels", levels)
    monkeypatch.setattr(nilsim, "_require_nilpotent", gate)
    stopped = 0
    for N, xi, _ in inputs:
        reached.clear()
        gates.clear()
        h = nilsim.check_hypotheses(N, xi)
        assert max(map(mi.degree, h._orbit)) == h.L
        if h.L + 1 < N.n:
            assert (reached[-1], gates) == (h.L + 1, [])
            stopped += 1
        else:
            assert (reached[-1], gates) == (N.n - 1, [1])
    assert stopped == 16


def test_wrong_ideal_reaching_the_stopping_degree_keeps_its_refusal():
    # a conjugated <x^2, xy, y^2> (L = 1) against the same-dimension wrong
    # ideal <x^3, y>: its basis index x^2 sits at the degree where the walk
    # stops. The refusal was pinned before the walk stopped there, when the
    # column of x^2 was the roundoff vector N^(2,0) xi
    N, xi, gens = _perturbed_input(9)
    assert gens == SQUARE
    h = nilsim.check_hypotheses(N, xi)
    assert h.L == 1 and max(map(mi.degree, h._orbit)) == 1
    assert models.monomial_model([(3, 0), (0, 1)], 2).basis_indices[-1] == (2, 0)
    with pytest.raises(ValidationError) as got:
        nilsim.build_similarity(N, xi, [(3, 0), (0, 1)])
    assert str(got.value) == "the weighted orbit over the model basis is not a basis: its matrix is singular"


def _grid(B, B_inv, labels):
    # every gauge of the grid in one stack; _grid_gamma forms only the ones
    # it factors, with the same bits
    phases = nilsim._phases(nilsim.GAMMA_GRID, labels[-1])[:, list(labels)]
    return (B[None] * phases[:, None, :]) @ B_inv


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
    st.floats(-3.0, 0.5),
)
def test_pairing_bound_dominates_the_computed_norms(seed, dims, log_spread):
    # a layer basis B with columns labelled by their layer: at the threshold
    # g = fl(||W_k'||) itself the screen must not put W_k' below g
    n = sum(dims)
    assume(n >= 2)
    labels = tuple(ell for ell, k in enumerate(dims) for _ in range(k))
    rng = np.random.default_rng(seed)
    B = np.eye(n) + 10**log_spread * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    B_inv = numerics.inv(B)
    s = numerics.singular_values(_grid(B, B_inv, labels))
    half = nilsim.GAMMA_GRID // 2
    for k in range(half + 1, nilsim.GAMMA_GRID):
        g = float(s[k, 0])
        assert not nilsim._paired_below(B, B_inv, s[: half + 1], g)[k - half - 1], k
        # and the bound is close to the norm it bounds on these inputs
        if numerics.cond(B) < 1e3:
            assert nilsim._paired_below(B, B_inv, s[: half + 1], g * (1.0 + 1e-6))[k - half - 1], k


def test_ill_conditioned_layers_factor_every_gauge():
    # cond(B) = 1e13: the SVD room delta ||W_p|| and the product room
    # 2 delta kappa swamp s_min(W_p), so no denominator is positive and no
    # gauge is ruled out, however large the threshold
    rng = np.random.default_rng(5)
    n = 4
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    B = U @ np.diag(np.logspace(0, -13, n)) @ V.conj().T
    B_inv = numerics.inv(B)
    labels = (0, 1, 1, 2)
    s = numerics.singular_values(_grid(B, B_inv, labels))
    half = nilsim.GAMMA_GRID // 2
    assert not nilsim._paired_below(B, B_inv, s[: half + 1], 1e300).any()
    assert nilsim._grid_gamma(B, B_inv, labels) == float(s[:, 0].max())


def _bench_perturbed_inputs():
    # the (N, xi, gens) of the perturbed items of the benchmark's
    # certify-staircases workload at its seeds 1 and 3 and its holdout seed
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses resolve their annotations there
    spec.loader.exec_module(workloads)
    inputs = []
    orig = workloads._perturbed_item
    workloads._perturbed_item = lambda N, xi, gens: inputs.append((N, xi, gens)) or orig(N, xi, gens)
    for seed in (1, 3, 20261017):
        workloads.certify_staircases(seed)
    return inputs


def test_grid_gamma_is_the_maximum_over_every_gauge(monkeypatch):
    # bit for bit the maximum over all GAMMA_GRID gauges; the first half is
    # one stacked SVD of 33 gauges, the second only the gauges the pairing
    # bound leaves, among them every one whose norm reaches the first maximum
    stacks = []

    def svd(a, *args, _orig=numerics._svd, **kwargs):
        stacks.append(a.shape[0] if a.ndim == 3 else 1)
        return _orig(a, *args, **kwargs)

    inputs = [_perturbed_input(seed)[:2] for seed in range(40)] + [case[:2] for case in _bench_perturbed_inputs()]
    assert len(inputs) == 40 + 120
    half = nilsim.GAMMA_GRID // 2
    grids = extra = 0
    for N, xi in inputs:
        h = nilsim.check_hypotheses(N, xi)
        if h.gamma == 1.0:
            continue  # orthonormal layers: no grid
        B, B_inv, labels = h._layer_basis, h._layer_basis_inv, h._layer_labels
        s = numerics.singular_values(_grid(B, B_inv, labels))
        assert h.gamma == float(s[:, 0].max())
        monkeypatch.setattr(numerics, "_svd", svd)
        stacks.clear()
        assert nilsim._grid_gamma(B, B_inv, labels) == h.gamma
        monkeypatch.undo()
        g = float(s[: half + 1, 0].max())
        must = int((s[half + 1 :, 0] >= g).sum())
        assert stacks[0] == half + 1
        assert sum(stacks[1:]) == int((~nilsim._paired_below(B, B_inv, s[: half + 1], g)).sum()) >= must
        grids += 1
        extra += sum(stacks[1:])
    assert grids == 32 + 60
    # on average a handful of the 31 gauges of (pi, 2pi) are factored
    assert extra <= 8 * grids


def test_proved_dead_refuses_past_the_room_it_needs():
    # the proof needs (2n + 2) 16 n^3 u <= 1/2, that is (2n + 2) 16 n^3 <= 2^52
    n = 1
    while (2 * n + 4) * 16 * (n + 1) ** 3 <= 2**52:
        n += 1
    assert n == 3444
    assert nilsim._proved_dead(0.0, 1.0, n, n, 1.0)
    assert not nilsim._proved_dead(0.0, 1.0, n + 1, n + 1, 1.0)
