"""End-to-end checks of every advertised capability, one test per item.

Each test carries the wall clock budget it must meet on a desk machine; run
with -v to get one pass/fail line per capability. The troubled two-variable
family has its own test: it violates the admissibility hypothesis for every
t > 0, so the test checks that the certificate is refused while the raw
similarity exists with the forced condition growth, which is the
obstruction the paper proves.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg

from arveson import (
    interp,
    models,
    nilsim,
    numerics,
    polyideal,
    repro,
    spectral,
    tuples,
)
from arveson.errors import ValidationError
from arveson.polynomials import Polynomial
from oracles import hermitian_eig


def _budget(started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"took {elapsed:.2f}s, budget {limit:.0f}s"


# ---------------------------------------------------------------------------
# staircase enumeration: every proper monomial ideal is determined by its
# complement, a divisibility down-set of exponents


def _downset_family(d: int, max_deg: int, max_size: int) -> list:
    cells = [
        a
        for a in itertools.product(range(max_deg + 1), repeat=d)
        if sum(a) <= max_deg
    ]
    cells.sort(key=lambda a: (sum(a), a))
    idx = {a: i for i, a in enumerate(cells)}
    preds = [
        [idx[a[:j] + (a[j] - 1,) + a[j + 1 :]] for j in range(d) if a[j] > 0]
        for a in cells
    ]
    out = []

    def rec(i: int, chosen: set) -> None:
        if len(chosen) > max_size:
            return
        if i == len(cells):
            if chosen:
                out.append([cells[k] for k in sorted(chosen)])
            return
        rec(i + 1, chosen)
        if all(p in chosen for p in preds[i]):
            chosen.add(i)
            rec(i + 1, chosen)
            chosen.remove(i)

    rec(0, set())
    return out


def _staircase_generators(d: int, complement: list) -> list:
    comp = set(complement)
    max_deg = max(sum(a) for a in comp)
    gens = []
    for a in itertools.product(range(max_deg + 2), repeat=d):
        if a in comp:
            continue
        if all(
            a[:j] + (a[j] - 1,) + a[j + 1 :] in comp
            for j in range(d)
            if a[j] > 0
        ):
            gens.append(a)
    return gens


def test_criterion_1_square_ideal_model():
    t0 = time.perf_counter()
    gens = [(2, 0), (1, 1), (0, 2)]
    m = models.monomial_model(gens, 2)
    assert m.basis_indices == ((0, 0), (1, 0), (0, 1))
    E21 = np.zeros((3, 3), dtype=complex)
    E21[1, 0] = 1.0
    E31 = np.zeros((3, 3), dtype=complex)
    E31[2, 0] = 1.0
    assert np.abs(m.tuple.matrices[0] - E21).max() <= 1e-12
    assert np.abs(m.tuple.matrices[1] - E31).max() <= 1e-12
    gram = sum(Z @ Z.conj().T for Z in m.tuple.matrices)
    assert np.abs(gram - np.diag([0.0, 1.0, 1.0])).max() <= 1e-12
    basis, ann = tuples.annihilator_coeffs(m.tuple, 2)
    A = numerics.orth_columns(ann)
    E = np.eye(len(basis), dtype=complex)[:, [basis.index(g) for g in gens]]
    assert A.shape[1] == 3
    assert numerics.subspace_equal(A, E, 1e-10)
    _budget(t0, 1.0)


def test_criterion_2_one_variable_minimal_condition():
    t0 = time.perf_counter()
    rep = repro.example_one_variable((0.1, 0.01, 0.001), lams=(0.5,))
    for r in rep.rows:
        assert abs(r.measured_min_cond - 1.0 / r.eps) <= 0.01 / r.eps, r
        assert r.within_one_percent
    _budget(t0, 5.0)


def test_criterion_3_two_variable_family():
    t0 = time.perf_counter()
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(repro.f_two_variable(1.0) - golden) <= 1e-10
    assert abs(repro.f_two_variable(0.001) - math.sqrt(2.0)) <= 1e-5
    rep = repro.example_two_variable((1.0, 0.1, 0.01, 0.001))
    for r in rep.rows:
        assert r.nullspace_dim == 3, r
        assert r.form_matches, r
        assert r.det_identity_ok, r
        assert r.measured_min_cond >= r.lower_bound - 1e-6, r
    _budget(t0, 10.0)


def _jordan_shape(rng):
    d = int(rng.integers(1, 4))
    k = int(rng.integers(1, 5))
    sizes = [int(rng.integers(1, 7)) for _ in range(k)]
    while sum(sizes) > 30:
        sizes.pop()
    return d, sizes


def _planted_tuple(rng, d, sizes):
    """Coordinates G (directsum z_j I + c1 J + c2 J^2) G^-1 with points at
    least 0.1 apart and cond(G) <= 10; also the points and the blocks."""
    pts = []
    while len(pts) < len(sizes):
        z = rng.uniform(-1.0, 1.0, d) + 1j * rng.uniform(-1.0, 1.0, d)
        if all(np.linalg.norm(z - w) >= 0.1 for w in pts):
            pts.append(z)
    blocks = []
    for s, z in zip(sizes, pts):
        J = np.diag(np.ones(s - 1), 1) if s > 1 else np.zeros((1, 1))
        coords = []
        for j in range(d):
            c1 = rng.uniform(0.3, 0.7) + 1j * rng.uniform(-0.2, 0.2)
            c2 = float(rng.uniform(-0.3, 0.3))
            coords.append(z[j] * np.eye(s, dtype=complex) + c1 * J + c2 * (J @ J))
        blocks.append(coords)
    n = sum(sizes)
    while True:
        G = np.eye(n, dtype=complex) + 0.2 * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ) / math.sqrt(n)
        if np.linalg.cond(G) <= 10.0:
            break
    Gi = np.linalg.inv(G)
    mats = [
        G @ scipy.linalg.block_diag(*[b[j] for b in blocks]) @ Gi
        for j in range(d)
    ]
    return mats, pts, blocks


def _jordan_input(seed: int):
    rng = np.random.default_rng(6100 + seed)
    d, sizes = _jordan_shape(rng)
    mats, pts, blocks = _planted_tuple(rng, d, sizes)
    return tuples.validate(mats), pts, sizes, blocks


def _same_annihilator(A: tuples.CommutingTuple, B: tuples.CommutingTuple, deg: int) -> bool:
    _, pa = tuples.annihilator_coeffs(A, deg, tol=1e-8)
    _, pb = tuples.annihilator_coeffs(B, deg, tol=1e-8)
    if pa.shape != pb.shape:
        return False
    if not pa.shape[1]:
        return True
    return numerics.subspace_equal(numerics.orth_columns(pa), numerics.orth_columns(pb), 1e-6)


def test_criterion_4_jordan_recovery():
    t0 = time.perf_counter()
    for seed in range(50):
        T, pts, sizes, blocks = _jordan_input(seed)
        dec = spectral.jordan_decompose(T)
        assert dec.residual <= 1e-7 * max(1.0, T.scale()), seed
        assert sorted(dec.spectrum.multiplicities) == sorted(sizes), seed
        for z, s, coords in zip(pts, sizes, blocks):
            i = dec.spectrum.locate(z)
            err = float(np.linalg.norm(np.asarray(dec.spectrum.points[i]) - z))
            assert err <= 1e-8, (seed, err)
            assert dec.spectrum.multiplicities[i] == s, seed
            got = dec.blocks[i]
            want = tuples.validate(coords)
            assert _same_annihilator(got, want, s), (seed, z)
    _budget(t0, 30.0)


# perturbed-but-admissible inputs: either the model scaled by 0.9 (on
# staircases small enough to keep epsilon * card below one) or a conjugation
# by a matrix near the identity, rescaled back into the row contraction ball
_SCALED_POOL = [
    (1, [(2,)]),
    (2, [(2, 0), (1, 1), (0, 2)]),
    (2, [(2, 0), (0, 1)]),
    (3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (3, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]),
]

_CONJUGATED_POOL = _SCALED_POOL + [
    (1, [(4,)]),
    (2, [(3, 0), (0, 2)]),
    (2, [(3, 0), (2, 1), (1, 2), (0, 3)]),
]


def _perturbed_input(seed: int):
    rng = np.random.default_rng(8200 + seed)
    if seed < 8:
        d, gens = _SCALED_POOL[seed % len(_SCALED_POOL)]
        m = models.monomial_model(gens, d)
        mats = [0.9 * Z for Z in m.tuple.matrices]
        return tuples.validate(mats), m.cyclic.copy(), gens
    d, gens = _CONJUGATED_POOL[seed % len(_CONJUGATED_POOL)]
    m = models.monomial_model(gens, d)
    n = m.dim
    delta = 0.05
    for _ in range(6):
        S = np.eye(n, dtype=complex) + delta * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ) / math.sqrt(n)
        mats = [S @ Z @ np.linalg.inv(S) for Z in m.tuple.matrices]
        g = float(
            hermitian_eig(sum(M @ M.conj().T for M in mats))[0][-1]
        )
        if g > 1.0:
            mats = [M / math.sqrt(g) for M in mats]
        xi = S @ m.cyclic
        xi = xi / np.linalg.norm(xi)
        T = tuples.validate(mats)
        hy = nilsim.check_hypotheses(T, xi)
        if hy.layers_direct and hy.epsilon * hy.card < 0.9:
            return T, xi, gens
        delta /= 2.0
    raise AssertionError(f"no admissible perturbation found for seed {seed}")


def test_criterion_5_exact_models_and_perturbations():
    t0 = time.perf_counter()
    count = 0
    for d in (1, 2, 3):
        for comp in _downset_family(d, 3, 20):
            gens = _staircase_generators(d, comp)
            m = models.monomial_model(gens, d)
            cert = nilsim.build_similarity(m.tuple, m.cyclic, gens)
            assert cert.hypotheses.epsilon <= 1e-12, gens
            assert abs(cert.hypotheses.gamma - 1.0) <= 1e-9, gens
            assert (
                float(np.linalg.norm(cert.X - np.eye(m.dim), 2)) <= 1e-12
            ), gens
            count += 1
    assert count == 2542
    for seed in range(20):
        N, xi, gens = _perturbed_input(seed)
        cert = nilsim.build_similarity(N, xi, gens)
        assert cert.bounds_hold, (seed, gens)
        assert cert.bound_X - cert.norm_X >= -1e-7 * cert.bound_X, seed
        assert cert.bound_X_inv - cert.norm_X_inv >= -1e-7 * cert.bound_X_inv, seed
        nec = nilsim.necessity_check(N, cert.X, gens)
        assert nec.ok, seed
    _budget(t0, 20.0)


def test_criterion_5_troubled_family_certificates():
    """What can be certified on the troubled pair R(t) for t <= 0.3.

    R(t) = (N1, N1 + t N2) / f(t) has epsilon = 1 - 1/f(t)^2 exactly, and
    f(t)^2 >= 2, so epsilon >= 1/2; its support Xi has three elements, so
    epsilon * card Xi >= 3/2 for every t > 0. The norm-bound certificate is
    therefore out of reach on the whole family and build_similarity must
    refuse it at the admissibility gate. The similarity itself exists: the
    correspondence matrix intertwines at rounding level with ||X^{-1}|| = 1
    and ||X|| = f^2/t, it passes the necessity check, and its condition
    number obeys the forced growth cond(X) >= t^(-1/3) f^(2/3) of
    repro.example_two_variable. This is the obstruction that keeps
    quasi-similarity from being improved to similarity with norm control.
    """
    t0 = time.perf_counter()
    gens = [(2, 0), (1, 1), (0, 2)]
    xi = np.array([1.0, 0.0, 0.0], dtype=complex)
    for t in (0.05, 0.15, 0.3):
        R1, R2, f = repro.two_variable_family(t)
        T = tuples.validate([R1, R2])
        hy = nilsim.check_hypotheses(T, xi)
        assert abs(hy.epsilon - (1.0 - 1.0 / f**2)) <= 1e-12, (t, hy.epsilon)
        assert hy.card == 3, t
        assert hy.epsilon * hy.card >= 1.5, (t, hy.epsilon * hy.card)
        assert not hy.admissible, t
        with pytest.raises(ValidationError, match="epsilon card Xi"):
            nilsim.build_similarity(T, xi, gens)

        X, _, residual = nilsim.correspondence_similarity(T, xi, gens)
        assert residual <= 1e-12, (t, residual)
        assert numerics.operator_norm(numerics.inv(X)) <= 1.0 + 1e-9, t
        norm_X = numerics.operator_norm(X)
        assert abs(norm_X - f**2 / t) <= 1e-9 * f**2 / t, (t, norm_X)
        nec = nilsim.necessity_check(T, X, gens)
        assert nec.ok, t
        assert numerics.cond(X) >= t ** (-1.0 / 3.0) * f ** (2.0 / 3.0), t
    _budget(t0, 20.0)


def test_criterion_6_two_point_interpolation():
    t0 = time.perf_counter()
    pts = [[0.0], [0.5]]
    rep = interp.separation_constants(pts)
    assert abs(rep.delta_weak - 0.25) <= 1e-12
    assert abs(rep.gamma_carleson - (1.0 + math.sqrt(3.0) / 2.0)) <= 1e-10
    pick = interp.pick_min_norm(pts, [0.0, 1.0])
    assert abs(pick.value - 2.0) <= 1e-6
    x = Polynomial.variable(1, 0)
    m = models.jet_model(
        pts, [polyideal.PolyIdeal([x], 6), polyideal.PolyIdeal([x - 0.5], 6)]
    )
    dec = spectral.jordan_decompose(m.tuple)
    got = sorted((complex(p[0]) for p in dec.spectrum.points), key=lambda z: z.real)
    assert abs(got[0]) <= 1e-9 and abs(got[1] - 0.5) <= 1e-9
    assert np.isfinite(dec.cond)
    conds = []
    for w in (0.5, 0.3, 0.1, 0.03, 0.01):
        mw = models.jet_model(
            [[0.0], [w]],
            [polyideal.PolyIdeal([x], 6), polyideal.PolyIdeal([x - w], 6)],
        )
        conds.append(spectral.jordan_decompose(mw.tuple).cond)
    assert all(b > a for a, b in zip(conds, conds[1:])), conds
    _budget(t0, 5.0)


_LEMMA_POOL = [
    (1, [(2,)]),
    (1, [(3,)]),
    (1, [(5,)]),
    (2, [(2, 0), (1, 1), (0, 2)]),
    (2, [(2, 0), (0, 1)]),
    (2, [(3, 0), (0, 2)]),
    (2, [(3, 0), (2, 1), (1, 2), (0, 3)]),
    (2, [(2, 0), (1, 1), (0, 3)]),
    (3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (3, [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]),
    (3, [(1, 0, 0), (0, 2, 0), (0, 0, 2)]),
]


def _lemma_draws():
    """The 200 draws (d, generators, scale s) of criterion 7."""
    rng = np.random.default_rng(7)
    return [
        (*_LEMMA_POOL[int(rng.integers(len(_LEMMA_POOL)))], float(rng.uniform(0.5, 1.0)))
        for _ in range(200)
    ]


def test_criterion_7_orbit_inequalities_and_gauge():
    t0 = time.perf_counter()
    for k, (d, gens, s) in enumerate(_lemma_draws()):
        m = models.monomial_model(gens, d)
        N = tuples.validate([s * Z for Z in m.tuple.matrices])
        rep = nilsim.lemma_checks(N, m.cyclic, epsilon=0.0)
        assert rep.ok, (k, d, gens, s)
    ts = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    for d, gens in _LEMMA_POOL:
        m = models.monomial_model(gens, d)
        for t in ts:
            W = models.gauge_unitary(m, float(t))
            phase = np.exp(1j * float(t))
            for Zj in m.tuple.matrices:
                err = numerics.operator_norm(W @ Zj @ W.conj().T - phase * Zj)
                assert err <= 1e-14, (gens, t)
    _budget(t0, 30.0)


def test_criterion_8_localization():
    t0 = time.perf_counter()
    x = Polynomial.variable(1, 0)
    ideal = polyideal.PolyIdeal([x * x * (x - 1.0)], 6)
    at0 = polyideal.localize(ideal, [0.0], 2)
    want0 = polyideal.localize(polyideal.PolyIdeal([x * x], 6), [0.0], 2)
    assert at0.dim == want0.dim
    assert numerics.subspace_equal(at0.basis, want0.basis, 1e-10)
    at1 = polyideal.localize(ideal, [1.0], 2)
    want1 = polyideal.localize(polyideal.PolyIdeal([x - 1.0], 6), [1.0], 2)
    assert at1.dim == want1.dim
    assert numerics.subspace_equal(at1.basis, want1.basis, 1e-10)

    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    b0 = polyideal.PolyIdeal([x1, x2 * x2], 8)
    b1 = polyideal.PolyIdeal([x1 - 0.4, x2 - 0.1], 8)
    m = models.jet_model([(0.0, 0.0), (0.4, 0.1)], [b0, b1])
    reports = models.verify_localizations(m, [b0, b1])
    assert len(reports) == 2
    assert all(r.matches for r in reports)
    _budget(t0, 2.0)
