import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from arveson import models, multiindex as mi, numerics, repro, spectral, tuples
from arveson.errors import InputError, ValidationError
from arveson.polynomials import Polynomial
from oracles import hermitian_eig
from test_acceptance import _downset_family, _perturbed_input, _staircase_generators

E21 = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
E31 = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=complex)


def pair():
    return tuples.validate([E21, E31])


def test_validate_accepts_commuting():
    T = pair()
    assert T.d == 2 and T.n == 3
    assert T.commutator_defect == 0.0
    assert T.is_row_contraction()


def test_validate_rejects_shape_mismatch():
    with pytest.raises(InputError):
        tuples.validate([np.eye(2), np.eye(3)])
    with pytest.raises(InputError):
        tuples.validate([])


def test_validate_rejects_the_empty_space():
    # without the gate, row_defect would index an empty eigenvalue list
    with pytest.raises(InputError, match=r"\(0, 0\)"):
        tuples.validate([np.zeros((0, 0))])


def test_require_commuting_gate():
    A = np.array([[0, 1], [0, 0]], dtype=complex)
    bad = tuples.validate([A, A.conj().T])
    assert bad.commutator_defect == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        bad.require_commuting()


def test_row_defect_detects_expansion():
    big = tuples.validate([2 * np.eye(2, dtype=complex)])
    assert not big.is_row_contraction()


def _hermitian_eig_row_defect(mats):
    gram = sum(M @ M.conj().T for M in mats)
    return max(0.0, float(hermitian_eig(gram)[0].max() - 1.0))


def test_row_defect_matches_hermitian_eig_oracle():
    # exact models have a diagonal Gram, whose eigenvalues every Hermitian
    # solver returns exactly; on perturbed tuples eigvalsh and eigh take
    # different LAPACK paths and may differ by rounding (seen: one ulp of 1)
    for d in (1, 2, 3):
        for comp in _downset_family(d, 3, 20):
            m = models.monomial_model(_staircase_generators(d, comp), d)
            assert m.tuple.row_defect == _hermitian_eig_row_defect(m.tuple.matrices)
    for seed in range(20):
        N, _, _ = _perturbed_input(seed)
        want = _hermitian_eig_row_defect(N.matrices)
        assert abs(N.row_defect - want) <= 1e-14, seed


def apply_poly(p, T):
    """p(T) by functional calculus on the power walk."""
    cache = tuples._power_cache(T, p.degree())
    return sum((c * cache[alpha] for alpha, c in p.coeffs.items()), np.zeros((T.n, T.n), dtype=complex))


def annihilator_polys(T, degree_bound, tol=numerics.DEFAULT_TOL):
    """The columns of ``annihilator_coeffs`` as polynomials."""
    basis, coeffs = tuples.annihilator_coeffs(T, degree_bound, tol)
    return [Polynomial.from_coeff_vector(T.d, c, basis) for c in coeffs.T]


def test_apply_poly_matches_direct():
    T = pair()
    p = Polynomial(2, {(1, 0): 2.0, (0, 1): -1j, (0, 0): 0.5})
    want = 2.0 * E21 - 1j * E31 + 0.5 * np.eye(3)
    assert_allclose(apply_poly(p, T), want, atol=1e-14)


def test_apply_poly_products_commute_with_order():
    rng = np.random.default_rng(5)
    # commuting pair: polynomials in a single matrix
    A = rng.standard_normal((4, 4))
    T = tuples.validate([A, A @ A])
    p = Polynomial(2, {(2, 1): 1.0})
    want = np.linalg.matrix_power(A, 2) @ (A @ A)
    assert_allclose(apply_poly(p, T), want, rtol=1e-10)


def test_krylov_cyclic_on_model():
    T = pair()
    xi = np.array([1.0, 0, 0], dtype=complex)
    k = tuples.krylov(T, xi, 3)
    assert k.is_cyclic
    assert k.layer_dims == (1, 2)
    assert k.layers_direct


def test_krylov_non_cyclic():
    T = pair()
    xi = np.array([0.0, 1.0, 0], dtype=complex)
    k = tuples.krylov(T, xi, 3)
    assert not k.is_cyclic
    assert k.layer_dims == (1,)


def test_annihilator_slice_of_model_pair():
    T = pair()
    ann = annihilator_polys(T, 2)
    # every degree-2 monomial dies, nothing of lower degree does
    dims = len(ann)
    assert dims == 3
    for p in ann:
        assert_allclose(apply_poly(p, T), 0, atol=1e-12)


def test_annihilator_scale_invariance():
    # scaling the tuple must not change the annihilator slice dimension
    T = pair()
    S = tuples.validate([100 * E21, 100 * E31])
    assert tuples.annihilator_coeffs(S, 2)[1].shape == tuples.annihilator_coeffs(T, 2)[1].shape


def test_moebius_at_zero_is_negation():
    T = pair()
    M = tuples.moebius(T, [0.0, 0.0])
    assert_allclose(M.matrices[0], -E21, atol=1e-14)
    assert_allclose(M.matrices[1], -E31, atol=1e-14)


def test_moebius_is_involution_on_joint_spectrum():
    # for a scalar pair the automorphism acts like the scalar formula
    z = np.array([0.2 + 0.1j, -0.3])
    w = np.array([0.4, 0.1 - 0.2j])
    T = tuples.validate([np.array([[z[0]]]), np.array([[z[1]]])])
    M = tuples.moebius(T, w)
    got = np.array([M.matrices[0][0, 0], M.matrices[1][0, 0]])
    # the automorphism sends w to 0
    Tw = tuples.validate([np.array([[w[0]]]), np.array([[w[1]]])])
    at_w = tuples.moebius(Tw, w)
    assert_allclose([at_w.matrices[j][0, 0] for j in range(2)], 0, atol=1e-12)
    # and it maps the ball to the ball
    assert np.linalg.norm(got) < 1.0


def test_moebius_preserves_row_contraction():
    T = pair()
    M = tuples.moebius(T, [0.3, -0.2])
    assert M.is_row_contraction(tol=1e-10)


def test_moebius_rejects_outside_ball():
    with pytest.raises(InputError):
        tuples.moebius(pair(), [1.0, 0.2])


# -- power orbits, pinned against the loops they replaced ------------------


def _oracle_power_cache(T, degree):
    # the former tuples._power_cache: one product per index, parent found
    # by lowering the first nonzero coordinate
    cache = {(0,) * T.d: np.eye(T.n, dtype=complex)}
    for alpha in mi.enumerate_indices(T.d, degree):
        if alpha in cache:
            continue
        j = next(i for i, a in enumerate(alpha) if a > 0)
        prev = list(alpha)
        prev[j] -= 1
        cache[alpha] = T.matrices[j] @ cache[tuple(prev)]
    return cache


def _oracle_krylov(T, xi, max_degree):
    # the former tuples.krylov with its hand-written level loop
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    layer_bases, layer_dims, all_cols = [], [], []
    s = max(1.0, T.scale())
    ref = float(np.linalg.norm(xi))
    level = {(0,) * T.d: xi}
    for ell in range(max_degree + 1):
        if ell > 0:
            nxt = {}
            for alpha in mi._homogeneous(T.d, ell):
                j = next(i for i, a in enumerate(alpha) if a > 0)
                parent = list(alpha)
                parent[j] -= 1
                nxt[alpha] = T.matrices[j] @ level[tuple(parent)]
            level = nxt
        V = np.column_stack([level[a] for a in mi._homogeneous(T.d, ell)])
        scale = float(np.abs(V).max())
        thresh = 1e-13 * ref * s**ell
        if scale == 0.0 or (math.isfinite(thresh) and scale <= thresh):
            break
        B = numerics.orth_columns(V)
        layer_bases.append(B)
        layer_dims.append(B.shape[1])
        all_cols.append(V)
    if all_cols:
        basis = numerics.orth_columns(np.hstack(all_cols))
    else:
        basis = np.zeros((T.n, 0), dtype=complex)
    total = basis.shape[1]
    return tuples.KrylovData(
        basis=basis,
        is_cyclic=(total == T.n),
        layer_dims=tuple(layer_dims),
        layers_direct=(sum(layer_dims) == total),
        layer_bases=tuple(layer_bases),
    )


def _orbit_cases():
    for d in (1, 2, 3):
        for comp in _downset_family(d, 3, 8):
            m = models.monomial_model(_staircase_generators(d, comp), d)
            yield m.tuple, m.cyclic
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    A /= 2.0 * np.linalg.norm(A, 2)
    xi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    yield tuples.validate([A, A @ A - 0.3 * A, 0.5 * np.eye(5) + A]), xi / np.linalg.norm(xi)


def _assert_krylov_equal(got, want):
    assert got.is_cyclic == want.is_cyclic
    assert got.layer_dims == want.layer_dims
    assert got.layers_direct == want.layers_direct
    assert np.array_equal(got.basis, want.basis)
    assert len(got.layer_bases) == len(want.layer_bases)
    assert all(np.array_equal(a, b) for a, b in zip(got.layer_bases, want.layer_bases))


def test_weight_table_holds_the_multinomial_weights():
    for d in (1, 2, 3, 4):
        for ell in range(7):
            table = tuples._weight_table(d, ell)
            assert list(table) == list(mi._homogeneous(d, ell))
            assert all(type(w) is int and w == mi.multinomial_weight(a) for a, w in table.items())


def test_power_orbits_match_the_former_loops():
    for T, xi in _orbit_cases():
        for degree in (0, 1, T.n):
            got = tuples._power_cache(T, degree)
            want = _oracle_power_cache(T, degree)
            assert list(got) == list(want)
            assert all(np.array_equal(got[a], want[a]) for a in want)
        for max_degree in (0, 2, T.n):
            _assert_krylov_equal(
                tuples.krylov(T, xi, max_degree), _oracle_krylov(T, xi, max_degree)
            )


def _eager_defects(mats):
    # the former validate, which measured both defects on construction
    defect = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            defect = max(
                defect,
                numerics.operator_norm(mats[i] @ mats[j] - mats[j] @ mats[i]),
            )
    gram = numerics._hermitian_part(sum(M @ M.conj().T for M in mats))
    excess = np.linalg.eigvalsh(gram)[-1] - 1.0
    return defect, max(0.0, float(excess))


def _defect_cases():
    for d in (1, 2, 3):
        for comp in _downset_family(d, 3, 8):
            yield models.monomial_model(_staircase_generators(d, comp), d).tuple
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A /= np.linalg.norm(A, 2)
        # commuting: polynomials in A; the last pair does not commute
        yield tuples.validate([A, A @ A - 0.3 * A, 0.5 * np.eye(n) + A])
        yield tuples.validate([A, A.conj().T])
    T = tuples.validate([np.diag([0.1, 0.5, 0.1]), np.diag([0.2, -0.3, 0.2])])
    dec = spectral.jordan_decompose(T)
    yield from dec.blocks
    yield from dec.nilpotents


def test_defects_read_on_first_use_match_the_eager_validate():
    for T in _defect_cases():
        commutator, row = _eager_defects(T.matrices)
        assert T.commutator_defect == commutator
        assert T.row_defect == row


def test_validate_measures_no_defect(lapack_counts):
    mats = [E21, E31]
    lapack_counts.clear()
    T = tuples.validate(mats)
    assert sum(lapack_counts.values()) == 0
    assert T.commutator_defect == 0.0 and T.row_defect == 0.0
    assert lapack_counts["svd"] == 1 and lapack_counts["eigvalsh"] == 1


def _gate_decisions(mats, tol):
    """(commutes, row contraction) from the screened gates of a fresh tuple
    and from the measured defects of another, as the gates compared them
    before the screens."""
    T = tuples.validate(mats)
    try:
        T.require_commuting(tol)
        commutes = True
    except ValidationError:
        commutes = False
    screened = (commutes, T.is_row_contraction(tol))
    M = tuples.validate(mats)
    measured = (M.commutator_defect <= tol * max(1.0, M.scale()) ** 2, M.row_defect <= tol)
    return screened, measured


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    log_noise=st.floats(-17.0, -7.0),
    log_excess=st.floats(-13.0, -7.0),
    sign=st.sampled_from([-1.0, 1.0]),
    tol=st.sampled_from([1e-9, 1e-6, 1e-12, 1e-15, 0.0]),
)
def test_screened_gates_decide_as_the_measured_gates(n, seed, log_noise, log_excess, sign, tol):
    # polynomials in one matrix commute up to rounding, plus noise of a
    # chosen size; the tuple is rescaled so that ||sum T_j T_j^*|| lands
    # near 1 on either side
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mats = [A, A @ A - 0.5 * A + 10**log_noise * E / np.linalg.norm(E)]
    gram_norm = np.linalg.norm(sum(M @ M.conj().T for M in mats), 2)
    r = np.sqrt((1.0 + sign * 10**log_excess) / gram_norm)
    screened, measured = _gate_decisions([r * M for M in mats], tol)
    assert screened == measured


def _near(value, rel):
    return [value * (1.0 - rel), value * (1.0 + rel)]


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_screened_gates_agree_within_1e_3_of_each_threshold(tol, lapack_counts):
    # commutator of A = E12 and c A^*: diag(c, -c), exact in floating
    # point, so the defect is c, its Frobenius norm c sqrt(2), the scale 1;
    # a multiple s I has ||sum T T^*|| = s^2 and max abs row sum s^2
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    U = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    # the measured thresholds: defect = tol, row defect = tol
    measured = [[A, c * A.conj().T] for c in _near(tol, 1e-3)]
    measured += [[np.sqrt(1.0 + e) * np.eye(3)] for e in _near(tol, 1e-3)]
    measured += [[np.sqrt((1.0 + e) / 2) * U, np.sqrt((1.0 + e) / 2) * U] for e in _near(tol, 1e-3)]
    decisions = [_gate_decisions(mats, tol) for mats in measured]
    assert all(screened == measured for screened, measured in decisions)
    assert [m for _, m in decisions] == [(True, True), (False, True)] + [(True, True), (True, False)] * 2
    # the screens' thresholds, Frobenius norm tol/2 and abs row sums
    # 1 + tol/2: below, the screen passes without a factorization; above,
    # the gate measures (the norms, one stacked SVD, and the defect) and
    # passes
    for c, svds in zip(_near(tol / (2 * np.sqrt(2.0)), 1e-3), (0, 2)):
        T = tuples.validate([A, c * A.conj().T])
        lapack_counts.clear()
        T.require_commuting(tol)
        assert lapack_counts["svd"] == svds
    for e, eigs in zip(_near(tol / 2, 1e-3), (0, 1)):
        T = tuples.validate([np.sqrt(1.0 + e) * np.eye(3)])
        lapack_counts.clear()
        assert T.is_row_contraction(tol)
        assert lapack_counts["eigvalsh"] == eigs


def test_screened_pass_makes_no_factorization_and_keeps_the_defect_bits(lapack_counts):
    # every exact staircase model passes both screens without an SVD or an
    # eigensolve; the defects and norms read afterwards carry the bits of
    # the former eager measurement and of one SVD per coordinate
    for d in (1, 2, 3):
        for comp in _downset_family(d, 3, 20):
            T = models.monomial_model(_staircase_generators(d, comp), d).tuple
            lapack_counts.clear()
            T.require_commuting()
            assert T.is_row_contraction()
            assert sum(lapack_counts.values()) == 0, comp
            assert (T.commutator_defect, T.row_defect) == _eager_defects(T.matrices)
            assert T.norms == tuple(numerics.operator_norm(M) for M in T.matrices)


@pytest.mark.parametrize("k", [0.5, 0.99, 1.0, 1.01, 1.5, 1.99, 2.0, 2.01, 3.0, 1e6])
def test_krylov_screen_decides_as_the_measured_threshold(k):
    # layer 2 of xi = e_0 has largest entry 5c = k 1e-13 s^2 with s = 5, the
    # scale; its measured threshold sits at k = 1, and the screen, with
    # S = max(1, max ||T_j||_F) = 5 here, calls it live only past k = 2
    c = k * 5e-13
    J = np.zeros((3, 3), dtype=complex)
    J[2, 1] = c
    K = np.zeros((3, 3), dtype=complex)
    K[1, 0] = 5.0
    xi = np.array([1.0, 0, 0], dtype=complex)
    fresh, measured = tuples.validate([J, K]), tuples.validate([J, K])
    assert measured.norms == (c, 5.0)
    got, want = tuples.krylov(fresh, xi, 3), tuples.krylov(measured, xi, 3)
    assert got.layer_dims == want.layer_dims == ((1, 1, 1) if k > 1 else (1, 1))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.layer_bases, want.layer_bases))
    assert got.basis.tobytes() == want.basis.tobytes()
    # past the screen's threshold no layer needs the norms
    assert ("norms" in fresh.__dict__) == (k <= 2)


def test_row_contraction_gate_forms_the_gram_once(monkeypatch, lapack_counts):
    # on R(t) the screen cannot decide (absolute row sums of G above
    # 1 + tol/2 while ||G|| = 1), so the eigensolve reads the screen's G; the
    # defect keeps the bits of a measurement on a fresh tuple
    calls = []

    def gram(self, _orig=tuples.CommutingTuple._gram):
        calls.append(1)
        return _orig(self)

    for t in (0.05, 0.1, 0.3):
        R1, R2, _ = repro.two_variable_family(t)
        want = tuples.validate([R1, R2]).row_defect
        T = tuples.validate([R1, R2])
        monkeypatch.setattr(tuples.CommutingTuple, "_gram", gram)
        calls.clear()
        lapack_counts.clear()
        assert T.is_row_contraction()
        assert T.row_defect == want
        assert (calls, lapack_counts["eigvalsh"]) == ([1], 1)
        monkeypatch.undo()


def test_commuting_gate_keeps_its_screen_on_the_tuple(monkeypatch, lapack_counts):
    # moebius gates its tuple once per point, as repro's two-variable
    # example does; the commutators are formed once, and no gate measures
    calls = []

    def commutators(self, _orig=tuples.CommutingTuple._commutators):
        calls.append(1)
        return _orig(self)

    monkeypatch.setattr(tuples.CommutingTuple, "_commutators", commutators)
    R1, R2, _ = repro.two_variable_family(0.1)
    T = tuples.validate([R1, R2])
    lapack_counts.clear()
    for w in ([0.1, 0.2], [0.3j, -0.1], [0.0, 0.5]):
        tuples.moebius(T, w)
    T.require_commuting(1e-6)
    assert calls == [1]
    assert lapack_counts["svd"] == 0 and "commutator_defect" not in T.__dict__
    # a commutator that overflows to NaN is screened as inf: the gate measures
    big = 1e200
    U = tuples.validate([np.array([[big, big], [0.0, 0.0]]), np.array([[big, 0.0], [big, 0.0]])])
    with np.errstate(over="ignore", invalid="ignore"):
        assert U._commutator_fro == math.inf
    assert tuples.validate([np.eye(2)])._commutator_fro == 0.0


def test_screens_run_up_to_order_65_at_the_default_tol():
    # (1 + tol/2) 16 n^3 u <= tol/2 holds at n = 65 and fails at n = 66
    assert tuples.validate([np.zeros((65, 65))])._screens(1e-9)
    assert not tuples.validate([np.zeros((66, 66))])._screens(1e-9)


class _Order(int):
    """An order that compares as the tuple's own but whose powers are those
    of ``virtual``: the rounding room reads the order only through n**3,
    so a small tuple meets the room of a tuple of order ``virtual``."""

    virtual = 40000

    def __pow__(self, k):
        return self.virtual**k


def test_krylov_screens_no_layer_past_its_reach(monkeypatch):
    # the screen needs l (16 n^3 u + 2u) <= 1/2: at order 40000 it covers
    # the layers 0..4, and layer 5 reads the measured norms
    reach = Fraction(1, 2) / ((16 * _Order.virtual**3 + 2) * Fraction(1, 2**53))
    assert math.floor(reach) == 4
    monkeypatch.setattr(tuples.CommutingTuple, "n", property(lambda self: _Order(len(self.matrices[0]))))
    shift = np.eye(8, k=-1, dtype=complex)
    xi = np.eye(8, dtype=complex)[0]
    for degree in (4, 5):
        T = tuples.validate([shift])
        assert tuples.krylov(T, xi, degree).layer_dims == (1,) * (degree + 1)
        assert ("norms" in T.__dict__) == (degree > 4)


def test_frobenius_bound_reads_an_overflowed_square_as_inf():
    # np.vdot of an entry whose real and imaginary parts both overflow when
    # squared is NaN; read as 1, the bound let the krylov screen call live
    # the layer (0, 0, 1) that the measured rule calls dead
    c = 1.3e154 - 1.4e154j
    M = np.array([[0, 0, 0], [c, 0, 0], [0, 1, 0]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(np.vdot(M, M).real)
        T = tuples.validate([M])
        assert tuples._frobenius_bound(T) == math.inf
        xi = np.eye(3, dtype=complex)[1]
        measured = tuples.validate([M])
        assert measured.norms[0] > 1e154
        assert tuples.krylov(T, xi, 1).layer_dims == tuples.krylov(measured, xi, 1).layer_dims == (1,)
