import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arveson import models, multiindex as mi, numerics, spectral, tuples
from arveson.errors import InputError, ValidationError
from arveson.polynomials import Polynomial
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
    return max(0.0, float(numerics.hermitian_eig(gram)[0].max() - 1.0))


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


def test_apply_poly_matches_direct():
    T = pair()
    p = Polynomial(2, {(1, 0): 2.0, (0, 1): -1j, (0, 0): 0.5})
    want = 2.0 * E21 - 1j * E31 + 0.5 * np.eye(3)
    assert_allclose(tuples.apply_poly(p, T), want, atol=1e-14)


def test_apply_poly_products_commute_with_order():
    rng = np.random.default_rng(5)
    # commuting pair: polynomials in a single matrix
    A = rng.standard_normal((4, 4))
    T = tuples.validate([A, A @ A])
    p = Polynomial(2, {(2, 1): 1.0})
    want = np.linalg.matrix_power(A, 2) @ (A @ A)
    assert_allclose(tuples.apply_poly(p, T), want, rtol=1e-10)


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
    ann = tuples.annihilator_slice(T, 2)
    # every degree-2 monomial dies, nothing of lower degree does
    dims = len(ann)
    assert dims == 3
    for p in ann:
        assert_allclose(tuples.apply_poly(p, T), 0, atol=1e-12)


def test_annihilator_scale_invariance():
    # scaling the tuple must not change the annihilator slice dimension
    T = pair()
    S = tuples.validate([100 * E21, 100 * E31])
    assert len(tuples.annihilator_slice(S, 2)) == len(
        tuples.annihilator_slice(T, 2)
    )


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
