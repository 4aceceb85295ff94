import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arveson import interp, models, multiindex as mi, numerics, polyideal, tuples
from arveson.errors import InputError, NumericalError
from arveson.polynomials import Polynomial
from test_acceptance import _downset_family, _staircase_generators
from test_fockspace import FockTruncation, jet_vector, mult_matrix, truncation_degree


def test_monomial_model_square_maximal():
    m = models.monomial_model([(2, 0), (1, 1), (0, 2)], 2)
    assert m.dim == 3
    assert m.basis_indices == ((0, 0), (1, 0), (0, 1))
    E21 = np.zeros((3, 3))
    E21[1, 0] = 1
    E31 = np.zeros((3, 3))
    E31[2, 0] = 1
    assert_allclose(m.tuple.matrices[0], E21, atol=1e-13)
    assert_allclose(m.tuple.matrices[1], E31, atol=1e-13)
    S = sum(M @ M.conj().T for M in m.tuple.matrices)
    assert_allclose(S, np.diag([0.0, 1.0, 1.0]), atol=1e-13)


def test_monomial_model_weights_are_norm_ratios():
    # multiplication by x_j maps x^beta to x^(beta+ej); the model entry is
    # the ratio of the monomial norms
    m = models.monomial_model([(3, 0), (0, 2)], 2)
    basis = m.basis_indices
    Z1, Z2 = m.tuple.matrices
    # ||x^(2,0)||^2 = 2!/2! = 1 and ||x^(1,0)||^2 = 1
    assert_allclose(abs(Z1[basis.index((2, 0)), basis.index((1, 0))]), 1.0, rtol=1e-12)
    # ||x^(1,1)||^2 = 1/2 over ||x^(0,1)||^2 = 1
    assert_allclose(
        abs(Z1[basis.index((1, 1)), basis.index((0, 1))]),
        np.sqrt(0.5),
        rtol=1e-12,
    )
    # ||x^(2,1)||^2 = 2/6 over ||x^(2,0)||^2 = 1
    assert_allclose(
        abs(Z2[basis.index((2, 1)), basis.index((2, 0))]),
        np.sqrt(1 / 3),
        rtol=1e-12,
    )


def _fraction_oracle(basis, d):
    """Z_j from the exact rational ratios ||x^(beta+e_j)||^2 / ||x^beta||^2."""
    pos = {beta: i for i, beta in enumerate(basis)}
    mats = []
    for j in range(d):
        Z = np.zeros((len(basis), len(basis)), dtype=complex)
        for beta, col in pos.items():
            target = mi.add(beta, mi.unit(d, j))
            if target in pos:
                ratio = mi.monomial_norm_sq(target) / mi.monomial_norm_sq(beta)
                Z[pos[target], col] = math.sqrt(float(ratio))
        mats.append(Z)
    return mats


def test_monomial_model_is_bit_equal_to_fraction_oracle():
    # the closed form (beta_j + 1) / (|beta| + 1) and the Fraction ratio are
    # the same rational, so both round to the same double on every staircase
    count = 0
    for d in (1, 2, 3):
        for comp in _downset_family(d, 3, 20):
            m = models.monomial_model(_staircase_generators(d, comp), d)
            assert set(m.basis_indices) == set(comp)
            oracle = _fraction_oracle(m.basis_indices, d)
            assert all(np.array_equal(Z, W) for Z, W in zip(m.tuple.matrices, oracle))
            count += 1
    assert count == 2542


def _enumerated_model(generators, d):
    """The former monomial model: every index up to the box degree, each
    tested against every generator, then one shift lookup per entry."""
    gens = [mi.as_index(g) for g in generators]
    for g in gens:
        if len(g) != d:
            raise InputError(f"generator {g} has length {len(g)}, expected {d}")
    if any(mi.degree(g) == 0 for g in gens):
        raise InputError("the ideal contains a unit; the model space is zero")
    box = []
    for j in range(d):
        powers = [g[j] for g in gens if all(g[i] == 0 for i in range(d) if i != j)]
        powers = [p for p in powers if p > 0]
        if not powers:
            raise InputError(
                f"no pure power of variable {j + 1} among the generators; "
                f"the quotient is infinite dimensional"
            )
        box.append(min(powers))
    cand = mi.enumerate_indices(d, sum(p - 1 for p in box))
    B, G = np.array(cand, dtype=np.int64), np.array(gens, dtype=np.int64)
    in_ideal = (B[:, None, :] >= G[None, :, :]).all(axis=2).any(axis=1)
    comp = [beta for beta, hit in zip(cand, in_ideal) if not hit]
    pos = {beta: i for i, beta in enumerate(comp)}
    mats = []
    for j in range(d):
        Z = np.zeros((len(comp), len(comp)), dtype=complex)
        for beta, col in pos.items():
            row = pos.get(beta[:j] + (beta[j] + 1,) + beta[j + 1 :])
            if row is not None:
                Z[row, col] = math.sqrt((beta[j] + 1) / (sum(beta) + 1))
        mats.append(Z)
    cyclic = np.zeros(len(comp), dtype=complex)
    cyclic[pos[(0,) * d]] = 1.0
    return tuple(comp), mats, cyclic


def _assert_matches_enumerated_model(gens, d):
    m = models.monomial_model(gens, d)
    comp, mats, cyclic = _enumerated_model(gens, d)
    assert m.basis_indices == comp, gens
    assert all(np.array_equal(Z, W) for Z, W in zip(m.tuple.matrices, mats)), gens
    assert len(m.tuple.matrices) == d and np.array_equal(m.cyclic, cyclic), gens


def test_monomial_model_walk_matches_the_former_enumeration():
    count = 0
    for d in (1, 2, 3):
        for comp in _downset_family(d, 3, 20):
            _assert_matches_enumerated_model(_staircase_generators(d, comp), d)
            count += 1
    assert count == 2542
    # generator sets that are not minimal: duplicates, multiples of other
    # generators, generators outside the box, unsorted input
    for gens, d in (
        ([(2, 0), (2, 0), (0, 3), (1, 1), (1, 1)], 2),
        ([(3, 0), (0, 2), (4, 0), (3, 1), (1, 2), (2, 2)], 2),
        ([(4, 0), (0, 3), (1, 2), (9, 9), (7, 0), (0, 8), (5, 1)], 2),
        ([(1, 0, 0), (0, 0, 3), (0, 4, 0), (0, 1, 1), (2, 5, 0), (0, 0, 3)], 3),
        ([(0, 2, 0), (2, 0, 0), (0, 0, 2), (1, 1, 1), (3, 3, 3)], 3),
        ([(5,), (7,), (5,)], 1),
        ([(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (0, 1, 1, 1)], 4),
    ):
        _assert_matches_enumerated_model(gens, d)


@pytest.mark.parametrize(
    "gens, d, message",
    [
        ([(2, 0), (0, 2, 1)], 2, "generator (0, 2, 1) has length 3, expected 2"),
        ([(2, 0), (0, 0)], 2, "the ideal contains a unit; the model space is zero"),
        ([(2, 0), (1, 1)], 2, "no pure power of variable 2 among the generators"),
        ([(0, 3), (1, 1)], 2, "no pure power of variable 1 among the generators"),
        ([(1, -1)], 2, "multi-index entries must be >= 0, got (1, -1)"),
        ([], 0, "dimension must be >= 1, got 0"),
        # a walk over this box would visit 27 million cells
        ([(300, 0, 0), (0, 300, 0), (0, 0, 300)], 3, "max_degree 897 exceeds hard limit 512"),
    ],
)
def test_monomial_model_refusals_keep_their_messages(gens, d, message):
    with pytest.raises(InputError) as got:
        models.monomial_model(gens, d)
    with pytest.raises(InputError) as want:
        _enumerated_model(gens, d)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(message)


def test_monomial_model_rejects_unit():
    with pytest.raises(InputError):
        models.monomial_model([(0, 0)], 2)


def test_monomial_model_rejects_infinite_quotient():
    # no pure power of x2 among the generators: quotient has all x2^k
    with pytest.raises(InputError):
        models.monomial_model([(2, 0)], 2)


def test_monomial_model_is_row_contraction():
    m = models.monomial_model([(3, 0), (1, 1), (0, 2)], 2)
    assert m.tuple.is_row_contraction(tol=1e-12)


def test_gauge_unitary_rotates_model():
    m = models.monomial_model([(2, 0), (1, 1), (0, 2)], 2)
    for t in [0.0, 0.7, np.pi / 3, 2.0]:
        W = models.gauge_unitary(m, t)
        assert_allclose(W @ W.conj().T, np.eye(m.dim), atol=1e-14)
        for Z in m.tuple.matrices:
            assert_allclose(
                W @ Z @ W.conj().T, np.exp(1j * t) * Z, atol=1e-14
            )


def test_annihilator_of_monomial_model_is_the_ideal_slice():
    gens = [(2, 0), (1, 1), (0, 2)]
    m = models.monomial_model(gens, 2)
    ann = tuples.annihilator_slice(m.tuple, 2)
    ideal = polyideal.PolyIdeal([Polynomial.monomial(g) for g in gens], 2)
    basis = ideal.basis
    from arveson import numerics

    A = np.column_stack([p.coeff_vector(basis) for p in ann])
    assert numerics.subspace_equal(
        numerics.orth_columns(A), ideal.slice_basis
    )


def test_jet_model_single_point_maximal_ideal():
    # one point, maximal ideal: the model is multiplication by the scalars
    z = [0.3, -0.2]
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    b = polyideal.PolyIdeal(
        [x1 - Polynomial.constant(2, z[0]), x2 - Polynomial.constant(2, z[1])], 6
    )
    m = models.jet_model([z], [b])
    assert m.dim == 1
    assert_allclose(m.tuple.matrices[0], [[z[0]]], atol=1e-10)
    assert_allclose(m.tuple.matrices[1], [[z[1]]], atol=1e-10)


def test_jet_model_two_points_diagonalizable():
    # two distinct points with maximal ideals: joint eigenvalues are the points
    pts = [[0.0], [0.5]]
    x = Polynomial.variable(1, 0)
    b0 = polyideal.PolyIdeal([x], 6)
    b1 = polyideal.PolyIdeal([x - Polynomial.constant(1, 0.5)], 6)
    m = models.jet_model(pts, [b0, b1])
    assert m.dim == 2
    Z = m.tuple.matrices[0]
    vals = np.sort(np.linalg.eigvals(Z).real)
    assert_allclose(vals, [0.0, 0.5], atol=1e-9)


def test_jet_model_is_row_contraction():
    pts = [[0.25, 0.0], [-0.3, 0.2]]
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    b1 = polyideal.PolyIdeal(
        [
            (x1 - 0.25) * (x1 - 0.25),
            (x1 - 0.25) * x2,
            x2 * x2,
        ],
        8,
    )
    b2 = polyideal.PolyIdeal([x1 + 0.3, x2 - 0.2], 8)
    m = models.jet_model(pts, [b1, b2])
    assert m.tuple.is_row_contraction(tol=1e-8)
    # local dimensions 3 (full first-order jet) and 1
    assert m.dim == 4
    assert m.local_dims == (3, 1)
    assert m.orders == (1, 0)


def test_jet_model_annihilates_products_of_local_ideals():
    pts = [[0.25], [-0.4]]
    x = Polynomial.variable(1, 0)
    b1 = polyideal.PolyIdeal([(x - 0.25) ** 2], 8)
    b2 = polyideal.PolyIdeal([x + 0.4], 8)
    m = models.jet_model(pts, [b1, b2])
    p = (x - 0.25) ** 2 * (x + 0.4)
    assert np.linalg.norm(tuples.apply_poly(p, m.tuple)) < 1e-8
    q = (x - 0.25) * (x + 0.4)
    assert np.linalg.norm(tuples.apply_poly(q, m.tuple)) > 1e-3


def test_jet_model_cyclic_vector():
    pts = [[0.25], [-0.4]]
    x = Polynomial.variable(1, 0)
    b1 = polyideal.PolyIdeal([(x - 0.25) ** 2], 8)
    b2 = polyideal.PolyIdeal([x + 0.4], 8)
    m = models.jet_model(pts, [b1, b2])
    k = tuples.krylov(m.tuple, m.cyclic, m.dim)
    assert k.is_cyclic


def test_jet_model_rejects_points_outside_ball():
    x = Polynomial.variable(1, 0)
    b = polyideal.PolyIdeal([x - 2.0], 6)
    with pytest.raises(InputError):
        models.jet_model([[2.0]], [b])


def test_jet_model_rejects_coincident_points():
    x = Polynomial.variable(1, 0)
    b = polyideal.PolyIdeal([x - 0.1], 6)
    with pytest.raises(InputError):
        models.jet_model([[0.1], [0.1]], [b, b])


def test_verify_localizations_two_point():
    pts = [[0.25, 0.0], [-0.3, 0.2]]
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    # m^2 + <x1 - z1> at the first point, maximal at the second
    sq = [
        (x1 - 0.25) * (x1 - 0.25),
        (x1 - 0.25) * x2,
        x2 * x2,
        x1 - 0.25,
    ]
    b1 = polyideal.PolyIdeal(sq, 8)
    b2 = polyideal.PolyIdeal([x1 + 0.3, x2 - 0.2], 8)
    m = models.jet_model(pts, [b1, b2])
    reports = models.verify_localizations(m, [b1, b2])
    assert len(reports) == 2
    assert all(r.matches for r in reports)
    assert reports[0].order == 1
    assert reports[1].order == 0


def _one_variable_jet_report(points, ideals):
    m = models.jet_model(points, ideals)
    return m, models.verify_localizations(m, ideals)


def test_jet_model_double_zero_at_real_point():
    # <(x - 0.3)^2> has a two-dimensional local quotient; with the maximal
    # ideal at 0.7 the model has dimension 3 and localizes back exactly
    x = Polynomial.variable(1, 0)
    ideals = [polyideal.PolyIdeal([(x - 0.3) ** 2], 8), polyideal.PolyIdeal([x - 0.7], 8)]
    m, reports = _one_variable_jet_report([[0.3], [0.7]], ideals)
    assert m.dim == 3
    assert m.orders == (1, 0)
    assert m.local_dims == (2, 1)
    assert all(r.matches for r in reports)


def test_jet_model_triple_zero_at_complex_point():
    # <(x - z)^3> at z = -0.4 + 0.2i has a three-dimensional local quotient.
    # The Taylor row of the stored (x - z)^3 rounds to exact zeros below
    # order 3; <(x - 0.3)^3> leaves roundoff jets there, which the relative
    # rank gate of orth_columns keeps, and is still refused
    z = complex(-0.4, 0.2)
    x = Polynomial.variable(1, 0)
    ideals = [polyideal.PolyIdeal([(x - z) ** 3], 8), polyideal.PolyIdeal([x - 0.5], 8)]
    m, reports = _one_variable_jet_report([[z], [0.5]], ideals)
    assert m.dim == 4
    assert m.orders == (2, 0)
    assert m.local_dims == (3, 1)
    assert all(r.matches for r in reports)


def test_jet_model_high_radius():
    # the point at radius 0.99 needs no truncation: the Gram matrix and the
    # shift action are closed forms
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    ideals = [
        polyideal.PolyIdeal([x1 - 0.99, x2**2], 8),
        polyideal.PolyIdeal([x1, x2 - 0.3], 8),
    ]
    m, reports = _one_variable_jet_report([(0.99, 0.0), (0.0, 0.3)], ideals)
    assert m.dim == 3
    assert m.local_dims == (2, 1)
    # built without truncation: no truncation degree or tail bound exists
    assert not hasattr(m, "tail_bound") and not hasattr(m, "truncation_degree")
    assert all(r.matches for r in reports)


def test_jet_model_refuses_a_non_invariant_dual(monkeypatch):
    # p -> p'(z) alone is not closed under the shift: S_1 e_1 = e_0
    x = Polynomial.variable(1, 0)
    ideal = polyideal.PolyIdeal([(x - 0.3) ** 2], 8)
    monkeypatch.setattr(
        models, "_local_dual_basis", lambda *args: np.array([[0.0], [1.0]], dtype=complex)
    )
    with pytest.raises(NumericalError, match="not invariant"):
        models.jet_model([[0.3]], [ideal])


def fock_jet_model(points, ideals, tol=numerics.DEFAULT_TOL):
    """The model on the degree-D Fock slice: truncated derivative-kernel
    columns, their Loewdin basis B and B^* M_j B with the truncated shifts.
    D keeps every neglected kernel tail below 1e-14."""
    pts = [np.asarray(p, dtype=complex) for p in points]
    d = pts[0].size
    orders = [polyideal.polynomial_order(b, z, tol=tol) for z, b in zip(pts, ideals)]
    rho = max(float(np.linalg.norm(z)) for z in pts)
    t = FockTruncation(d, max(truncation_degree(rho), max(orders) + 1))
    cols = []
    for z, kappa, b in zip(pts, orders, ideals):
        C = models._local_dual_basis(b, z, kappa, tol)
        jets = mi.enumerate_indices(d, kappa)
        V = np.column_stack(
            [jet_vector(z, beta, t).coeffs / mi.index_factorial(beta) for beta in jets]
        )
        W = V @ C.conj()
        cols.append(W / np.linalg.norm(W, axis=0))
    W = np.hstack(cols)
    vals, vecs = np.linalg.eigh(W.conj().T @ W)
    B = W @ (vecs * vals**-0.5) @ vecs.conj().T
    mats = [B.conj().T @ mult_matrix(Polynomial.variable(d, j), t) @ B for j in range(d)]
    return mats, B[0].conj()


def _jet_cases():
    x = Polynomial.variable(1, 0)
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    z = complex(-0.4, 0.2)
    u1, u2, w1, w2 = complex(0.3, -0.2), complex(0.1, 0.4), -0.35, 0.2j
    first_order = [(x1 - 0.25) * (x1 - 0.25), (x1 - 0.25) * x2, x2 * x2]
    return {
        "single point": ([[0.3, -0.2]], [polyideal.PolyIdeal([x1 - 0.3, x2 + 0.2], 6)]),
        "two points": (
            [[0.0], [0.5]],
            [polyideal.PolyIdeal([x], 6), polyideal.PolyIdeal([x - 0.5], 6)],
        ),
        "first-order jet": (
            [[0.25, 0.0], [-0.3, 0.2]],
            [polyideal.PolyIdeal(first_order, 8), polyideal.PolyIdeal([x1 + 0.3, x2 - 0.2], 8)],
        ),
        "double zero": (
            [[0.25], [-0.4]],
            [polyideal.PolyIdeal([(x - 0.25) ** 2], 8), polyideal.PolyIdeal([x + 0.4], 8)],
        ),
        "first-order jet cut by a line": (
            [[0.25, 0.0], [-0.3, 0.2]],
            [
                polyideal.PolyIdeal(first_order + [x1 - 0.25], 8),
                polyideal.PolyIdeal([x1 + 0.3, x2 - 0.2], 8),
            ],
        ),
        "double zero at a real point": (
            [[0.3], [0.7]],
            [polyideal.PolyIdeal([(x - 0.3) ** 2], 8), polyideal.PolyIdeal([x - 0.7], 8)],
        ),
        "triple zero at a complex point": (
            [[z], [0.5]],
            [polyideal.PolyIdeal([(x - z) ** 3], 8), polyideal.PolyIdeal([x - 0.5], 8)],
        ),
        # a jet along no coordinate axis, next to a full first-order jet
        "tilted jet at complex points": (
            [[u1, u2], [w1, w2]],
            [
                polyideal.PolyIdeal([(x1 - u1) - 0.7 * (x2 - u2), (x2 - u2) ** 2], 8),
                polyideal.PolyIdeal(
                    [(x1 - w1) ** 2, (x1 - w1) * (x2 - w2), (x2 - w2) ** 2], 8
                ),
            ],
        ),
    }


@pytest.mark.parametrize("name", list(_jet_cases()))
def test_jet_model_matches_fock_oracle(name):
    points, ideals = _jet_cases()[name]
    m = models.jet_model(points, ideals)
    mats, cyclic = fock_jet_model(points, ideals)
    for got, want in zip(m.tuple.matrices, mats):
        assert_allclose(got, want, rtol=0, atol=1e-10)
    assert_allclose(m.cyclic, cyclic, rtol=0, atol=1e-10)


def oracle_localization_reports(model, ideals):
    """verify_localizations through Polynomial generators: the annihilator
    as a list of polynomials in a PolyIdeal, the expected side as a PolyIdeal
    rebuilt with just enough degree for the jet order."""
    gen_deg = max(i.max_generator_degree for i in ideals)
    D_found = gen_deg + sum(k + 1 for k in model.orders)
    mus = [k + 2 for k in model.orders]
    ann = tuples.annihilator_slice(model.tuple, D_found)
    ann_ideal = polyideal.PolyIdeal(ann, D_found + max(mus) - 1, d=model.d)
    out = []
    for z, mu, ideal in zip(model.points, mus, ideals):
        got = polyideal.localize(ann_ideal, np.asarray(z), mu)
        want = polyideal.localize(
            polyideal.PolyIdeal(ideal.generators, ideal.max_generator_degree + mu - 1, d=model.d),
            np.asarray(z),
            mu,
        )
        ok = got.dim == want.dim and numerics.subspace_equal(got.basis, want.basis, 1e-8)
        out.append((got.dim, want.dim, bool(ok)))
    return out


@pytest.mark.parametrize("name", list(_jet_cases()))
def test_verify_localizations_matches_polynomial_oracle(name):
    points, ideals = _jet_cases()[name]
    m = models.jet_model(points, ideals)
    reports = models.verify_localizations(m, ideals)
    got = [(r.annihilator_dim, r.expected_dim, r.matches) for r in reports]
    assert got == oracle_localization_reports(m, ideals)


def _symmetrizing(orig):
    def wrapped(a, *args, **kwargs):
        a = np.asarray(a)
        return orig((a + a.conj().T) / 2.0, *args, **kwargs)

    return wrapped


def test_hermitian_eigensolves_see_the_symmetrized_matrix(monkeypatch):
    # hermitian_eig hands eigh the symmetrized matrix (a + a^*)/2, which is
    # exactly Hermitian, so symmetrizing it once more changes no bit; a
    # caller that skipped the symmetrization would read different results
    # here, since LAPACK reads one triangle only
    points, ideals = _jet_cases()["tilted jet at complex points"]
    sep_pts = [[0.1, 0.2], [-0.3, 0.1j], [0.0, -0.5], [0.45, 0.3]]
    pick_tgt = [0.3, -0.2 + 0.4j, 0.8, 0.1j]

    def run():
        m = models.jet_model(points, ideals)
        sep = interp.separation_constants(sep_pts)
        pick = interp.pick_min_norm(sep_pts, pick_tgt)
        strong = interp.strong_separation(sep_pts)
        return (
            [Z.copy() for Z in m.tuple.matrices] + [m.cyclic],
            [sep.gamma_carleson, pick.value, pick.margin] + list(strong.eps),
        )

    mats, values = run()
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _symmetrizing(getattr(np.linalg, name)))
    mats2, values2 = run()
    assert all(np.array_equal(a, b) for a, b in zip(mats, mats2))
    assert values == values2


@pytest.mark.parametrize("name", list(_jet_cases()))
def test_dense_annihilator_localizations_match_polynomial_route(name):
    points, ideals = _jet_cases()[name]
    m = models.jet_model(points, ideals)
    D = max(i.max_generator_degree for i in ideals) + sum(k + 1 for k in m.orders)
    basis, coeffs = tuples.annihilator_coeffs(m.tuple, D)
    ann = tuples.annihilator_slice(m.tuple, D)
    assert coeffs.shape == (len(basis), len(ann))
    mus = [k + 2 for k in m.orders]
    ann_ideal = polyideal.PolyIdeal(ann, D + max(mus) - 1, d=m.d)
    for z, mu in zip(m.points, mus):
        got = polyideal.localize_coeffs(coeffs, basis, z, mu)
        want = polyideal.localize(ann_ideal, z, mu)
        assert got.dim == want.dim
        assert got.jet_basis == want.jet_basis
        assert numerics.subspace_equal(got.basis, want.basis, 1e-10)


# Exact numbers of dense LAPACK calls made by jet_model and
# verify_localizations for the maximal ideal at (0.1, 0) and the jet ideal
# <x1, (x2 - 0.3)^2> at (0, 0.3), the ideals built beforehand. While every
# PolyIdeal built its degree slice eagerly, the annihilator was localized
# through a PolyIdeal of polynomials, and the kernel Gram went through
# hermitian_eig, the same calls made svd 25, eigh 1, eigvalsh 1, inv 0.
# While validate measured the row defect of the model eagerly, though
# nothing here reads it, they made svd 20, eigh 1, eigvalsh 1, inv 0.
def test_jet_model_lapack_calls(lapack_counts):
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    ideals = [
        polyideal.PolyIdeal([x1 - 0.1, x2], 8),
        polyideal.PolyIdeal([x1, (x2 - 0.3) ** 2], 8),
    ]
    lapack_counts.clear()
    m = models.jet_model([[0.1, 0.0], [0.0, 0.3]], ideals)
    reports = models.verify_localizations(m, ideals)
    assert m.dim == 3 and all(r.matches for r in reports)
    want = {"svd": 20, "eigh": 1, "eigvalsh": 0, "inv": 0}
    assert {k: lapack_counts[k] for k in want} == want
