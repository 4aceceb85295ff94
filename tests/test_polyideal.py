import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from arveson import multiindex as mi
from arveson import numerics, polyideal, serialization
from arveson.errors import InputError, NumericalError, ValidationError
from arveson.polynomials import Polynomial
from test_polynomials import derivative_at, evaluate, jet


def x(j, d=2):
    return Polynomial.variable(d, j)


def generators(ideal):
    """The columns of the coefficient matrix as polynomials."""
    return [Polynomial.from_coeff_vector(ideal.d, c, ideal.basis) for c in ideal.coeffs.T]


def jet_in(local, p):
    """Membership of p's jet in a localization."""
    return local.contains_jet(jet(p, local.z, local.mu, local.jet_basis))


def test_slice_dim_of_square_maximal_ideal():
    # <x1^2, x1 x2, x2^2> up to degree 4: everything of degree 2..4
    gens = [Polynomial.monomial(a) for a in [(2, 0), (1, 1), (0, 2)]]
    ideal = polyideal.PolyIdeal(gens, 4)
    n_total = len(mi.enumerate_indices(2, 4))
    n_below = len(mi.enumerate_indices(2, 1))
    assert ideal.slice_dim == n_total - n_below


def test_contains_membership_with_cofactors():
    g1 = x(0) ** 2 - x(1)
    g2 = x(0) * x(1)
    ideal = polyideal.PolyIdeal([g1, g2], 6)
    p = (x(1) ** 2 + 3) * g1 + (x(0) - 1) * g2
    assert ideal.contains(p)
    assert not ideal.contains(x(0))
    assert not ideal.contains(Polynomial.constant(2, 1.0))


def test_contains_degree_guard():
    ideal = polyideal.PolyIdeal([x(0) ** 2], 3)
    with pytest.raises(InputError):
        ideal.contains(x(0) ** 4)


def test_localize_unit_generator_sees_low_jets():
    # x - 1 is a unit near 0, so the localization at 0 is everything
    g = x(0, 1) - 1
    ideal = polyideal.PolyIdeal([g], 6)
    loc = polyideal.localize(ideal, [0.0], 2)
    one = Polynomial.constant(1, 1.0)
    assert jet_in(loc, one)


def test_localize_order_two_zero():
    # x^2(x-1): at 0 the local ideal is m^2, at 1 it is m
    g = Polynomial.monomial((3,)) - Polynomial.monomial((2,))
    ideal = polyideal.PolyIdeal([g], 8)
    loc0 = polyideal.localize(ideal, [0.0], 3)
    assert not jet_in(loc0, x(0, 1))
    assert jet_in(loc0, x(0, 1) ** 2)
    assert jet_in(loc0, x(0, 1) ** 3)
    loc1 = polyideal.localize(ideal, [1.0], 3)
    assert jet_in(loc1, x(0, 1) - 1)
    assert not jet_in(loc1, Polynomial.constant(1, 1.0))


def test_localize_depth_guard():
    ideal = polyideal.PolyIdeal([x(0) ** 2], 4)
    with pytest.raises(InputError):
        polyideal.localize(ideal, [0.0, 0.0], 4)


def test_polynomial_order_one_variable():
    g = Polynomial.monomial((3,)) - Polynomial.monomial((2,))
    ideal = polyideal.PolyIdeal([g], 8)
    assert polyideal.polynomial_order(ideal, [0.0]) == 1
    assert polyideal.polynomial_order(ideal, [1.0]) == 0


def test_polynomial_order_square_maximal():
    gens = [Polynomial.monomial(a) for a in [(2, 0), (1, 1), (0, 2)]]
    ideal = polyideal.PolyIdeal(gens, 6)
    assert polyideal.polynomial_order(ideal, [0.0, 0.0]) == 1


def test_polynomial_order_rejects_nonisolated():
    # x1 alone vanishes on a whole line through the origin
    ideal = polyideal.PolyIdeal([x(0)], 6)
    with pytest.raises(ValidationError):
        polyideal.polynomial_order(ideal, [0.0, 0.0])


def test_polynomial_order_runs_out_of_degree():
    # order 3 at 0 needs jets of order 5, beyond what degree 4 certifies
    g = Polynomial.monomial((4,))
    ideal = polyideal.PolyIdeal([g], 4)
    with pytest.raises(ValidationError):
        polyideal.polynomial_order(ideal, [0.0])


def test_vanishing_ideal_slice_single_point():
    vi = polyideal.vanishing_ideal_slice([[0.5]], [0], 3)
    # polynomials of degree <= 3 vanishing at 0.5: dimension 3
    assert vi.slice_dim == 3
    for p in generators(vi):
        assert abs(evaluate(p, (0.5,))) < 1e-10


def test_vanishing_kernel_spans_the_slice():
    # the points of the repro annihilator comparisons, and two more: the
    # generators are the orthonormal kernel itself, so they span the slice
    for points, kappa in (
        ([[0.5]], 1),
        ([[0.1 + 0.05j, -0.2 + 0.0j]], 1),
        ([[0.3, 0.1j], [-0.2, 0.4]], [0, 1]),
    ):
        vi = polyideal.vanishing_ideal_slice(points, kappa, 2)
        kernel = vi.coeffs
        assert vi.basis == mi.enumerate_indices(len(points[0]), 2)
        assert_allclose(kernel.conj().T @ kernel, np.eye(kernel.shape[1]), atol=1e-14)
        assert numerics.subspace_equal(kernel, vi.slice_basis)


def test_vanishing_ideal_slice_with_multiplicity():
    vi = polyideal.vanishing_ideal_slice([[0.25, -0.5]], [1], 4)
    for p in generators(vi):
        assert abs(evaluate(p, (0.25, -0.5))) < 1e-10
        assert abs(derivative_at(p, (1, 0), (0.25, -0.5))) < 1e-10
        assert abs(derivative_at(p, (0, 1), (0.25, -0.5))) < 1e-10


def test_vanishing_ideal_slice_two_points_dimension():
    # degree <= 2 in one variable, double zero at 0 and simple zero at 0.7:
    # only multiples of x^2 kill the first jet, and x^2 misses the second
    vi = polyideal.vanishing_ideal_slice([[0.0], [0.7]], [1, 0], 2)
    assert vi.slice_dim == 0
    vi3 = polyideal.vanishing_ideal_slice([[0.0], [0.7]], [1, 0], 3)
    assert vi3.slice_dim == 1
    (p,) = generators(vi3)
    assert abs(evaluate(p, (0.0,))) < 1e-10 and abs(evaluate(p, (0.7,))) < 1e-10


def test_vanishing_ideal_refuses_a_kernel_too_wide_to_fit():
    # C(43, 3) = 12,341 monomials: refused before any Taylor row is built
    with pytest.raises(InputError, match=f"12341 columns .* {16 * 12341**2} bytes"):
        polyideal.vanishing_ideal_slice([[0.1, 0.2, 0.3]], 0, 40)


def test_vanishing_ideal_rejects_duplicates():
    with pytest.raises(InputError):
        polyideal.vanishing_ideal_slice([[0.1], [0.1]], [0, 0], 3)


def test_vanishing_ideal_shares_the_point_gate_but_not_the_ball():
    # the distinct-points gate of the kernel code, with its messages; a
    # vanishing ideal is defined at any point, so no ball check applies
    with pytest.raises(InputError, match="^point 1 has dimension 2, expected 1$"):
        polyideal.vanishing_ideal_slice([[0.1], [0.1, 0.2]], 0, 2)
    with pytest.raises(InputError, match="^points 0 and 1 coincide$"):
        polyideal.vanishing_ideal_slice([[0.1], [0.1]], 0, 2)
    vi = polyideal.vanishing_ideal_slice([[2.0], [-3.0]], 0, 2)
    assert vi.slice_dim == 1


def test_localize_matches_vanishing_slice_on_annihilated_jets():
    # cross check two independently built objects on shared territory:
    # membership in the localization at z with mu=1 implies the first jet
    # at z vanishes for ideal members built from vanishing data
    vi = polyideal.vanishing_ideal_slice([[0.3]], [1], 4)
    loc = polyideal.localize(vi, [0.3], 1)
    for p in generators(vi):
        assert jet_in(loc, p)



def oracle_vanishing_kernel(points, kappas, degree_bound):
    """The derivative functionals of vanishing_ideal_slice entry by entry:
    d^alpha x^gamma at z is the falling factorial gamma!/(gamma-alpha)!
    times z^(gamma-alpha); each row normalized."""
    basis = mi.enumerate_indices(len(points[0]), degree_bound)
    rows = []
    for z, kz in zip(points, kappas):
        for alpha in mi.enumerate_indices(len(z), kz):
            row = np.zeros(len(basis), dtype=complex)
            for col, gamma in enumerate(basis):
                if all(a <= g for a, g in zip(alpha, gamma)):
                    c = 1.0 + 0j
                    for gj, aj, zj in zip(gamma, alpha, z):
                        c *= float(np.prod(np.arange(gj - aj + 1, gj + 1))) * complex(zj) ** (gj - aj)
                    row[col] = c
            if np.linalg.norm(row) > 0:
                row /= np.linalg.norm(row)
            rows.append(row)
    return numerics.nullspace(np.array(rows))


@pytest.mark.parametrize(
    "points, kappas, degree_bound",
    [
        ([[0.5]], [0], 3),
        ([[0.25, -0.5]], [1], 4),
        ([[0.0], [0.7]], [1, 0], 3),
        ([[0.3 + 0.1j, -0.2], [0.1, 0.4j]], [1, 0], 4),
        ([[0.2, 0.1j, -0.3]], [2], 3),
        ([[0.4]], [3], 2),
    ],
)
def test_vanishing_ideal_slice_matches_entrywise_oracle(points, kappas, degree_bound):
    vi = polyideal.vanishing_ideal_slice(points, kappas, degree_bound)
    want = oracle_vanishing_kernel(points, kappas, degree_bound)
    assert vi.slice_dim == want.shape[1]
    assert numerics.subspace_equal(vi.slice_basis, want, 1e-10)

# The Polynomial-product constructions that the dense gathers replaced,
# kept as oracles: every column is an explicit product, so they share no
# index arithmetic with the code under test.


def oracle_slice(ideal):
    cols = []
    for g in generators(ideal):
        room = ideal.degree_bound - g.degree()
        for q_alpha in mi.enumerate_indices(ideal.d, room):
            prod = Polynomial.monomial(q_alpha) * g
            cols.append(prod.coeff_vector(ideal.basis))
    if not cols:
        return np.zeros((len(ideal.basis), 0), dtype=complex)
    return numerics.orth_columns(np.column_stack(cols))


def oracle_localize(ideal, z, mu):
    jet_basis = mi.enumerate_indices(ideal.d, mu)
    cols = []
    for g in generators(ideal):
        for beta in jet_basis:
            factor = Polynomial.constant(ideal.d, 1.0)
            for j, bj in enumerate(beta):
                if bj:
                    lin = Polynomial.variable(ideal.d, j) - Polynomial.constant(ideal.d, z[j])
                    for _ in range(bj):
                        factor = factor * lin
            cols.append(jet(factor * g, z, mu, jet_basis))
    if not cols:
        return np.zeros((len(jet_basis), 0), dtype=complex)
    return numerics.orth_columns(np.column_stack(cols))


def test_shift_index_by_hand_d2():
    # graded basis of d=2: (0,0) (1,0) (0,1) | (2,0) (1,1) (0,2) | (3,0) (2,1) ...
    gammas = np.array([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)])
    shifts = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])
    want = np.array(
        [
            [0, -1, -1, -1],
            [1, 0, -1, -1],
            [2, -1, 0, -1],
            [3, 1, -1, -1],
            [4, 2, 1, 0],
            [5, -1, 2, -1],
            [7, 4, 3, 1],
        ]
    )
    assert np.array_equal(polyideal._shift_index(gammas, shifts), want)


@st.composite
def ideal_point_case(draw):
    # z and the coefficients are dyadic with few bits, so both constructions
    # compute every jet exactly and the comparison never rests on how the
    # rank gate of orth_columns classifies roundoff; the bound on the grid
    # keeps |z| <= 0.9
    d = draw(st.integers(1, 3))
    top = 2 if d == 3 else 3
    k = {1: 10, 2: 7, 3: 5}[d]
    part = st.integers(-k, k)
    z = np.array([complex(draw(part), draw(part)) / 16 for _ in range(d)])
    coeff = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)
    alpha = st.lists(st.integers(0, top), min_size=d, max_size=d).filter(lambda a: sum(a) <= top)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = Polynomial(d, dict(draw(st.lists(st.tuples(alpha.map(tuple), coeff), min_size=1, max_size=4))))
        if draw(st.booleans()):
            g = g - evaluate(g, z)  # vanish at z, so the jet image is a proper subspace
        gens.append(g)
    degree_bound = max(g.degree() for g in gens) + draw(st.integers(0, 1))
    return polyideal.PolyIdeal(gens, max(degree_bound, 0), d=d), z


@settings(max_examples=60, deadline=None)
@given(ideal_point_case())
def test_dense_spans_match_polynomial_products(case):
    ideal, z = case
    want = oracle_slice(ideal)
    assert ideal.slice_dim == want.shape[1]
    assert numerics.subspace_equal(ideal.slice_basis, want, 1e-10)
    for mu in range(ideal.degree_bound - ideal.max_generator_degree + 2):
        got = polyideal.localize(ideal, z, mu)
        want = oracle_localize(ideal, z, mu)
        assert got.dim == want.shape[1]
        assert numerics.subspace_equal(got.basis, want, 1e-10)


# The per-generator Taylor table and the per-probe isolation loop that the
# shared weight table and the array probe replaced, kept as oracles.


def oracle_taylor_rows(generators, z, jets):
    top = max(g.degree() for g in generators)
    binom = polyideal._binomials(top, top).astype(float)
    rows = np.empty((len(generators), len(jets)), dtype=complex)
    for i, g in enumerate(generators):
        alphas = np.array(list(g.coeffs), dtype=np.int64)
        weight = np.ones((len(alphas), len(jets)), dtype=complex)
        for j in range(z.size):
            a = alphas[:, None, j]
            gamma = jets[None, :, j]
            ok = gamma <= a
            power = z[j] ** np.where(ok, a - gamma, 0)
            weight *= np.where(ok, binom[a, np.minimum(gamma, a)] * power, 0)
        rows[i] = np.einsum("k,km->m", np.array(list(g.coeffs.values())), weight)
    return rows


def oracle_isolation_probes(d, z, seed=0):
    rng = np.random.default_rng(seed)
    radius = 0.1
    probes = []
    for _ in range(64):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        probes.append(z + radius * v)
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = radius
        probes.append(z + e)
        probes.append(z - e)
    return probes


def oracle_isolated(ideal, z, seed=0):
    for w in oracle_isolation_probes(ideal.d, z, seed):
        if all(
            abs(evaluate(g, w)) <= 1e-10 * (1.0 + max(abs(c) for c in g.coeffs.values()))
            for g in generators(ideal)
        ):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(ideal_point_case())
def test_taylor_rows_match_per_generator_oracle(case):
    ideal, z = case
    if not ideal.coeffs.shape[1]:  # g - g(z) is zero for a constant g
        return
    for mu in range(ideal.degree_bound - ideal.max_generator_degree + 2):
        jets = np.array(mi.enumerate_indices(ideal.d, mu), dtype=np.int64)
        got = polyideal._taylor_rows(ideal.coeffs, np.array(ideal.basis), z, jets)
        assert np.array_equal(got, oracle_taylor_rows(generators(ideal), z, jets))


def test_taylor_rows_match_oracle_bit_for_bit_on_jet_ideals():
    # the maximal and jet ideals of the jet models, at points that are not
    # dyadic, built in Python and read back from JSON: the sum over the
    # whole basis, zeros included, leaves every Taylor row as the sum over
    # each generator's own terms left it
    rng = np.random.default_rng(3)
    for trial in range(30):
        z = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        lin = [x(j) - complex(z[j]) for j in range(2)]
        gens = ([lin[0], lin[1]], [lin[0], lin[1] ** 2], [lin[0] ** 2, lin[1]])[trial % 3]
        built = polyideal.PolyIdeal(gens, 8, d=2)
        loaded = serialization.load_ideal(json.loads(json.dumps(serialization.dump_ideal(built))))
        for ideal, polys in ((built, gens), (loaded, generators(loaded))):
            alphas = np.array(ideal.basis)
            for mu in range(ideal.degree_bound - ideal.max_generator_degree + 2):
                jets = np.array(mi.enumerate_indices(2, mu), dtype=np.int64)
                got = polyideal._taylor_rows(ideal.coeffs, alphas, z, jets)
                assert np.array_equal(got, oracle_taylor_rows(polys, z, jets))


def _maximal_ideal(w):
    d = len(w)
    return polyideal.PolyIdeal([x(j, d) - complex(w[j]) for j in range(d)], 1, d=d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_oracle_probe_is_probed(d):
    # the maximal ideal at an oracle probe point vanishes at that probe (to
    # the 1e-10 threshold), so the check must refuse z; at z itself the
    # maximal ideal is isolated and passes
    z = np.array([0.1 + 0.2j, -0.3, 0.05j][:d])
    for w in oracle_isolation_probes(d, z):
        with pytest.raises(ValidationError, match="not isolated"):
            polyideal._isolation_mesh_check(_maximal_ideal(w), z)
    polyideal._isolation_mesh_check(_maximal_ideal(z), z)


def test_isolation_decision_matches_oracle():
    z = np.zeros(2, dtype=complex)
    line = polyideal.PolyIdeal([x(0)], 6)
    assert not oracle_isolated(line, z)
    with pytest.raises(ValidationError, match="not isolated"):
        polyideal._isolation_mesh_check(line, z)
    point = polyideal.PolyIdeal([x(0) ** 2 - x(1), x(1) ** 2], 6)
    assert oracle_isolated(point, z)
    polyideal._isolation_mesh_check(point, z)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_isolation_probes_match_oracle(d):
    z = np.array([0.1 + 0.2j, -0.3, 0.05j][:d])
    for seed in (0, 7):
        got = polyideal._isolation_probes(d, z, seed, 0.1)
        want = np.array(oracle_isolation_probes(d, z, seed))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


def test_poly_ideal_construction_makes_no_lapack_call(lapack_counts):
    gens = [x(0) ** 2 - x(1), x(0) * x(1), x(1) ** 3]
    lapack_counts.clear()
    ideal = polyideal.PolyIdeal(gens, 6)
    assert sum(lapack_counts.values()) == 0
    assert ideal.slice_dim > 0
    assert lapack_counts["svd"] == 1


def test_ambiguous_slice_rank_raises_on_first_read():
    # the straddling matrix of test_numerics as coefficients of linear forms
    # in three variables: at degree bound 1 every generator is its own only
    # multiple, so the slice matrix has singular values 1, 2e-9 and 5e-10
    straddling = np.diag([1.0, 2e-9, 5e-10])
    linear = mi.enumerate_indices(3, 1)[1:]
    gens = [Polynomial.from_coeff_vector(3, col, linear) for col in straddling.T]
    ideal = polyideal.PolyIdeal(gens, 1)
    for read in (
        lambda: ideal.slice_basis,
        lambda: ideal.slice_dim,
        lambda: ideal.contains(x(0, 3)),
    ):
        with pytest.raises(NumericalError, match="ambiguous rank decision"):
            read()


def test_localize_coeffs_rejects_mismatched_shapes():
    basis = mi.enumerate_indices(2, 1)
    coeffs = np.eye(3, dtype=complex)[:, 1:]
    assert polyideal.localize_coeffs(coeffs, basis, [0.0, 0.0], 1).dim == 2  # <x1, x2> at 0
    with pytest.raises(InputError):
        polyideal.localize_coeffs(coeffs, basis, [0.1], 1)
    with pytest.raises(InputError):
        polyideal.localize_coeffs(coeffs[:2], basis, [0.1, 0.2], 1)
