import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from arveson import interp, numerics, repro, spectral
from arveson.errors import InputError, NumericalError
from oracles import hermitian_eig

EPS_CASES = (1.0, 0.1, 0.01, 0.001)


def oracle_min_cond_1var(eps):
    # the former search: an 81-point grid over s = |b| in [0, 4], then Brent
    def cond_at(s):
        return numerics.cond(np.array([[1.0, s], [0.0, eps]], dtype=complex))

    grid = np.linspace(0.0, 4.0, 81)
    vals = [cond_at(s) for s in grid]
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    res = scipy.optimize.minimize_scalar(
        cond_at, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
    )
    return min(vals[k], float(res.fun))


def oracle_min_cond_2var(eps, f):
    # the former search: Nelder-Mead over (Re b, Im b, Re c, Im c) from three starts
    def cond_at(v):
        b = complex(v[0], v[1])
        c = complex(v[2], v[3])
        return numerics.cond(repro._x_of(1.0, b, c, eps, f))

    best = np.inf
    for start in ([0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0], [0.0, 0.3, -0.3, 0.0]):
        res = scipy.optimize.minimize(
            cond_at,
            np.array(start),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        best = min(best, float(res.fun))
    return best


def test_f_two_variable_closed_values():
    # f(1) is the golden ratio, f(0) collapses to sqrt(2)
    assert_allclose(repro.f_two_variable(1.0), (1 + np.sqrt(5)) / 2, rtol=1e-12)
    assert_allclose(repro.f_two_variable(0.001), np.sqrt(2), atol=1e-5)
    assert_allclose(repro.f_two_variable(0.0), np.sqrt(2), rtol=1e-12)


def test_f_two_variable_is_row_norm():
    # f(eps)^2 must equal the norm of M1 M1* + M2 M2*
    for eps in [0.3, 1.0, 2.5]:
        R1, R2, f = repro.two_variable_family(eps)
        S = R1 @ R1.conj().T + R2 @ R2.conj().T
        # after dividing by f the row norm is exactly 1
        assert_allclose(np.linalg.norm(S, 2), 1.0, rtol=1e-12)
        assert_allclose(f, repro.f_two_variable(eps), rtol=1e-12)


def test_two_variable_example_builds_the_model_pair_once(monkeypatch):
    # every eps and the Moebius rows scale the same constant model pair
    builds = []
    monomial_model = repro.models.monomial_model

    def counting(*args):
        builds.append(args)
        return monomial_model(*args)

    monkeypatch.setattr(repro.models, "monomial_model", counting)
    rep = repro.example_two_variable((0.1, 0.01, 0.001))
    assert rep.ok
    assert len(builds) == 1


def test_one_variable_rows():
    rep = repro.example_one_variable(eps_list=[0.1, 0.01], lams=[0.5])
    assert len(rep.rows) == 2
    for r in rep.rows:
        assert r.nullspace_dim == 2
        assert r.form_matches
        assert r.cyclic_ok
        assert r.annihilator_matches
        assert r.within_one_percent
        assert_allclose(r.measured_min_cond, 1.0 / r.eps, rtol=1e-2)
    assert rep.ok


def test_one_variable_other_base_point():
    rep = repro.example_one_variable(eps_list=[0.1], lams=[0.25])
    assert rep.ok


def test_one_variable_rejects_empty():
    with pytest.raises(InputError):
        repro.example_one_variable(eps_list=[])


def test_two_variable_rows():
    rep = repro.example_two_variable(eps_list=[0.1, 0.001])
    assert rep.ok
    for r in rep.rows:
        assert r.nullspace_dim == 3
        assert r.form_matches
        assert r.det_identity_ok
        assert r.bound_holds
        # the witness with b = c = 0 has condition number f^2/eps
        f = repro.f_two_variable(r.eps)
        assert_allclose(r.witness_cond, f**2 / r.eps, rtol=1e-6)
        # the measured minimum is within the witness and above the bound
        assert r.measured_min_cond <= r.witness_cond * (1 + 1e-9)
        assert r.measured_min_cond >= r.lower_bound - 1e-6
        # cube root growth: bound = (f^2/eps)^(1/3)
        assert_allclose(r.lower_bound, (f**2 / r.eps) ** (1 / 3), rtol=1e-9)


def test_two_variable_moebius_transport():
    rep = repro.example_two_variable(eps_list=[0.1])
    assert len(rep.moebius_rows) == 1
    row = rep.moebius_rows[0]
    assert row.annihilator_matches
    assert row.transport_residual < 1e-10


def test_dichotomy_bounded_regime():
    rep = repro.dichotomy_demo(kappa=0)
    assert rep.kappa == 0
    assert rep.bounded
    assert rep.min_cond_upper < 10
    # two points: both ends are 2 + sqrt(3)
    assert_allclose([rep.min_cond_lower, rep.min_cond_upper], 2.0 + math.sqrt(3.0), rtol=1e-12)


def test_dichotomy_kappa_0_is_one_gram_eigensolve(lapack_counts, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kappa = 0 builds no jet model and no Jordan decomposition")

    monkeypatch.setattr(repro.models, "jet_model", refuse)
    monkeypatch.setattr(spectral, "jordan_decompose", refuse)
    pts = [[0.1, 0.2], [-0.3, 0.1j], [0.0, -0.5], [0.45, 0.3]]
    rep = repro.dichotomy_demo(points=pts, kappa=0)
    assert dict(lapack_counts) == {"eigh": 1}
    b = interp.similarity_bracket(pts)
    assert (rep.min_cond_lower, rep.min_cond_upper) == (b.lower, b.upper)
    # the rows carry the input points, not computed spectrum points
    assert [r.point for r in rep.rows] == [tuple(complex(x) for x in p) for p in pts]


def test_dichotomy_degrading_regime():
    rep = repro.dichotomy_demo(kappa=1)
    assert rep.kappa == 1
    assert rep.min_cond_upper >= 64 - 1e-6
    assert rep.blocks_forced_diagonal
    # per block the minimum condition number is exactly 1/eps
    for row in rep.rows:
        assert_allclose(row.block_min_cond, 1.0 / row.eps, rtol=1e-6)


def test_dichotomy_rejects_bad_kappa():
    with pytest.raises(InputError):
        repro.dichotomy_demo(kappa=3)


def test_dichotomy_refuses_eps_values_with_kappa_0():
    # kappa = 0 builds no eps blocks, so eps values would go unread
    with pytest.raises(InputError, match="kappa = 1 only"):
        repro.dichotomy_demo(kappa=0, eps_list=[0.5, 0.25])


@pytest.mark.parametrize("points", [[[0.1, 0.2], [0.3, 0.4], [0.5, -0.1]], np.zeros((2, 3))])
def test_dichotomy_refuses_kappa_1_points_in_several_variables(points):
    # flattening 3 points of d = 2 used to make 6 one-variable points
    with pytest.raises(InputError, match=f"d = {np.shape(points)[1]}"):
        repro.dichotomy_demo(points=points, kappa=1)


def test_dichotomy_kappa_1_takes_scalars_or_one_coordinate_points():
    pts = [0.75, 0.875]
    want = repro.dichotomy_demo(points=pts, kappa=1, eps_list=[0.5, 0.25])
    got = repro.dichotomy_demo(points=[[z] for z in pts], kappa=1, eps_list=[0.5, 0.25])
    assert got == want


@pytest.mark.parametrize(
    "kwargs, conds, dim",
    [
        ({}, [2.0, 4.0, 8.0, 16.0, 32.0, 64.0], 12),
        (
            {"points": [0.2, -0.4, 0.6j], "eps_list": [0.3, 0.07, 0.011]},
            [3.3333333333333335, 14.285714285714285, 90.90909090909092],
            6,
        ),
    ],
)
def test_dichotomy_kappa_1_values_are_pinned(kwargs, conds, dim):
    # the values of the scipy block_diag assembly, bit for bit; both ends
    # are the certified per-block maximum, an exact minimum
    rep = repro.dichotomy_demo(kappa=1, **kwargs)
    assert [r.block_min_cond for r in rep.rows] == conds
    assert rep.min_cond_lower == rep.min_cond_upper == conds[-1]
    assert rep.global_nullspace_dim == dim
    assert rep.blocks_forced_diagonal is True


@pytest.mark.parametrize("eps", EPS_CASES)
def test_one_variable_search_oracle_agrees(eps):
    certified = repro._min_cond_1var(eps)
    found = oracle_min_cond_1var(eps)
    assert found >= certified * (1 - 1e-9)
    assert_allclose(found, certified, rtol=1e-6)


@pytest.mark.parametrize("eps", EPS_CASES)
def test_two_variable_search_oracle_agrees(eps):
    f = repro.f_two_variable(eps)
    certified = repro._min_cond_2var(eps, f)
    found = oracle_min_cond_2var(eps, f)
    assert found >= certified * (1 - 1e-9)
    assert_allclose(found, certified, rtol=1e-6)


_coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_complex = st.builds(complex, _coord, _coord)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EPS_CASES), _complex, _complex)
def test_no_one_variable_intertwiner_beats_certified(eps, a, b):
    assume(abs(a) >= 1e-3)  # a = 0 is singular
    X = np.array([[a, b], [0.0, eps * a]], dtype=complex)
    assert numerics.cond(X) >= repro._min_cond_1var(eps) * (1 - 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EPS_CASES), _complex, _complex, _complex)
def test_no_two_variable_intertwiner_beats_certified(eps, a, b, c):
    assume(abs(a) >= 1e-3)  # a = 0 is singular
    f = repro.f_two_variable(eps)
    X = repro._x_of(a, b, c, eps, f)
    assert numerics.cond(X) >= repro._min_cond_2var(eps, f) * (1 - 1e-12)


def test_measured_min_cond_is_exact():
    one = repro.example_one_variable(eps_list=EPS_CASES, lams=[0.5])
    for r in one.rows:
        assert_allclose(r.measured_min_cond, 1.0 / r.eps, rtol=1e-12)
    two = repro.example_two_variable(eps_list=EPS_CASES)
    for r in two.rows:
        f = repro.f_two_variable(r.eps)
        assert_allclose(r.measured_min_cond, f**2 / r.eps, rtol=1e-12)
        assert r.witness_cond == r.measured_min_cond
    rep = repro.dichotomy_demo(kappa=1)
    for row in rep.rows:
        assert_allclose(row.block_min_cond, 1.0 / row.eps, rtol=1e-12)


def test_min_cond_gate_refuses_a_witness_above_the_bound(monkeypatch):
    cond = numerics.cond
    monkeypatch.setattr(repro.numerics, "cond", lambda X: 2.0 * cond(X))
    with pytest.raises(NumericalError, match="compression bound"):
        repro._min_cond_1var(0.1)
    with pytest.raises(NumericalError, match="compression bound"):
        repro.example_two_variable(eps_list=[0.1])


def test_two_variable_row_norm_matches_hermitian_eig_oracle():
    # the Gram of a row is Hermitian by construction, so the asymmetry check
    # of hermitian_eig cannot fire and its eigenvalues are those measured
    N1, N2 = repro._two_variable_base()
    eps_list = (0.1, 0.01, 0.001)
    rep = repro.example_two_variable(eps_list=eps_list)
    for eps, r in zip(eps_list, rep.rows):
        M2 = N1 + eps * N2
        gram = N1 @ N1.conj().T + M2 @ M2.conj().T
        assert r.f_measured == math.sqrt(float(hermitian_eig(gram)[0][-1]))


def test_two_variable_checks_eight_determinants_per_eps(lapack_counts):
    repro.example_two_variable(eps_list=[0.1, 0.01])
    assert lapack_counts["det"] == 16
