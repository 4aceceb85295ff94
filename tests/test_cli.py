import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import arveson
from arveson import cli, numerics, polyideal, repro, tuples
from arveson import serialization as ser
from arveson.polynomials import Polynomial
from oracles import dump_polynomial


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def tuple_file(tmp_path):
    obj = {
        "d": 2,
        "matrices": [
            {"rows": 3, "cols": 3, "data": [[0, 0, 0], [1, 0, 0], [0, 0, 0]]},
            {"rows": 3, "cols": 3, "data": [[0, 0, 0], [0, 0, 0], [1, 0, 0]]},
        ],
        "cyclic_vector": [1, 0, 0],
    }
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def ideal_file(tmp_path):
    obj = {
        "d": 2,
        "degree_bound": 4,
        "generators": [
            {"d": 2, "terms": [{"coeff": 1, "alpha": [2, 0]}]},
            {"d": 2, "terms": [{"coeff": 1, "alpha": [1, 1]}]},
            {"d": 2, "terms": [{"coeff": 1, "alpha": [0, 2]}]},
        ],
    }
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_tuple_check_ok(tuple_file, capsys):
    code, out, err = run(["tuple-check", "--in", tuple_file], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == "1"
    assert rep["command"] == "tuple-check"
    assert rep["result"]["is_row_contraction"] is True
    assert rep["result"]["cyclic"] is True


def test_tuple_check_svd_non_convergence_exits_3(tuple_file, capsys, svd_fails):
    code, out, err = run(["tuple-check", "--in", tuple_file], capsys)
    assert (code, out) == (3, "")
    assert "LAPACK did not converge" in err


def test_tuple_check_noncommuting_exits_2(tmp_path, capsys):
    obj = {
        "d": 2,
        "matrices": [
            {"rows": 2, "cols": 2, "data": [[0, 1], [0, 0]]},
            {"rows": 2, "cols": 2, "data": [[0, 0], [1, 0]]},
        ],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(["tuple-check", "--in", str(p)], capsys)
    assert code == 2
    assert "commutator defect" in err


def test_missing_input_exits_1(capsys):
    code, out, err = run(["tuple-check", "--in", "/nonexistent/x.json"], capsys)
    assert code == 1
    assert "error" in err


def test_bad_flag_exits_1(capsys):
    code, out, err = run(["tuple-check", "--frobnicate"], capsys)
    assert code == 1


def test_unknown_command_exits_1(capsys):
    code, out, err = run(["no-such-command"], capsys)
    assert code == 1


def test_tuple_ann_reports_generators(tuple_file, capsys):
    code, out, err = run(["tuple-ann", "--in", tuple_file], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["dimension"] >= 3


def test_tuple_ann_stdout_matches_coefficient_oracle(tuple_file, tmp_path, capsys):
    # a commuting pair of polynomials in one complex matrix gives complex
    # annihilator coefficients with every digit in play
    A = np.random.default_rng(4).standard_normal((3, 3)) + 0.5j * np.eye(3)
    T = tuples.validate([A, A @ A - 0.3j * A])
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(ser.dump_tuple(T)))
    for path, deg in ((tuple_file, None), (str(dense), None), (str(dense), 3)):
        T, _ = ser.load_tuple(json.loads(Path(path).read_text()))
        argv = ["tuple-ann", "--in", path] + ([] if deg is None else ["--deg", str(deg)])
        code, out, err = run(argv, capsys)
        assert code == 0, err
        bound = 2 * T.n if deg is None else deg
        basis, coeffs = tuples.annihilator_coeffs(T, bound, numerics.DEFAULT_TOL)
        result = {
            "degree_bound": bound,
            "dimension": coeffs.shape[1],
            "generators": [dump_polynomial(Polynomial.from_coeff_vector(T.d, c, basis)) for c in coeffs.T],
        }
        want = ser.report_envelope("tuple-ann", result, tolerances={"tol": numerics.DEFAULT_TOL})
        assert out == ser.dumps_report(want)


def test_tuple_ann_refuses_a_kernel_too_wide_to_fit(tmp_path, capsys):
    # d=3 and n=20 ask for degree 40: C(43, 3) = 12,341 columns, whose V^H
    # would take 2.4 GB; the refusal comes before any power is formed
    mats = [np.diag(np.full(19, 0.1), -1) for _ in range(3)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(ser.dump_tuple(tuples.validate(mats))))
    t0 = time.perf_counter()
    code, out, err = run(["tuple-ann", "--in", str(path)], capsys)
    assert time.perf_counter() - t0 < 2.0
    assert code == 1
    assert out == ""
    assert "12341 columns" in err and f"{16 * 12341**2} bytes" in err


def test_jordan(tuple_file, capsys):
    code, out, err = run(["jordan", "--in", tuple_file], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["multiplicities"] == [3]


@pytest.mark.parametrize("tol", ["0", "-1e-6", "nan", "inf"])
def test_jordan_refuses_a_clustering_radius_that_is_not_positive_and_finite(tuple_file, tol, capsys):
    # a radius of 0 used to escalate forever
    t0 = time.perf_counter()
    code, out, err = run(["jordan", "--in", tuple_file, f"--cluster-tol={tol}"], capsys)
    assert time.perf_counter() - t0 < 2.0
    assert code == 1
    assert out == ""
    assert "cluster_tol" in err


# generators [0, x1^2, x1 x2 + x2^2]: the zero one is dropped by PolyIdeal,
# yet the entry at fault is still generators[2] of the input
_ZERO_FIRST_IDEAL = {
    "d": 2,
    "degree_bound": 4,
    "generators": [
        {"d": 2, "terms": []},
        {"d": 2, "terms": [{"coeff": 1, "alpha": [2, 0]}]},
        {"d": 2, "terms": [{"coeff": 1, "alpha": [1, 1]}, {"coeff": 1, "alpha": [0, 2]}]},
    ],
}


def test_model_monomial_names_the_input_entry_at_fault(tmp_path, capsys):
    p = tmp_path / "gen.json"
    p.write_text(json.dumps(_ZERO_FIRST_IDEAL))
    code, out, err = run(["model-monomial", "--in", str(p)], capsys)
    assert code == 1
    assert "ideal.generators[2]: expected a monomial" in err


def test_nilsim_names_the_input_entry_at_fault(tuple_file, tmp_path, capsys):
    obj = {"tuple": json.loads(Path(tuple_file).read_text()), "ideal": _ZERO_FIRST_IDEAL}
    p = tmp_path / "nilsim.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(["nilsim", "--in", str(p)], capsys)
    assert code == 1
    assert "ideal.generators[2]: expected a monomial" in err


def test_model_monomial(ideal_file, capsys):
    code, out, err = run(["model-monomial", "--in", ideal_file], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["dimension"] == 3
    assert rep["result"]["gauge_defect"] < 1e-12


def test_model_monomial_rejects_nonmonomial(tmp_path, capsys):
    obj = {
        "d": 1,
        "degree_bound": 3,
        "generators": [
            {"d": 1, "terms": [{"coeff": 1, "alpha": [2]}, {"coeff": -1, "alpha": [1]}]}
        ],
    }
    p = tmp_path / "gen.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(["model-monomial", "--in", str(p)], capsys)
    assert code == 1
    assert "monomial" in err


def test_interp_check_and_pick(tmp_path, capsys):
    pts = {"d": 1, "points": [[0.0], [0.5]]}
    p = tmp_path / "pts.json"
    p.write_text(json.dumps(pts))
    code, out, err = run(["interp-check", "--in", str(p)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["result"]["delta_weak"] - 0.25) < 1e-10

    obj = {"d": 1, "points": [[0.0], [0.5]], "targets": [0.0, 1.0]}
    q = tmp_path / "pick.json"
    q.write_text(json.dumps(obj))
    code, out, err = run(["pick", "--in", str(q)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["result"]["value"] - 2.0) < 1e-5


def test_interp_check_refuses_a_meaningless_inverse(tmp_path, capsys):
    # z_k = 1 - 1/(k+1), k = 1..n: at n = 12 the Gram inverse has rcond
    # below the double epsilon; at n = 10 the report keeps its bytes
    def check(n):
        p = tmp_path / f"pts{n}.json"
        p.write_text(json.dumps({"d": 1, "points": [[1.0 - 1.0 / (k + 1)] for k in range(1, n + 1)]}))
        return run(["interp-check", "--in", str(p)], capsys)

    code, out, err = check(12)
    assert (code, out) == (3, "")
    assert "ill-conditioned matrix detected: slice 0 has rcond = 2.195866088055931e-17" in err
    code, out, err = check(10)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "053dae775e2181ff3b8e823dabd18d0838f5f6ee68a656d22c3b55aa714b1df5"
    )


def test_nilsim_certificate(tuple_file, ideal_file, tmp_path, capsys):
    obj = {
        "tuple": json.loads(Path(tuple_file).read_text()),
        "ideal": json.loads(Path(ideal_file).read_text()),
    }
    p = tmp_path / "nilsim.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(["nilsim", "--in", str(p)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["bounds_hold"] is True
    assert rep["result"]["necessity"]["ok"] is True
    assert rep["result"]["gamma"] <= rep["result"]["gamma_upper"]
    assert rep["result"]["bound_X"] <= rep["result"]["bound_X_certified"]


def test_nilsim_singular_orbit_exits_2(tuple_file, tmp_path, capsys):
    # the tuple is the exact model of <x^2, xy, y^2>; against <x^3, y> its
    # orbit matrix is singular, which is a validation failure
    ideal = {
        "d": 2,
        "degree_bound": 4,
        "generators": [
            {"d": 2, "terms": [{"coeff": 1, "alpha": [3, 0]}]},
            {"d": 2, "terms": [{"coeff": 1, "alpha": [0, 1]}]},
        ],
    }
    p = tmp_path / "nilsim.json"
    p.write_text(json.dumps({"tuple": json.loads(Path(tuple_file).read_text()), "ideal": ideal}))
    code, out, err = run(["nilsim", "--in", str(p)], capsys)
    assert code == 2
    assert "not a basis" in err


def test_grid_flag_is_gone(tuple_file, ideal_file, tmp_path, capsys):
    obj = {
        "tuple": json.loads(Path(tuple_file).read_text()),
        "ideal": json.loads(Path(ideal_file).read_text()),
    }
    p = tmp_path / "nilsim.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(["nilsim", "--in", str(p), "--grid", "8"], capsys)
    assert code == 1
    assert "--grid" in err


def test_jobs_flag_is_gone(capsys):
    code, out, err = run(["repro-6-2", "--jobs", "2"], capsys)
    assert code == 1
    assert "--jobs" in err


def test_parser_is_built_once(tuple_file, capsys):
    first = run(["tuple-check", "--in", tuple_file], capsys)
    second = run(["tuple-check", "--in", tuple_file], capsys)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert cli._build_parser() is cli._build_parser()
    # the reused parser still maps a bad flag to an input error
    code, out, err = run(["tuple-check", "--in", tuple_file, "--frobnicate"], capsys)
    assert code == 1
    assert run(["tuple-check", "--in", tuple_file], capsys) == first


def test_output_file_and_determinism(tuple_file, tmp_path, capsys):
    o1 = tmp_path / "a.json"
    o2 = tmp_path / "b.json"
    assert cli.main(["tuple-check", "--in", tuple_file, "-o", str(o1)]) == 0
    assert cli.main(["tuple-check", "--in", tuple_file, "-o", str(o2)]) == 0
    capsys.readouterr()
    assert o1.read_text() == o2.read_text()
    # and no timestamps or environment leakage
    rep = json.loads(o1.read_text())
    flat = json.dumps(rep)
    assert "time" not in flat


def test_repro_6_2_smoke(capsys):
    code, out, err = run(["repro-6-2", "--eps", "0.1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["ok"] is True


def test_dichotomy_smoke(capsys):
    code, out, err = run(["dichotomy", "--kappa", "0"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["min_cond_upper"] < 10
    # two points: both ends are 2 + sqrt(3)
    assert abs(rep["result"]["min_cond_upper"] - (2 + 3**0.5)) <= 1e-12 * (2 + 3**0.5)
    assert abs(rep["result"]["min_cond_lower"] - (2 + 3**0.5)) <= 1e-12 * (2 + 3**0.5)
    assert "global_min_cond" not in rep["result"] and "jet_model_cond" not in rep["result"]


def test_dichotomy_kappa_0_makes_one_eigh_and_repeats_its_bytes(lapack_counts, capsys):
    code, out, err = run(["dichotomy"], capsys)
    assert code == 0
    assert dict(lapack_counts) == {"eigh": 1}
    assert run(["dichotomy"], capsys) == (0, out, "")


def test_dichotomy_refuses_near_coincident_points(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"d": 1, "points": [[0.5], [0.5 + 1e-7]]}))
    code, out, err = run(["dichotomy", "--in", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert "eigenvalue ratio" in err and "too close" in err


def test_dichotomy_refuses_eps_with_kappa_0(capsys):
    code, out, err = run(["dichotomy", "--kappa", "0", "--eps", "0.5,0.25"], capsys)
    assert code == 1
    assert out == ""
    assert "kappa = 1 only" in err


def test_dichotomy_refuses_kappa_1_points_in_two_variables(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"d": 2, "points": [[0.1, 0.2], [0.3, 0.4], [0.5, -0.1]]}))
    code, out, err = run(["dichotomy", "--kappa", "1", "--in", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "d = 2" in err


@pytest.mark.parametrize(
    "argv",
    [["repro-6-2", "--tol", "1e-3"], ["repro-6-4", "--tol", "1e-3"], ["dichotomy", "--seed", "3"]],
)
def test_unused_repro_flags_are_gone(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert argv[1] in err


def test_repro_6_4_seed_and_exact_min_cond(capsys):
    code, out, err = run(["repro-6-4", "--eps", "0.1,0.01", "--seed", "5"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["seed"] == 5
    assert "tolerances" not in rep
    assert rep["result"]["ok"] is True
    for row in rep["result"]["rows"]:
        f = repro.f_two_variable(row["eps"])
        assert abs(row["measured_min_cond"] - f**2 / row["eps"]) <= 1e-12 * f**2 / row["eps"]
    assert run(["repro-6-4", "--eps", "0.1,0.01", "--seed", "5"], capsys) == (code, out, err)


# imports the CLI, then certifies a conjugated staircase, whose layers are
# not orthonormal, so gamma and gamma_upper come from the gauge grid
_SCIPY_OPTIMIZE_PROBE = """
import sys
import numpy as np
import arveson.cli
from arveson import models, nilsim, tuples

gens = [(2, 0), (1, 1), (0, 2)]
m = models.monomial_model(gens, 2)
S = np.eye(3) + 0.05 * np.random.default_rng(0).standard_normal((3, 3))
mats = [S @ Z @ np.linalg.inv(S) for Z in m.tuple.matrices]
g = np.linalg.norm(sum(M @ M.T for M in mats), 2)
xi = S @ m.cyclic
cert = nilsim.build_similarity(tuples.validate([M / np.sqrt(g) for M in mats]), xi / np.linalg.norm(xi), gens)
assert cert.hypotheses.gamma > 1.0 and cert.bound_X_certified is not None
print('scipy.optimize' in sys.modules)
"""


def test_cli_import_does_not_load_scipy_optimize():
    src = str(Path(arveson.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = _SCIPY_OPTIMIZE_PROBE
    res = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--tol") for c in ("jordan", "model-monomial", "interp-check", "pick")]
    + [
        (c, "--seed")
        for c in (
            "tuple-check",
            "tuple-ann",
            "model-monomial",
            "model-jet",
            "interp-check",
            "pick",
            "nilsim",
        )
    ],
)
def test_unused_input_flags_are_gone(command, flag, tuple_file, capsys):
    # these commands never read the flag; the parser refuses it before the
    # input is loaded
    code, out, err = run([command, "--in", tuple_file, flag, "1"], capsys)
    assert code == 1
    assert flag in err


def test_model_jet_report_has_no_truncation_keys(tmp_path, capsys):
    def ideal(terms):
        return {"d": 1, "degree_bound": 4, "generators": [{"d": 1, "terms": terms}]}

    obj = {
        "d": 1,
        "points": [[0.0], [0.5]],
        "local_ideals": [
            ideal([{"coeff": 1, "alpha": [1]}]),
            ideal([{"coeff": 1, "alpha": [1]}, {"coeff": -0.5, "alpha": [0]}]),
        ],
    }
    p = tmp_path / "jet.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(["model-jet", "--in", str(p)], capsys)
    assert code == 0, err
    rep = json.loads(out)
    assert rep["result"]["dimension"] == 2
    assert rep["result"]["all_localizations_match"] is True
    assert "truncation_degree" not in rep["result"]
    assert "tail_bound" not in rep["result"]


def test_model_jet_exits_3_on_an_undecidable_localization(tmp_path, capsys):
    # six double points: the model is built, but its localizations lie
    # neither within the match tolerance nor clearly apart
    zs = [0.15, -0.15, 0.45, -0.45, 0.75, -0.75]
    x = Polynomial.variable(1, 0)
    obj = {
        "d": 1,
        "points": [[z] for z in zs],
        "local_ideals": [ser.dump_ideal(polyideal.PolyIdeal([(x - z) ** 2], 8)) for z in zs],
    }
    p = tmp_path / "jet.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(["model-jet", "--in", str(p)], capsys)
    assert code == 3
    assert out == ""
    assert "undecidable" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "0"])
@pytest.mark.parametrize("command", ["tuple-check", "tuple-ann", "model-jet", "nilsim"])
def test_tol_must_be_positive_and_finite(command, tol, tuple_file, capsys):
    code, out, err = run([command, "--in", tuple_file, f"--tol={tol}"], capsys)
    assert (code, out) == (1, "") and "--tol must be a positive finite number" in err
