import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import arveson
from arveson import cli, numerics, repro


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


def test_tuple_check_svd_non_convergence_exits_3(tuple_file, capsys, monkeypatch):
    def fails(a, **kwargs):
        return np.zeros((0, 0)), np.zeros(min(a.shape)), np.zeros((0, 0)), 1

    monkeypatch.setattr(numerics, "_gesdd", fails)
    code, out, err = run(["tuple-check", "--in", tuple_file], capsys)
    assert code == 3
    assert "info 1" in err


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


def test_jordan(tuple_file, capsys):
    code, out, err = run(["jordan", "--in", tuple_file], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["multiplicities"] == [3]


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
    assert rep["result"]["jet_model_cond"] < 10


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
