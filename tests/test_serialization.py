import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from arveson import serialization as ser
from arveson import tuples
from arveson.errors import InputError
from arveson.polynomials import Polynomial


def test_complex_round_trip():
    for z in [0.5, 1 + 2j, -0.25j]:
        assert ser.load_complex(ser.dump_complex(complex(z))) == complex(z)


def test_load_complex_accepts_real_number():
    assert ser.load_complex(3) == 3 + 0j


def test_load_complex_rejects_junk():
    with pytest.raises(InputError):
        ser.load_complex("abc")
    with pytest.raises(InputError):
        ser.load_complex([1, 2, 3])


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    got = ser.load_matrix(ser.dump_matrix(M))
    assert_allclose(got, M, atol=0)


def test_load_matrix_checks_shape():
    with pytest.raises(InputError):
        ser.load_matrix({"rows": 2, "cols": 2, "data": [[1, 2]]})
    with pytest.raises(InputError):
        ser.load_matrix({"rows": 1, "cols": 1})


def test_polynomial_round_trip():
    p = Polynomial(2, {(2, 0): 1.0, (0, 1): -2j, (1, 1): 0.5})
    got = ser.load_polynomial(ser.dump_polynomial(p))
    assert got == p


def test_polynomial_terms_sorted():
    p = Polynomial(2, {(0, 1): 1.0, (2, 0): 1.0, (0, 0): 1.0})
    d = ser.dump_polynomial(p)
    alphas = [tuple(t["alpha"]) for t in d["terms"]]
    assert alphas == [(0, 0), (0, 1), (2, 0)] or alphas == sorted(alphas, key=lambda a: (sum(a), [-x for x in a]))


def test_ideal_round_trip_is_byte_identical():
    # generators keep their order; the zero generator and the one whose
    # terms cancel are dropped; a repeated term sums (0.1 + 0.2 with its
    # roundoff), a cancelling term vanishes, and terms come out graded
    obj = {
        "d": 2,
        "degree_bound": 3,
        "generators": [
            {"d": 2, "terms": [{"coeff": [0.5, -1.25], "alpha": [0, 2]}, {"coeff": 2, "alpha": [1, 0]}]},
            {"d": 2, "terms": []},
            {"d": 2, "terms": [{"coeff": 1.5, "alpha": [1, 1]}, {"coeff": 3, "alpha": [0, 0]}, {"coeff": [0.25, 0.5], "alpha": [1, 1]}]},
            {"d": 2, "terms": [{"coeff": 0.1, "alpha": [3, 0]}, {"coeff": 0.2, "alpha": [3, 0]}]},
            {"d": 2, "terms": [{"coeff": 1, "alpha": [2, 1]}, {"coeff": [0, 1], "alpha": [0, 1]}, {"coeff": -1, "alpha": [2, 1]}]},
            {"d": 2, "terms": [{"coeff": [1, 1], "alpha": [1, 2]}, {"coeff": [-1, -1], "alpha": [1, 2]}]},
        ],
    }
    want = (
        '{"d": 2, "degree_bound": 3, "generators": ['
        '{"d": 2, "terms": [{"alpha": [1, 0], "coeff": [2.0, 0.0]}, {"alpha": [0, 2], "coeff": [0.5, -1.25]}]}, '
        '{"d": 2, "terms": [{"alpha": [0, 0], "coeff": [3.0, 0.0]}, {"alpha": [1, 1], "coeff": [1.75, 0.5]}]}, '
        '{"d": 2, "terms": [{"alpha": [3, 0], "coeff": [0.30000000000000004, 0.0]}]}, '
        '{"d": 2, "terms": [{"alpha": [0, 1], "coeff": [0.0, 1.0]}]}]}'
    )
    ideal = ser.load_ideal(obj)
    assert json.dumps(ser.dump_ideal(ideal)) == want
    assert json.dumps(ser.dump_ideal(ser.load_ideal(json.loads(want)))) == want


def test_tuple_round_trip_with_cyclic():
    E21 = np.zeros((3, 3), dtype=complex)
    E21[1, 0] = 1
    E31 = np.zeros((3, 3), dtype=complex)
    E31[2, 0] = 1
    T = tuples.validate([E21, E31])
    xi = np.array([1.0, 0, 0], dtype=complex)
    obj = ser.dump_tuple(T, xi)
    T2, xi2 = ser.load_tuple(obj)
    assert T2.d == 2 and T2.n == 3
    assert_allclose(T2.matrices[0], E21, atol=0)
    assert_allclose(xi2, xi, atol=0)


def test_load_tuple_without_cyclic():
    obj = {
        "d": 1,
        "matrices": [{"rows": 1, "cols": 1, "data": [[0.5]]}],
    }
    T, xi = ser.load_tuple(obj)
    assert xi is None


def test_report_envelope_shape():
    rep = ser.report_envelope("pick", {"value": 2.0}, seed=7, tolerances={"tol": 1e-9})
    assert rep["schema_version"] == "1"
    assert rep["command"] == "pick"
    assert rep["seed"] == 7
    assert rep["result"]["value"] == 2.0
    assert "tool" in rep


def test_dumps_report_deterministic_and_sorted():
    rep = ser.report_envelope("x", {"b": 1, "a": [1 + 2j]})
    s1 = ser.dumps_report(rep)
    s2 = ser.dumps_report(ser.report_envelope("x", {"b": 1, "a": [1 + 2j]}))
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["result"]["a"] == [[1.0, 2.0]]
    # keys are emitted in sorted order
    keys = list(parsed)
    assert keys == sorted(keys)


def test_to_jsonable_handles_arrays_and_scalars():
    out = ser.to_jsonable(
        {
            "m": np.eye(2, dtype=complex),
            "v": np.array([1.0, 2.0]),
            "z": np.complex128(1 + 1j),
            "x": np.float64(0.5),
            "n": np.int64(3),
        }
    )
    assert out["m"]["rows"] == 2
    assert out["v"] == [1.0, 2.0]
    assert out["z"] == [1.0, 1.0]
    assert out["x"] == 0.5
    assert out["n"] == 3


def test_to_jsonable_rejects_unknown():
    with pytest.raises(InputError):
        ser.to_jsonable(object())


def test_load_json_file_missing(tmp_path):
    with pytest.raises(InputError):
        ser.load_json_file(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        ser.load_json_file(str(bad))


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
        ),
        min_size=0,
        max_size=5,
        unique=True,
    )
)
def test_polynomial_round_trip_property(alphas):
    p = Polynomial(2, {a: 1.0 + 0.5j for a in alphas})
    assert ser.load_polynomial(ser.dump_polynomial(p)) == p
