import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from arveson import repro
from arveson import serialization as ser
from arveson import tuples
from arveson.errors import InputError
from arveson.polynomials import Polynomial
from oracles import dump_polynomial


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


def _ideal_round_trip(p: Polynomial) -> tuple:
    """The generators read back from the one-generator ideal of ``p``, and
    those the ideal writes."""
    obj = {"d": p.d, "degree_bound": 6, "generators": [dump_polynomial(p)]}
    _, _, gens = ser.load_generators(obj)
    return [Polynomial(*g) for g in gens], ser.dump_ideal(ser.load_ideal(obj))["generators"]


def test_polynomial_round_trip():
    p = Polynomial(2, {(2, 0): 1.0, (0, 1): -2j, (1, 1): 0.5})
    assert _ideal_round_trip(p) == ([p], [dump_polynomial(p)])


def test_polynomial_terms_sorted():
    p = Polynomial(2, {(0, 1): 1.0, (2, 0): 1.0, (1, 1): 1.0, (0, 0): 1.0})
    (gen,) = _ideal_round_trip(p)[1]
    # graded, and earlier variables first within a degree
    assert [tuple(t["alpha"]) for t in gen["terms"]] == [(0, 0), (0, 1), (2, 0), (1, 1)]


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


def test_dumps_report_handles_arrays_and_scalars():
    out = json.loads(
        ser.dumps_report(
            {
                "m": np.eye(2, dtype=complex),
                "v": np.array([1.0, 2.0]),
                "z": np.complex128(1 + 1j),
                "x": np.float64(0.5),
                "n": np.int64(3),
            }
        )
    )
    assert out["m"]["rows"] == 2
    assert out["v"] == [1.0, 2.0]
    assert out["z"] == [1.0, 1.0]
    assert out["x"] == 0.5
    assert out["n"] == 3


def test_dumps_report_rejects_unknown():
    # no report holds a Polynomial, so the writer knows no form for one
    for value in (object(), Polynomial(1, {(1,): 1.0})):
        with pytest.raises(InputError, match="cannot serialize object of type"):
            ser.dumps_report(value)


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
    # the ideal drops a zero generator
    p = Polynomial(2, {a: 1.0 + 0.5j for a in alphas})
    assert _ideal_round_trip(p) == ([p], [dump_polynomial(p)] if alphas else [])


# The loaders' refusals, pinned before their float fast paths: each bad
# input gives the error class and message of the per-entry code.
_P = [0.5, 0.25]
_SQUARE = {"rows": 2, "cols": 2, "data": [[_P, _P], [_P, _P]]}


def _ideal(d, terms_list, degree_bound=2, gen_d=None):
    gens = [{"d": d if gen_d is None else gen_d, "terms": terms} for terms in terms_list]
    return {"d": d, "degree_bound": degree_bound, "generators": gens}


@pytest.mark.parametrize(
    "load, obj, message",
    [
        (ser.load_matrix, {"rows": 1, "cols": 2, "data": [[_P, True]]}, "matrix.data[0][1]: expected [re, im] or a real number"),
        (ser.load_matrix, {"rows": 1, "cols": 2, "data": [[_P, [True, 0.0]]]}, "matrix.data[0][1]: expected [re, im] or a real number"),
        (ser.load_matrix, {"rows": 2, "cols": 2, "data": [[_P, _P], [_P]]}, "matrix.data[1]: expected a list of 2 entries"),
        (ser.load_matrix, {"rows": 1, "cols": 2, "data": [[_P, [1.0, 2.0, 3.0]]]}, "matrix.data[0][1]: expected [re, im] or a real number"),
        (ser.load_matrix, {"rows": 1, "cols": 2, "data": [[_P, "1"]]}, "matrix.data[0][1]: expected [re, im] or a real number"),
        (ser.load_tuple, {"d": 1, "matrices": [_SQUARE], "cyclic_vector": [_P, True]}, "tuple.cyclic_vector[1]: expected [re, im] or a real number"),
        (ser.load_tuple, {"d": 1, "matrices": [_SQUARE], "cyclic_vector": [_P, [1.0, 2.0, 3.0]]}, "tuple.cyclic_vector[1]: expected [re, im] or a real number"),
        (ser.load_tuple, {"d": 1, "matrices": [_SQUARE], "cyclic_vector": [_P, "x"]}, "tuple.cyclic_vector[1]: expected [re, im] or a real number"),
        (ser.load_tuple, {"d": 1, "matrices": [_SQUARE], "cyclic_vector": [_P]}, "tuple.cyclic_vector: expected a list of 2 complex entries"),
        (ser.load_points, {"d": 2, "points": [[_P, True]]}, "points.points[0][1]: expected [re, im] or a real number"),
        (ser.load_points, {"d": 2, "points": [[_P, _P], [_P]]}, "points.points[1]: expected 2 coordinates"),
        (ser.load_points, {"d": 2, "points": [[_P, [1.0, 2.0, 3.0]]]}, "points.points[0][1]: expected [re, im] or a real number"),
        (ser.load_points, {"d": 2, "points": [[_P, "1"]]}, "points.points[0][1]: expected [re, im] or a real number"),
        (ser.load_ideal, _ideal(1, [[{"coeff": True, "alpha": [1]}]]), "ideal.generators[0].terms[0].coeff: expected [re, im] or a real number"),
        (ser.load_ideal, _ideal(1, [[{"coeff": 1.0, "alpha": [True]}]]), "ideal.generators[0].terms[0].alpha: expected 1 nonnegative integers"),
        (ser.load_ideal, _ideal(2, [[{"coeff": 1.0, "alpha": [1]}]]), "ideal.generators[0].terms[0].alpha: expected 2 nonnegative integers"),
        (ser.load_ideal, _ideal(1, [[{"coeff": [1.0, 2.0, 3.0], "alpha": [1]}]]), "ideal.generators[0].terms[0].coeff: expected [re, im] or a real number"),
        (ser.load_ideal, _ideal(1, [[{"coeff": "1", "alpha": [1]}]]), "ideal.generators[0].terms[0].coeff: expected [re, im] or a real number"),
        # the MAX_DEGREE guard of multiindex.as_index, also on a zero term
        (ser.load_ideal, _ideal(1, [[{"coeff": 1.0, "alpha": [513]}]]), "degree 513 exceeds hard limit 512"),
        (ser.load_ideal, _ideal(1, [[{"coeff": 0.0, "alpha": [600]}]]), "degree 600 exceeds hard limit 512"),
        (ser.load_ideal, _ideal(2, [[{"coeff": 1.0, "alpha": [1]}]], gen_d=1), "generators live in different dimensions"),
        (ser.load_ideal, _ideal(1, [[{"coeff": 0.0, "alpha": [1]}]], gen_d=0), "ideal.generators[0].d: must be >= 1"),
        (ser.load_ideal, _ideal(1, [[{"coeff": 1.0, "alpha": [3]}]]), "generator degree 3 exceeds the degree bound 2"),
        (ser.load_ideal, _ideal(1, [], degree_bound=-1), "degree_bound must be >= 0, got -1"),
        (ser.load_ideal, _ideal(1, [], degree_bound=600), "max_degree 600 exceeds hard limit 512"),
        (ser.load_ideal, _ideal(0, []), "dimension must be >= 1, got 0"),
    ],
)
def test_loaders_keep_their_refusals(load, obj, message):
    with pytest.raises(InputError) as info:
        load(obj)
    assert type(info.value) is InputError and str(info.value) == message


def test_loaders_accept_ints_and_bare_reals_with_the_same_values():
    data = [[[1, 2], 3], [-0.5, [0.0, -1]]]
    want = np.array([[1 + 2j, 3], [-0.5, -1j]])
    got = ser.load_matrix({"rows": 2, "cols": 2, "data": data})
    assert got.dtype == complex and np.array_equal(got, want)
    T, xi = ser.load_tuple({"d": 1, "matrices": [{"rows": 2, "cols": 2, "data": data}], "cyclic_vector": [1, [0.5, 2]]})
    assert np.array_equal(T.matrices[0], want) and np.array_equal(xi, [1, 0.5 + 2j])
    pts = ser.load_points({"d": 2, "points": data})
    assert [p.tolist() for p in pts] == want.tolist()
    # a zero generator, one whose terms cancel and one past the bound whose
    # terms cancel are all dropped; int coefficients are read as numbers
    ideal = ser.load_ideal(_ideal(1, [
        [{"coeff": 0.0, "alpha": [1]}],
        [{"coeff": 1, "alpha": [3]}, {"coeff": -1, "alpha": [3]}],
        [{"coeff": [0, 2], "alpha": [2]}, {"coeff": 1, "alpha": [0]}],
    ]))
    assert ideal.coeffs.tolist() == [[1 + 0j], [0j], [2j]]
    ideal = ser.load_ideal(_ideal(2, [[{"coeff": 0.0, "alpha": [1]}]], gen_d=1))
    assert ideal.coeffs.shape == (6, 0)


def test_fast_path_matrices_keep_every_bit():
    vals = [0.1, -0.0, 1e-310, float("inf"), -2.5e300, float("nan"), 3.0, -7e-17]
    data = [[[vals[2 * j], vals[2 * j + 1]] for j in range(2)] for _ in range(2)]
    got = ser.load_matrix({"rows": 2, "cols": 2, "data": data})
    want = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            want[i, j] = complex(*data[i][j])
    assert got.shape == (2, 2) and got.dtype == complex
    assert got.tobytes() == want.tobytes()


# The report writer's oracle: the standard library's encoder on the former
# up-front conversion. It survives here only.
def _former_to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return ser.dump_complex(complex(obj))
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return ser.dump_matrix(obj)
        return [_former_to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _former_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_former_to_jsonable(x) for x in obj]
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def _stdlib_report(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1]
_SPECIAL_TEXT = ['"', "\\", "\x00", "\x1f", "\n\t", "\u00e9", "\u2028", "\ud800", "\U0001f600", "a\"b\\c"]
_floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_texts = st.text() | st.sampled_from(_SPECIAL_TEXT)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**25), max_value=10**25),
    _floats,
    _texts,
)
_json_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(_texts, children, max_size=5),
        st.lists(_floats, max_size=6),
        st.lists(st.integers(), max_size=6),
        st.lists(st.lists(_floats, min_size=2, max_size=2), max_size=5),
        st.lists(st.lists(_floats, min_size=1, max_size=3), max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=250, deadline=None)
@given(_json_trees)
def test_dumps_report_writes_the_bytes_of_the_stdlib_encoder(tree):
    assert ser.dumps_report(tree) == _stdlib_report(tree)


def test_dumps_report_spells_edge_values_as_the_stdlib_encoder():
    tree = {
        "": [],
        "empty": {},
        "floats": [math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e22, 123456789.125],
        "pairs": [[math.nan, -0.0], [math.inf, 2.5]],
        "big": [10**20, -(10**20), 2**64],
        "flags": [True, False, None, 0, 1],
        "mixed": [1, 1.0, True, "1", [1.0], [[1.0, 2.0]], {"a": []}],
        "keys": {k: k for k in _SPECIAL_TEXT},
        "\u00e9\"": "\x00\u2028",
        "nested": [[[[0.5, 0.25]]], [[], [[]]]],
    }
    assert ser.dumps_report(tree) == _stdlib_report(tree)


@dataclasses.dataclass(frozen=True)
class _Row:
    point: tuple
    eps: float | None
    values: tuple
    matrix: np.ndarray
    ok: bool


def test_dumps_report_converts_as_the_former_route():
    # numpy scalars and arrays, complex numbers, tuples and dataclass rows
    # give the bytes of json.dumps of the former up-front conversion, with
    # dataclasses.asdict for the rows, as the command line made them
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    M[0, 0] = complex(-0.0, math.nan)
    M[2, 1] = complex(math.inf, -0.0)
    rows = (
        _Row((0.5 + 0.25j, -1j), None, (np.float64(1.5), np.int64(2)), M, True),
        _Row((), 0.1, (), np.eye(1, dtype=complex), np.bool_(False)),
    )
    library_rows = [repro.DichotomyBlockRow(point=(0.5 + 0j,), eps=None, block_min_cond=2.0)]
    payload = {
        "m": M,
        "real_matrix": rng.standard_normal((2, 2)),
        "one_row": M[:1],
        "transposed": M.T,
        "single": M.astype(np.complex64),
        "no_rows": np.zeros((0, 2)),
        "no_cols": np.zeros((2, 0), dtype=complex),
        "v": np.array([1.0, -0.0, math.nan]),
        "vc": np.array([1 + 2j, -0.0j]),
        "vi": np.arange(3),
        "stack": np.zeros((2, 1, 1)),
        "z": np.complex128(1 - 0.0j),
        "c": 1 + 2j,
        "x": np.float64(0.5),
        "f32": np.float32(0.1),
        "n": np.int64(3),
        "b": np.bool_(True),
        "t": (1, 2.5, (3j, (4,))),
        "int_keys": {2: "a", 10: (np.float64(1.0),)},
        "points": ((0.1 + 0j, 0.2 - 0.3j), (1j, 0j)),
        "matrices": (np.eye(2, dtype=complex), 2 * np.eye(2)),
    }
    former = dict(payload, rows=[dataclasses.asdict(r) for r in rows], library=[dataclasses.asdict(r) for r in library_rows])
    payload.update(rows=rows, library=library_rows)
    want = _stdlib_report(_former_to_jsonable(former))
    assert ser.dumps_report(payload) == want
    envelope = ser.report_envelope("x", payload, seed=np.int64(4), tolerances={"tol": np.float64(1e-9)})
    assert ser.dumps_report(envelope) == _stdlib_report(
        _former_to_jsonable(dict(envelope, result=former))
    )
    with pytest.raises(InputError, match="cannot serialize object of type object"):
        ser.dumps_report({"a": [object()]})
