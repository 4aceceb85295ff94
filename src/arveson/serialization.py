"""JSON wire formats.

Complex scalars travel as [re, im] pairs, matrices as explicit
rows/cols/data objects, polynomials as coefficient-exponent term lists.
Loaders raise InputError naming the offending field; writers are the
exact inverses and never emit anything nondeterministic. Entries that are
all [re, im] pairs of floats, as the writers emit them, are read as one
array; any other entry goes through ``load_complex``, one at a time, which
accepts or refuses it. Ideals are read into, and written from, their
coefficient matrix directly, without a ``Polynomial`` per generator.

Report contract. ``dumps_report`` writes the bytes of
``json.dumps(report, sort_keys=True, indent=2)`` and a final newline, with
the report's values converted to JSON first: numpy values to Python ones,
complex numbers to [re, im], 2-d arrays to ``dump_matrix`` objects, other
arrays and tuples to lists, dataclasses to dicts of their fields and dict
keys to strings. So keys are sorted, the indent is two spaces, the text is
ASCII with ``\\u`` escapes and floats are as ``float.__repr__`` writes them.
Non-finite floats are written ``NaN``, ``Infinity`` and ``-Infinity``, as
the standard library's encoder writes them; that is not strict RFC 8259
JSON, though Python's ``json`` and other lenient readers accept it. The
writer is one recursive pass that appends string fragments. It converts
each value as it meets it, and writes a list of floats or of [re, im]
pairs of floats with one ``join``: the standard library's C encoder
ignores ``indent``, and its Python encoder costs a few calls per node.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from typing import Sequence

import numpy as np

from . import multiindex as mi
from . import tuples
from .errors import InputError

SCHEMA_VERSION = "1"


def _expect(obj, field: str, kind, where: str):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object with field '{field}'")
    if field not in obj:
        raise InputError(f"{where}: missing field '{field}'")
    v = obj[field]
    if kind is float:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InputError(f"{where}.{field}: expected a number")
        return float(v)
    if kind is int:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"{where}.{field}: expected an integer")
        return v
    if not isinstance(v, kind):
        raise InputError(f"{where}.{field}: expected {kind.__name__}")
    return v


def load_complex(obj, where: str = "complex") -> complex:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(obj)
    if (
        isinstance(obj, list)
        and len(obj) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        return complex(obj[0], obj[1])
    raise InputError(f"{where}: expected [re, im] or a real number")


def dump_complex(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _float_pairs(rows: list, width: int):
    """The entries of ``rows`` as one complex array of shape
    (len(rows), width) when every row is a list of ``width`` [re, im] pairs
    of floats (``type(x) is float``, so no bool or int), else None. Each
    entry keeps the bits of its two floats, as ``complex(re, im)`` does."""
    flat = [
        x
        for row in rows
        if type(row) is list and len(row) == width
        for z in row
        if type(z) is list and len(z) == 2
        for x in z
        if type(x) is float
    ]
    if flat and len(flat) == 2 * width * len(rows):
        return np.array(flat).view(complex).reshape(len(rows), width)
    return None


def load_matrix(obj, where: str = "matrix") -> np.ndarray:
    rows = _expect(obj, "rows", int, where)
    cols = _expect(obj, "cols", int, where)
    data = _expect(obj, "data", list, where)
    if rows < 1 or cols < 1:
        raise InputError(f"{where}: rows and cols must be positive")
    if len(data) != rows:
        raise InputError(f"{where}.data: expected {rows} rows, got {len(data)}")
    out = _float_pairs(data, cols)
    if out is not None:
        return out
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(f"{where}.data[{i}]: expected a list of {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = load_complex(entry, f"{where}.data[{i}][{j}]")
    return out


def dump_matrix(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise InputError(f"expected a 2-d array, got shape {M.shape}")
    return {
        "rows": M.shape[0],
        "cols": M.shape[1],
        "data": np.stack([M.real, M.imag], axis=-1).tolist(),
    }


def _load_terms(obj, where: str) -> tuple:
    """(d, {alpha: coefficient}) of a polynomial in the wire format. Terms
    add up in input order and a zero sum is dropped, as ``Polynomial``
    adds them; every exponent passes ``multiindex.as_index``, whose
    ``MAX_DEGREE`` guard holds for a zero coefficient too."""
    d = _expect(obj, "d", int, where)
    if d < 1:
        raise InputError(f"{where}.d: must be >= 1")
    terms = _expect(obj, "terms", list, where)
    table = {}
    for k, term in enumerate(terms):
        coeff = load_complex(
            _expect(term, "coeff", object, f"{where}.terms[{k}]"),
            f"{where}.terms[{k}].coeff",
        )
        alpha = _expect(term, "alpha", list, f"{where}.terms[{k}]")
        if len(alpha) != d or not all(
            isinstance(a, int) and not isinstance(a, bool) and a >= 0 for a in alpha
        ):
            raise InputError(
                f"{where}.terms[{k}].alpha: expected {d} nonnegative integers"
            )
        alpha = mi.as_index(alpha)
        if coeff != 0:
            c = table.get(alpha, 0) + coeff
            if c != 0:
                table[alpha] = c
            else:
                del table[alpha]
    return d, table


def load_generators(obj, where: str = "ideal") -> tuple:
    """(d, degree_bound, generators) of an ideal in the wire format, each
    generator a (d, {alpha: coefficient}) pair as ``PolyIdeal.from_terms``
    takes it, in input order, zero generators included."""
    d = _expect(obj, "d", int, where)
    degree_bound = _expect(obj, "degree_bound", int, where)
    gens_obj = _expect(obj, "generators", list, where)
    return d, degree_bound, [
        _load_terms(g, f"{where}.generators[{k}]") for k, g in enumerate(gens_obj)
    ]


def load_ideal(obj, where: str = "ideal"):
    from . import polyideal

    d, degree_bound, gens = load_generators(obj, where)
    return polyideal.PolyIdeal.from_terms(gens, degree_bound, d=d)


def dump_generators(coeffs: np.ndarray, basis: Sequence[tuple]) -> list:
    """The columns of ``coeffs``, coefficient vectors on the monomials
    ``basis`` in graded order, in the polynomial wire format, their terms
    in that order. A zero entry is no term; adding 0.0 writes a negative
    zero part as 0.0, as ``Polynomial`` stores it."""
    d = len(basis[0])
    return [
        {
            "d": d,
            "terms": [
                {"alpha": list(alpha), "coeff": [c.real + 0.0, c.imag + 0.0]}
                for alpha, c in zip(basis, col)
                if c != 0
            ],
        }
        for col in coeffs.T.tolist()
    ]


def dump_ideal(ideal) -> dict:
    return {
        "d": ideal.d,
        "degree_bound": ideal.degree_bound,
        "generators": dump_generators(ideal.coeffs, ideal.basis),
    }


def load_tuple(obj, where: str = "tuple"):
    d = _expect(obj, "d", int, where)
    mats_obj = _expect(obj, "matrices", list, where)
    if len(mats_obj) != d:
        raise InputError(f"{where}.matrices: expected {d} matrices, got {len(mats_obj)}")
    mats = [load_matrix(m, f"{where}.matrices[{k}]") for k, m in enumerate(mats_obj)]
    T = tuples.validate(mats)
    xi = None
    if "cyclic_vector" in obj:
        vec = obj["cyclic_vector"]
        if not isinstance(vec, list) or len(vec) != T.n:
            raise InputError(
                f"{where}.cyclic_vector: expected a list of {T.n} complex entries"
            )
        xi = _float_pairs([vec], T.n)
        if xi is not None:
            return T, xi[0]
        xi = np.array(
            [load_complex(v, f"{where}.cyclic_vector[{k}]") for k, v in enumerate(vec)]
        )
    return T, xi


def dump_tuple(T: tuples.CommutingTuple, xi=None) -> dict:
    out = {"d": T.d, "matrices": [dump_matrix(M) for M in T.matrices]}
    if xi is not None:
        out["cyclic_vector"] = [dump_complex(z) for z in np.asarray(xi).reshape(-1)]
    return out


def load_points(obj, where: str = "points") -> list:
    d = _expect(obj, "d", int, where)
    pts_obj = _expect(obj, "points", list, where)
    if not pts_obj:
        raise InputError(f"{where}.points: need at least one point")
    fast = _float_pairs(pts_obj, d)
    if fast is not None:
        return list(fast)
    pts = []
    for k, p in enumerate(pts_obj):
        if not isinstance(p, list) or len(p) != d:
            raise InputError(f"{where}.points[{k}]: expected {d} coordinates")
        pts.append(
            np.array(
                [load_complex(z, f"{where}.points[{k}][{j}]") for j, z in enumerate(p)]
            )
        )
    return pts


def dump_points(points) -> dict:
    pts = [np.asarray(p, dtype=complex).reshape(-1) for p in points]
    return {
        "d": int(pts[0].size),
        "points": [[dump_complex(z) for z in p] for p in pts],
    }


def _convert(obj):
    """The JSON form of a value that is no plain JSON scalar, as the
    report contract (module docstring) converts it; its members may still
    need converting."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, str):
        return str.__str__(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return dump_complex(complex(obj))
    if isinstance(obj, np.ndarray):
        return dump_matrix(obj) if obj.ndim == 2 else obj.tolist()
    if isinstance(obj, dict):
        return {str(k): v for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def report_envelope(command: str, result, seed=None, tolerances=None) -> dict:
    """The report of one command; ``result`` and ``tolerances`` are kept
    as given, and ``dumps_report`` converts them as it writes."""
    from . import __version__

    out = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "arveson", "version": __version__},
        "command": command,
        "result": result,
    }
    if seed is not None:
        out["seed"] = int(seed)
    if tolerances:
        out["tolerances"] = tolerances
    return out


_escape = json.encoder.encode_basestring_ascii


def _nonfinite(text: str) -> str:
    """Float reprs with nan and inf respelled NaN and Infinity; a finite
    repr holds no letter n."""
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


# the writers of the JSON scalars, by exact type
_SCALARS = {
    float: lambda x: _nonfinite(float.__repr__(x)),
    str: _escape,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _nested(floats: list, shape: tuple, nl: str) -> str:
    """The JSON text of a nested list of floats of ``shape``, every extent
    positive, from its entries in row-major order: the reprs are grouped
    and joined level by level, the glue between two groups closing the
    deeper brackets and opening them again, so no Python code runs per
    entry."""
    ins = [nl + "  " * (k + 1) for k in range(len(shape))]
    opens = ["[" + i for i in ins]
    closes = [i + "]" for i in [nl] + ins[:-1]]
    parts = map(float.__repr__, floats)
    for k in reversed(range(len(shape))):
        glue = "".join(reversed(closes[k + 1 :])) + "," + ins[k] + "".join(opens[k + 1 :])
        if k:
            parts = map(glue.join, zip(*[iter(parts)] * shape[k]))
    return "".join(opens) + _nonfinite(glue.join(parts)) + "".join(reversed(closes))


def _write(x, emit, nl: str) -> None:
    """Emit the JSON text of x, a value that is no plain JSON scalar, whose
    line is indented as ``nl`` (a newline and that indent) says, in the
    layout of ``json.dumps`` with ``indent=2``. A 2-d array becomes the
    object of ``dump_matrix`` directly, its data one nested join."""
    t = type(x)
    if t is dict:
        if not x:
            emit("{}")
            return
        if set(map(type, x)) != {str}:
            x = {str(k): v for k, v in x.items()}
        inner = nl + "  "
        head = "{" + inner
        for k in sorted(x):
            v = x[k]
            scalar = _SCALARS.get(type(v))
            if scalar is not None:
                emit(head + _escape(k) + ": " + scalar(v))
            else:
                emit(head + _escape(k) + ": ")
                _write(v, emit, inner)
            head = "," + inner
        emit(nl + "}")
    elif t is list or t is tuple:
        _write_list(x, emit, nl)
    elif t is np.ndarray and x.ndim == 2 and x.size:
        rows, cols = x.shape
        floats = np.ascontiguousarray(x, dtype=complex).view(float).ravel().tolist()
        inner = nl + "  "
        emit(
            f"{{{inner}\"cols\": {cols},{inner}\"data\": {_nested(floats, (rows, cols, 2), inner)},"
            f"{inner}\"rows\": {rows}{nl}}}"
        )
    else:
        x = _convert(x)
        scalar = _SCALARS.get(type(x))
        if scalar is not None:
            emit(scalar(x))
        else:
            _write(x, emit, nl)


def _write_list(x, emit, nl: str) -> None:
    if not x:
        emit("[]")
        return
    kinds = set(map(type, x))
    if kinds == {float}:
        inner = nl + "  "
        emit("[" + inner + _nonfinite(("," + inner).join(map(float.__repr__, x))) + nl + "]")
    elif kinds == {int}:
        inner = nl + "  "
        emit("[" + inner + ("," + inner).join(map(int.__repr__, x)) + nl + "]")
    elif (
        kinds == {list}
        and set(map(len, x)) == {2}
        and set(map(type, flat := list(itertools.chain.from_iterable(x)))) == {float}
    ):
        emit(_nested(flat, (len(x), 2), nl))
    else:
        inner = nl + "  "
        head = "[" + inner
        for v in x:
            scalar = _SCALARS.get(type(v))
            if scalar is not None:
                emit(head + scalar(v))
            else:
                emit(head)
                _write(v, emit, inner)
            head = "," + inner
        emit(nl + "]")


def dumps_report(report: dict) -> str:
    """The report as JSON text in one pass (module docstring)."""
    scalar = _SCALARS.get(type(report))
    if scalar is not None:
        return scalar(report) + "\n"
    out = []
    _write(report, out.append, "\n")
    out.append("\n")
    return "".join(out)


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}")
