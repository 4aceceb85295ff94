"""JSON wire formats.

Complex scalars travel as [re, im] pairs, matrices as explicit
rows/cols/data objects, polynomials as coefficient-exponent term lists.
Loaders raise InputError naming the offending field; writers are the
exact inverses and never emit anything nondeterministic.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from . import tuples
from .errors import InputError
from .polynomials import Polynomial

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


def load_matrix(obj, where: str = "matrix") -> np.ndarray:
    rows = _expect(obj, "rows", int, where)
    cols = _expect(obj, "cols", int, where)
    data = _expect(obj, "data", list, where)
    if rows < 1 or cols < 1:
        raise InputError(f"{where}: rows and cols must be positive")
    if len(data) != rows:
        raise InputError(f"{where}.data: expected {rows} rows, got {len(data)}")
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


def load_polynomial(obj, where: str = "polynomial") -> Polynomial:
    d = _expect(obj, "d", int, where)
    if d < 1:
        raise InputError(f"{where}.d: must be >= 1")
    terms = _expect(obj, "terms", list, where)
    p = Polynomial.zero(d)
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
        p = p + Polynomial.monomial(tuple(alpha), coeff)
    return p


def dump_polynomial(p: Polynomial) -> dict:
    terms = [
        {"alpha": list(alpha), "coeff": dump_complex(c)}
        for alpha, c in sorted(p.coeffs.items(), key=lambda kv: (sum(kv[0]), [-a for a in kv[0]]))
    ]
    return {"d": p.d, "terms": terms}


def load_ideal(obj, where: str = "ideal"):
    from . import polyideal

    d = _expect(obj, "d", int, where)
    degree_bound = _expect(obj, "degree_bound", int, where)
    gens_obj = _expect(obj, "generators", list, where)
    gens = [
        load_polynomial(g, f"{where}.generators[{k}]") for k, g in enumerate(gens_obj)
    ]
    return polyideal.PolyIdeal(gens, degree_bound, d=d)


def dump_generators(coeffs: np.ndarray, basis: Sequence[tuple]) -> list:
    """The columns of ``coeffs``, coefficient vectors on the monomials
    ``basis``, in the wire format of ``dump_polynomial``."""
    d = len(basis[0])
    return [dump_polynomial(Polynomial.from_coeff_vector(d, c, basis)) for c in coeffs.T.tolist()]


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


def to_jsonable(obj):
    """Recursive conversion for report payloads."""
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
        return dump_complex(complex(obj))
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return dump_matrix(obj)
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, Polynomial):
        return dump_polynomial(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def report_envelope(command: str, result, seed=None, tolerances=None) -> dict:
    from . import __version__

    out = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "arveson", "version": __version__},
        "command": command,
        "result": to_jsonable(result),
    }
    if seed is not None:
        out["seed"] = int(seed)
    if tolerances:
        out["tolerances"] = to_jsonable(tolerances)
    return out


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}")
