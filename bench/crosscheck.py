"""Re-derive the baseline call counts quoted in ROADMAP.md, independently of
the span recorder.

Usage (from the repository root): python3 bench/crosscheck.py

Prints one JSON object:

* ``exact_family``: ``numerics.operator_norm`` calls per exact certificate
  (``models.monomial_model`` followed by ``nilsim.build_similarity``) over
  the full family of 2,542 monomial staircases of acceptance criterion 5.
* ``criterion4``: on the 50 tuples of acceptance criterion 4, the Schur
  factorizations counted two ways. ``schur_direct`` counts the calls the
  library makes to ``scipy.linalg.schur``; ``schur_gees`` counts every
  complex Schur factorization (LAPACK ``gees``), which adds the two that
  ``scipy.linalg.solve_sylvester`` computes internally (one for each
  coefficient matrix) per Sylvester solve. The benchmark's
  ``spectral.schur_per_decomp`` uses the second definition.
"""

from __future__ import annotations

import collections
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import scipy.linalg  # noqa: E402
import scipy.linalg._decomp_schur  # noqa: E402
import scipy.linalg._solvers  # noqa: E402

import workloads  # noqa: E402
from arveson import models, nilsim, numerics, spectral, tuples  # noqa: E402


def _counting(counter: collections.Counter, key: str, fn):
    def wrapper(*args, **kwargs):
        counter[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def exact_family() -> dict:
    calls = collections.Counter()
    orig = numerics.operator_norm
    numerics.operator_norm = _counting(calls, "operator_norm", orig)
    t0 = time.perf_counter()
    try:
        certs = 0
        for d, comp in workloads.staircase_family():
            gens = workloads.staircase_generators(d, comp)
            m = models.monomial_model(gens, d)
            nilsim.build_similarity(m.tuple, m.cyclic, gens)
            certs += 1
    finally:
        numerics.operator_norm = orig
    return {
        "certificates": certs,
        "operator_norm_calls": calls["operator_norm"],
        "operator_norm_per_cert": calls["operator_norm"] / certs,
        "wall_s": time.perf_counter() - t0,
    }


def criterion4() -> dict:
    calls = collections.Counter()
    schur = scipy.linalg._decomp_schur.schur
    sylvester = scipy.linalg.solve_sylvester
    saved = [
        (scipy.linalg, "schur", schur),
        (scipy.linalg._solvers, "schur", scipy.linalg._solvers.schur),
        (scipy.linalg, "solve_sylvester", sylvester),
        (spectral, "joint_eigenvalues", spectral.joint_eigenvalues),
        (spectral, "riesz_idempotent", spectral.riesz_idempotent),
    ]
    inputs = [tuples.validate(mats) for mats, _, _ in workloads.criterion4_inputs()]
    scipy.linalg.schur = _counting(calls, "schur_direct", schur)
    scipy.linalg._solvers.schur = _counting(calls, "schur_in_sylvester", schur)
    scipy.linalg.solve_sylvester = _counting(calls, "sylvester", sylvester)
    spectral.joint_eigenvalues = _counting(calls, "rungs", spectral.joint_eigenvalues)
    spectral.riesz_idempotent = _counting(calls, "idempotents", spectral.riesz_idempotent)
    t0 = time.perf_counter()
    try:
        blocks = sum(spectral.jordan_decompose(T).spectrum.count for T in inputs)
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return {
        "decompositions": len(inputs),
        "blocks": blocks,
        "rungs": calls["rungs"],
        "idempotents": calls["idempotents"],
        "sylvester_solves": calls["sylvester"],
        "schur_direct": calls["schur_direct"],
        "schur_gees": calls["schur_direct"] + calls["schur_in_sylvester"],
        "wall_s": time.perf_counter() - t0,
    }


if __name__ == "__main__":
    print(json.dumps({"exact_family": exact_family(), "criterion4": criterion4()}, indent=2))
