"""Headroom of each acceptance criterion against its wall-clock budget.

Usage (from the repository root): python3 bench/headroom.py

Loads tests/test_acceptance.py as a module (the file is only read), runs
every ``test_criterion_*`` function in this process, one after another,
and prints one JSON object: per test the measured wall time, the budget
read from its ``_budget(t0, limit)`` call, the headroom left, and whether
the test passed. ``test_criterion_5_troubled_family_certificates`` fails
by design (its inputs violate the admissibility hypothesis it asserts);
it is reported as ``red_by_design``, not as a failure of the benchmark.
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import json
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests" / "test_acceptance.py"
RED_BY_DESIGN = {"test_criterion_5_troubled_family_certificates"}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("acceptance", TESTS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    rows = []
    for name, fn in inspect.getmembers(mod, inspect.isfunction):
        if not name.startswith("test_criterion_"):
            continue
        budget = re.search(r"_budget\(t0,\s*([0-9.]+)\)", inspect.getsource(fn))
        limit = float(budget.group(1)) if budget else None
        t0 = time.perf_counter()
        try:
            # the tests print diagnostics; keep stdout for the report
            with contextlib.redirect_stdout(sys.stderr):
                fn()
            status = "pass"
        except AssertionError as exc:
            status = "red_by_design" if name in RED_BY_DESIGN else f"fail: {str(exc)[:200]}"
        wall = time.perf_counter() - t0
        rows.append(
            {
                "test": name,
                "wall_s": wall,
                "budget_s": limit,
                "headroom_s": None if limit is None else limit - wall,
                "headroom_frac": None if limit is None else (limit - wall) / limit,
                "status": status,
            }
        )
    print(json.dumps({"acceptance_headroom": rows}, indent=2))
    return 0 if all(r["status"] in ("pass", "red_by_design") for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
