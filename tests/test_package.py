import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arveson

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_exists():
    # a deleted function must not leave its name behind in __all__
    missing = [name for name in arveson.__all__ if not hasattr(arveson, name)]
    assert missing == []
    assert len(set(arveson.__all__)) == len(arveson.__all__)


def _imports_polynomials(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module == "polynomials":
                return True
            if node.module == "arveson.polynomials":
                return True
            if (node.level == 1 and node.module is None) or node.module == "arveson":
                if any(alias.name == "polynomials" for alias in node.names):
                    return True
        elif isinstance(node, ast.Import):
            if any(alias.name == "arveson.polynomials" for alias in node.names):
                return True
    return False


def test_polynomials_stay_at_the_boundary():
    # Polynomial objects are turned into coefficient columns once
    # (polyideal); the package re-exports the class. Everything else, the
    # JSON edge included, works on coefficient arrays.
    allowed = {"__init__", "polynomials", "polyideal"}
    importers = {
        path.stem
        for path in (ROOT / "src" / "arveson").glob("*.py")
        if _imports_polynomials(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers <= allowed, sorted(importers - allowed)
    assert "polyideal" in importers  # the scan sees imports


def _references(tree: ast.AST) -> set:
    """The identifiers a tree reads: ``Name`` ids and ``Attribute`` attrs."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _unreached(modules: dict, elsewhere: list, exported: set) -> list:
    """``module.name`` of each public module-level function or class of
    ``modules`` (stem to parsed source) that is not in ``exported`` and
    that nothing references outside its own body: no other statement of
    its module, no other module and no tree of ``elsewhere``."""
    refs = {stem: [_references(node) for node in tree.body] for stem, tree in modules.items()}
    outside = set().union(*map(_references, elsewhere))
    found = []
    for stem, tree in sorted(modules.items()):
        for k, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            others = (r for key, rs in refs.items() for i, r in enumerate(rs) if (key, i) != (stem, k))
            if node.name not in exported and node.name not in outside.union(*others):
                found.append(f"{stem}.{node.name}")
    return found


def test_every_public_name_is_exported_or_reached():
    # a library name that only tests reach belongs in the tests, as an
    # oracle, or nowhere
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))

    modules = {path.stem: parse(path) for path in (ROOT / "src" / "arveson").glob("*.py")}
    elsewhere = [parse(path) for folder in ("bench", "demos") for path in (ROOT / folder).glob("*.py")]
    assert _unreached(modules, elsewhere, set(arveson.__all__)) == []
    # a name's own body, a recursive call included, does not reach it
    demo = ast.parse("def f():\n    return f()\ndef g():\n    return h()\ndef h():\n    pass\nclass C:\n    pass\n")
    assert _unreached({"m": demo}, [], {"C"}) == ["m.f", "m.g"]
    assert _unreached({"m": demo}, [ast.parse("m.g()")], {"C"}) == ["m.f"]


def _dotted(node) -> str:
    """``a.b.c`` for a Name/Attribute chain, '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def _lapack_uses(tree: ast.Module) -> dict:
    """Which of: a reference to ``scipy.linalg.lapack``, a
    ``solve_sylvester`` call, a ``schur(..., sort=...)`` call, an import of
    scipy, the module makes."""
    found = {"lapack": False, "solve_sylvester": False, "sorted_schur": False, "scipy": False}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found["lapack"] |= any(a.name.startswith("scipy.linalg.lapack") for a in node.names)
            found["scipy"] |= any(a.name.split(".")[0] == "scipy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            found["scipy"] |= module.split(".")[0] == "scipy"
            found["lapack"] |= module.startswith("scipy.linalg.lapack") or (
                module == "scipy.linalg" and any(a.name == "lapack" for a in node.names)
            )
        elif isinstance(node, ast.Attribute):
            found["lapack"] |= _dotted(node).startswith("scipy.linalg.lapack")
        elif isinstance(node, ast.Call):
            name = _dotted(node.func).rsplit(".", 1)[-1]
            found["solve_sylvester"] |= name == "solve_sylvester"
            found["sorted_schur"] |= name == "schur" and any(k.arg == "sort" for k in node.keywords)
    return found


def test_lapack_handles_live_in_numerics():
    # numerics binds every LAPACK handle; spectral reorders one Schur form
    # with ztrsen and solves its coupling with ztrsyl, instead of factoring
    # the combination again per cluster (a sorted schur) and twice more
    # inside each solve_sylvester
    uses = {
        path.stem: _lapack_uses(ast.parse(path.read_text(encoding="utf-8")))
        for path in (ROOT / "src" / "arveson").glob("*.py")
    }
    assert sorted(m for m, u in uses.items() if u["lapack"]) == ["numerics"]
    assert sorted(m for m, u in uses.items() if u["solve_sylvester"] or u["sorted_schur"]) == []
    # numerics alone decides whether scipy is imported
    assert sorted(m for m, u in uses.items() if u["scipy"]) == ["numerics"]


def _names(tree: ast.Module) -> set:
    """Every identifier a module names: variables, attributes and imports."""
    found = _references(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.name.rsplit(".", 1)[-1] for a in node.names}
    return found


def test_no_module_takes_matrix_powers():
    # powers come from walks that reuse the previous degree (nilsim's
    # nilpotency gate reads N_j^n as N_j times the walk's last power)
    names = {
        path.stem: _names(ast.parse(path.read_text(encoding="utf-8")))
        for path in (ROOT / "src" / "arveson").glob("*.py")
    }
    assert sorted(m for m, n in names.items() if "matrix_power" in n) == []
    # the scan sees the name where it is used
    assert "matrix_power" in _names(ast.parse("np.linalg.matrix_power(a, 3)"))


# dense factorizations (and the solves and inverses built on them) of
# numpy.linalg and scipy.linalg
_FACTORIZATIONS = {
    "cho_factor", "cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "hessenberg",
    "inv", "lstsq", "lu", "lu_factor", "matrix_rank", "pinv", "qr", "qz", "rq", "schur",
    "slogdet", "solve", "solve_sylvester", "svd", "svdvals",
}
_LINALG = ("np.linalg", "numpy.linalg", "scipy.linalg", "linalg")
# the LAPACK gufuncs behind np.linalg.svd, each an SVD
_SVD_GUFUNCS = {"svd", "svd_s", "svd_f"}


def _factorization_calls(tree: ast.Module) -> set:
    """The numpy.linalg and scipy.linalg factorizations a module calls by
    attribute or imports by name, and the private numerics names it reads;
    numpy's ``_umath_linalg`` and its SVD gufuncs count as ``svd``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.endswith("._umath_linalg") for a in node.names):
                found.add("svd")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("._umath_linalg"):
            found.add("svd")
        elif isinstance(node, ast.ImportFrom) and (node.module or "") in ("numpy.linalg", "scipy.linalg"):
            found |= {a.name for a in node.names} & _FACTORIZATIONS
            if any(a.name == "_umath_linalg" for a in node.names):
                found.add("svd")
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and _dotted(node.value).endswith("numerics"):
            found.add(f"numerics.{node.attr}")
        elif isinstance(node, ast.Call):
            owner, _, name = _dotted(node.func).rpartition(".")
            if owner in _LINALG and name in _FACTORIZATIONS:
                found.add(name)
            elif owner.rpartition(".")[2] == "_umath_linalg" and name in _SVD_GUFUNCS:
                found.add("svd")
    return found


def test_certificate_modules_factor_through_numerics():
    # numerics alone calls LAPACK, so numerics.CALLS sees every call
    calls = {
        path.stem: _factorization_calls(ast.parse(path.read_text(encoding="utf-8")))
        for path in (ROOT / "src" / "arveson").glob("*.py")
    }
    assert {m: c for m, c in calls.items() if m != "numerics" and c} == {}
    # the scan sees direct calls and private reads where they remain
    assert {"svd", "eigh", "eigvalsh", "det", "inv", "qr", "schur"} <= calls["numerics"]
    # and every way of reaching numpy's SVD gufuncs
    for source in (
        "import numpy.linalg._umath_linalg",
        "from numpy.linalg import _umath_linalg",
        "from numpy.linalg._umath_linalg import svd_s",
        "np.linalg._umath_linalg.svd_f(a)",
        "_umath_linalg.svd(a)",
    ):
        assert _factorization_calls(ast.parse(source)) == {"svd"}, source
    tests = ast.parse((ROOT / "tests" / "test_numerics.py").read_text(encoding="utf-8"))
    assert {"numerics._svd", "numerics._hermitian_part"} <= _factorization_calls(tests)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
