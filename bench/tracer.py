"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces the public functions of every arveson module
(and the public methods of the classes they define) with wrappers that
record one span per call: function, start, end, parent span and item id.
Names bound by ``from .x import f`` in other modules are rebound to the
same wrapper, so ``spectral.validate`` is traced as a ``tuples`` call, and
calls a module makes to its own functions by bare name are caught because
the module attribute itself is replaced.

The dense linear algebra entry points of numpy.linalg and scipy.linalg are
wrapped the same way, in every submodule that binds them, so the
``np.linalg.norm(a, 2)`` SVD and the two Schur factorizations inside
``scipy.linalg.solve_sylvester`` are counted. Spans stay in memory until
``dump`` writes them; ``layer_metrics`` turns them into per-layer figures.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time

import numpy as np

LAYERS = (
    "numerics",
    "multiindex",
    "polynomials",
    "tuples",
    "polyideal",
    "fockspace",
    "models",
    "spectral",
    "nilsim",
    "interp",
    "repro",
    "serialization",
    "cli",
)

# private helpers traced as well, because a per-layer count is defined on them
EXTRA_FUNCTIONS = {"interp": ("_pick_feasible",)}

# operator methods of the plain (non-dataclass) classes; comparison, hashing
# and repr are left alone
DUNDERS = (
    "__init__",
    "__call__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__pow__",
)

def _svd_flops(m, n, args, kwargs):
    k, big = min(m, n), max(m, n)
    if kwargs.get("compute_uv", True):
        return 4 * big * big * k + 8 * big * k * k + 9 * k**3
    return 4 * big * k * k - 4 * k**3 / 3


def _solve_flops(m, n, args, kwargs):
    b = np.shape(args[1]) if len(args) > 1 else (n, 1)
    return 2 * n**3 / 3 + 2 * n * n * (b[1] if len(b) > 1 else 1)


def _sylvester_flops(m, n, args, kwargs):
    # the Schur forms of both coefficients are separate calls; this is the
    # triangular solve and the back-transformations
    p = np.shape(args[1])[0]
    return m * p * (m + p) + 2 * (m * m * p + m * p * p)


# Leading flop terms (Golub & Van Loan) of the dense entry points that are
# wrapped, as functions of the first argument's shape (m, n). The list is
# wider than what the library calls today so that a rewrite using another
# entry point of numpy.linalg or scipy.linalg is still counted; calls made
# through scipy.linalg.lapack directly are not.
FLOPS = {
    "svd": _svd_flops,
    "lstsq": lambda m, n, a, k: _svd_flops(m, n, a, {}),
    "eigh": lambda m, n, a, k: 9 * n**3,
    "eigvalsh": lambda m, n, a, k: 4 * n**3 / 3,
    "eig": lambda m, n, a, k: 25 * n**3,
    "eigvals": lambda m, n, a, k: 10 * n**3,
    "schur": lambda m, n, a, k: 25 * n**3,
    "qr": lambda m, n, a, k: 4 * m * n * n - 4 * n**3 / 3,
    "solve": _solve_flops,
    "inv": lambda m, n, a, k: 2 * n**3,
    "det": lambda m, n, a, k: 2 * n**3 / 3,
    "lu": lambda m, n, a, k: 2 * n**3 / 3,
    "cholesky": lambda m, n, a, k: n**3 / 3,
    "solve_sylvester": _sylvester_flops,
}
LAPACK_PACKAGES = {
    "numpy.linalg": ("svd", "lstsq", "eigh", "eigvalsh", "eig", "eigvals", "qr", "solve", "inv", "det", "cholesky"),
    "scipy.linalg": tuple(FLOPS),
}


def lapack_flops(fname: str, args: tuple, kwargs: dict) -> tuple:
    """(order, flop estimate) of one dense call, computed from the shapes;
    complex input counts four real flops per complex one."""
    a = args[0] if args else next(iter(kwargs.values()))
    m, n = np.shape(a)[-2:]
    factor = 4.0 if np.iscomplexobj(a) else 1.0
    return max(m, n), factor * FLOPS[fname](m, n, args, kwargs)


class Tracer:
    """Spans and counters of one traced pass, kept in parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.fid: list[int] = []
        self.parent: list[int] = []
        self.item: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack: list[int] = []
        self.item_id = -1
        self.item_kinds: list[str] = []
        self.active = False
        self.counters = collections.Counter()
        self.maxima: dict[str, float] = {}
        self.lapack: list[tuple] = []  # (span index, order, flops)
        self.import_s: list[float] = []  # cold ``import arveson.cli`` per traced CLI child
        self._patches: list[tuple] = []
        self._fids: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _fid_for(self, name: str, layer: str) -> int:
        fid = self._fids.get(name)
        if fid is None:
            fid = len(self.names)
            self._fids[name] = fid
            self.names.append(name)
            self.layer_of.append(layer)
        return fid

    def begin_item(self, kind: str) -> None:
        self.item_id = len(self.item_kinds)
        self.item_kinds.append(kind)

    def _wrap(self, fn, name: str, layer: str, after=None):
        fid = self._fid_for(name, layer)
        fids, parents, items, starts, ends = self.fid, self.parent, self.item, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, out)
            return out

        return traced

    def _count(self, key: str, value: float = 1) -> None:
        self.counters[key] += value

    def _maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    # -- installation --------------------------------------------------------

    def _hooks(self) -> dict:
        """Counters read from arguments or results at layer boundaries."""

        def annihilator(idx, args, kwargs, out):
            T = args[0]
            degree = args[1] if len(args) > 1 else kwargs["degree_bound"]
            self._count("tuples.annihilator_cols", math.comb(T.d + degree, T.d))

        def pick(idx, args, kwargs, out):
            self._count("interp.pick_iterations", out.iterations)

        def truncation(idx, args, kwargs, out):
            self._maximum("fockspace.trunc_dim_max", args[0].dim)

        def mult(idx, args, kwargs, out):
            self._maximum("fockspace.mult_matrix_bytes_est", out.nbytes)

        def decomposition(idx, args, kwargs, out):
            self._count("spectral.blocks", out.spectrum.count)

        return {
            "tuples.annihilator_slice": annihilator,
            "interp.pick_min_norm": pick,
            "fockspace.FockTruncation.__init__": truncation,
            "fockspace.mult_matrix": mult,
            "spectral.jordan_decompose": decomposition,
        }

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap everything; recording starts when ``active`` is set."""
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"arveson.{layer}")
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in EXTRA_FUNCTIONS.get(layer, ())
                if not public or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    w = self._wrap(obj, name, layer, hooks.get(name))
                    wrapped[id(obj)] = w
                    self._set(mod, attr, w)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer, hooks)
        # names imported into other modules (``from .tuples import validate``)
        for modname in [m for m in sys.modules if m == "arveson" or m.startswith("arveson.")]:
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and getattr(mod, attr) is not wrapped[id(obj)]:
                    self._set(mod, attr, wrapped[id(obj)])
        self._install_lapack()

    def _wrap_class(self, cls, layer: str, hooks: dict) -> None:
        plain = not dataclasses.is_dataclass(cls)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__"):
                if not (plain and attr in DUNDERS):
                    continue
            elif attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name, layer, hooks.get(name)))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(obj.__func__, name, layer, hooks.get(name))))

    def _install_lapack(self) -> None:
        def record(fname):
            def after(idx, args, kwargs, out):
                order, flops = lapack_flops(fname, args, kwargs)
                self.lapack.append((idx, order, flops))

            return after

        for package, fnames in LAPACK_PACKAGES.items():
            top = importlib.import_module(package)
            holders = [m for name, m in list(sys.modules.items()) if m is not None and (name == package or name.startswith(package + "."))]
            for fname in fnames:
                orig = getattr(top, fname)
                w = self._wrap(orig, f"lapack.{package.split('.')[0]}.{fname}", "lapack", record(fname))
                for mod in holders:
                    if getattr(mod, fname, None) is orig:
                        self._set(mod, fname, w)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- spans from a traced child process ---------------------------------

    def snapshot(self) -> dict:
        return {
            "names": self.names,
            "layers": self.layer_of,
            "fid": self.fid,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counters": dict(self.counters),
            "maxima": self.maxima,
            "lapack": self.lapack,
            "import_s": self.import_s,
        }

    def ingest(self, snap: dict) -> None:
        """Append a child's spans under the current item, offsets adjusted."""
        base = len(self.start)
        remap = [self._fid_for(n, l) for n, l in zip(snap["names"], snap["layers"])]
        self.fid.extend(remap[f] for f in snap["fid"])
        self.parent.extend(p + base if p >= 0 else -1 for p in snap["parent"])
        self.item.extend([self.item_id] * len(snap["fid"]))
        self.start.extend(snap["start"])
        self.end.extend(snap["end"])
        self.counters.update(snap["counters"])
        for k, v in snap["maxima"].items():
            self._maximum(k, v)
        self.lapack.extend((i + base, o, f) for i, o, f in snap["lapack"])
        self.import_s.extend(snap["import_s"])

    def dump(self, path) -> None:
        """Write the spans, times as integer nanoseconds from the first start."""
        t0 = min(self.start, default=0.0)
        snap = self.snapshot()
        snap["start_ns"] = [round((t - t0) * 1e9) for t in snap.pop("start")]
        snap["end_ns"] = [round((t - t0) * 1e9) for t in snap.pop("end")]
        snap["item"] = self.item
        snap["item_kinds"] = self.item_kinds
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(snap, fh, separators=(",", ":"))

    # -- aggregation -------------------------------------------------------

    def counts(self) -> dict:
        """Every integer count of the pass; two traced passes must agree."""
        per_fn = collections.Counter(self.names[f] for f in self.fid)
        out = {f"calls:{k}": v for k, v in per_fn.items()}
        out.update({k: v for k, v in self.counters.items()})
        out.update({k: v for k, v in self.maxima.items()})
        return out

    def layer_metrics(self) -> dict:
        n = len(self.fid)
        fid, parent, item = self.fid, self.parent, self.item
        layer_of = [self.layer_of[f] for f in fid]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        name = [self.names[f] for f in fid]
        # ancestor flags: parents precede their children in the span order
        under_nilsim = [False] * n
        under_decomp = [False] * n
        for i in range(n):
            p = parent[i]
            under_nilsim[i] = p >= 0 and (layer_of[p] == "nilsim" or under_nilsim[p])
            under_decomp[i] = p >= 0 and (name[p] == "spectral.jordan_decompose" or under_decomp[p])

        out: dict[str, float] = {}
        for layer in LAYERS:
            idx = [i for i in range(n) if layer_of[i] == layer]
            out[f"{layer}.calls"] = len(idx)
            out[f"{layer}.self_s"] = sum(dur[i] - child[i] for i in idx)

        lap = [i for i in range(n) if layer_of[i] == "lapack"]
        outer = [i for i in lap if parent[i] < 0 or layer_of[parent[i]] != "lapack"]
        out["numerics.lapack_calls"] = len(lap)
        out["numerics.lapack_s"] = sum(dur[i] for i in outer)
        out["numerics.lapack_median_n"] = float(statistics.median([o for _, o, _ in self.lapack])) if self.lapack else 0.0
        out["numerics.lapack_flops_est"] = float(sum(f for _, _, f in self.lapack))

        kinds = self.item_kinds
        exact_items = sum(1 for k in kinds if k == "exact")
        opnorm_exact = sum(1 for i in range(n) if name[i] == "numerics.operator_norm" and item[i] >= 0 and kinds[item[i]] == "exact")
        certs = sum(1 for i in range(n) if name[i] == "nilsim.build_similarity" and item[i] >= 0 and kinds[item[i]] in ("exact", "perturbed"))
        models_in_nilsim = sum(1 for i in range(n) if name[i] == "models.monomial_model" and under_nilsim[i] and item[i] >= 0 and kinds[item[i]] in ("exact", "perturbed"))
        out["nilsim.opnorm_per_cert"] = opnorm_exact / exact_items if exact_items else 0.0
        out["nilsim.models_per_cert"] = models_in_nilsim / certs if certs else 0.0

        out["tuples.annihilator_cols"] = self.counters.get("tuples.annihilator_cols", 0)

        decomps = sum(1 for i in range(n) if name[i] == "spectral.jordan_decompose")
        rungs = sum(1 for i in range(n) if name[i] == "spectral.joint_eigenvalues" and under_decomp[i])
        schur = sum(1 for i in range(n) if name[i] == "lapack.scipy.schur" and under_decomp[i])
        idem = sum(1 for i in range(n) if name[i] == "spectral.riesz_idempotent" and under_decomp[i])
        blocks = self.counters.get("spectral.blocks", 0)
        out["spectral.rungs_per_decomp"] = rungs / decomps if decomps else 0.0
        out["spectral.schur_per_decomp"] = schur / decomps if decomps else 0.0
        out["spectral.idempotents_per_block"] = idem / blocks if blocks else 0.0
        out["spectral.idempotent_yield"] = blocks / idem if idem else 0.0

        picks = sum(1 for i in range(n) if name[i] == "interp.pick_min_norm")
        out["interp.pick_iters_per_pick"] = self.counters.get("interp.pick_iterations", 0) / picks if picks else 0.0
        out["interp.psd_checks"] = sum(1 for i in range(n) if name[i] == "interp._pick_feasible")
        out["fockspace.kernel_calls"] = sum(1 for i in range(n) if name[i] == "fockspace.kernel")
        out["fockspace.trunc_dim_max"] = self.maxima.get("fockspace.trunc_dim_max", 0.0)
        out["fockspace.mult_matrix_bytes_est"] = self.maxima.get("fockspace.mult_matrix_bytes_est", 0.0)

        dumps = [
            i
            for i in range(n)
            if layer_of[i] == "serialization"
            and name[i].split(".")[-1].startswith(("dump", "report_envelope", "to_jsonable"))
            and (parent[i] < 0 or layer_of[parent[i]] != "serialization")
        ]
        out["serialization.dump_s"] = sum(dur[i] for i in dumps)
        out["cli.import_s"] = statistics.median(self.import_s) if self.import_s else 0.0
        out["trace.spans"] = n
        return out
