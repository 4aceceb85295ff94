"""arveson benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload certify-staircases --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the workload runs as a closed loop (one caller, one
item at a time): whole passes over its inputs until ``--seconds`` have
passed, at least three. Each input keeps its best wall time over the passes
(the timeit convention, which discards slowdowns caused by other load on
the machine), and the end-to-end metrics are computed from those. With ``--trace 1`` a fixed set of
rounds runs twice untraced (the first pass only warms caches) and twice
with every library function wrapped by the span recorder; the per-layer metrics come from the first traced
pass, the two traced passes must give identical counts, and the tracing
overhead is the traced wall time minus the untraced one.

Every item's output is checked. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
carry provenance and details. The library is imported from ``src/`` of
the checkout this file sits in; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
HOLDOUT_SEED = 20261017  # for claim checks only; never used while tuning a change
SETUP_PROBES = 3
# every input runs at least this often, so its best time discards a slow
# spell of the machine that covers one pass (a cli-cold pass takes about 10 s)
MIN_PASSES = 3
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail percentile


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("certify-staircases", "jordan-recover", "kernel-interp", "cli-cold", "cli-warm"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- provenance -------------------------------------------------------------


def _blas() -> dict:
    """numpy's BLAS build and the thread count each bundled OpenBLAS reports."""
    import scipy

    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (np, scipy):
        for path in glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*"):
            lib = ctypes.CDLL(path)
            names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads")
            get = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
            if get is not None:
                get.restype = ctypes.c_int
                threads[pkg.__name__] = get()
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return {"name": dep.get("name"), "version": dep.get("version"), "threads": threads, "threads_env": env}


def provenance(seed: int) -> dict:
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# -- running items ----------------------------------------------------------


class Tally:
    """Latencies and verdicts of the items of one pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures that are wrong answers, not errors
        self.failures: list[str] = []
        self.refusals: dict[str, int] = {}
        self.busy_s = 0.0
        self.busy_cpu_s = 0.0  # process CPU time over the same intervals

    def run(self, item, tracer=None) -> None:
        if tracer is not None:
            tracer.begin_item(item.kind)
            tracer.active = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        raised = None
        try:
            out = item.run()
        except Exception as exc:  # every item error is counted, never fatal
            raised = exc
        dt = time.perf_counter() - t0
        self.busy_cpu_s += time.process_time() - c0
        if tracer is not None:
            tracer.active = False
        self.attempted += 1
        self.busy_s += dt
        self.latencies.append(dt)
        if raised is not None:
            if item.refuse and isinstance(raised, item.refuse):
                key = f"{item.kind}:{type(raised).__name__}"
                self.refusals[key] = self.refusals.get(key, 0) + 1
                return
            self._fail(f"{item.kind}: raised {type(raised).__name__}: {raised}")
        elif item.refuse:
            self._fail(f"{item.kind}: accepted an input it must refuse", wrong=True)
        else:
            msg = item.check(out)
            if msg:
                self._fail(msg, wrong=True)

    def _fail(self, msg: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.failures) < 10:
            self.failures.append(msg)


def tail_percentile(n: int) -> float:
    """Highest percentile (0.1 steps, at least 50) with TAIL_SAMPLES beyond it."""
    return max(50.0, math.floor(1000.0 * (1.0 - TAIL_SAMPLES / n)) / 10.0)


def timed_passes(workload, seconds: float) -> tuple:
    """Whole passes over the workload's inputs until ``seconds`` have
    passed, at least MIN_PASSES. Returns the tally of every execution and,
    per input, its best wall time and whether every execution verified."""
    items = [item for rnd in workload.rounds for item in rnd]
    best = [math.inf] * len(items)
    verified = [True] * len(items)
    tally = Tally()
    passes = 0
    t0 = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - t0 < seconds:
        for i, item in enumerate(items):
            failed = tally.failed
            tally.run(item)
            best[i] = min(best[i], tally.latencies[-1])
            verified[i] = verified[i] and tally.failed == failed
        passes += 1
    return tally, best, verified, passes, time.perf_counter() - t0


def setup_probes(args) -> list:
    """Set-up time of fresh processes: spawn to the end of warm-up."""
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        out.append(dt)
    return out


def end_to_end(args, workload) -> tuple:
    tally, best, verified, passes, wall = timed_passes(workload, args.seconds)
    peak_kb = workload.peak_rss_kb()
    setups = setup_probes(args)
    ms = [x * 1000.0 for x in best]
    q = tail_percentile(len(ms))
    metrics = {
        "items_per_s": {"value": sum(verified) / sum(best), "unit": "1/s"},
        "item_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "item_ms_tail": {"value": float(np.percentile(ms, q)), "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    details = {
        "inputs": len(ms),
        "passes": passes,
        "executions": tally.attempted,
        "wall_s": wall,
        "busy_s": tally.busy_s,
        "busy_cpu_s": tally.busy_cpu_s,
        "best_sum_s": sum(best),
        "tail_percentile": q,
        "failed_frac": tally.failed / tally.attempted,
        "setup_samples_s": setups,
        "refusals": tally.refusals,
        "failures": tally.failures,
    }
    return tally, metrics, details


def traced(args, workload) -> tuple:
    from tracer import Tracer

    n = workload.trace_rounds
    trace_dir = OUT / f"{args.workload}-seed{args.seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)

    def one_pass(tracer=None):
        rounds = workload.rounds[:n]
        if tracer is not None and workload.traced_rounds is not None:
            rounds = workload.traced_rounds(tracer, trace_dir)[:n]
        tally = Tally()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for rnd in rounds:
                for item in rnd:
                    tally.run(item, tracer)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        return tally, wall

    one_pass()  # first touch of every input: caches fill, nothing is recorded
    plain, untraced_s = one_pass()
    first = Tracer()
    if workload.trace_probe is not None:
        workload.trace_probe(first)
    tally1, traced_s = one_pass(first)
    second = Tracer()
    tally2, _ = one_pass(second)
    per_layer = first.layer_metrics()
    per_layer["trace.untraced_s"] = untraced_s
    per_layer["trace.traced_s"] = traced_s
    per_layer["trace.overhead_s"] = traced_s - untraced_s
    first.dump(trace_dir / "spans.json")
    counts1, counts2 = first.counts(), second.counts()
    diff = sorted(k for k in set(counts1) | set(counts2) if counts1.get(k) != counts2.get(k))
    tally = Tally()
    for t in (plain, tally1, tally2):
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.wrong += t.wrong
        tally.failures += t.failures[:3]
    if diff:
        tally.attempted += 1
        tally._fail(f"traced passes disagree on {len(diff)} counts, e.g. {diff[:5]}", wrong=True)
    metrics = {}
    units = _per_layer_units()
    for name, unit in units.items():
        metrics[name] = {"value": float(per_layer.get(name, 0.0)), "unit": unit}
    details = {
        "trace_rounds": n,
        "items_per_pass": plain.attempted,
        "spans": len(first.fid),
        "counts_identical": not diff,
        "spans_file": str((trace_dir / "spans.json").relative_to(ROOT)),
        "failures": tally.failures,
    }
    return tally, metrics, details


def _per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "arveson" / "__init__.py").is_file():
        print(f"error: no arveson sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arveson

    if Path(arveson.__file__).resolve().parent != SRC / "arveson":
        print(f"error: imported arveson from {arveson.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = OUT / f"inputs-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, ROOT, work)
        warm = Tally()
        for item in workload.warmup:
            warm.run(item)
        if warm.failed:
            print(f"error: warm-up failed: {warm.failures}", file=sys.stderr)
            return 1
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            tally, metrics, details = traced(args, workload)
        else:
            tally, metrics, details = end_to_end(args, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details.update(workload=args.workload, notes=workload.notes)
    print(json.dumps({"provenance": provenance(args.seed)}))
    print(json.dumps({"details": details}))
    # an item that raised is a failed operation; a wrong answer, an accepted
    # must-refuse input or unrepeatable trace counts make the run incorrect
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
