"""The five benchmark workloads: seeded inputs, the calls, and their checks.

Every input is generated here from the run's seed, never read from the
test suite. A workload is a list of rounds; each round has a fixed
composition (how many items of each kind and size class) and the seed
draws the values, so the cost mix is the same on every seed. An item is
one library call sequence, or one CLI invocation, plus a check of its
output that runs outside the timed interval.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from arveson import cli, errors, interp, models, nilsim, polyideal, repro, serialization, spectral, tuples
from arveson.polynomials import Polynomial

@dataclass
class Item:
    """One unit of work: ``run`` is timed, ``check`` returns a failure
    message or None. An item with ``refuse`` set must raise one of those
    classes; returning normally is a failure."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None] = lambda out: None
    refuse: tuple = ()


@dataclass
class Workload:
    name: str
    rounds: list
    warmup: list
    trace_rounds: int  # rounds of the fixed traced set
    notes: dict = field(default_factory=dict)
    peak_rss_kb: Callable[[], int] = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # rounds of the traced pass, when they differ from ``rounds`` (cli-cold
    # swaps in the tracing launcher); called with (tracer, trace_dir)
    traced_rounds: Callable | None = None
    # called once with the tracer of a traced run, for figures measured
    # outside the traced items (cli-warm times cold imports here)
    trace_probe: Callable | None = None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _norm2(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


# ---------------------------------------------------------------------------
# certify-staircases


def downsets(d: int, max_deg: int, max_size: int) -> list:
    """Every nonempty divisibility down-set of exponents with |a| <= max_deg
    and at most max_size cells; each is the complement of a monomial ideal."""
    cells = sorted(
        (a for a in itertools.product(range(max_deg + 1), repeat=d) if sum(a) <= max_deg),
        key=lambda a: (sum(a), a),
    )
    preds = [[a[:j] + (a[j] - 1,) + a[j + 1 :] for j in range(d) if a[j] > 0] for a in cells]
    out = []

    def extend(i: int, chosen: list, members: set) -> None:
        if i == len(cells):
            if chosen:
                out.append(tuple(chosen))
            return
        extend(i + 1, chosen, members)
        if len(chosen) < max_size and all(p in members for p in preds[i]):
            members.add(cells[i])
            chosen.append(cells[i])
            extend(i + 1, chosen, members)
            chosen.pop()
            members.remove(cells[i])

    extend(0, [], set())
    return out


def staircase_generators(d: int, complement) -> list:
    """Minimal monomial generators of the ideal with the given complement."""
    comp = set(complement)
    top = max(sum(a) for a in comp) + 1
    return [
        a
        for a in itertools.product(range(top + 1), repeat=d)
        if a not in comp and all(a[:j] + (a[j] - 1,) + a[j + 1 :] in comp for j in range(d) if a[j] > 0)
    ]


STAIRCASE_FAMILY_SIZE = 2542


def staircase_family() -> list:
    """(d, complement) for d = 1..3, degree <= 3, 1..20 cells, sorted by
    size so that consecutive strata have similar cost."""
    fam = [(d, c) for d in (1, 2, 3) for c in downsets(d, 3, 20)]
    if len(fam) != STAIRCASE_FAMILY_SIZE:
        raise RuntimeError(f"staircase family has {len(fam)} members, expected {STAIRCASE_FAMILY_SIZE}")
    return sorted(fam, key=lambda dc: (len(dc[1]), dc[0], dc[1]))


def _exact_item(d: int, gens: list) -> Item:
    def run():
        m = models.monomial_model(gens, d)
        return m, nilsim.build_similarity(m.tuple, m.cyclic, gens)

    def check(out):
        m, cert = out
        h = cert.hypotheses
        if h.epsilon > 1e-12:
            return f"exact staircase {gens}: epsilon {h.epsilon:.3e} > 1e-12"
        if abs(h.gamma - 1.0) > 1e-9:
            return f"exact staircase {gens}: gamma {h.gamma!r} is not 1"
        err = _norm2(cert.X - np.eye(m.dim))
        if err > 1e-12:
            return f"exact staircase {gens}: ||X - I|| = {err:.3e} > 1e-12"
        return None

    return Item("exact", run, check)


def _perturbed_item(N, xi, gens) -> Item:
    def run():
        cert = nilsim.build_similarity(N, xi, gens)
        return cert, nilsim.necessity_check(N, cert.X, gens)

    def check(out):
        cert, nec = out
        if not cert.bounds_hold:
            return f"perturbed {gens}: norm bounds fail ({cert.norm_X:.6g} vs {cert.bound_X:.6g})"
        if not nec.ok:
            return f"perturbed {gens}: necessity check failed"
        return None

    return Item("perturbed", run, check)


def _refuse_item(kind: str, N, xi, gens, refuse: tuple) -> Item:
    return Item(kind, lambda: nilsim.build_similarity(N, xi, gens), refuse=refuse)


def _scaled(rng, d: int, comp) -> tuple:
    """The model scaled by s < 1, with epsilon * card = (1 - s^2L) n < 0.9."""
    gens = staircase_generators(d, comp)
    m = models.monomial_model(gens, d)
    L = max(sum(a) for a in comp)
    s = float(rng.uniform(0.9, 0.99))
    while (1.0 - s ** (2 * L)) * m.dim >= 0.9:
        s = 1.0 - (1.0 - s) / 2.0
    return tuples.validate([s * Z for Z in m.tuple.matrices]), m.cyclic.copy(), gens


def _conjugated(rng, d: int, comp) -> tuple:
    """S Z S^-1 with S near the identity, rescaled into the row-contraction
    ball; the perturbation halves until the hypotheses are admissible."""
    gens = staircase_generators(d, comp)
    m = models.monomial_model(gens, d)
    n = m.dim
    delta = 0.05
    for _ in range(12):
        S = np.eye(n) + delta * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        mats = [S @ Z @ np.linalg.inv(S) for Z in m.tuple.matrices]
        g = float(np.linalg.eigvalsh(sum(M @ M.conj().T for M in mats))[-1])
        if g > 1.0:
            mats = [M / math.sqrt(g) for M in mats]
        xi = S @ m.cyclic
        xi = xi / np.linalg.norm(xi)
        T = tuples.validate(mats)
        hy = nilsim.check_hypotheses(T, xi)
        if hy.layers_direct and hy.epsilon * hy.card < 0.9:
            return T, xi, gens
        delta /= 2.0
    raise RuntimeError(f"no admissible conjugation of {gens}")


# (perturbation, (d, number of cells)) of the perturbed items of a round
PERTURBED_DESIGN = ((_scaled, (1, 4)), (_scaled, (2, 3)), (_conjugated, (2, 5)), (_conjugated, (3, 6)))


def certify_staircases(seed: int, rounds: int = 10) -> Workload:
    """Per round: 34 exact staircases (one per stratum of the size-sorted
    family), 2 scaled and 2 conjugated perturbations of staircases of fixed
    shapes, one troubled R(t) and one same-dimension wrong ideal."""
    fam = staircase_family()
    n_exact = 34 * rounds
    rng = _rng(seed, 1)
    bounds = [len(fam) * k // n_exact for k in range(n_exact + 1)]
    exact = [fam[int(rng.integers(lo, hi))] for lo, hi in zip(bounds, bounds[1:])]
    by_shape: dict = {}
    for d, c in fam:
        by_shape.setdefault((d, len(c)), []).append(c)
    pairs = [(d, cs) for (d, k), cs in by_shape.items() if len(cs) > 1]
    square = staircase_generators(2, [(0, 0), (1, 0), (0, 1)])
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)

    out = []
    for r in range(rounds):
        # every round takes every rounds-th stratum, so each spans all sizes
        items = [_exact_item(d, staircase_generators(d, c)) for d, c in exact[r::rounds]]
        for make, (d, n) in PERTURBED_DESIGN:
            cs = by_shape[(d, n)]
            items.append(_perturbed_item(*make(rng, d, cs[int(rng.integers(len(cs)))])))
        R1, R2, _ = repro.two_variable_family(float(rng.uniform(0.05, 0.3)))
        items.append(_refuse_item("refuse-troubled", tuples.validate([R1, R2]), e1, square, (errors.ValidationError,)))
        d, cs = pairs[int(rng.integers(len(pairs)))]
        i, j = rng.choice(len(cs), size=2, replace=False)
        m = models.monomial_model(staircase_generators(d, cs[i]), d)
        # today a singular orbit matrix raises NumericalError; a residual
        # gate raising ValidationError is equally a refusal
        wrong = (errors.ValidationError, errors.NumericalError)
        items.append(_refuse_item("refuse-wrong-ideal", m.tuple, m.cyclic, staircase_generators(d, cs[j]), wrong))
        out.append(_shuffled(rng, items))
    warm = [_exact_item(2, square), out[0][0]]
    return Workload("certify-staircases", out, warm, trace_rounds=2)


# ---------------------------------------------------------------------------
# jordan-recover

JORDAN_DESIGN_SEED = 6100  # shape design: the first 50 draws of this stream


def jordan_shape(rng) -> tuple:
    d = int(rng.integers(1, 4))
    k = int(rng.integers(1, 5))
    sizes = [int(rng.integers(1, 7)) for _ in range(k)]
    while sum(sizes) > 30:
        sizes.pop()
    return d, sizes


def planted_tuple(rng, d: int, sizes: list) -> tuple:
    """Commuting tuple with joint spectrum planted at points >= 0.1 apart,
    one Jordan-type block per point, conjugated by G with cond(G) <= 10."""
    pts = []
    while len(pts) < len(sizes):
        z = rng.uniform(-1.0, 1.0, d) + 1j * rng.uniform(-1.0, 1.0, d)
        if all(np.linalg.norm(z - w) >= 0.1 for w in pts):
            pts.append(z)
    blocks = []
    for s, z in zip(sizes, pts):
        J = np.diag(np.ones(s - 1), 1) if s > 1 else np.zeros((1, 1))
        coords = []
        for j in range(d):
            c1 = rng.uniform(0.3, 0.7) + 1j * rng.uniform(-0.2, 0.2)
            c2 = float(rng.uniform(-0.3, 0.3))
            coords.append(z[j] * np.eye(s, dtype=complex) + c1 * J + c2 * (J @ J))
        blocks.append(coords)
    n = sum(sizes)
    while True:
        G = np.eye(n, dtype=complex) + 0.2 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        if np.linalg.cond(G) <= 10.0:
            break
    Gi = np.linalg.inv(G)
    return [G @ scipy.linalg.block_diag(*[b[j] for b in blocks]) @ Gi for j in range(d)], pts


def criterion4_inputs(count: int = 50) -> list:
    """The tuples of acceptance criterion 4, regenerated draw for draw."""
    out = []
    for s in range(count):
        rng = np.random.default_rng(JORDAN_DESIGN_SEED + s)
        d, sizes = jordan_shape(rng)
        mats, pts = planted_tuple(rng, d, sizes)
        out.append((mats, pts, sizes))
    return out


def _jordan_item(mats, pts, sizes) -> Item:
    T = tuples.validate(mats)
    scale = max(1.0, max(_norm2(M) for M in mats))

    def check(dec):
        if sorted(dec.spectrum.multiplicities) != sorted(sizes):
            return f"jordan: multiplicities {dec.spectrum.multiplicities} != planted {sizes}"
        got = np.array(dec.spectrum.points)
        for z, s in zip(pts, sizes):
            dist = np.linalg.norm(got - z, axis=1)
            i = int(np.argmin(dist))
            if dist[i] > 1e-8 or dec.spectrum.multiplicities[i] != s:
                return f"jordan: planted point off by {dist[i]:.3e} or wrong multiplicity"
        if dec.residual > 1e-7 * scale:
            return f"jordan: residual {dec.residual:.3e} > 1e-7 * {scale:.3g}"
        return None

    return Item("decompose", lambda: spectral.jordan_decompose(T), check)


def jordan_recover(seed: int, rounds: int = 4) -> Workload:
    """Per round: the 50 shapes of the criterion-4 design (d = 1..3, 1-4
    points, blocks of size 1-6, n <= 30), with seeded points and
    conjugations."""
    design = [jordan_shape(np.random.default_rng(JORDAN_DESIGN_SEED + s)) for s in range(50)]
    out = []
    for r in range(rounds):
        rng = _rng(seed, 2, r)
        items = []
        for d, sizes in design:
            mats, pts = planted_tuple(rng, d, sizes)
            items.append(_jordan_item(mats, pts, sizes))
        out.append(_shuffled(rng, items))
    mats, pts = planted_tuple(_rng(seed, 2, 999), 2, [2, 1])
    return Workload("jordan-recover", out, [_jordan_item(mats, pts, [2, 1])], trace_rounds=1)


# ---------------------------------------------------------------------------
# kernel-interp


def kernel_gram(points: np.ndarray) -> np.ndarray:
    """K[i, j] = 1 / (1 - <z_i, z_j>), computed in one vectorized step."""
    return 1.0 / (1.0 - points @ points.conj().T)


def separated_points(rng, m: int, d: int, r_max: float, floor: float) -> np.ndarray:
    """m points in the ball of radius r_max, pairwise weakly separated:
    1 - |<k_z, k_w>|^2 / (||k_z||^2 ||k_w||^2) >= floor for every pair."""
    pts = []
    for _ in range(200 * m):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        z = v / np.linalg.norm(v) * r_max * rng.uniform() ** (1.0 / (2 * d))
        ok = True
        for w in pts:
            overlap = (1 - np.vdot(z, z).real) * (1 - np.vdot(w, w).real) / abs(1 - np.vdot(w, z)) ** 2
            if 1.0 - overlap < floor:
                ok = False
                break
        if ok:
            pts.append(z)
            if len(pts) == m:
                return np.array(pts)
    raise RuntimeError(f"could not place {m} points with separation floor {floor}")


PICK_DELTA = 1e-6  # relative offset of the two-sided Pick check
PICK_PSD_TOL = 1e-10


def pick_min_eig(K: np.ndarray, a: np.ndarray, c: float) -> float:
    """Smallest eigenvalue of the Pick matrix (c^2 - a a*) o K after the
    congruence by the Cholesky factor of K, which keeps its inertia (so
    the sign answers feasibility) but removes the conditioning of K."""
    L = np.linalg.cholesky(K)
    Li = np.linalg.inv(L)
    A = Li @ (np.outer(a, a.conj()) * K) @ Li.conj().T
    return float(np.linalg.eigvalsh(c * c * np.eye(len(a)) - (A + A.conj().T) / 2)[0])


def _pick_item(points: np.ndarray, targets: np.ndarray) -> Item:
    K = kernel_gram(points)

    def check(res):
        c = res.value
        hi = pick_min_eig(K, targets, c * (1 + PICK_DELTA))
        lo = pick_min_eig(K, targets, c * (1 - PICK_DELTA))
        if hi < -PICK_PSD_TOL * c * c:
            return f"pick: infeasible just above the reported value {c!r} (min eig {hi:.3e})"
        if lo >= -PICK_PSD_TOL * c * c:
            return f"pick: still feasible just below the reported value {c!r} (min eig {lo:.3e})"
        return None

    return Item("pick", lambda: interp.pick_min_norm(points, targets), check)


def _strong_item(points: np.ndarray) -> Item:
    def check(rep):
        if len(rep.eps) != len(points) or not all(0.0 < e <= 1.0 for e in rep.eps):
            return f"strong separation: eps outside (0, 1]: {rep.eps}"
        return None

    return Item("strong", lambda: interp.strong_separation(points), check)


def _local_ideal(d: int, z: np.ndarray, shape: str) -> tuple:
    """(ideal, quotient dimension): the maximal ideal at z, or in d=2 the
    jet ideals <x1 - z1, (x2 - z2)^2> ("jet2") and <(x1 - z1)^2, x2 - z2>
    ("jet2t")."""
    lin = [Polynomial.variable(d, j) - Polynomial.constant(d, complex(z[j])) for j in range(d)]
    if shape == "max":
        return polyideal.PolyIdeal(lin, 6 if d == 1 else 8, d=d), 1
    gens = {"jet2": [lin[0], lin[1] ** 2], "jet2t": [lin[0] ** 2, lin[1]]}[shape]
    return polyideal.PolyIdeal(gens, 8, d=2), 2


def _jet_item(points: np.ndarray, shapes: list) -> Item:
    d = points.shape[1]
    built = [_local_ideal(d, z, s) for z, s in zip(points, shapes)]
    ideals = [b[0] for b in built]
    expected = sum(b[1] for b in built)

    def run():
        m = models.jet_model(points, ideals)
        return m, models.verify_localizations(m, ideals)

    def check(out):
        m, reports = out
        if m.dim != expected:
            return f"jet model: dimension {m.dim}, expected {expected}"
        if not all(r.matches for r in reports):
            return "jet model: a localization does not match its local ideal"
        mats = m.tuple.matrices
        scale = max(1.0, max(_norm2(Z) for Z in mats))
        defect = max((_norm2(A @ B - B @ A) for A, B in itertools.combinations(mats, 2)), default=0.0)
        if defect > 1e-9 * scale**2:
            return f"jet model: commutator defect {defect:.3e}"
        return None

    return Item("jet", run, check)


def _on_sphere(rng, d: int, r: float) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return r * v / np.linalg.norm(v)


def _jet_points(rng, d: int, radii: list) -> np.ndarray:
    """Points at the given radii, redrawn until pairwise 0.2 apart."""
    while True:
        pts = np.array([_on_sphere(rng, d, r) for r in radii])
        if all(np.linalg.norm(a - b) >= 0.2 for a, b in itertools.combinations(pts, 2)):
            return pts


# (points, dimension) of the Pick problems and strong-separation reports
# of every round; d=1 sets stay at 22 points or fewer, where a separated
# set in the disc still has a usable Gram matrix
PICK_DESIGN = tuple((m, 1) for m in range(8, 23, 2)) + tuple((m, 2) for m in range(26, 41, 2))
STRONG_DESIGN = ((6, 1), (20, 2))
# outer radius and weak-separation floor of the point sets, by dimension
POINT_SETS = {1: (0.95, 0.4), 2: (0.8, 0.3)}


def kernel_interp(seed: int, rounds: int = 2) -> Workload:
    """Per round: 16 Pick problems (m = 8-40), two strong-separation
    reports (m = 6 and 20) and ten jet models, each followed by its
    localization check: three maximal ideals in d=1 with one point at
    |z| = 0.9 (Fock truncation degree 160); three points in d=2 at
    |z| <= 0.3 (degree 13), one carrying a jet ideal such as
    <x1 - z1, (x2 - z2)^2>; a jet and a maximal ideal in d=2 with one
    point at |z| = 0.65 (degree 38); and in d=2 with one point at
    |z| = 0.8 (degree 74, the largest working set) one jet and a maximal
    ideal, and six pairs of maximal ideals."""
    out = []
    conds = []
    for r in range(rounds):
        rng = _rng(seed, 3, r)
        items = []
        for m, d in PICK_DESIGN:
            pts = separated_points(rng, m, d, *POINT_SETS[d])
            targets = np.array([_on_sphere(rng, 1, float(rng.uniform()))[0] for _ in pts])
            conds.append(float(np.linalg.cond(kernel_gram(pts))))
            items.append(_pick_item(pts, targets))
        for m, d in STRONG_DESIGN:
            pts = separated_points(rng, m, d, *POINT_SETS[d])
            conds.append(float(np.linalg.cond(kernel_gram(pts))))
            items.append(_strong_item(pts))
        items.append(_jet_item(_jet_points(rng, 1, [0.9] + list(rng.uniform(0.1, 0.9, 2))), ["max"] * 3))
        jet = str(rng.choice(["jet2", "jet2t"]))
        items.append(_jet_item(_jet_points(rng, 2, [0.3] + list(rng.uniform(0.1, 0.3, 2))), ["max", jet, "max"]))
        for top, with_jet in ((0.65, True), (0.8, True)) + ((0.8, False),) * 6:
            pts = _jet_points(rng, 2, [top, float(rng.uniform(0.1, top))])
            shapes = [str(rng.choice(["jet2", "jet2t"])) if with_jet else "max", "max"]
            items.append(_jet_item(pts, _shuffled(rng, shapes)))
        out.append(_shuffled(rng, items))
    wrng = _rng(seed, 3, 999)
    warm = [
        _pick_item(separated_points(wrng, 5, 1, *POINT_SETS[1]), np.array([0.5, -0.5, 0.5j, 0.1, 0.9])),
        _strong_item(separated_points(wrng, 4, 2, *POINT_SETS[2])),
        _jet_item(np.array([[0.1, 0.0], [0.0, 0.3]]), ["max", "jet2"]),
    ]
    notes = {"cond_K_min": min(conds), "cond_K_max": max(conds)}
    return Workload("kernel-interp", out, warm, trace_rounds=1, notes=notes)


# ---------------------------------------------------------------------------
# cli-cold and cli-warm


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Runs CLI invocations, as cold subprocesses or, with ``in_process``,
    as calls of ``arveson.cli.main`` in this process with stdout and
    stderr captured. ``first_stdout`` maps each command line to the first
    stdout seen, so repeats (and traced runs) are compared byte for byte.
    With a tracer the cold children go through the benchmark's launcher,
    which records spans and writes them to ``trace_dir`` for the tracer to
    ingest; in-process calls are traced by the tracer installed here."""

    def __init__(self, root: Path, first_stdout: dict, tracer=None, trace_dir: Path | None = None, in_process: bool = False):
        self.root = root
        self.first_stdout = first_stdout
        self.tracer = tracer
        self.trace_dir = trace_dir
        self.in_process = in_process
        self.calls = 0
        self.env = _child_env(root)

    def invoke(self, argv: list) -> tuple:
        self.calls += 1
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue().encode(), err.getvalue().encode()
        if self.tracer is None:
            cmd = [sys.executable, "-m", "arveson.cli", *argv]
        else:
            trace_out = self.trace_dir / f"cli-{self.calls}.json"
            cmd = [sys.executable, str(self.root / "bench" / "cli_launcher.py"), str(trace_out), *argv]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if self.tracer is not None:
            self.tracer.ingest(json.loads(trace_out.read_text(encoding="utf-8")))
            trace_out.unlink()
        return proc.returncode, stdout, stderr

    def item(self, argv: list) -> Item:
        key = tuple(argv)
        command = argv[0]

        def check(out):
            code, stdout, stderr = out
            if code != 0:
                return f"cli {command}: exit {code}: {stderr.decode(errors='replace').strip()[-300:]}"
            try:
                report = json.loads(stdout)
            except json.JSONDecodeError as exc:
                return f"cli {command}: stdout is not JSON ({exc})"
            if report.get("command") != command:
                return f"cli {command}: report names command {report.get('command')!r}"
            if self.first_stdout.setdefault(key, stdout) != stdout:
                return f"cli {command}: stdout differs between repeats"
            return None

        return Item(f"cli:{command}", lambda: self.invoke(argv), check)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _ideal_json(d: int, gens: list, degree_bound: int) -> dict:
    return serialization.dump_ideal(polyideal.PolyIdeal([Polynomial.monomial(g) for g in gens], degree_bound, d=d))


def cli_commands(seed: int, work: Path, rnd: int = 0) -> tuple:
    """Round ``rnd``: the 11 subcommands on small inputs drawn from the
    seed and written into ``work``, in a seeded order; also the command
    used for warm-up."""
    rng = _rng(seed, 4, rnd)
    work = work / f"round{rnd}"
    work.mkdir(parents=True, exist_ok=True)
    fam = staircase_family()
    # one size stratum, so the cost mix does not move with the seed: the
    # annihilator and model of a d=3 tuple cost several times those of a d=2 one
    small = [(d, c) for d, c in fam if d == 2 and len(c) == 4]
    d, comp = small[int(rng.integers(len(small)))]
    gens = staircase_generators(d, comp)
    N, xi, _ = _scaled(rng, d, comp)
    tuple_obj = serialization.dump_tuple(N, xi)
    ideal_obj = _ideal_json(d, gens, max(sum(g) for g in gens) + 2)
    tuple_path = _write_json(work / "tuple.json", tuple_obj)
    ideal_path = _write_json(work / "ideal.json", ideal_obj)
    nilsim_path = _write_json(work / "nilsim.json", {"tuple": tuple_obj, "ideal": ideal_obj})
    mats, _ = planted_tuple(rng, 2, [2, 2, 1])
    jordan_path = _write_json(work / "jordan.json", serialization.dump_tuple(tuples.validate(mats)))
    jet_pts = _jet_points(rng, 2, [float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.1, 0.4))])
    jet_ideals = [_local_ideal(2, z, s)[0] for z, s in zip(jet_pts, ["max", "jet2"])]
    jet_path = _write_json(work / "jet.json", {**serialization.dump_points(jet_pts), "local_ideals": [serialization.dump_ideal(i) for i in jet_ideals]})
    sep_path = _write_json(work / "points.json", serialization.dump_points(separated_points(rng, 6, 1, *POINT_SETS[1])))
    pick_pts = separated_points(rng, 8, 2, *POINT_SETS[2])
    targets = [serialization.dump_complex(_on_sphere(rng, 1, float(rng.uniform()))[0]) for _ in pick_pts]
    pick_path = _write_json(work / "pick.json", {**serialization.dump_points(pick_pts), "targets": targets})

    commands = [
        ["tuple-check", "--in", tuple_path],
        ["tuple-ann", "--in", tuple_path],
        ["jordan", "--in", jordan_path],
        ["model-monomial", "--in", ideal_path],
        ["model-jet", "--in", jet_path],
        ["interp-check", "--in", sep_path],
        ["pick", "--in", pick_path],
        ["nilsim", "--in", nilsim_path],
        ["repro-6-2"],
        # the default list adds eps = 0.001, one 0.55 s search: on a busy
        # host an item that long reads up to 2x slower however many passes
        # a run makes, because its best time needs a quiet spell as long
        ["repro-6-4", "--eps", "0.1,0.01", "--seed", str(int(rng.integers(1 << 30)))],
        ["dichotomy"],
    ]
    return _shuffled(rng, commands), ["model-monomial", "--in", ideal_path]


def cli_cold(seed: int, root: Path, work: Path) -> Workload:
    """One round: each of the 11 subcommands once, as a cold subprocess.
    A run makes several passes, so every output is compared with repeats
    of itself."""
    order, warm = cli_commands(seed, work)
    first_stdout: dict = {}

    def rounds_for(runner: CliRunner) -> list:
        return [[runner.item(argv) for argv in order]]

    wl = Workload(
        "cli-cold",
        rounds_for(CliRunner(root, first_stdout)),
        [CliRunner(root, {}).item(warm)],
        trace_rounds=1,
        # RUSAGE_CHILDREN reports the largest child reaped so far; every
        # child at that point is a CLI process
        peak_rss_kb=lambda: resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    wl.traced_rounds = lambda tracer, trace_dir: rounds_for(CliRunner(root, first_stdout, tracer, trace_dir))
    return wl


COLD_IMPORT_PROBES = 3
_COLD_IMPORT = "import time; t = time.perf_counter(); import arveson.cli; print(time.perf_counter() - t)"


def cold_imports(root: Path) -> list:
    """Seconds of ``import arveson.cli`` in fresh interpreters, timed
    inside each child, as the CLI launcher times it."""
    out = []
    for _ in range(COLD_IMPORT_PROBES):
        res = subprocess.run([sys.executable, "-c", _COLD_IMPORT], cwd=root, env=_child_env(root), capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"cold import failed: {res.stderr.strip()[-300:]}")
        out.append(float(res.stdout))
    return out


CLI_WARM_ROUNDS = 3


def cli_warm(seed: int, root: Path, work: Path) -> Workload:
    """CLI_WARM_ROUNDS rounds of the commands of cli-cold, each on its own
    inputs, so that the median and tail are taken over 33 inputs. Each
    command is called in this process through ``arveson.cli.main`` after
    the imports are done; cold import is the share of ``setup_s`` that a
    fresh process pays. The traced run also times cold imports in fresh
    interpreters, for ``cli.import_s``."""
    runner = CliRunner(root, {}, in_process=True)
    rounds = []
    for rnd in range(CLI_WARM_ROUNDS):
        order, warm = cli_commands(seed, work, rnd)
        rounds.append([runner.item(argv) for argv in order])
    wl = Workload(
        "cli-warm",
        rounds,
        [CliRunner(root, {}, in_process=True).item(warm)],
        trace_rounds=1,
    )
    wl.trace_probe = lambda tracer: tracer.import_s.extend(cold_imports(root))
    return wl


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    if name == "certify-staircases":
        return certify_staircases(seed)
    if name == "jordan-recover":
        return jordan_recover(seed)
    if name == "kernel-interp":
        return kernel_interp(seed)
    if name == "cli-cold":
        return cli_cold(seed, root, work)
    if name == "cli-warm":
        return cli_warm(seed, root, work)
    raise ValueError(f"unknown workload {name!r}")
