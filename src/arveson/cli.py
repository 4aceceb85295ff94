"""Command line interface.

Every subcommand reads JSON, writes one deterministic JSON report (stdout
or -o), and maps failures to exit codes: 1 for malformed input or flags,
2 for validation failures (a mathematical precondition broke), 3 for
numerical failures (a computation could not be trusted).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict

import numpy as np

from . import (
    interp,
    models,
    multiindex as mi,
    nilsim,
    numerics,
    polyideal,
    repro,
    serialization as ser,
    spectral,
    tuples,
)
from .errors import InputError, NumericalError, ValidationError


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; bad flags are input errors
    def error(self, message):
        raise InputError(message)


def _add_common(p: _Parser, deg: bool = False) -> None:
    p.add_argument("--tol", type=float, default=numerics.DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    if deg:
        p.add_argument(
            "--deg",
            type=int,
            default=None,
            help="degree bound (default: twice the matrix size)",
        )


def _parse_float_list(text: str, flag: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"{flag}: expected a comma separated list of numbers")


def _load(args):
    return ser.load_json_file(args.input)


def _cmd_tuple_check(args):
    T, xi = ser.load_tuple(_load(args))
    scale = max(1.0, T.scale()) ** 2
    if T.commutator_defect > args.tol * scale:
        raise ValidationError(
            f"commutator defect {T.commutator_defect:.6e} exceeds "
            f"tolerance {args.tol * scale:.6e}"
        )
    result = {
        "d": T.d,
        "n": T.n,
        "commutator_defect": T.commutator_defect,
        "row_defect": T.row_defect,
        "is_row_contraction": T.is_row_contraction(args.tol),
    }
    if xi is not None:
        kry = tuples.krylov(T, xi, T.n)
        result["cyclic"] = kry.is_cyclic
        result["layer_dims"] = list(kry.layer_dims)
        result["layers_direct"] = kry.layers_direct
    return ser.report_envelope(
        "tuple-check", result, tolerances={"tol": args.tol}
    )


def _cmd_tuple_ann(args):
    T, _ = ser.load_tuple(_load(args))
    deg = args.deg if args.deg is not None else 2 * T.n
    ann = tuples.annihilator_slice(T, deg, tol=args.tol)
    result = {
        "degree_bound": deg,
        "dimension": len(ann),
        "generators": [ser.dump_polynomial(p) for p in ann],
    }
    return ser.report_envelope(
        "tuple-ann", result, tolerances={"tol": args.tol}
    )


def _cmd_jordan(args):
    T, _ = ser.load_tuple(_load(args))
    dec = spectral.jordan_decompose(T, cluster_tol=args.cluster_tol, seed=args.seed)
    result = {
        "points": [list(p) for p in dec.spectrum.points],
        "multiplicities": list(dec.spectrum.multiplicities),
        "cond": dec.cond,
        "residual": dec.residual,
        "idempotent_defect": dec.idempotent_defect,
        "X": dec.X,
        "blocks": [
            {"point": list(p), "matrices": [ser.dump_matrix(M) for M in blk.matrices]}
            for p, blk in zip(dec.spectrum.points, dec.blocks)
        ],
    }
    return ser.report_envelope(
        "jordan",
        result,
        seed=args.seed,
        tolerances={"tol": args.tol, "cluster_tol": args.cluster_tol},
    )


def _monomial_generators(ideal_obj) -> list:
    gens = []
    for k, g in enumerate(ideal_obj.generators):
        if len(g.coeffs) != 1:
            raise InputError(
                f"ideal.generators[{k}]: expected a monomial (single term)"
            )
        ((alpha, _),) = g.coeffs.items()
        gens.append(alpha)
    return gens


def _cmd_model_monomial(args):
    ideal_obj = ser.load_ideal(_load(args))
    gens = _monomial_generators(ideal_obj)
    model = models.monomial_model(gens, ideal_obj.d)
    t0 = np.pi / 5.0
    W = models.gauge_unitary(model, t0)
    gauge_defect = max(
        numerics.operator_norm(
            W @ Zj @ W.conj().T - np.exp(1j * t0) * Zj
        )
        for Zj in model.tuple.matrices
    )
    result = {
        "dimension": model.dim,
        "basis_indices": [list(b) for b in model.basis_indices],
        "matrices": [ser.dump_matrix(M) for M in model.tuple.matrices],
        "commutator_defect": model.tuple.commutator_defect,
        "row_defect": model.tuple.row_defect,
        "gauge_defect": gauge_defect,
    }
    return ser.report_envelope(
        "model-monomial", result, tolerances={"tol": args.tol}
    )


def _cmd_model_jet(args):
    obj = _load(args)
    pts = ser.load_points(
        {"d": obj.get("d"), "points": obj.get("points")}
        if isinstance(obj, dict)
        else obj
    )
    if not isinstance(obj, dict) or "local_ideals" not in obj:
        raise InputError("model-jet input: missing field 'local_ideals'")
    ideals = [
        ser.load_ideal(i, f"local_ideals[{k}]")
        for k, i in enumerate(obj["local_ideals"])
    ]
    model = models.jet_model(pts, ideals, tol=args.tol)
    loc = models.verify_localizations(model, ideals)
    result = {
        "dimension": model.dim,
        "points": [[ser.dump_complex(z) for z in p] for p in model.points],
        "orders": list(model.orders),
        "local_dims": list(model.local_dims),
        "truncation_degree": model.truncation_degree,
        "tail_bound": model.tail_bound,
        "matrices": [ser.dump_matrix(M) for M in model.tuple.matrices],
        "commutator_defect": model.tuple.commutator_defect,
        "row_defect": model.tuple.row_defect,
        "localizations": [asdict(r) for r in loc],
        "all_localizations_match": all(r.matches for r in loc),
    }
    return ser.report_envelope(
        "model-jet", result, tolerances={"tol": args.tol}
    )


def _cmd_interp_check(args):
    pts = ser.load_points(_load(args))
    sep = interp.separation_constants(pts)
    strong = interp.strong_separation(pts)
    result = {
        "count": sep.count,
        "delta_weak": sep.delta_weak,
        "gamma_carleson": sep.gamma_carleson,
        "worst_pair": list(sep.worst_pair),
        "strong_separation": {
            "eps": list(strong.eps),
            "overall": strong.overall,
            "pick_norms": list(strong.pick_norms),
        },
    }
    return ser.report_envelope(
        "interp-check", result, tolerances={"tol": args.tol}
    )


def _cmd_pick(args):
    obj = _load(args)
    if not isinstance(obj, dict) or "targets" not in obj:
        raise InputError("pick input: missing field 'targets'")
    pts = ser.load_points(obj)
    targets = [
        ser.load_complex(t, f"targets[{k}]") for k, t in enumerate(obj["targets"])
    ]
    r = interp.pick_min_norm(pts, targets)
    result = {
        "value": r.value,
        "margin": r.margin,
        "lower": r.lower,
        "upper": r.upper,
        "iterations": r.iterations,
    }
    return ser.report_envelope("pick", result, tolerances={"tol": args.tol})


def _certificate_result(cert: nilsim.SimilarityCertificate) -> dict:
    h = cert.hypotheses
    return {
        "dimension": cert.model.dim,
        "epsilon": h.epsilon,
        "card_support": h.card,
        "L": h.L,
        "gamma": h.gamma,
        "layers_direct": h.layers_direct,
        "layer_dims": list(h.layer_dims),
        "norm_X": cert.norm_X,
        "norm_X_inv": cert.norm_X_inv,
        "cond": cert.cond,
        "bound_X": cert.bound_X,
        "bound_X_inv": cert.bound_X_inv,
        "bounds_hold": cert.bounds_hold,
        "residual": cert.residual,
        "X": cert.X,
    }


def _cmd_nilsim(args):
    obj = _load(args)
    if not isinstance(obj, dict) or "tuple" not in obj:
        raise InputError("nilsim input: missing field 'tuple'")
    if "ideal" not in obj:
        raise InputError("nilsim input: missing field 'ideal'")
    T, xi = ser.load_tuple(obj["tuple"], "tuple")
    if xi is None:
        raise InputError("nilsim input: tuple.cyclic_vector is required")
    ideal_obj = ser.load_ideal(obj["ideal"], "ideal")
    gens = _monomial_generators(ideal_obj)
    cert = nilsim.build_similarity(T, xi, gens, tol=args.tol)
    nec = nilsim.necessity_check(T, cert.X, gens, xi=cert.hypotheses.xi)
    result = _certificate_result(cert)
    result["necessity"] = {
        "ok": nec.ok,
        "cond": nec.cond,
        "orbit_floor": nec.orbit_floor,
        "worst_orbit_margin": nec.worst_orbit_margin,
        "gauge_norm_max": nec.gauge_norm_max,
        "gauge_commute_defect": nec.gauge_commute_defect,
        "gauge_fix_defect": nec.gauge_fix_defect,
    }
    return ser.report_envelope(
        "nilsim", result, seed=args.seed, tolerances={"tol": args.tol}
    )


def _row_dict(row) -> dict:
    return asdict(row)


def _cmd_repro_6_2(args):
    eps_list = _parse_float_list(args.eps, "--eps")
    lams = _parse_float_list(args.lams, "--lams")
    rows = [
        r
        for e in eps_list
        for r in repro.example_one_variable(eps_list=[e], lams=lams).rows
    ]
    result = {
        "rows": [_row_dict(r) for r in rows],
        "ok": all(
            r.nullspace_dim == 2
            and r.form_matches
            and r.cyclic_ok
            and r.annihilator_matches
            and r.within_one_percent
            for r in rows
        ),
    }
    return ser.report_envelope(
        "repro-6-2", result, seed=args.seed, tolerances={"tol": args.tol}
    )


def _cmd_repro_6_4(args):
    eps_list = _parse_float_list(args.eps, "--eps")
    rep = repro.example_two_variable(eps_list=eps_list, seed=args.seed)
    result = {
        "rows": [_row_dict(r) for r in rep.rows],
        "moebius": [_row_dict(r) for r in rep.moebius_rows],
        "ok": rep.ok,
    }
    return ser.report_envelope(
        "repro-6-4", result, seed=args.seed, tolerances={"tol": args.tol}
    )


def _cmd_dichotomy(args):
    pts = None
    if args.input is not None:
        pts = ser.load_points(ser.load_json_file(args.input))
    eps_list = _parse_float_list(args.eps, "--eps") if args.eps else None
    rep = repro.dichotomy_demo(points=pts, kappa=args.kappa, eps_list=eps_list)
    result = {
        "kappa": rep.kappa,
        "rows": [_row_dict(r) for r in rep.rows],
        "global_min_cond": rep.global_min_cond,
        "global_nullspace_dim": rep.global_nullspace_dim,
        "blocks_forced_diagonal": rep.blocks_forced_diagonal,
        "jet_model_cond": rep.jet_model_cond,
    }
    return ser.report_envelope(
        "dichotomy", result, seed=args.seed, tolerances={"tol": args.tol}
    )


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args leaves the parser unchanged
    parser = _Parser(
        prog="arveson",
        description=(
            "Functional models, block diagonalization, similarity "
            "certificates, and interpolation diagnostics for commuting "
            "matrix tuples on the unit ball"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_, input_=True, deg=False):
        p = sub.add_parser(name, help=help_)
        if input_:
            p.add_argument("--in", dest="input", required=True, metavar="FILE")
        _add_common(p, deg=deg)
        p.set_defaults(func=fn)
        return p

    cmd("tuple-check", _cmd_tuple_check, "validate a commuting tuple")
    cmd("tuple-ann", _cmd_tuple_ann, "annihilator slice of a tuple", deg=True)
    p = cmd("jordan", _cmd_jordan, "block diagonalize a commuting tuple")
    p.add_argument("--cluster-tol", type=float, default=1e-6)
    cmd("model-monomial", _cmd_model_monomial, "compressed shift model of a monomial ideal")
    cmd("model-jet", _cmd_model_jet, "jet model for points with local ideals")
    cmd("interp-check", _cmd_interp_check, "separation and Carleson constants")
    cmd("pick", _cmd_pick, "minimal multiplier interpolation norm")
    cmd("nilsim", _cmd_nilsim, "similarity certificate onto the monomial model")

    p = cmd("repro-6-2", _cmd_repro_6_2, "one-variable troubled similarity family", input_=False)
    p.add_argument("--eps", default="0.1,0.01,0.001")
    p.add_argument("--lams", default="0.5")
    p = cmd("repro-6-4", _cmd_repro_6_4, "two-variable troubled similarity family", input_=False)
    p.add_argument("--eps", default="0.1,0.01,0.001")
    p = cmd("dichotomy", _cmd_dichotomy, "bounded versus degrading similarity", input_=False)
    p.add_argument("--in", dest="input", default=None, metavar="FILE")
    p.add_argument("--kappa", type=int, default=0)
    p.add_argument("--eps", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.func(args)
        text = ser.dumps_report(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
