"""Command-line front door.

Subcommands: range, radius, contains, decompose, certify, verify, wuc,
kappa, cnorm, check.  All results go to --out as deterministic JSON
({"command", "config", "result", "flags"}); range also writes CSV and SVG
boundary artifacts on request.  Exit codes: 0 success, 1 suite or
verification failure, 2 usage or parse errors, 3 uncertified results under
--strict.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import checks, jsonio, metrics, svgplot, ucrange
from .decompose import (
    OFFDIAG_TOL,
    TRACE_TOL,
    SosCertificate,
    certificate_from_obj,
    certificate_to_obj,
    decompose as run_decompose,
    nonnegativity_test,
    sos_certificate,
    verify_certificate,
)
from .crange import (
    Containment,
    SolveConfig,
    contains,
    default_seed,
    matrix_hash,
    min_real_value,
    radius,
    range_boundary,
)
from .errors import CnrError, MatrixParseError, NotDecomposableError
from .geometry import polygon_support

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNCERTIFIED = 3


def _add_common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--directions", type=int, default=256, help="support grid size (m >= 3)")
    p.add_argument("--tol", type=float, default=1e-8, help="certification gap tolerance")
    p.add_argument("--restarts", type=int, default=8, help="ascent restarts per direction")
    p.add_argument("--seed", type=int, default=None, help="seed (overrides CNR_SEED)")
    p.add_argument("--out", help="write the results JSON here")
    p.add_argument("--strict", action="store_true", help="exit 3 on uncertified results")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cnr", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("range", help="boundary of the correlation numerical range")
    _add_common(p)
    p.add_argument("--csv", help="boundary CSV (theta,support,re,im per line)")
    p.add_argument("--svg", help="boundary SVG plot")

    p = sub.add_parser("radius", help="correlation numerical radius")
    _add_common(p)

    p = sub.add_parser("contains", help="membership query for a point")
    _add_common(p)
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)

    p = sub.add_parser("decompose", help="PSD + trace-zero-diagonal split")
    _add_common(p)

    p = sub.add_parser("certify", help="emit a bare sum-of-squares certificate JSON")
    _add_common(p)

    p = sub.add_parser("verify", help="verify a certificate against a matrix")
    _add_common(p)
    p.add_argument("--cert", required=True, help="certificate JSON (bare or results file)")

    p = sub.add_parser("wuc", help="sampled inner approximation of the induced range")
    _add_common(p)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--k-list", default="1,2,4,8,16", help="inner dimensions, comma separated")
    p.add_argument("--svg", help="hull SVG plot")

    p = sub.add_parser("kappa", help="search the radius/seminorm equivalence constant")
    _add_common(p, needs_input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=20)

    p = sub.add_parser("cnorm", help="quotient seminorm modulo trace-zero diagonals")
    _add_common(p)

    p = sub.add_parser("check", help="run an invariant suite")
    _add_common(p, needs_input=False)
    p.add_argument("--suite", default="basic", help="basic|duality|decompose|metrics|ucrange|all")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--count", type=int, default=None)
    return ap


def _config(args) -> SolveConfig:
    seed = args.seed if args.seed is not None else default_seed()
    if seed < 0:
        raise MatrixParseError("--seed must be nonnegative")
    if args.directions < 3:
        raise MatrixParseError("--directions must be at least 3")
    if args.tol <= 0.0:
        raise MatrixParseError("--tol must be positive")
    return SolveConfig(tol=args.tol, restarts=args.restarts, seed=seed)


def _config_obj(args, cfg: SolveConfig) -> dict:
    return {
        "directions": int(args.directions),
        "tol": float(cfg.tol),
        "restarts": int(cfg.restarts),
        "seed": int(cfg.seed),
    }


def _finish(args, payload: dict, flags: list[str]) -> int:
    payload = dict(payload)
    payload["flags"] = sorted(flags)
    text = jsonio.dumps(payload)
    if getattr(args, "out", None):
        jsonio.save_text(args.out, text)
    else:
        sys.stdout.write(text)
    if args.strict and flags:
        return EXIT_UNCERTIFIED
    return EXIT_OK


def _boundary_payload(rb) -> dict:
    inner = rb.inner_hull()
    outer = rb.outer_polygon()
    self_ok = all(
        polygon_support(inner, s.theta) <= s.value + 1e-9 for s in rb.samples
    )
    return {
        "n": int(rb.samples[0].dual_y.shape[0]),
        "matrix_hash": rb.matrix_hash,
        "theta": [s.theta for s in rb.samples],
        "support": [s.value for s in rb.samples],
        "gap": [s.gap for s in rb.samples],
        "witness_re": [s.witness_point.real for s in rb.samples],
        "witness_im": [s.witness_point.imag for s in rb.samples],
        "inner_hull": [[float(x), float(y)] for x, y in inner],
        "outer_polygon": [[float(x), float(y)] for x, y in outer],
        "radius_grid": float(rb.radius),
        "outer_contains_inner": bool(self_ok),
    }


def _cmd_range(args) -> int:
    a = jsonio.load_matrix(args.input)
    cfg = _config(args)
    rb = range_boundary(a, args.directions, cfg)
    flags = list(rb.flags())
    if args.csv:
        jsonio.save_text(
            args.csv, jsonio.boundary_csv(rb.thetas(), rb.supports(), rb.witness_points())
        )
    if args.svg:
        pts = rb.witness_points()
        jsonio.save_text(
            args.svg,
            svgplot.boundary_svg(
                rb.inner_hull(), rb.outer_polygon(), np.column_stack([pts.real, pts.imag])
            ),
        )
    payload = {
        "command": "range",
        "config": _config_obj(args, cfg),
        "result": _boundary_payload(rb),
    }
    return _finish(args, payload, flags)


def _cmd_radius(args) -> int:
    a = jsonio.load_matrix(args.input)
    cfg = _config(args)
    value = radius(a, args.directions, cfg)
    payload = {
        "command": "radius",
        "config": _config_obj(args, cfg),
        "result": {"radius": float(value), "matrix_hash": matrix_hash(a)},
    }
    return _finish(args, payload, [])


def _cmd_contains(args) -> int:
    a = jsonio.load_matrix(args.input)
    cfg = _config(args)
    res: Containment = contains(a, complex(args.re, args.im), args.directions, cfg)
    flags = ["inconclusive"] if res.inconclusive else []
    payload = {
        "command": "contains",
        "config": _config_obj(args, cfg),
        "result": {
            "point": {"re": float(args.re), "im": float(args.im)},
            "contains": bool(res.contains),
            "margin": float(res.margin),
            "inconclusive": bool(res.inconclusive),
            "theta_star": float(res.theta_star),
        },
    }
    return _finish(args, payload, flags)


def _decompose_result(a, cfg) -> tuple[dict, list[str]]:
    dec = run_decompose(a, cfg)
    cert = sos_certificate(dec)
    rep = verify_certificate(a, cert)
    result = {
        "n": int(a.shape[0]),
        "matrix_hash": matrix_hash(a),
        "margin": float(dec.margin),
        "P": jsonio.matrix_obj(dec.P),
        "D": [jsonio.complex_obj(x) for x in np.diag(dec.D)],
        "dual_y": [float(v) for v in dec.dual_y],
        "certificate": certificate_to_obj(cert),
        "certificate_valid": bool(rep.valid),
    }
    return result, list(dec.flags)


def _cmd_decompose(args) -> int:
    a = jsonio.load_matrix(args.input)
    cfg = _config(args)
    try:
        result, flags = _decompose_result(a, cfg)
    except NotDecomposableError as exc:
        payload = {
            "command": "decompose",
            "config": _config_obj(args, cfg),
            "result": {
                "n": int(a.shape[0]),
                "matrix_hash": matrix_hash(a),
                "decomposable": False,
                "margin": float(exc.margin),
                "witness_attained": float(exc.attained),
            },
        }
        code = _finish(args, payload, [])
        return EXIT_FAIL if code == EXIT_OK else code
    result["decomposable"] = True
    payload = {"command": "decompose", "config": _config_obj(args, cfg), "result": result}
    return _finish(args, payload, flags)


def _cmd_certify(args) -> int:
    a = jsonio.load_matrix(args.input)
    cfg = _config(args)
    dec = run_decompose(a, cfg)
    cert = sos_certificate(dec)
    text = jsonio.dumps(certificate_to_obj(cert))
    if args.out:
        jsonio.save_text(args.out, text)
    else:
        sys.stdout.write(text)
    if args.strict and dec.flags:
        return EXIT_UNCERTIFIED
    return EXIT_OK


def _load_certificate(path: str) -> SosCertificate:
    import json

    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "q" in obj:
        return certificate_from_obj(obj)
    if isinstance(obj, dict) and "result" in obj and "certificate" in obj["result"]:
        return certificate_from_obj(obj["result"]["certificate"])
    raise MatrixParseError(f"{path}: not a certificate file")


def _cmd_verify(args) -> int:
    a = jsonio.load_matrix(args.input)
    cert = _load_certificate(args.cert)
    rep = verify_certificate(a, cert)
    payload = {
        "command": "verify",
        "config": {"tol_offdiag": OFFDIAG_TOL, "tol_trace": TRACE_TOL},
        "result": {
            "valid": bool(rep.valid),
            "offdiag_max": float(rep.offdiag_max),
            "trace_abs": float(rep.trace_abs),
            "entry_max": float(rep.entry_max),
        },
    }
    code = _finish(args, payload, [])
    if not rep.valid:
        return EXIT_FAIL
    return code


def _cmd_wuc(args) -> int:
    a = jsonio.load_matrix(args.input)
    cfg = _config(args)
    k_list = [int(x) for x in args.k_list.split(",") if x.strip()]
    rng = np.random.default_rng([cfg.seed, 17])
    approx = ucrange.wuc_inner(a, k_list, args.samples, rng)
    rb = range_boundary(a, args.directions, cfg)
    cmp_res = ucrange.compare_ranges(a, cfg, boundary=rb, approx=approx)
    flags = list(rb.flags())
    if args.svg:
        jsonio.save_text(
            args.svg,
            svgplot.boundary_svg(
                approx.hull,
                rb.outer_polygon(),
                np.column_stack([approx.points.real, approx.points.imag]),
            ),
        )
    payload = {
        "command": "wuc",
        "config": {**_config_obj(args, cfg), "samples": int(args.samples), "k_list": k_list},
        "result": {
            "matrix_hash": matrix_hash(a),
            "hull": [[float(x), float(y)] for x, y in approx.hull],
            "points": int(len(approx.points)),
            "sample_meta": approx.sample_meta,
            "inclusion_margin": float(cmp_res.inclusion_margin),
            "coverage_deficit": float(cmp_res.deficit),
        },
    }
    return _finish(args, payload, flags)


def _cmd_kappa(args) -> int:
    cfg = _config(args)
    rng = np.random.default_rng([cfg.seed, 23])
    est = metrics.kappa_search(args.n, args.budget, rng, cfg)
    payload = {
        "command": "kappa",
        "config": {**_config_obj(args, cfg), "n": int(args.n), "budget": int(args.budget)},
        "result": {
            "n": int(est.n),
            "best_ratio": float(est.best_ratio),
            "lower_bound": float(est.lower_bound),
            "quoted_upper": float(est.quoted_upper),
            "witness": jsonio.matrix_obj(est.witness),
            "notes": list(est.flags),
        },
    }
    return _finish(args, payload, [])


def _cmd_cnorm(args) -> int:
    a = jsonio.load_matrix(args.input)
    res = metrics.correlation_seminorm_full(a)
    payload = {
        "command": "cnorm",
        "config": {"tol": metrics.SEMINORM_TOL},
        "result": {
            "value": float(res.value),
            "diagonal": [jsonio.complex_obj(x) for x in res.diagonal],
            "restarts_agree": bool(res.agreed),
            "matrix_hash": matrix_hash(a),
        },
    }
    return _finish(args, payload, [] if res.agreed else ["seminorm_restart_disagreement"])


def _cmd_check(args) -> int:
    cfg = _config(args)
    results = checks.run_suite(args.suite, args.n, cfg.seed, args.count)
    all_ok = all(r.passed for r in results)
    for r in results:
        sys.stdout.write(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}\n")
    payload = {
        "command": "check",
        "config": {**_config_obj(args, cfg), "suite": args.suite, "n": int(args.n)},
        "result": {
            "passed": bool(all_ok),
            "checks": [
                {"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results
            ],
        },
    }
    code = _finish(args, payload, [])
    if not all_ok:
        return EXIT_FAIL
    return code


_COMMANDS = {
    "range": _cmd_range,
    "radius": _cmd_radius,
    "contains": _cmd_contains,
    "decompose": _cmd_decompose,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "wuc": _cmd_wuc,
    "kappa": _cmd_kappa,
    "cnorm": _cmd_cnorm,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (MatrixParseError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NotDecomposableError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    except CnrError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
