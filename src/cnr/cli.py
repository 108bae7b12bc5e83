"""Command-line front door.

Subcommands: range, radius, contains, decompose, certify, verify, wuc,
kappa, cnorm, check.  Each takes only the options it reads (_COMMANDS), and
its "config" reports exactly the settings among them plus the constants it
solves with.  Results go to --out as deterministic JSON ({"command",
"config", "result", "flags"}); certify writes a bare certificate, and range
also writes CSV and SVG boundary artifacts on request.  Exit codes: 0
success, 1 suite or verification failure, 2 usage or parse errors, 3
uncertified results under --strict.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import checks, jsonio, metrics, svgplot, ucrange
from .decompose import (
    OFFDIAG_TOL,
    TRACE_TOL,
    SosCertificate,
    certificate_from_obj,
    certificate_to_obj,
    decompose as run_decompose,
    sos_certificate,
    verify_certificate,
)
from .crange import (
    DIRECTIONS,
    SolveConfig,
    check_directions,
    contains,
    radius_full,
    range_boundary,
)
from .errors import CnrError, MatrixParseError, NotDecomposableError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNCERTIFIED = 3


def _checked(kind, ok, what: str):
    """argparse type: kind(text), rejected unless ok(value)."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


# Options whose values a command reports under "config".  Solver defaults
# come from the library module that reads the setting, which also rejects
# values out of range (ValueError, exit 2).
_SETTINGS = {
    "--directions": dict(type=int, default=DIRECTIONS, help="support grid size"),
    "--tol": dict(type=float, default=SolveConfig.tol, help="certification gap tolerance"),
    "--seed": dict(type=_checked(int, lambda s: s >= 0, "nonnegative"), default=0, help="seed"),
    "--samples": dict(
        type=int,
        default=ucrange.DEFAULT_SAMPLES,
        help="sampled unitary tuples; small values give more (at least 3, and 19 at n = 2)",
    ),
    "--k-list": dict(
        type=_int_list, default=list(ucrange.DEFAULT_K_LIST), help="inner dimensions, comma separated"
    ),
    "--n": dict(type=int, default=4, help="matrix dimension"),
    "--budget": dict(type=int, default=metrics.KAPPA_BUDGET, help="radius/seminorm evaluations"),
    "--suite": dict(default="basic", help="basic|duality|decompose|metrics|ucrange|all"),
    "--count": dict(type=int, help="instances per check (default: the suite's own)"),
}
# ...and the options naming files, the query point or the exit policy.
_OPTIONS = {
    **_SETTINGS,
    "--input": dict(required=True, help="matrix JSON file"),
    "--cert": dict(required=True, help="certificate JSON (bare or results file)"),
    "--re": dict(type=float, required=True, help="real part of the point"),
    "--im": dict(type=float, default=0.0, help="imaginary part of the point"),
    "--out": dict(help="write the results JSON here"),
    "--csv": dict(help="boundary CSV (theta,support,re,im per line)"),
    "--svg": dict(help="SVG plot: inner points and hull inside the outer polygon"),
    "--strict": dict(action="store_true", help="exit 3 on uncertified results"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cnr", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        flags = cmd.options.split()
        for flag in flags:
            p.add_argument(flag, **{**_OPTIONS[flag], **cmd.overrides.get(flag, {})})
    return ap


def _config(args) -> SolveConfig:
    return SolveConfig(tol=args.tol)


def _emit(args, obj: dict, flags, failed: bool = False) -> int:
    """Write obj as JSON to --out (else stdout); exit 1 if the command
    failed, 3 if it raised flags under --strict, else 0."""
    text = jsonio.dumps(obj)
    if args.out:
        jsonio.save_text(args.out, text)
    else:
        sys.stdout.write(text)
    if failed:
        return EXIT_FAIL
    return EXIT_UNCERTIFIED if getattr(args, "strict", False) and flags else EXIT_OK


def _finish(args, result: dict, flags, failed: bool = False) -> int:
    cmd = _COMMANDS[args.command]
    config = dict(cmd.fixed)
    for flag in cmd.options.split():
        if flag in _SETTINGS:
            dest = flag[2:].replace("-", "_")
            config[dest] = getattr(args, dest)
    payload = {"command": args.command, "config": config, "result": result, "flags": sorted(flags)}
    return _emit(args, payload, flags, failed)


def _boundary_result(rb, matrix_hash: str) -> dict:
    inner = rb.inner_hull()
    outer = rb.outer_polygon()
    return {
        "n": int(rb.samples[0].dual_y.shape[0]),
        "matrix_hash": matrix_hash,
        "theta": [s.theta for s in rb.samples],
        "support": [s.value for s in rb.samples],
        "gap": [s.gap for s in rb.samples],
        "witness_re": [s.witness_point.real for s in rb.samples],
        "witness_im": [s.witness_point.imag for s in rb.samples],
        "inner_hull": [[float(x), float(y)] for x, y in inner],
        "outer_polygon": [[float(x), float(y)] for x, y in outer],
        "radius_grid": float(rb.radius),
        "outer_contains_inner": rb.margin(inner[:, 0] + 1j * inner[:, 1]) >= -1e-9,
    }


def _cmd_range(args) -> int:
    a = jsonio.load_matrix(args.input)
    rb = range_boundary(a, args.directions, _config(args))
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
    return _finish(args, _boundary_result(rb, jsonio.matrix_hash(a)), rb.flags())


def _cmd_radius(args) -> int:
    a = jsonio.load_matrix(args.input)
    value, flags = radius_full(a, args.directions, _config(args))
    return _finish(args, {"radius": float(value), "matrix_hash": jsonio.matrix_hash(a)}, flags)


def _cmd_contains(args) -> int:
    a = jsonio.load_matrix(args.input)
    res = contains(a, complex(args.re, args.im), args.directions, _config(args))
    result = {
        "point": {"re": float(args.re), "im": float(args.im)},
        "contains": bool(res.contains),
        "margin": float(res.margin),
        "inconclusive": bool(res.inconclusive),
        "theta_star": float(res.theta_star),
    }
    return _finish(args, result, [*res.flags, *(["inconclusive"] if res.inconclusive else [])])


def _cmd_decompose(args) -> int:
    a = jsonio.load_matrix(args.input)
    result = {"n": int(a.shape[0]), "matrix_hash": jsonio.matrix_hash(a)}
    try:
        dec = run_decompose(a, _config(args))
    except NotDecomposableError as exc:
        result.update(
            decomposable=False, margin=float(exc.margin), witness_attained=float(exc.attained)
        )
        return _finish(args, result, [], failed=True)
    cert = sos_certificate(dec)
    result.update(
        margin=float(dec.margin),
        P=jsonio.matrix_obj(dec.P),
        D=[jsonio.complex_obj(x) for x in np.diag(dec.D)],
        dual_y=[float(v) for v in dec.dual_y],
        certificate=certificate_to_obj(cert),
        certificate_valid=bool(verify_certificate(a, cert).valid),
        decomposable=True,
    )
    return _finish(args, result, dec.flags)


def _cmd_certify(args) -> int:
    dec = run_decompose(jsonio.load_matrix(args.input), _config(args))
    return _emit(args, certificate_to_obj(sos_certificate(dec)), dec.flags)


def _load_certificate(path: str) -> SosCertificate:
    obj = jsonio.load_json(path)
    if isinstance(obj, dict) and isinstance(obj.get("result"), dict) and "certificate" in obj["result"]:
        return certificate_from_obj(obj["result"]["certificate"], where=path)
    return certificate_from_obj(obj, where=path)


def _cmd_verify(args) -> int:
    rep = verify_certificate(jsonio.load_matrix(args.input), _load_certificate(args.cert))
    result = {
        "valid": bool(rep.valid),
        "offdiag_max": float(rep.offdiag_max),
        "trace_abs": float(rep.trace_abs),
        "entry_max": float(rep.entry_max),
    }
    return _finish(args, result, [], failed=not rep.valid)


def _cmd_wuc(args) -> int:
    a = jsonio.load_matrix(args.input)
    cfg = _config(args)  # rejects a bad --tol before any sample is drawn
    check_directions(args.directions)  # and too few --directions
    approx = ucrange.wuc_inner(a, args.k_list, args.samples, np.random.default_rng([args.seed, 17]))
    cmp_res = ucrange.compare_ranges(a, approx, args.directions, cfg)
    rb = cmp_res.boundary
    if args.svg:
        jsonio.save_text(
            args.svg,
            svgplot.boundary_svg(
                approx.hull,
                rb.outer_polygon(),
                np.column_stack([approx.points.real, approx.points.imag]),
            ),
        )
    result = {
        "matrix_hash": jsonio.matrix_hash(a),
        "hull": [[float(x), float(y)] for x, y in approx.hull],
        "points": int(len(approx.points)),
        "sample_meta": approx.sample_meta,
        "inclusion_margin": float(cmp_res.inclusion_margin),
        "coverage_deficit": float(cmp_res.deficit),
    }
    return _finish(args, result, rb.flags())


def _cmd_kappa(args) -> int:
    rng = np.random.default_rng([args.seed, 23])
    est = metrics.kappa_search(args.n, args.budget, rng, _config(args))
    result = {
        "n": int(est.n),
        "best_ratio": float(est.best_ratio),
        "lower_bound": float(est.lower_bound),
        "quoted_upper": float(est.quoted_upper),
        "witness": jsonio.matrix_obj(est.witness),
        "notes": list(est.flags),
    }
    return _finish(args, result, [])


def _cmd_cnorm(args) -> int:
    a = jsonio.load_matrix(args.input)
    res = metrics.correlation_seminorm_full(a)
    result = {
        "value": float(res.value),
        "diagonal": [jsonio.complex_obj(x) for x in res.diagonal],
        "lower_bound": float(res.lower),
        "certified": bool(res.agreed),
        "matrix_hash": jsonio.matrix_hash(a),
    }
    return _finish(args, result, [] if res.agreed else ["seminorm_gap_not_closed"])


def _cmd_check(args) -> int:
    results = checks.run_suite(args.suite, args.n, args.seed, args.count)
    all_ok = all(r.passed for r in results)
    for r in results:  # stderr: stdout holds only the JSON document
        sys.stderr.write(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}\n")
    result = {
        "passed": bool(all_ok),
        "checks": [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results],
    }
    return _finish(args, result, [], failed=not all_ok)


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    options: str  # the flags it takes, in the order "config" lists its settings
    fixed: dict = {}  # constants it solves with, listed first in "config"
    overrides: dict = {}  # per-flag changes to the _OPTIONS keywords


_COMMANDS = {
    "range": _Command(
        _cmd_range,
        "boundary of the correlation numerical range",
        "--input --directions --tol --out --strict --csv --svg",
    ),
    "radius": _Command(
        _cmd_radius, "correlation numerical radius", "--input --directions --tol --out --strict"
    ),
    "contains": _Command(
        _cmd_contains,
        "membership query for a point",
        "--input --directions --tol --out --strict --re --im",
    ),
    "decompose": _Command(
        _cmd_decompose, "PSD + trace-zero-diagonal split", "--input --tol --out --strict"
    ),
    "certify": _Command(
        _cmd_certify, "emit a bare sum-of-squares certificate JSON", "--input --tol --out --strict"
    ),
    "verify": _Command(
        _cmd_verify,
        "verify a certificate against a matrix",
        "--input --cert --out",
        fixed={"tol_offdiag": OFFDIAG_TOL, "tol_trace": TRACE_TOL},
    ),
    "wuc": _Command(
        _cmd_wuc,
        "sampled inner approximation of the induced range",
        "--input --directions --tol --seed --samples --k-list --out --strict --svg",
    ),
    "kappa": _Command(
        _cmd_kappa,
        "search the radius/seminorm equivalence constant",
        "--tol --seed --n --budget --out",
        fixed={"directions": metrics.KAPPA_DIRECTIONS},
        overrides={"--n": {"required": True}},
    ),
    "cnorm": _Command(
        _cmd_cnorm,
        "quotient seminorm modulo trace-zero diagonals",
        "--input --out --strict",
        fixed={"tol": metrics.SEMINORM_TOL},
    ),
    "check": _Command(_cmd_check, "run an invariant suite", "--seed --suite --n --count --out"),
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command].run(args)
    except (MatrixParseError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except CnrError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
