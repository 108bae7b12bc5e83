"""Certified-solve benchmark for cnr: one run of one workload.

    python3 perfbench/run.py --workload boundary --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures end-to-end metrics; with
``--trace 1`` it measures per-layer metrics by wrapping the package's
functions from outside (see ``tracer.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  A
full record, with the machine and provenance, goes to ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Claims of a speed-up must also hold on this seed, which was not used while
# the benchmark or any change measured by it was being tuned.
HELDOUT_SEED = 7717

# setup_s is the median of this process's own set-up and this many fresh
# processes that repeat it, spread evenly over the measured run
SETUP_PROBES = 12

# op_tail_ms needs at least this many samples beyond its percentile; a run
# goes on past --seconds (up to twice as long) until it has them
MIN_BEYOND_TAIL = 10


END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "certified_fraction": "fraction",
    "ok_fraction": "fraction",
    "peak_rss_mb": "MB",
}

TRACED_FUNCTIONS = (
    "matcore.hermitian_eigs",
    "crange.range_boundary",
    "crange.support_direction",
    "crange.polish_dual",
    "crange.repair_dual",
    "decompose.decompose",
    "decompose.sos_certificate",
    "decompose.verify_certificate",
    "metrics.correlation_seminorm_full",
    "ucrange.wuc_inner",
    "ucrange.induced_correlation",
    "matcore.haar_unitary",
    "elliptope.validate_correlation",
    "geometry.convex_hull",
    "geometry.halfplane_polygon",
)
PER_LAYER = {
    "trace.ops_per_s": "1/s",
    "trace.plain_ops_per_s": "1/s",
    "trace.overhead_fraction": "fraction",
    "trace.passes": "count",
    "trace.spans": "count",
    **{f"{f}.{k}": u for f in TRACED_FUNCTIONS for k, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "matcore.hermitian_eigs.us_per_call": "us",
    "crange.eigs_per_solve": "count",
    "crange.support_direction.certified_fraction": "fraction",
    "crange.polish_dual.closed_fraction": "fraction",
    "metrics.agreed_fraction": "fraction",
}


def load_program():
    """Import the package from this checkout's src/ (never an installed
    copy) together with the workload definitions."""
    src = ROOT / "src"
    if not (src / "cnr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cnr package under {src}")
    sys.path.insert(0, str(src))
    import cnr
    import workloads

    if Path(cnr.__file__).resolve().parent != src / "cnr":
        sys.exit(f"perfbench: imported cnr from {cnr.__file__}, not from {src}")
    return workloads


@dataclass
class Outcome:
    seconds: float
    start: float
    certified: bool = False
    error: str | None = None  # the call raised
    problems: tuple = ()  # the checker rejected the result


def run_op(wl, seed: int, i: int, tracer=None) -> Outcome:
    x = wl.input(seed, i)
    if tracer is not None:
        tracer.op = i
    t0 = time.perf_counter()
    try:
        result = wl.call(x)
    except Exception as err:  # counted as a failed operation, run continues
        return Outcome(time.perf_counter() - t0, t0, error=f"op {i}: {type(err).__name__}: {err}")
    dt = time.perf_counter() - t0
    try:
        problems = tuple(wl.check(x, result))
    except Exception as err:  # a result the checker cannot read is rejected
        problems = (f"checker raised {type(err).__name__}: {err}",)
    return Outcome(dt, t0, certified=not problems and wl.certified(result), problems=tuple(f"op {i}: {p}" for p in problems))


def setup(wl_name: str, seed: int):
    """Import, input generation and one warm-up operation; returns the
    workloads module, the warm-up input and result, and the seconds since
    the process started, scaled like every other time (see speed.py)."""
    workloads = load_program()
    wl = workloads.WORKLOADS[wl_name]
    x = wl.input(seed, 0)
    result = wl.call(x)
    elapsed = time.perf_counter() - _T0
    from speed import NOMINAL_S, reference_kernel

    return workloads, x, result, elapsed * NOMINAL_S / statistics.median(reference_kernel() for _ in range(5))


def setup_probe(wl_name: str, seed: int) -> float:
    """The set-up time of a fresh process (see setup)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", wl_name, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values, pct: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def measure(wl, seed: int, seconds: float) -> tuple[list[Outcome], list[float], list[float]]:
    """Whole input cycles, one operation at a time, until `seconds` of wall
    time have passed and the tail percentile has MIN_BEYOND_TAIL samples
    beyond it (or 2 * `seconds` have passed).  Fresh-process set-up probes
    run between cycles, one every `seconds` / SETUP_PROBES; their time is
    not counted in `seconds`.  Returns the outcomes, their scaled times and
    the probes' set-up times."""
    from speed import SpeedLog

    speed, outcomes, probes, i = SpeedLog(), [], [], 0
    start = time.perf_counter()
    while True:
        for _ in wl.cycle:
            speed.sample()
            outcomes.append(run_op(wl, seed, i))
            i += 1
        elapsed = time.perf_counter() - start
        if len(probes) < SETUP_PROBES and elapsed >= len(probes) * seconds / SETUP_PROBES:
            t0 = time.perf_counter()
            probes.append(setup_probe(wl.name, seed))
            start += time.perf_counter() - t0
        enough = nearest_rank(range(len(outcomes)), wl.tail_pct)[1] >= MIN_BEYOND_TAIL
        if len(probes) == SETUP_PROBES and (elapsed >= 2 * seconds or (elapsed >= seconds and enough)):
            speed.sample(force=True)
            return outcomes, [o.seconds * speed.factor(o.start, o.start + o.seconds) for o in outcomes], probes


def end_to_end(wl, outcomes: list[Outcome], scaled: list[float], setup_s: float) -> tuple[dict, dict]:
    ok = [o for o in outcomes if o.error is None and not o.problems]
    lat = sorted(scaled)
    tail, beyond = nearest_rank(lat, wl.tail_pct)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / sum(scaled),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail * 1e3,
        "certified_fraction": sum(o.certified for o in outcomes) / len(outcomes),
        "ok_fraction": len(ok) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "tail_percentile": wl.tail_pct,
        "samples": len(lat),
        "samples_beyond_tail": beyond,
        "latencies_ms": [1e3 * o.seconds for o in outcomes],
        "scaled_ms": [1e3 * x for x in scaled],
    }
    return values, info


def traced(wl, seed: int, seconds: float, spans_path: Path) -> tuple[list[Outcome], dict, dict]:
    """Passes over a fixed list of operations (the first trace_cycles cycles)
    while another pass fits in `seconds`.  Each operation runs twice in a
    row, untraced and traced, in alternating order, so the tracing overhead
    is measured on identical work.  Per-layer figures are per pass; calls
    must repeat exactly from pass to pass.  Times are scaled like those of
    the untraced run (see speed.py), with one factor per pass."""
    from speed import NOMINAL_S, SpeedLog
    from tracer import Tracer, aggregate

    tracer = Tracer()
    n_ops = wl.trace_cycles * len(wl.cycle)
    outcomes, times, passes, sites = [], {False: 0.0, True: 0.0}, [], []
    first_spans = None
    start = time.perf_counter()
    while True:
        speed = SpeedLog()
        for i in range(n_ops):
            speed.sample()
            for tracing in (False, True) if (i + len(passes)) % 2 == 0 else (True, False):
                if tracing:
                    sites = tracer.install()
                try:
                    o = run_op(wl, seed, i, tracer)
                finally:
                    tracer.uninstall()
                outcomes.append(o)
                times[tracing] += o.seconds * speed.factor(o.start, o.start)
        speed.sample(force=True)
        spans = tracer.take()
        if first_spans is None:
            first_spans = spans
        factor = NOMINAL_S / statistics.median(speed.durations)
        layer = aggregate(spans, tracer.functions)
        passes.append({k: v * factor if k.endswith((".s", ".self_s", ".us_per_call")) else v for k, v in layer.items()})
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    calls = [k for k in passes[0] if k.endswith(".calls")]
    values = {k: statistics.fmean(p[k] for p in passes) for k in passes[0]}
    values.update({k: passes[0][k] for k in calls})
    values["trace.passes"] = len(passes)
    values["trace.spans"] = len(first_spans)
    values["trace.ops_per_s"] = n_ops * len(passes) / times[True]
    values["trace.plain_ops_per_s"] = n_ops * len(passes) / times[False]
    values["trace.overhead_fraction"] = times[True] / times[False] - 1.0
    info = {
        "ops_per_pass": n_ops,
        "calls_repeat_exactly": all(p[k] == passes[0][k] for p in passes for k in calls),
        "binding_sites": sites,
        "all_functions": {k: v for k, v in values.items() if k not in PER_LAYER},
    }
    with gzip.open(spans_path, "wt") as fh:
        t0 = first_spans[0][1] if first_spans else 0
        for name, s, e, parent, op, _ in first_spans:
            fh.write(json.dumps([name, (s - t0) / 1e3, (e - t0) / 1e3, parent, op]) + "\n")
    return outcomes, {k: values[k] for k in PER_LAYER}, info


def _blas_threads():
    import ctypes

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def _git_commit():
    """HEAD of this checkout; None outside a repository or without git.
    git is not run without a .git here, so that it never reads a
    repository above the checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("boundary", "split", "seminorm", "induced"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workloads, x0, r0, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    import checker

    wl = workloads.WORKLOADS[args.workload]
    # the checker must accept the warm-up result and reject a tampered copy
    checker_ok = not wl.check(x0, r0) and bool(wl.check(x0, checker.tamper(wl.name, r0)))

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcomes, metrics, info = traced(wl, args.seed, args.seconds, OUT / f"{stem}.spans.jsonl.gz")
        units = PER_LAYER
    else:
        outcomes, scaled, probes = measure(wl, args.seed, args.seconds)
        metrics, info = end_to_end(wl, outcomes, scaled, statistics.median([own_setup, *probes]))
        info["setup_samples"] = [own_setup, *probes]
        units = END_TO_END

    failed = [o for o in outcomes if o.error or o.problems]
    rejected = [p for o in outcomes for p in o.problems]
    correct = checker_ok and not rejected
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": provenance(args.seed),
        "correct": correct,
        "checker_rejects_tampered": checker_ok,
        "attempted": len(outcomes),
        "failed": len(failed),
        "failures": [o.error or o.problems[0] for o in failed][:20],
        "metrics": metrics,
        **info,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    m = record["machine"]
    print(f"# cnr benchmark  workload={wl.name}  seed={args.seed}  trace={args.trace}  commit={m['commit']}")
    print(f"# nproc={m['nproc']}  python={m['python']}  numpy={m['numpy']}  blas={m['blas']} x{m['blas_threads']}")
    print(f"# attempted={len(outcomes)}  failed={len(failed)}  correct={correct}")
    if not args.trace:
        print(f"# op_tail_ms is p{wl.tail_pct:g} with {info['samples_beyond_tail']} of {info['samples']} samples beyond it")
        if info["samples_beyond_tail"] < MIN_BEYOND_TAIL:
            print(f"# warning: fewer than {MIN_BEYOND_TAIL} samples beyond the tail percentile")
    for f in record["failures"][:5]:
        print(f"# failure: {f}")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
