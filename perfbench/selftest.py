"""Self-tests of the benchmark itself (about two minutes on two cores).

    python3 perfbench/selftest.py

1. The output checker accepts real results and rejects tampered copies, on
   every workload and on both verdicts of ``split``.
2. Binding audit: the tracer patches the names that modules import from one
   another, every traced function named below is called on the workloads
   meant to exercise it, and the predicted bypasses record zero calls.
3. Two traced runs with the same seed report exactly the same call counts.
4. ``BENCHMARK.json`` names the metrics that ``run.py`` prints.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# function -> workloads on which it must record at least one call
EXERCISED = {
    "matcore.hermitian_eigs": ("boundary", "split", "seminorm", "induced"),
    "crange.range_boundary": ("boundary",),
    "crange.support_direction": ("boundary", "split"),
    "crange.polish_dual": ("boundary", "split"),
    "crange.repair_dual": ("boundary", "split"),
    "decompose.decompose": ("split",),
    "decompose.sos_certificate": ("split",),
    "decompose.verify_certificate": ("split",),
    "metrics.correlation_seminorm_full": ("seminorm",),
    "ucrange.wuc_inner": ("induced",),
    "ucrange.induced_correlation": ("induced",),
    "matcore.haar_unitary": ("induced",),
    "elliptope.validate_correlation": ("induced",),
    "geometry.convex_hull": ("boundary", "induced"),
    "geometry.halfplane_polygon": ("boundary",),
}
# workload -> prefixes of traced functions that must record zero calls
BYPASSED = {
    "boundary": ("metrics.", "decompose.", "ucrange.", "elliptope.validate_correlation", "matcore.haar_unitary"),
    "split": ("crange.range_boundary", "metrics.", "ucrange.", "geometry.", "elliptope.validate_correlation"),
    "seminorm": ("crange.", "decompose.", "ucrange.", "elliptope.", "geometry."),
    "induced": ("crange.", "decompose.", "metrics.", "geometry.halfplane_polygon"),
}
# (module, name) bindings made by ``from .x import name``, which a tracer
# that patched only the defining module would miss
IMPORTED_BINDINGS = (
    ("cnr.decompose", "polish_dual"),
    ("cnr.metrics", "range_boundary"),
    ("cnr.ucrange", "range_boundary"),
    ("cnr.ucrange", "validate_correlation"),
    ("cnr", "range_boundary"),
)


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_checker() -> None:
    sys.path.insert(0, str(HERE))
    import run

    run.load_program()
    import checker
    import workloads

    for wl in workloads.WORKLOADS.values():
        for i in range(2 if wl.name == "split" else 1):
            x = wl.input(1, i)
            result = wl.call(x)
            if wl.check(x, result):
                fail(f"{wl.name} op {i}: checker rejects a genuine result: {wl.check(x, result)}")
            if not wl.check(x, checker.tamper(wl.name, result)):
                fail(f"{wl.name} op {i}: checker accepts a tampered result")
    print("ok: checker accepts genuine results and rejects tampered ones")


def traced_record(workload: str, seed: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    record["calls"] = {
        k[: -len(".calls")]: v for k, v in {**record["metrics"], **record["all_functions"]}.items() if k.endswith(".calls")
    }
    return record


def check_tracing(seed: int = 1) -> None:
    for w in BYPASSED:
        first, second = traced_record(w, seed), traced_record(w, seed)
        if not first["correct"]:
            fail(f"{w}: traced run reports incorrect output")
        if first["calls"] != second["calls"]:
            diff = {k: (v, second["calls"].get(k)) for k, v in first["calls"].items() if second["calls"].get(k) != v}
            fail(f"{w}: call counts differ between two runs with seed {seed}: {diff}")
        sites = {(m, a) for m, a, _ in first["binding_sites"]}
        missing = [b for b in IMPORTED_BINDINGS if b not in sites]
        if missing:
            fail(f"{w}: tracer did not patch {missing}")
        for fn, exercised_on in EXERCISED.items():
            if w in exercised_on and first["calls"][fn] == 0:
                fail(f"{w}: {fn} recorded no call")
        for fn, calls in first["calls"].items():
            if calls and fn.startswith(BYPASSED[w]):
                fail(f"{w}: {fn} recorded {calls} calls on a predicted bypass")
        print(f"ok: {w}: calls repeat exactly across runs; exercised and bypassed functions as predicted")


def check_benchmark_json() -> None:
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != printed:
            fail(f"BENCHMARK.json {key} does not match run.py: {set(declared) ^ set(printed) or 'units differ'}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(BYPASSED):
        fail("BENCHMARK.json workloads do not match run.py")
    print("ok: BENCHMARK.json matches the metrics run.py prints")


if __name__ == "__main__":
    check_benchmark_json()
    check_checker()
    check_tracing()
    print("all self-tests passed")
