"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/report.py --seeds 1-10 [--out FILE]

For each workload, runs ``run.py --trace 0`` once per seed, one after the
other, then one ``--trace 1`` run on the first seed; every run measures for
the ``run_seconds`` of ``BENCHMARK.json``.  Prints, per workload,
each end-to-end metric with its unit, median, quartiles and spread (the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), the tail percentile and
sample counts, and the tracing overhead.  ``--out`` also writes the summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("boundary", "split", "seminorm", "induced")
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its result line and its full record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    seeds = seed_list(args.seeds)

    summary = {"seconds": SECONDS, "seeds": seeds, "workloads": {}}
    for w in WORKLOADS:
        results, records = zip(*(run(w, s, 0) for s in seeds))
        names = list(results[0]["metrics"])
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "tail_percentile": records[0]["tail_percentile"],
            "samples_beyond_tail": [r["samples_beyond_tail"] for r in records],
            "machine": records[0]["machine"],
            "end_to_end": {
                k: {"unit": results[0]["metrics"][k]["unit"], **summarise([r["metrics"][k]["value"] for r in results])}
                for k in names
            },
        }
        print(f"== {w}: seeds {args.seeds}, {SECONDS:g} s runs, correct={entry['correct']}, "
              f"attempted {min(entry['attempted'])}-{max(entry['attempted'])}, failed {sum(entry['failed'])}")
        print(f"   op_tail_ms is p{entry['tail_percentile']:g}; samples beyond it "
              f"{min(entry['samples_beyond_tail'])}-{max(entry['samples_beyond_tail'])}")
        for k, m in entry["end_to_end"].items():
            print(f"   {k:20s} {m['median']:>12.5g} {m['unit']:9s} q1 {m['q1']:<11.5g} q3 {m['q3']:<11.5g} spread {m['spread']:.3f}")
        traced, trecord = run(w, seeds[0], 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer"] = layer
        entry["calls_repeat_exactly"] = trecord["calls_repeat_exactly"]
        print(f"   traced (seed {seeds[0]}): {layer['trace.ops_per_s']:.4g} ops/s against "
              f"{layer['trace.plain_ops_per_s']:.4g} untraced on the same operations, "
              f"overhead {layer['trace.overhead_fraction']:+.3f}; calls repeat exactly: "
              f"{trecord['calls_repeat_exactly']}")
        summary["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
