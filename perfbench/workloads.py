"""The four benchmark workloads.

Each workload is one seeded, single-process, closed-loop caller: operation i
draws its inputs from ``numpy.random.default_rng([seed, i])``, makes one
public library call (or the fixed chain named below), and waits for it.  The
input sizes repeat in a fixed cycle, and runs measure whole cycles, so every
run sees the same mix of sizes.

The sizes are set so that a 25 s run at the commit this benchmark was
written against, whose eigensolver is a pure-Python Jacobi method, completes
60 to 400 operations: enough for a median, a tail percentile with ten or
more samples beyond it, and run-to-run spreads within the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checker
import cnr
import cnr.metrics
from cnr.errors import NotDecomposableError

BOUNDARY_DIRECTIONS = 32
INDUCED_SAMPLES = 200


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple  # per-operation size parameters, repeated in this order
    # reported as op_tail_ms: the highest whole percentile with at least ten
    # samples beyond it in each of ten 25 s runs at the commit this benchmark
    # was written against; run.py extends a run until ten are beyond it
    tail_pct: float
    trace_cycles: int  # cycles in one pass of a traced run
    make: Callable[[np.random.Generator, Any], dict]
    call: Callable[[dict], Any]  # the timed library call
    check: Callable[[dict, Any], list[str]]
    certified: Callable[[Any], bool]

    def input(self, seed: int, i: int) -> dict:
        rng = np.random.default_rng([seed, i])
        return self.make(rng, self.cycle[i % len(self.cycle)])


def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def _trace_zero(n: int, rng: np.random.Generator) -> np.ndarray:
    d = rng.standard_normal(n)
    return d - d.mean()


def _solve_config(rng: np.random.Generator):
    return cnr.SolveConfig(seed=int(rng.integers(2**31 - 1)))


# boundary: the angle grid of independent support solves
def _make_boundary(rng, n):
    return {"a": _ginibre(n, rng), "cfg": _solve_config(rng)}


def _call_boundary(x):
    rb = cnr.range_boundary(x["a"], m=BOUNDARY_DIRECTIONS, cfg=x["cfg"])
    return rb, rb.inner_hull(), rb.outer_polygon()


# split: decompose -> sos_certificate -> verify_certificate
def _make_split(rng, param):
    """P + D is decomposable by construction (P = ZZ*/n, D a real plus an
    imaginary trace-zero diagonal); P + D - cI with c > tr(P)/n is not,
    because B = I attains tr(P)/n - c < 0."""
    n, decomposable = param
    z = _ginibre(n, rng)
    p = z @ z.conj().T / n
    a = p + np.diag(_trace_zero(n, rng)) + 1j * np.diag(_trace_zero(n, rng))
    if not decomposable:
        a = a - np.trace(p).real / n * (1.0 + rng.uniform(0.1, 0.5)) * np.eye(n)
    return {"a": a, "decomposable": decomposable, "cfg": _solve_config(rng)}


def _call_split(x):
    try:
        dec = cnr.decompose(x["a"], x["cfg"])
    except NotDecomposableError as err:
        return err
    cert = cnr.sos_certificate(dec)
    return dec, cert, cnr.verify_certificate(x["a"], cert)


def _certified_split(result) -> bool:
    # a non-decomposable verdict is proven by its witness, which the checker
    # evaluates; a decomposition is certified when its solve closed the gap
    return isinstance(result, NotDecomposableError) or not result[0].flags


# seminorm: the quotient seminorm on the start shapes kappa_search uses
def _make_seminorm(rng, param):
    n, sparse = param
    t = _ginibre(n, rng)
    if sparse:
        mask = rng.random((n, n)) < 2.0 / n
        np.fill_diagonal(mask, False)
        t = t * mask
        if not mask.any():
            t[0, 1] = 1.0
    return {"t": t}


# induced: sampled inner approximation of the unitarily induced range
def _make_induced(rng, n):
    return {"t": _ginibre(n, rng), "rng": np.random.default_rng(int(rng.integers(2**63 - 1)))}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="boundary",
            cycle=(3, 4, 4),
            tail_pct=95.0,
            trace_cycles=8,
            make=_make_boundary,
            call=_call_boundary,
            check=lambda x, r: checker.check_boundary(x["a"], r, x["cfg"].tol),
            certified=lambda r: all(s.certified for s in r[0].samples),
        ),
        Workload(
            name="split",
            cycle=tuple((n, ok) for n in (4, 4, 8) for ok in (True, False)),
            tail_pct=96.0,
            trace_cycles=6,
            make=_make_split,
            call=_call_split,
            check=lambda x, r: checker.check_split(x["a"], x["decomposable"], r),
            certified=_certified_split,
        ),
        Workload(
            name="seminorm",
            cycle=tuple((n, sparse) for n in (4, 8, 16) for sparse in (False, True)),
            tail_pct=88.0,
            trace_cycles=2,
            make=_make_seminorm,
            call=lambda x: cnr.metrics.correlation_seminorm_full(x["t"]),
            check=lambda x, r: checker.check_seminorm(x["t"], r),
            certified=lambda r: r.agreed,
        ),
        Workload(
            name="induced",
            cycle=(2, 4, 8),
            tail_pct=84.0,
            trace_cycles=4,
            make=_make_induced,
            call=lambda x: cnr.wuc_inner(x["t"], samples=INDUCED_SAMPLES, rng=x["rng"]),
            check=lambda x, r: checker.check_induced(x["t"], r),
            certified=lambda r: True,
        ),
    )
}
