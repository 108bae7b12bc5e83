"""Spans around calls into the layers of ``cnr``, recorded from outside.

The layers are the modules ``matcore``, ``elliptope``, ``crange``,
``decompose``, ``metrics``, ``ucrange`` and ``geometry``.  Every public
function they define is wrapped, except three sub-microsecond leaf helpers
whose cost is left in their callers' self time.  A function is patched at
every place it is bound: modules that did ``from .crange import polish_dual``
hold their own reference, so :meth:`Tracer.install` scans the namespace of
every loaded ``cnr`` module for the original function object.

A span is ``[name, start_ns, end_ns, parent_index, op_id, outcome]``.  Spans
stay in memory until the caller aggregates or writes them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("matcore", "elliptope", "crange", "decompose", "metrics", "ucrange", "geometry")
SKIP = frozenset({"matcore.as_matrix", "matcore.frobenius", "matcore.is_hermitian"})


def _polish_closed(bound, y) -> bool:
    """polish_dual returned a dual within stop_tol of its target."""
    return float(np.mean(y)) - bound.arguments["target"] <= bound.arguments["stop_tol"]


# function -> (metric name for the share of calls with a good outcome, test)
OUTCOMES = {
    "crange.support_direction": ("crange.support_direction.certified_fraction", lambda b, r: r.certified),
    "crange.polish_dual": ("crange.polish_dual.closed_fraction", _polish_closed),
    "metrics.correlation_seminorm_full": ("metrics.agreed_fraction", lambda b, r: r.agreed),
}


def layer_functions() -> dict[str, object]:
    """Qualified name -> original function, for every wrapped function."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"cnr.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in SKIP
            ):
                found[name] = obj
    return found


def _cnr_modules():
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "cnr" or name.startswith("cnr."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.functions = layer_functions()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.sites: list[tuple[str, str, str]] = []  # (module, attribute, function)
        # ids of live objects are unique; self.functions keeps the originals alive
        self._names = {id(fn): name for name, fn in self.functions.items()}
        self._wrappers = {name: self._wrap(name, fn) for name, fn in self.functions.items()}

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = OUTCOMES.get(name, (None, None))[1]
        signature = inspect.signature(fn) if observe else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = bool(observe(bound, result))
            return result

        return wrapper

    def install(self) -> list[tuple[str, str, str]]:
        """Replace every binding of a layer function in every loaded cnr
        module; returns the patched sites."""
        self.sites = []
        for modname, mod in _cnr_modules():
            for attr, val in list(vars(mod).items()):
                name = self._names.get(id(val))
                if name is not None:
                    setattr(mod, attr, self._wrappers[name])
                    self.sites.append((modname, attr, name))
        return self.sites

    def uninstall(self) -> None:
        for modname, attr, name in self.sites:
            setattr(sys.modules[modname], attr, self.functions[name])
        self.sites = []

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def aggregate(spans: list[list], functions) -> dict[str, float]:
    """Per-function calls, seconds and self seconds, outcome shares, and
    eigensolves per support solve, for one list of spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, _out in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = {name: [0, 0, 0] for name in functions}
    outcomes = {name: [0, 0] for name in OUTCOMES}
    eigs_in_solve = 0
    for i, (name, start, end, parent, _op, outcome) in enumerate(spans):
        st = stats[name]
        st[0] += 1
        st[1] += end - start
        st[2] += end - start - child_ns[i]
        if outcome is not None:
            outcomes[name][0] += outcome
            outcomes[name][1] += 1
        if name == "matcore.hermitian_eigs":
            p = parent
            while p >= 0 and spans[p][0] != "crange.support_direction":
                p = spans[p][3]
            eigs_in_solve += p >= 0
    out: dict[str, float] = {}
    for name, (calls, ns, self_ns) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = ns / 1e9
        out[f"{name}.self_s"] = self_ns / 1e9
    eig_calls = out["matcore.hermitian_eigs.calls"]
    out["matcore.hermitian_eigs.us_per_call"] = out["matcore.hermitian_eigs.s"] / eig_calls * 1e6 if eig_calls else 0.0
    solves = out["crange.support_direction.calls"]
    out["crange.eigs_per_solve"] = eigs_in_solve / solves if solves else 0.0
    for name, (good, seen) in outcomes.items():
        out[OUTCOMES[name][0]] = good / seen if seen else 0.0
    return out
