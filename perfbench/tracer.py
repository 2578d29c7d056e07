"""In-memory span tracer for lupoly's public functions (stdlib only).

A traced run wraps each function in LAYER_FUNCTIONS in every lupoly
module that binds it, so a call is recorded whichever module looks it
up: ``fiberlab.sample_fiber`` inside ``numeric_dim`` as well as the
benchmark's own top-level call.  A span is (name, start, end, parent,
op id); spans are kept in flat arrays and written out once at the end.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs wrapped in a traced run.  Span names drop the
# module's leading underscore so every metric name starts with a letter.
LAYER_FUNCTIONS = (
    ("polytope", "membership"),
    ("polytope", "classify"),
    ("polytope", "vertices"),
    ("polytope", "vertices_oracle"),
    ("polytope", "facets"),
    ("_exact", "solve_unique"),
    ("_exact", "exact_rank"),
    ("dimension", "dim_for_point"),
    ("dimension", "dim_reduced_space"),
    ("fiberlab", "numeric_dim"),
    ("fiberlab", "sample_fiber"),
    ("fiberlab", "momentum_rank_report"),
    ("fiberlab", "momentum_differential_matrix"),
    ("stability", "orbit_dimensions"),
    ("qstate", "psi_map"),
    ("qstate", "reduce_one_qubit"),
    ("qstate", "apply_slot_operator"),
    ("qstate", "haar_state"),
)

OP_SPAN = "op"


def span_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


def _count_fiber_sample(counters, args, sample) -> None:
    counters["fiberlab.sample_fiber.iterations"] += sample.iterations
    counters["fiberlab.sample_fiber.restarts"] += sample.restarts
    counters["fiberlab.sample_fiber.samples"] += 1
    counters["fiberlab.sample_fiber.attempts"] += sample.restarts + 1


def _count_dmu_entries(counters, args, matrix) -> None:
    counters["fiberlab.momentum_differential_matrix.entries"] += matrix.size


def _count_oracle(counters, args, listing) -> None:
    L = listing.num_qubits
    counters["polytope.vertices_oracle.subsystems"] += math.comb(3 * L, L)
    counters["polytope.vertices_oracle.found"] += len(listing.vertices)


# Counters read off a wrapped function's arguments and result.
COUNTER_HOOKS = {
    "fiberlab.sample_fiber": _count_fiber_sample,
    "fiberlab.momentum_differential_matrix": _count_dmu_entries,
    "polytope.vertices_oracle": _count_oracle,
}


class Tracer:
    """Span recorder; one per traced phase, single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters = defaultdict(float)
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """Return fn wrapped so that each call records one span."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_idx.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op under a root span that its calls nest in."""
        self._op_id = op_id
        try:
            return self.wrap(OP_SPAN, fn)(*args)
        finally:
            self._op_id = -1

    def install(self, functions=LAYER_FUNCTIONS) -> None:
        """Rebind each function in every loaded lupoly module that binds it."""
        modules = [
            m for name, m in sys.modules.items() if name == "lupoly" or name.startswith("lupoly.")
        ]
        for mod, func in functions:
            original = getattr(importlib.import_module(f"lupoly.{mod}"), func)
            name = span_name(mod, func)
            traced = self.wrap(name, original, COUNTER_HOOKS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def aggregate(self) -> dict:
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts only spans not nested in a span of the same
        name, so recursion is not counted twice.  Self time is a span's
        duration minus the durations of its direct children.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            nid = self.name_idx[i]
            rec = out.setdefault(self.names[nid], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur[i] - children[i]
            p = self.parent[i]
            while p >= 0 and self.name_idx[p] != nid:
                p = self.parent[p]
            if p < 0:
                rec["busy_s"] += dur[i]
        return out

    def root_seconds(self) -> float:
        """Total duration of the spans that have no parent."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0
        )

    def write(self, path: str) -> None:
        """One JSON header line, then the raw span arrays in header order."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name_idx", "i"], ["start", "d"], ["end", "d"], ["parent", "i"], ["op", "i"]],
            "counters": dict(self.counters),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_idx, self.start, self.end, self.parent, self.op):
                arr.tofile(handle)


def merge_aggregates(into: dict, other: dict) -> None:
    """Add one aggregate (as from Tracer.aggregate) into another."""
    for name, rec in other.items():
        dst = into.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key in ("calls", "busy_s", "self_s"):
            dst[key] += rec[key]
