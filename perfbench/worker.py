"""One measured process of a benchmark run.

It sets up a workload (imports, seeded inputs, warm-up), prints
``READY <monotonic clock>``, runs ops in a closed loop and prints
``RESULT <json>``.  With --setup-only it exits after READY.  run.py
starts it with PYTHONPATH pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Functions whose spans have children in some workload; they also report self time.
SELF_TIMED = (
    "polytope.classify",
    "polytope.vertices_oracle",
    "polytope.facets",
    "dimension.dim_for_point",
    "fiberlab.numeric_dim",
    "fiberlab.sample_fiber",
    "fiberlab.momentum_rank_report",
    "stability.orbit_dimensions",
    "qstate.psi_map",
)
CLI_SUBCOMMANDS = (
    "psi", "classify", "dim", "vertices", "facets", "xspec",
    "wall-check", "stable", "sample-fiber", "oracle-dim",
)
PROCESS_REPEATS = 5


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, with its unit."""
    from tracer import LAYER_FUNCTIONS, span_name

    out = []
    for mod, func in LAYER_FUNCTIONS:
        name = span_name(mod, func)
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.busy_s", "s"))
        if name in SELF_TIMED:
            out.append((f"{name}.self_s", "s"))
    out += [
        ("op.busy_s", "s"),
        ("op.self_s", "s"),
        ("polytope.vertices_oracle.subsystems", "count"),
        ("polytope.vertices_oracle.yield", "ratio"),
        ("crosscheck_s", "s"),
        ("fiberlab.sample_fiber.iterations", "count"),
        ("fiberlab.sample_fiber.restarts", "count"),
        ("fiberlab.sample_fiber.useful_ratio", "ratio"),
        ("fiberlab.momentum_differential_matrix.entries", "count"),
        ("cli.interp_ms", "ms"),
        ("cli.import_ms", "ms"),
    ]
    out += [(f"cli.{sub}.process_ms", "ms") for sub in CLI_SUBCOMMANDS]
    out += [("cli.failband.fail_frac", "ratio"), ("trace.overhead_frac", "ratio")]
    return out


class Phase:
    """Outcome of one closed loop of ops."""

    def __init__(self) -> None:
        self.latencies: list = []
        self.credit = 0.0  # correct ops done within the time limit, pro rata for the last
        self.failed = 0
        self.errors: Counter = Counter()
        self.digests: list = []
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def closed_loop(wl, seconds=None, count=None, tracer=None, keep_digests=False) -> Phase:
    """Run ops one at a time until `seconds` have passed, or for `count` ops.

    The op running when time is up still completes; it counts toward
    ``credit`` by the share of it that fell within the time limit.
    """
    ph = Phase()
    clock = time.perf_counter
    n_inputs = len(wl.inputs)
    start = clock()
    limit = None if seconds is None else start + seconds
    i = 0
    while (i < count) if count is not None else (clock() < limit):
        inp = wl.inputs[i % n_inputs]
        t0 = clock()
        try:
            result = wl.run(inp) if tracer is None else tracer.run_op(i, wl.run, inp)
        except Exception as exc:  # a failed op is counted, never fatal
            ph.latencies.append(clock() - t0)
            ph.failed += 1
            ph.errors[type(exc).__name__] += 1
            if keep_digests:
                ph.digests.append(("raised", type(exc).__name__))
            i += 1
            continue
        ph.latencies.append(clock() - t0)
        try:
            good = wl.check(inp, result)
        except Exception as exc:  # a malformed output is a wrong answer
            good = False
            ph.errors[f"check:{type(exc).__name__}"] += 1
        if good:
            t1 = t0 + ph.latencies[-1]
            ph.credit += 1.0 if limit is None or t1 <= limit else (limit - t0) / (t1 - t0)
        else:
            ph.failed += 1
            ph.errors["wrong"] += 1
        if keep_digests:
            ph.digests.append(wl.digest(result))
        i += 1
    ph.elapsed = clock() - start
    return ph


def versions() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name}


def process_ms(code: str) -> float:
    """Median wall time of `python -c code` over PROCESS_REPEATS runs, in ms."""
    import workloads

    times = []
    for _ in range(PROCESS_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=workloads.child_env(), cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return sorted(times)[PROCESS_REPEATS // 2] * 1e3


def traced_metrics(wl, args) -> tuple:
    """Untraced then traced pass over the same ops; per-layer metrics and checks."""
    import workloads
    from tracer import LAYER_FUNCTIONS, OP_SPAN, Tracer, merge_aggregates, span_name

    # more warm-up first, so the untraced pass is not the colder of the two
    closed_loop(wl, seconds=min(2.0, args.seconds / 10.0))
    plain = closed_loop(wl, seconds=args.seconds / 2.0, keep_digests=True)
    tracer = Tracer()
    child_dir = ROOT / "perfbench" / "out" / f"children-{args.workload}-{args.seed}"
    child_files: list = []
    if isinstance(wl, workloads.CliOneshot):
        child_dir.mkdir(parents=True, exist_ok=True)

        def next_file() -> str:
            child_files.append(child_dir / f"{len(child_files)}.json")
            return str(child_files[-1])

        wl.trace_out = next_file
    with tracer:
        traced = closed_loop(wl, count=plain.attempted, tracer=tracer, keep_digests=True)
    wl.trace_out = None
    equivalent = plain.digests == traced.digests
    checks = {"equivalent": equivalent}

    crosscheck_s = 0.0
    if isinstance(wl, workloads.ExactPolytope):
        t0 = time.perf_counter()
        ok_plain, found_plain = workloads.crosscheck()
        crosscheck_s = time.perf_counter() - t0
        with tracer:
            ok_traced, found_traced = tracer.run_op(-1, workloads.crosscheck)
        checks["crosscheck"] = ok_plain and ok_traced
        checks["equivalent"] = equivalent and found_plain == found_traced

    layers = tracer.aggregate()
    counters = Counter(tracer.counters)
    # self times telescope: summed over every span they equal the root spans' time
    roots = tracer.root_seconds()
    total_self = sum(rec["self_s"] for rec in layers.values())
    checks["self_sum"] = abs(total_self - roots) <= 1e-6 * max(1.0, roots)
    for path in child_files:
        if path.exists():
            doc = json.loads(path.read_text())
            merge_aggregates(layers, doc["layers"])
            counters.update(doc["counters"])
            path.unlink()
    if child_files:
        child_dir.rmdir()
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}.bin"))

    m = {}
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    for mod, func in LAYER_FUNCTIONS:
        name = span_name(mod, func)
        rec = layers.get(name, zero)
        m[f"{name}.calls"] = rec["calls"]
        m[f"{name}.busy_s"] = rec["busy_s"]
        if name in SELF_TIMED:
            m[f"{name}.self_s"] = rec["self_s"]
    op = layers.get(OP_SPAN, zero)
    m["op.busy_s"], m["op.self_s"] = op["busy_s"], op["self_s"]
    m["polytope.vertices_oracle.subsystems"] = counters["polytope.vertices_oracle.subsystems"]
    solved = layers.get("exact.solve_unique", zero)["calls"]
    m["polytope.vertices_oracle.yield"] = counters["polytope.vertices_oracle.found"] / max(1, solved)
    m["crosscheck_s"] = crosscheck_s
    m["fiberlab.sample_fiber.iterations"] = counters["fiberlab.sample_fiber.iterations"]
    m["fiberlab.sample_fiber.restarts"] = counters["fiberlab.sample_fiber.restarts"]
    attempts = counters["fiberlab.sample_fiber.attempts"]
    m["fiberlab.sample_fiber.useful_ratio"] = (
        counters["fiberlab.sample_fiber.samples"] / attempts if attempts else 0.0
    )
    m["fiberlab.momentum_differential_matrix.entries"] = counters[
        "fiberlab.momentum_differential_matrix.entries"
    ]
    interp = process_ms("pass")
    m["cli.interp_ms"] = interp
    m["cli.import_ms"] = process_ms("import lupoly.cli") - interp
    by_sub: dict = {}
    if isinstance(wl, workloads.CliOneshot):
        for i, lat in enumerate(plain.latencies):
            by_sub.setdefault(wl.inputs[i % len(wl.inputs)]["argv"][0], []).append(lat)
    for sub in CLI_SUBCOMMANDS:
        lats = sorted(by_sub.get(sub, []))
        m[f"cli.{sub}.process_ms"] = lats[len(lats) // 2] * 1e3 if lats else 0.0
    m["trace.overhead_frac"] = traced.elapsed / plain.elapsed - 1.0
    return m, plain, traced, checks


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import lupoly

    if not Path(lupoly.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"lupoly was imported from {lupoly.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"versions": versions()}
    if args.trace:
        metrics, plain, traced, checks = traced_metrics(wl, args)
        phases = (plain, traced)
        result.update(metrics=metrics, checks=checks)
    else:
        ph = closed_loop(wl, seconds=args.seconds)
        phases = (ph,)
        result.update(latencies_s=ph.latencies, ops_per_s=ph.credit / args.seconds)
    failband = wl.probe_failband() if isinstance(wl, workloads.CliOneshot) else None
    if failband is not None:
        result["failband"] = failband
    if args.trace:
        failed_probe = failband is not None and not failband["verified"]
        result["metrics"]["cli.failband.fail_frac"] = 1.0 if failed_probe else 0.0
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliOneshot) else resource.RUSAGE_SELF
    result["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["attempted"] = sum(ph.attempted for ph in phases)
    result["failed"] = sum(ph.failed for ph in phases)
    errors = Counter()
    for ph in phases:
        errors.update(ph.errors)
    result["errors"] = dict(errors)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
