"""Layered benchmark for lupoly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the checkout's own ``src/lupoly``.  Set-up is
timed in several fresh worker processes and reported as a median; one
more worker then runs ops in a closed loop for S seconds.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a
traced pass (see BENCHMARK.json).  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  The lines before
it list each metric with its unit and sample count, then the run's
provenance as JSON.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-polytope", "fiber-interior", "fiber-nearwall", "cli-oneshot")
# Fixed per workload so runs compare; each leaves at least ten ops beyond
# it at the op counts a run reaches (see benchstats.tail_percentile).
TAIL_PERCENTILE = {
    "exact-polytope": 95.0,
    "fiber-interior": 90.0,
    "fiber-nearwall": 80.0,
    "cli-oneshot": 75.0,
}
SETUP_ONLY_PROCESSES = 4
BLAS_THREADS = "1"
RUN_BUDGET_S = 170.0


class RunError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"  # one less source of process-to-process variation
    return env


def spawn_worker(args, deadline: float, setup_only: bool) -> tuple:
    """Start one worker; return (seconds from spawn to READY, RESULT document or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker exceeded the run's time budget") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1]) - spawned
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None or (result is None and not setup_only):
        raise RunError("worker output lacks READY or RESULT")
    return ready, result


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    git = ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}"]
    sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True).stdout
    return {"sha": sha or None, "dirty": bool(status.strip())}


def end_to_end(workload: str, setups: list, res: dict) -> tuple:
    """End-to-end metrics and their sample counts from an untraced run."""
    lats = res["latencies_s"]
    tail = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (res["ops_per_s"], "1/s", len(lats)),
        "op_p50_ms": (statistics.median(lats) * 1e3, "ms", len(lats)),
        "op_tail_ms": (benchstats.percentile(lats, tail) * 1e3, "ms", len(lats)),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB", 1),
    }
    rule = benchstats.tail_percentile(len(lats))
    notes = {"tail_percentile": tail, "tail_rule_met": rule is not None and rule >= tail}
    return metrics, notes


def run_one(args) -> dict:
    if not (ROOT / "src" / "lupoly" / "__init__.py").is_file():
        raise RunError(f"no lupoly sources under {ROOT / 'src'}; run from a lupoly checkout")
    deadline = time.monotonic() + RUN_BUDGET_S
    load_start = os.getloadavg()
    setups = [spawn_worker(args, deadline, True)[0] for _ in range(SETUP_ONLY_PROCESSES)]
    ready, res = spawn_worker(args, deadline, False)
    setups.append(ready)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git": git_state(),
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "versions": res["versions"],
        "platform": platform.platform(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "errors": res["errors"],
    }
    if "failband" in res:
        details["failband"] = res["failband"]
    if args.trace:
        from worker import per_layer_names

        units = dict(per_layer_names())
        if set(units) != set(res["metrics"]):
            raise RunError(f"traced metrics differ from the per-layer list: "
                           f"{sorted(set(units) ^ set(res['metrics']))}")
        metrics = {k: (v, units[k], res["attempted"]) for k, v in res["metrics"].items()}
        details["checks"] = res["checks"]
        correct = res["failed"] == 0 and all(res["checks"].values())
    else:
        metrics, notes = end_to_end(args.workload, setups, res)
        details.update(notes)
        details["setup_samples_s"] = setups
        correct = res["failed"] == 0
    return {
        "details": details,
        "metrics": metrics,
        "summary": {
            "correct": correct,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        },
    }


def print_run(run: dict) -> None:
    d = run["details"]
    print(f"# {d['workload']}  seed={d['seed']}  trace={d['trace']}  "
          f"attempted={run['summary']['attempted']}  failed={run['summary']['failed']}")
    for name, (value, unit, n) in run["metrics"].items():
        print(f"{name:52s} {value:14.6g} {unit:6s} n={n}")
    print(json.dumps(d))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            run = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
            print_run(run)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(run["summary"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
