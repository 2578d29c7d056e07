"""Run every workload over several seeds and write perfbench/BENCH_<label>.json.

    python3 perfbench/record.py --label seed --seeds 10

Each run is a separate ``run.py`` invocation, by default of
BENCHMARK.json's run_seconds.  For every workload and end-to-end metric
the file holds the values, their median and quartiles, and the quartile
spread as a share of the median; one traced run per workload (on the
first seed) gives the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchstats
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result line, provenance line) of one run.py invocation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(out[-1]), json.loads(out[-2])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    args = p.parse_args()
    seeds = list(range(1, args.seeds + 1))
    doc = {"label": args.label, "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for w in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(one_run(w, seed, args.seconds, 0))
            print(f"{w} seed {seed}: {json.dumps(runs[-1][0]['metrics'])}", file=sys.stderr)
        metrics = {}
        for name, first in runs[0][0]["metrics"].items():
            values = [r[0]["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {
                "unit": first["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": benchstats.quartile_spread(values),
                "values": values,
            }
        traced, traced_details = one_run(w, seeds[0], args.seconds, 1)
        doc["workloads"][w] = {
            "correct": all(r[0]["correct"] for r in runs),
            "attempted": sum(r[0]["attempted"] for r in runs),
            "failed": sum(r[0]["failed"] for r in runs),
            "tail_percentile": runs[0][1]["tail_percentile"],
            "end_to_end": metrics,
            "provenance": [r[1] for r in runs],
            "traced": {
                "seed": seeds[0],
                "correct": traced["correct"],
                "checks": traced_details["checks"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
        for name, m in metrics.items():
            print(f"{w:16s} {name:14s} median {m['median']:12.6g} {m['unit']:5s} spread {m['spread']:.3f}")
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
