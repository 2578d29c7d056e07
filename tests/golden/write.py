"""Write ``cli.json``, the golden outputs of the lupoly command line.

Run from the repository root as ``python tests/golden/write.py``; it imports
lupoly from the ``src`` directory of the tree it sits in, so a copy of this
script in another checkout records that checkout's outputs.  Every command
runs through ``cli.main`` in-process.  An entry keeps the argv, the exit
code, stdout and stderr; a ``sample-fiber`` entry keeps only the exit code
and the fields of ``FIBER_FIELDS``, since its amplitudes depend on the BLAS
build.  ``tests/test_golden.py`` replays the file.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).with_name("cli.json")
TOLS = ("0", "1e-9", "0.01", "0.05")
FIBER_FIELDS = ("method", "iterations", "restarts")

# Exact, float and mixed (demoted to float) lambda lists of every stratum kind,
# and a few a tolerance moves between strata.
POINTS = (
    "1/10,1/5,3/20", "0.1,0.2,0.15", "1/10,0.2,3/20",  # interior
    "1/10,3/25,7/50,4/25,9/50,1/5", "0.1,0.12,0.14,0.16,0.18",
    "0,1/10,1/5,3/20", "0.0,0.1,0.2,0.15", "0,0,0", "1e-10,0.1,0.2,0.15",  # zero
    "1/2,1/10,1/5,3/20", "0.5,0.1,0.2,0.15", "1/2,0.1,1/5,0.15",  # 1/2
    "1/2,0,1/5,3/20", "0.5,0,0.2,0.15", "1/2,1/2,1/2", "0.5,0.5",  # 1/2 with zeros, all 1/2
    "0.2,0.4999999999,0.2000000001", "0.46,0.1,0.2,0.15",  # near 1/2
    "1/6,1/3,1/3", "0.16666666666666666,0.3333333333333333,0.3333333333333333",  # wall
    "0,1/3,1/3,1/3", "0.0,0.3333333333333333,0.3333333333333333,0.3333333333333333",
    "0.1676,0.3333,0.3333",  # near a wall
    "3/10,3/10", "0.3,0.3", "0,0",  # two qubits
    "2/5,0,3/10", "0.4,0.0,0.3",  # outside
)

# The refusals the CI workflow checks for exit code 1.
REFUSALS = (
    "selftest --samples 0", "selftest --samples 600",
    "oracle-dim --lambda 0.1,0.1,0.1 --samples 0", "stable -L 4 --alpha nan",
    "stable -L 4 --k1 0", "dim --lambda 0.1,0.2,0.15 --tol 0.5",
    "facets -L 13", "facets -L 1",
)

# Wall, Schmidt, all-1/2 and 1/2-plus-residual targets.
FIBER_TARGETS = (
    "1/6,1/3,1/3", "0.16666666666666666,0.3333333333333333,0.3333333333333333",
    "0.3,0.3", "0,0", "1/2,1/2,1/2", "0.5,0.5",
    "0.5,0.1,0.2,0.15", "0.5,0,0.2,0.15", "0.5,0,0,0.15,0.1", "0.1,0.5,0.5,0.2,0.15",
)
FIBER_SEEDS = ("0", "3", "7", "11")


def commands() -> list[list[str]]:
    out = []
    for point in POINTS:
        for name in ("classify", "dim"):
            out.extend([name, "--lambda", point, "--tol", tol] for tol in TOLS)
    for L in range(2, 9):
        out.append(["vertices", "-L", str(L)])
        out.append(["facets", "-L", str(L)])
    for L, d in ((2, 1), (3, 1), (3, 2), (4, 3), (5, 5), (6, 1), (3, 0), (3, 4)):
        out.append(["xspec", "-L", str(L), "-d", str(d)])
    out.extend(["wall-check", "-L", str(L)] for L in range(2, 11))
    out.extend(argv.split() for argv in REFUSALS)
    for target in FIBER_TARGETS:
        out.extend(["sample-fiber", "--lambda", target, "--seed", seed] for seed in FIBER_SEEDS)
    return out


def run(argv: list[str]) -> dict:
    """One entry: argv and exit code, with stdout and stderr or the sample's fields."""
    from lupoly import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals leave through exit
            code = exc.code
    entry = {"argv": argv, "code": code}
    if argv[0] == "sample-fiber":
        doc = json.loads(stdout.getvalue()) if code == 0 else {}
        entry["fields"] = {name: doc.get(name) for name in FIBER_FIELDS}
    else:
        entry["stdout"], entry["stderr"] = stdout.getvalue(), stderr.getvalue()
    return entry


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    entries = [run(argv) for argv in commands()]
    CORPUS.write_text(json.dumps(entries, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}")


if __name__ == "__main__":
    main()
