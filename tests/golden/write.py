"""Write ``cli.json`` and ``dim.json``, the golden outputs of lupoly.

Run from the repository root as ``python tests/golden/write.py``; it imports
lupoly from the ``src`` directory of the tree it sits in, so a copy of this
script in another checkout records that checkout's outputs.

``cli.json`` holds the command line: every command runs through
``cli.main`` in-process.  An entry keeps the argv, the exit code, stdout
and stderr; a ``sample-fiber`` entry keeps only the exit code and the
fields of ``FIBER_FIELDS``, since its amplitudes depend on the BLAS build.

``dim.json`` holds ``dim_for_point``: one bucket per point kind (exact,
float, mixed) and tolerance, each of ``DIM_COUNT`` seeded points, many of
them exactly at or within +-tol of 0, 1/2 and a wall.  A bucket keeps the
short digest of each point's document (a refusal's document is its
message) and the first ``DIM_FULL`` points and documents in full.
``tests/test_golden.py`` replays both files.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).with_name("cli.json")
DIM_CORPUS = Path(__file__).with_name("dim.json")
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


DIM_KINDS = ("exact", "float", "mixed")
DIM_COUNT = 1000
DIM_FULL = 10
HALF = Fraction(1, 2)
# qubit counts, small ones more often
DIM_QUBITS = (1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10, 11, 12)


def _wall_slack(lams: list, l: int) -> Fraction:
    """The wall slack of 0-based qubit l, written out: (L - 2)/2 - sum + 2 lambda_l."""
    return HALF * (len(lams) - 2) - sum(lams) + 2 * lams[l]


def dim_points(kind: str, tol: str) -> list[tuple]:
    """The seeded coordinate tuples of one ``dim.json`` bucket.

    Coordinates are drawn exactly on a grid of 1/120 in [0, 1/2]; then up
    to three edits put a coordinate exactly at 0, 1/2 or +-tol from either,
    or a wall slack at 0 or +-tol, with the exact cut Fraction(tol).  About
    one point in six is then pushed just outside the region, and one in 50
    has 13 qubits; any other draw outside the region is drawn again, so
    most points are members.  Float points round every coordinate; mixed
    points round a random non-empty proper subset.
    """
    rng = random.Random(f"{kind} {tol}")
    cut, step = Fraction(float(tol)), Fraction(1, 120)
    out = []
    while len(out) < DIM_COUNT:
        L = 13 if rng.random() < 0.02 else rng.choice(DIM_QUBITS)
        lams = [step * rng.randrange(61) for _ in range(L)]
        for _ in range(rng.randrange(4)):
            l, sign = rng.randrange(L), rng.choice((-1, 1))
            edge = rng.randrange(5)
            if edge == 0:
                lams[l] = sign * cut
            elif edge == 1:
                lams[l] = HALF + sign * cut
            elif edge == 2:
                lams[l] = 0
            elif edge == 3:
                lams[l] = HALF
            else:  # the wall slack of qubit l at exactly 0 or +-tol
                lams[l] += rng.choice((-1, 0, 1)) * cut - _wall_slack(lams, l)
        outside = L > 12 or rng.random() < 0.16
        if outside:  # just outside: below 0, above 1/2 or past a wall
            l = rng.randrange(L)
            past_wall = lams[l] - _wall_slack(lams, l) - cut - step
            lams[l] = rng.choice((-cut - step, HALF + cut + step, past_wall))
        # a wall slack grows with its own coordinate, so the smallest is the smallest coordinate's
        elif min(min(lams), HALF - max(lams), _wall_slack(lams, lams.index(min(lams)))) < -cut:
            continue
        if kind == "float":
            lams = [float(x) for x in lams]
        elif kind == "mixed" and L > 1:
            for l in rng.sample(range(L), rng.randrange(1, L)):
                lams[l] = float(lams[l])
        out.append(tuple(lams))
    return out


def dim_document(lams: tuple, tol: str):
    """The document of ``dim_for_point`` at these coordinates, or of its refusal."""
    from lupoly import SpectraPoint, ValidationError, dim_for_point, document

    try:
        return document(dim_for_point(SpectraPoint(lams), tol=float(tol)))
    except ValidationError as exc:
        return {"refused": str(exc)}


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:8]


def dim_bucket(points: list, docs: list) -> dict:
    """One bucket of ``dim.json``: the digest of every document and the first ones in full."""
    return {
        "digests": [digest(doc) for doc in docs],
        "full": [
            {"lambdas": [x if isinstance(x, float) else str(x) for x in lams], "document": doc}
            for lams, doc in zip(points[:DIM_FULL], docs)
        ],
    }


def dim_buckets() -> dict:
    """The name of each ``dim.json`` bucket and its point kind and tolerance."""
    return {f"{kind} tol={tol}": (kind, tol) for kind in DIM_KINDS for tol in TOLS}


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    entries = [run(argv) for argv in commands()]
    CORPUS.write_text(json.dumps(entries, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}")
    buckets = {}
    for name, (kind, tol) in dim_buckets().items():
        points = dim_points(kind, tol)
        buckets[name] = dim_bucket(points, [dim_document(lams, tol) for lams in points])
    DIM_CORPUS.write_text(json.dumps(buckets, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(buckets)} buckets of {DIM_COUNT} points to {DIM_CORPUS}")


if __name__ == "__main__":
    main()
