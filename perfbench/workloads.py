"""The four workloads: inputs, one timed op, and the check of its output.

Ops call lupoly through module attributes (``fiberlab.sample_fiber``),
so a traced run sees them; checks use the functions bound at import
here, so they never show up as spans.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np

import inputs
import lupoly
from lupoly import dimension, fiberlab, polytope, schemas
from lupoly.polytope import membership as membership_ref
from lupoly.qstate import SpectraPoint
from lupoly.qstate import psi_map as psi_map_ref

ROOT = Path(__file__).resolve().parent.parent
FIBER_TOL = 1e-10
# A one-shot process that has not exited by then counts as failed.
CLI_DEADLINE_S = 60.0
# Deadline for the failing-band sample-fiber probe; its latency reads as this.
FAILBAND_DEADLINE_S = 2.0


class ExactPolytope:
    """dim_for_point on exact and float points built in known strata."""

    name = "exact-polytope"

    def __init__(self, seed: int) -> None:
        self.inputs = inputs.exact_queries(seed, rounds=16)

    def warm_up(self) -> None:
        for q in self.inputs[:120]:
            self.run(q)

    def run(self, q):
        return dimension.dim_for_point(SpectraPoint(q["lambdas"]))

    def check(self, q, result) -> bool:
        stratum, report = result
        return (
            stratum.half_qubits == q["half"]
            and stratum.zero_qubits == q["zero"]
            and stratum.tight_walls == q["tight"]
            and report.dim_M == q["dim"]
            and report.num_invariants == q["dim"] + q["L"]
        )

    def digest(self, result):
        stratum, report = result
        return (stratum.half_qubits, stratum.zero_qubits, stratum.tight_walls, report.dim_M)


def crosscheck():
    """Closed-form vertices against the brute-force oracle, and the facet count.

    Returns (all checks pass, the oracle's vertex sets and facet counts).
    """
    ok = True
    found = []
    for L in range(2, 7):
        closed = polytope.vertices(L)
        oracle = polytope.vertices_oracle(L)
        ok &= len(oracle.vertices) == 2**L - L
        ok &= closed.coordinate_set() == oracle.coordinate_set()
        ok &= sorted(closed.labels()) == sorted(oracle.labels())
        found.append(sorted((v.label, v.point.lambdas) for v in oracle.vertices))
    for L in range(4, 9):
        count = len(polytope.facets(L))
        ok &= count == 3 * L
        found.append(count)
    return bool(ok), found


class FiberInterior:
    """numeric_dim with five samples on interior targets, some with a zero coordinate."""

    name = "fiber-interior"

    def __init__(self, seed: int) -> None:
        self.inputs = inputs.interior_targets(seed, rounds=40)

    def warm_up(self) -> None:
        self.run(next(t for t in self.inputs if t["L"] == 3))

    def run(self, t):
        return fiberlab.numeric_dim(SpectraPoint(t["lambdas"]), n_samples=5)

    def check(self, t, est) -> bool:
        return est.status == "ok" and est.dim_estimate == t["dim"]

    def digest(self, est):
        return (est.status, est.dim_estimate,
                tuple((a.rank_dmu, a.dim_isotropy, a.residual) for a in est.samples))


def verified(target_lams, amps) -> bool:
    """psi_map of the returned state matches the target and is a member point."""
    state = lupoly.PureState(int(round(math.log2(amps.size))), amps)
    achieved = psi_map_ref(state)
    off = float(np.linalg.norm(achieved.as_array() - np.asarray(target_lams, dtype=float)))
    return off <= FIBER_TOL and membership_ref(achieved).member


class FiberNearwall:
    """sample_fiber on L = 3 targets a log-uniform slack in [1e-4, 1e-2] off a wall."""

    name = "fiber-nearwall"

    def __init__(self, seed: int) -> None:
        self.inputs = inputs.nearwall_targets(seed, rounds=48)

    def warm_up(self) -> None:
        self.run(max(self.inputs, key=lambda t: t["slack"]))

    def run(self, t):
        return fiberlab.sample_fiber(SpectraPoint(t["lambdas"]), seed=t["seed"])

    def check(self, t, sample) -> bool:
        return verified(t["lambdas"], sample.state.amplitudes)

    def digest(self, sample):
        return (sample.iterations, sample.restarts, sample.method,
                sample.state.amplitudes.tobytes())


# --- one-shot command lines --------------------------------------------------

SCHEMA_FOR = {
    "psi": "spectra",
    "classify": "stratum",
    "dim": "dim",
    "vertices": "vertices",
    "facets": "facets",
    "xspec": "xspec",
    "wall-check": "torus",
    "stable": "stability",
    "sample-fiber": "fiber",
    "oracle-dim": "estimate",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stdin=None, timeout=CLI_DEADLINE_S, trace_out=None):
    """Run one lupoly process to exit; returns (exit code or None on timeout, stdout)."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "lupoly.cli", *argv]
    else:
        cmd = [sys.executable, str(ROOT / "perfbench" / "clitrace.py"), trace_out, *argv]
    try:
        proc = subprocess.run(
            cmd,
            input=None if stdin is None else json.dumps(stdin),
            capture_output=True,
            text=True,
            timeout=timeout,
            env=child_env(),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout


class CliOneshot:
    """One ``python -m lupoly.cli`` process per op, output checked against its schema."""

    name = "cli-oneshot"

    def __init__(self, seed: int) -> None:
        self.inputs = inputs.cli_commands(seed, rounds=12)
        self.failband = inputs.failing_band_target(seed)
        self.validators = {
            name: jsonschema.Draft202012Validator(schemas.load(name))
            for name in set(SCHEMA_FOR.values()) | {"state"}
        }
        self.trace_out = None  # set by the worker for a traced phase

    def warm_up(self) -> None:
        run_child(["xspec", "-L", "3"])

    def run(self, cmd):
        out = None if self.trace_out is None else self.trace_out()
        return run_child(cmd["argv"], cmd.get("stdin"), trace_out=out)

    def check(self, cmd, result) -> bool:
        code, stdout = result
        if code != 0:
            return False
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        sub = cmd["argv"][0]
        if not self.validators[SCHEMA_FOR[sub]].is_valid(doc):
            return False
        return check_document(sub, cmd, doc, self.validators["state"])

    def digest(self, result):
        return result

    def probe_failband(self) -> dict:
        """The failing-band target under FAILBAND_DEADLINE_S; outside the op stream."""
        t = self.failband
        argv = ["sample-fiber", "--lambda", ",".join(repr(x) for x in t["lambdas"]),
                "--seed", str(t["seed"] % 1000)]
        code, stdout = run_child(argv, timeout=FAILBAND_DEADLINE_S)
        ok = False
        if code == 0:
            doc = json.loads(stdout)
            amps = np.array([complex(re, im) for re, im in doc["state"]["amplitudes"]])
            ok = verified(t["lambdas"], amps)
        return {"slack": t["slack"], "exit": code, "verified": ok}


def _same_stratum(doc, q) -> bool:
    return (
        tuple(doc["half_qubits"]) == q["half"]
        and tuple(doc["zero_qubits"]) == q["zero"]
        and tuple(doc["tight_walls"]) == q["tight"]
    )


def check_document(sub: str, cmd: dict, doc: dict, state_validator) -> bool:
    """Check a CLI document against references that do not call the CLI's code path."""
    q = cmd.get("expect")
    argv = cmd["argv"]
    L = int(argv[argv.index("-L") + 1]) if "-L" in argv else None
    if sub == "dim":
        return (doc["dim_M"] == q["dim"] and doc["num_invariants"] == q["dim"] + len(q["lambdas"])
                and _same_stratum(doc["classification"], q))
    if sub == "classify":
        return doc["member"] and _same_stratum(doc, q)
    if sub == "vertices":
        return doc["count"] == 2**L - L == len(doc["vertices"])
    if sub == "facets":
        return doc["count"] == 3 * L == len(doc["facets"])
    if sub == "xspec":
        want = {-L + 2 * k: math.comb(L, k) for k in range(L + 1)}
        got = {int(round(e["eigenvalue"])): e["multiplicity"] for e in doc["spectrum"]}
        return got == want and doc["low_eigenspace"]["dim"] == L
    if sub == "wall-check":
        return doc["rank"] == L and doc["transitive"] is True
    if sub == "psi":
        amps = np.array([complex(re, im) for re, im in cmd["stdin"]["amplitudes"]])
        want = inputs.independent_spectra(amps)
        return bool(np.abs(np.array(doc["lambdas"]) - want).max() <= 1e-9)
    if sub == "sample-fiber":
        if not state_validator.is_valid(doc["state"]):
            return False
        amps = np.array([complex(re, im) for re, im in doc["state"]["amplitudes"]])
        return verified(q["lambdas"], amps)
    if sub == "stable":
        return doc["stable"] is True
    if sub == "oracle-dim":
        return doc["status"] == "ok" and doc["dim_estimate"] == q["dim"]
    raise ValueError(f"no check for subcommand {sub!r}")


WORKLOADS = {w.name: w for w in (ExactPolytope, FiberInterior, FiberNearwall, CliOneshot)}
