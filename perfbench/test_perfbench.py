"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import benchstats  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402


# --- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, want",
    [(0, None), (19, None), (20, 50.0), (24, 50.0), (25, 60.0), (34, 70.0), (40, 75.0),
     (50, 80.0), (99, 80.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_ops_beyond(n, want):
    assert benchstats.tail_percentile(n) == want
    if want is not None:
        values = list(range(n))
        assert sum(v > benchstats.percentile(values, want) for v in values) >= 10


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert benchstats.percentile(values, 50) == 50
    assert benchstats.percentile(values, 90) == 90
    assert benchstats.percentile(values, 99.9) == 100
    assert benchstats.percentile([7.0], 75) == 7.0


def test_quartile_spread():
    assert benchstats.quartile_spread([10.0] * 10) == 0.0
    assert benchstats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(3.0 / 3.0)


# --- spans and self time -------------------------------------------------------


def _tracer_with(spans):
    """A tracer holding (name, start, end, parent index) spans."""
    tr = tracer.Tracer()
    for name, start, end, parent in spans:
        tr.name_idx.append(tr._name_id(name))
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
        tr.op.append(0)
    return tr


def test_self_time_subtracts_direct_children_and_busy_skips_recursion():
    tr = _tracer_with([
        ("op", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
        ("a", 6.0, 8.0, 3),  # recursive call inside the second "a"
    ])
    agg = tr.aggregate()
    assert agg["op"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert agg["a"] == {"calls": 3, "busy_s": 7.0, "self_s": 6.0}
    assert agg["b"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert sum(r["self_s"] for r in agg.values()) == tr.root_seconds() == 10.0


def test_wrapped_calls_nest_and_self_times_add_up():
    tr = tracer.Tracer()

    def inner(x):
        return x + 1

    inner_t = tr.wrap("inner", inner)

    def outer(x):
        return inner_t(x) + inner_t(x)

    outer_t = tr.wrap("outer", outer)
    assert tr.run_op(7, outer_t, 1) == 4
    agg = tr.aggregate()
    assert agg["op"]["calls"] == agg["outer"]["calls"] == 1
    assert agg["inner"]["calls"] == 2
    assert list(tr.parent) == [-1, 0, 1, 1]
    assert list(tr.op) == [7, 7, 7, 7]
    assert sum(r["self_s"] for r in agg.values()) == pytest.approx(tr.root_seconds(), abs=1e-12)


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    import lupoly
    from lupoly import dimension, fiberlab, polytope
    from lupoly.qstate import SpectraPoint

    original = polytope.classify
    tr = tracer.Tracer()
    with tr:
        assert polytope.classify is not original
        assert dimension.classify is polytope.classify is fiberlab.classify is lupoly.classify
        tr.run_op(0, dimension.dim_for_point, SpectraPoint.exact(["1/10", "1/5", "3/20"]))
    assert polytope.classify is original and dimension.classify is original
    names = [tr.names[i] for i in tr.name_idx]
    assert names[:4] == ["op", "dimension.dim_for_point", "polytope.classify", "polytope.membership"]
    parents = list(tr.parent)
    assert parents[:4] == [-1, 0, 1, 2]


def test_counters_come_from_results():
    from lupoly import polytope

    tr = tracer.Tracer()
    with tr:
        polytope.vertices_oracle(3)
    agg = tr.aggregate()
    assert tr.counters["polytope.vertices_oracle.subsystems"] == 84
    assert tr.counters["polytope.vertices_oracle.found"] == 2**3 - 3
    assert agg["exact.solve_unique"]["calls"] == 84


def test_traced_and_untraced_ops_agree():
    import workloads
    from worker import closed_loop

    wl = workloads.ExactPolytope(seed=3)
    plain = closed_loop(wl, count=240, keep_digests=True)
    tr = tracer.Tracer()
    with tr:
        traced = closed_loop(wl, count=240, tracer=tr, keep_digests=True)
    assert plain.failed == traced.failed == 0
    assert plain.digests == traced.digests


# --- seeded inputs -------------------------------------------------------------

GENERATORS = [
    lambda s: inputs.exact_queries(s, 2),
    lambda s: inputs.interior_targets(s, 2),
    lambda s: inputs.nearwall_targets(s, 1),
    lambda s: inputs.cli_commands(s, 1),
    inputs.failing_band_target,
]


@pytest.mark.parametrize("make", GENERATORS)
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(5) == make(5)
    assert make(5) != make(6)


def _mu_slacks(lams):
    mus = [Fraction(1, 2) - Fraction(x) for x in lams]
    return [sum(mus) - 2 * m for m in mus]


@pytest.mark.parametrize("kind", inputs.STRATA)
@pytest.mark.parametrize("L", [3, 4, 7, 12])
def test_stratum_points_sit_in_their_stratum(kind, L):
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(5):
        q = inputs.stratum_point(L, kind, rng)
        lams = q["lambdas"]
        assert all(0 <= x <= Fraction(1, 2) for x in lams)
        assert q["half"] == tuple(l for l in range(1, L + 1) if lams[l - 1] == Fraction(1, 2))
        assert q["zero"] == tuple(l for l in range(1, L + 1) if lams[l - 1] == 0)
        slacks = _mu_slacks(lams)
        assert min(slacks) >= 0
        if len(q["half"]) <= L - 3:  # walls are read off only for residuals of 3+
            assert q["tight"] == tuple(l for l in range(1, L + 1) if slacks[l - 1] == 0)


def test_paper_dim_matches_the_paper_values():
    for L, dim in inputs.PAPER_INTERIOR.items():
        assert inputs.paper_dim(L) == dim
    assert inputs.paper_dim(4, k_zero=1) == 12  # 14 - 2 per zero coordinate
    assert inputs.paper_dim(4, k_zero=4) == 6
    assert inputs.paper_dim(3, k_zero=1) == 0
    assert inputs.paper_dim(5, k_half=1) == 14
    assert inputs.paper_dim(5, wall=True) == 0


def test_nearwall_targets_keep_their_slack():
    for t in inputs.nearwall_targets(2, 1):
        slacks = _mu_slacks(t["lambdas"])
        assert slacks[0] == pytest.approx(t["slack"], rel=1e-6)
        assert 1e-4 <= t["slack"] <= 1e-2 and min(slacks[1:]) > t["slack"]


# --- the benchmark definition ------------------------------------------------


def test_benchmark_json_matches_the_code():
    import run
    from worker import per_layer_names

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert f"p{run.TAIL_PERCENTILE[w['name']]:g}" in w["why"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mib"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-polytope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
