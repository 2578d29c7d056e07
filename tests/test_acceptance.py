"""Acceptance gate: the eight checks of ``lupoly.criteria`` at the acceptance counts and seeds.

Each test prints ``criterion N PASS/FAIL  <what was checked>  [elapsed < budget]``
directly to the terminal so the gate can be audited at a glance.
"""

import time

from lupoly import criteria


def gate(capsys, cid, samples, seed):
    """Run criterion ``cid`` within its time budget."""
    crit = criteria.CRITERIA[cid - 1]
    start = time.perf_counter()
    entry = criteria.run(crit, samples, seed)
    elapsed = time.perf_counter() - start
    passed = entry["passed"] and elapsed < crit.budget
    with capsys.disabled():
        print(
            f"criterion {cid} {'PASS' if passed else 'FAIL'}  {crit.name}: {entry['detail']}"
            f"  [{elapsed:.2f}s < {crit.budget:g}s]"
        )
    assert entry["passed"], entry["detail"]
    assert elapsed < crit.budget, f"time budget exceeded: {elapsed:.1f}s >= {crit.budget:g}s"


def test_criterion_1_three_qubit_dimensions(capsys):
    gate(capsys, 1, samples=5, seed=101)


def test_criterion_2_four_qubit_table(capsys):
    gate(capsys, 2, samples=5, seed=102)


def test_criterion_3_polytope_combinatorics(capsys):
    gate(capsys, 3, samples=1, seed=103)


def test_criterion_4_wall_operator_spectrum(capsys):
    gate(capsys, 4, samples=1, seed=104)


def test_criterion_5_oracle_agreement(capsys):
    gate(capsys, 5, samples=5, seed=105)


def test_criterion_6_stable_families(capsys):
    gate(capsys, 6, samples=1, seed=106)


def test_criterion_7_wall_certificate(capsys):
    gate(capsys, 7, samples=100, seed=107)


def test_criterion_8_property_suites(capsys):
    gate(capsys, 8, samples=1000, seed=200)  # Haar states from rng(200 + L), dualities rng(208)
