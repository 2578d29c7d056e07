"""Every public count, index, seed, tolerance, weight and float coordinate goes
through one integer and one real check.

Each entry below calls a public function with one argument replaced by a probe
value.  Every probe must raise ``ValidationError``, whose message names the
argument and its interval and ends with the probe; numpy integers and floats
pass as plain values.
"""

import math
import re

import numpy as np
import pytest

from lupoly import (
    PureState,
    SpectraPoint,
    ValidationError,
    build_wall_operator,
    classify,
    complement_pair_state,
    dim_for_point,
    eigenspace_basis,
    facets,
    haar_state,
    membership,
    numeric_dim,
    random_interior_point,
    random_local_unitaries,
    random_wall_point,
    reduce_one_qubit,
    sample_fiber,
    stable_state,
    torus_transitivity_check,
    verify_stable,
    vertices,
    vertices_oracle,
)
from lupoly import criteria
from lupoly.polytope import check_int, check_real

POINT = SpectraPoint((0.1, 0.2, 0.15))
RNG = np.random.default_rng
STATE = haar_state(3, RNG(1))
CRITERION = criteria.CRITERIA[3]  # the wall spectrum: exact and fast

# name -> call with the probed value in place of one argument
INTEGERS = {
    "PureState.num_qubits": lambda v: PureState(v, STATE.amplitudes),
    "PureState.basis.num_qubits": lambda v: PureState.basis(v, 0),
    "PureState.basis.index": lambda v: PureState.basis(2, v),
    "reduce_one_qubit.l": lambda v: reduce_one_qubit(STATE, v),
    "haar_state.num_qubits": lambda v: haar_state(v, RNG(0)),
    "random_local_unitaries.num_qubits": lambda v: random_local_unitaries(v, RNG(0)),
    "vertices.num_qubits": vertices,
    "vertices_oracle.num_qubits": vertices_oracle,
    "facets.num_qubits": facets,
    "random_interior_point.num_qubits": lambda v: random_interior_point(v, RNG(0)),
    "random_wall_point.num_qubits": lambda v: random_wall_point(v, RNG(0)),
    "build_wall_operator.num_qubits": build_wall_operator,
    "build_wall_operator.distinguished": lambda v: build_wall_operator(3, v),
    "eigenspace_basis.num_qubits": lambda v: eigenspace_basis(v, 1),
    "eigenspace_basis.k": lambda v: eigenspace_basis(3, v),
    "eigenspace_basis.distinguished": lambda v: eigenspace_basis(3, 1, v),
    "torus_transitivity_check.num_qubits": torus_transitivity_check,
    "complement_pair_state.num_qubits": lambda v: complement_pair_state(v, 1.0),
    "stable_state.num_qubits": stable_state,
    "sample_fiber.seed": lambda v: sample_fiber(POINT, seed=v),
    "numeric_dim.n_samples": lambda v: numeric_dim(POINT, n_samples=v),
    "numeric_dim.seed": lambda v: numeric_dim(POINT, seed=v),
    "criteria.run.samples": lambda v: criteria.run(CRITERION, v, 0),
    "criteria.run.seed": lambda v: criteria.run(CRITERION, 1, v),
    "criteria.selftest.samples": lambda v: criteria.selftest(v, 0),
    "criteria.selftest.seed": lambda v: criteria.selftest(1, v),
}
# arguments whose default None has a meaning of its own
OPTIONAL_INTEGERS = {
    "verify_stable.k1": lambda v: verify_stable(STATE, k1=v),
}
OPTIONAL_REALS = {
    "membership.tol": lambda v: membership(POINT, tol=v),
    "classify.tol": lambda v: classify(POINT, tol=v),
    "dim_for_point.tol": lambda v: dim_for_point(POINT, tol=v),
}
# any finite real passes
UNBOUNDED_REALS = {
    "SpectraPoint.coordinate": lambda v: SpectraPoint((v, 0.2, 0.15)),
}
OPTIONAL_UNBOUNDED_REALS = {
    "stable_state.alpha": lambda v: stable_state(4, v),
}

PROBES = (True, np.True_, 2.5, math.nan, math.inf, "1", None)
# 2.5 is a valid slack tolerance; -1.0 lies outside its interval
REAL_PROBES = (True, np.True_, -1.0, math.nan, math.inf, -math.inf, "1", None)
UNBOUNDED_PROBES = (True, np.True_, math.nan, math.inf, -math.inf, "1", None, 1j, [0.1])


def table(calls, probes, skip_none=False):
    return [
        pytest.param(call, probe, id=f"{name}={probe!r}")
        for name, call in calls.items()
        for probe in probes
        if not (skip_none and probe is None)
    ]


@pytest.mark.parametrize(
    "call, probe",
    table(INTEGERS, PROBES) + table(OPTIONAL_INTEGERS, PROBES, skip_none=True)
    + table(OPTIONAL_REALS, REAL_PROBES, skip_none=True)
    + table(UNBOUNDED_REALS, UNBOUNDED_PROBES)
    + table(OPTIONAL_UNBOUNDED_REALS, UNBOUNDED_PROBES, skip_none=True),
)
def test_bad_value_is_a_validation_error(call, probe):
    with pytest.raises(ValidationError, match=re.escape(f"got {probe!r}") + "$"):
        call(probe)


REPORTED = {
    "run-samples-0": (lambda: criteria.run(criteria.CRITERIA[0], 0, 0),
                      "samples must be an integer >= 1, got 0"),
    "run-seed-minus-1": (lambda: criteria.run(criteria.CRITERIA[0], 1, -1),
                         "seed must be an integer >= 0, got -1"),
    "run-samples-2.5": (lambda: criteria.run(criteria.CRITERIA[0], 2.5, 0),
                        "samples must be an integer >= 1, got 2.5"),
    "oracle-float-count": (lambda: vertices_oracle(4.0),
                           "vertices_oracle: the qubit count must be an integer in 2..6, got 4.0"),
    # from 1/4 on, a coordinate could count both as 0 and as 1/2
    "classify-quarter-tol": (lambda: classify(POINT, tol=0.25),
                             "slack tolerance must be a finite number in [0, 1/4), got 0.25"),
    "dim-half-tol": (lambda: dim_for_point(POINT, tol=0.5),
                     "slack tolerance must be a finite number in [0, 1/4), got 0.5"),
    "membership-bool-tol": (lambda: membership(POINT, tol=True),
                            "slack tolerance must be a finite number in [0, inf), got True"),
    "selftest-samples-past-criterion-5": (lambda: criteria.selftest(600, 0),
                                          "samples must be an integer in 1..512, got 600"),
    # no interval is named without a finite lower bound
    "alpha-string": (lambda: stable_state(4, "1"),
                     "alpha must be a finite number, got '1'"),
    "coordinate-string": (lambda: SpectraPoint(("0.1", 0.2, 0.15)),
                          "spectra coordinate must be a finite number, got '0.1'"),
    "int-past-float-range": (lambda: membership(POINT, tol=10**400),
                             f"slack tolerance must be a finite number in [0, inf), got {10**400}"),
}


@pytest.mark.parametrize("case", REPORTED)
def test_once_accepted_or_raw_errors(case):
    call, message = REPORTED[case]
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


def test_numpy_scalars_pass_as_plain_values():
    assert type(check_int(np.int64(3), "n", 1)) is int
    assert type(check_real(np.float64(0.5), "x", 0.0)) is float
    assert check_real(np.float32(0.25), "x", 0.0) == 0.25
    sample = sample_fiber(POINT, seed=np.int64(3))
    assert type(sample.seed) is int and sample.seed == 3
    estimate = numeric_dim(POINT, n_samples=np.int64(2), seed=np.int64(4))
    assert [a.seed for a in estimate.samples] == [4, 5] and estimate.status == "ok"
    assert membership(POINT, tol=np.float64(0.0)).member
    assert classify(POINT, tol=np.float64(1e-6)).residual_L == 3
    assert classify(SpectraPoint((np.float64(0.1), np.float32(0.2), 0.15))).residual_L == 3
    assert verify_stable(stable_state(4, np.float64(2.0)))
    assert verify_stable(stable_state(np.int64(5)), k1=np.int64(3))
    assert criteria.run(CRITERION, np.int64(1), np.int64(0))["passed"]
    assert PureState.basis(np.int64(2), np.int64(3)).amplitudes[3] == 1.0
    assert haar_state(np.int64(2), RNG(0)).num_qubits == 2
    assert len(vertices_oracle(np.int64(3)).vertices) == len(vertices(np.int64(3)).vertices) == 5
    assert len(facets(np.int64(4))) == 12
