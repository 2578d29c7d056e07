"""Fiber sampling, the momentum differential, and the sampled dimension estimate."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from lupoly import (
    ConvergenceError,
    PureState,
    SampleAudit,
    SpectraPoint,
    ValidationError,
    classify,
    haar_state,
    membership,
    momentum_differential_matrix,
    momentum_rank_report,
    numeric_dim,
    orbit_dimensions,
    psi_map,
    random_wall_point,
    rank_dmu,
    sample_fiber,
    stable_state,
)
from lupoly import fiberlab
from lupoly.qstate import MAX_QUBITS, apply_slot_operator, pauli_images
from lupoly.stability import PAULIS

INTERIOR3 = SpectraPoint((0.1, 0.2, 0.15))
WALL_SLACKS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 2e-9)


def near_wall_point(L, slack, seed):
    """A random_wall_point moved inward off the qubit-1 wall by the slack."""
    lams = list(random_wall_point(L, np.random.default_rng(seed)).lambdas)
    lams[0] += slack
    return SpectraPoint(tuple(lams))


# --- references: the per-slot tensordot forms the Pauli-image kernel replaced ---


def reference_objective_and_grad(amps, L, target, zero_mask):
    t = amps.reshape((2,) * L)
    f = 0.0
    grad = np.zeros_like(amps)
    for l in range(1, L + 1):
        axes = tuple(i for i in range(L) if i != l - 1)
        rho = np.tensordot(t, t.conj(), axes=(axes, axes))
        a = (rho[0, 0].real - rho[1, 1].real) / 2.0
        b = rho[0, 1]
        lam = math.hypot(a, abs(b))
        if zero_mask[l - 1]:
            f += lam * lam
            block = np.array([[a, b], [np.conj(b), -a]], dtype=np.complex128)
            grad += 2.0 * apply_slot_operator(amps, block, L, l)
        else:
            diff = lam - target[l - 1]
            f += diff * diff
            if abs(b) == 0.0 and lam - a == 0.0:
                u = np.array([1.0, 0.0], dtype=np.complex128)
            else:
                u = np.array([b, lam - a], dtype=np.complex128)
                u /= np.linalg.norm(u)
            grad += 4.0 * diff * apply_slot_operator(amps, np.outer(u, u.conj()), L, l)
    grad -= np.vdot(amps, grad) * amps
    return f, grad


def tangent_frame(amps):
    """Orthonormal complex basis of the orthogonal complement of amps."""
    a = np.eye(amps.size, dtype=np.complex128)
    a[:, 0] = amps
    q, _ = np.linalg.qr(a)
    return q[:, 1:]


def reference_dmu_matrix(state):
    """dmu in a real tangent frame: rows w_j and i*w_j, 2^{L+1} - 2 of them."""
    L = state.num_qubits
    phi_t = state.amplitudes.reshape((2,) * L)
    frame = tangent_frame(state.amplitudes)
    rows = []
    for j in range(frame.shape[1]):
        for v in (frame[:, j], 1j * frame[:, j]):
            v_t = v.reshape((2,) * L)
            row = []
            for l in range(1, L + 1):
                axes = tuple(i for i in range(L) if i != l - 1)
                m = np.tensordot(v_t, phi_t.conj(), axes=(axes, axes))
                block = m + m.conj().T
                for sigma in PAULIS:
                    row.append(float(np.trace(sigma @ block).real))
            rows.append(row)
    return np.array(rows)


def assert_dmu_matches_reference(state):
    # the frame is a real isometry onto the complement of phi and i*phi,
    # so both matrices share their Gram matrix and their singular values
    L = state.num_qubits
    got, ref = momentum_differential_matrix(state), reference_dmu_matrix(state)
    assert got.shape == (2**(L + 1), 3 * L)
    amps = state.amplitudes
    for v in (amps, 1j * amps):
        assert np.allclose(np.concatenate([v.real, v.imag]) @ got, 0.0, rtol=0, atol=1e-12)
    assert np.allclose(got.T @ got, ref.T @ ref, rtol=0, atol=1e-12)
    got_s, ref_s = (np.linalg.svd(m, compute_uv=False) for m in (got, ref))
    assert np.allclose(got_s[:ref_s.size], ref_s, rtol=0, atol=1e-12)
    assert np.all(got_s[ref_s.size:] <= 1e-12)  # the one extra value at L = 1


def ghz_state(L):
    amps = np.zeros(2**L, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / math.sqrt(2)
    return PureState(L, amps)


def objective_cases():
    rng = np.random.default_rng(70)
    for L in range(1, 8):
        state = haar_state(L, rng)
        target = rng.uniform(0.0, 0.5, L)
        yield f"haar-L{L}", state.amplitudes, target, rng.random(L) < 0.5
    # a product state: Bloch vectors +z, -z, +z with nonzero targets
    product = PureState.basis(3, 0b010).amplitudes
    yield "product", product, np.array([0.1, 0.2, 0.15]), np.zeros(3, dtype=bool)
    for masked in (False, True):
        # r = 0 at every slot: rhat defaults to z
        yield f"ghz-mask-{masked}", ghz_state(4).amplitudes, np.full(4, 0.1), np.full(4, masked)


class TestPauliImageKernel:
    @pytest.mark.parametrize("L", range(1, 11))
    def test_rows_match_slot_operator(self, L):
        amps = haar_state(L, np.random.default_rng(L)).amplitudes
        images = pauli_images(amps, L)
        assert images.shape == (3 * L, 2**L)
        for l in range(1, L + 1):
            for k, sigma in enumerate(PAULIS):
                expected = apply_slot_operator(amps, sigma, L, l)
                assert np.allclose(images[3 * (l - 1) + k], expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("case", list(objective_cases()), ids=lambda c: c[0])
    def test_objective_matches_reference(self, case):
        _, amps, target, zero_mask = case
        L = amps.size.bit_length() - 1
        e, g = fiberlab._residuals_and_jacobian(amps, L, target, zero_mask)
        assert e.shape == (L + 2 * zero_mask.sum(),) and g.shape == (e.size, 2**L)
        f_ref, grad_ref = reference_objective_and_grad(amps, L, target, zero_mask)
        assert e @ e == pytest.approx(f_ref, rel=0, abs=1e-12)
        assert np.allclose(2.0 * e @ g, grad_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("masked", (False, True))
    def test_gradient_matches_finite_differences(self, masked):
        # each Jacobian row is the tangent gradient of its residual
        rng = np.random.default_rng(71)
        L = 4
        amps = haar_state(L, rng).amplitudes
        target = np.array([0.1, 0.2, 0.15, 0.05])
        zero_mask = np.array([masked, False, False, masked])
        _, g = fiberlab._residuals_and_jacobian(amps, L, target, zero_mask)
        h = 1e-6
        for _ in range(5):
            d = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
            d -= np.vdot(amps, d) * amps  # a tangent direction at phi
            d /= np.linalg.norm(d)

            def e(t):
                moved = amps + t * d
                moved /= np.linalg.norm(moved)
                return fiberlab._residuals_and_jacobian(moved, L, target, zero_mask)[0]

            slopes = (e(h) - e(-h)) / (2 * h)
            assert np.allclose(slopes, (g.conj() @ d).real, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("L", range(1, 8))
    def test_dmu_matrix_matches_reference(self, L):
        assert_dmu_matches_reference(haar_state(L, np.random.default_rng(80 + L)))

    @pytest.mark.parametrize(
        "state", (PureState.basis(4, 0b0110), ghz_state(4)), ids=("product", "ghz")
    )
    def test_dmu_matrix_special_states_match_reference(self, state):
        assert_dmu_matches_reference(state)


class TestSampleFiber:
    def test_interior_target_reached(self):
        sample = sample_fiber(INTERIOR3, seed=3)
        assert sample.method == "descent"
        assert sample.residual <= 1e-10
        got = psi_map(sample.state).as_array()
        assert np.allclose(got, INTERIOR3.as_array(), atol=1e-9)
        assert membership(psi_map(sample.state)).member

    def test_deterministic_per_seed(self):
        a = sample_fiber(INTERIOR3, seed=11)
        b = sample_fiber(INTERIOR3, seed=11)
        assert np.array_equal(a.state.amplitudes, b.state.amplitudes)

    def test_zero_coordinate_target(self):
        target = SpectraPoint((0.0, 0.1, 0.2, 0.15))
        sample = sample_fiber(target, seed=5)
        assert sample.residual <= 1e-10

    def test_wall_target_uses_construction(self):
        target = SpectraPoint.exact(["1/6", "1/3", "1/3"])
        sample = sample_fiber(target, seed=0)
        assert sample.method == "wall-construction"
        assert sample.iterations == 0 and sample.restarts == 0
        assert sample.residual <= 1e-10

    def test_two_qubit_target_is_schmidt_pair(self):
        sample = sample_fiber(SpectraPoint((0.3, 0.3)), seed=0)
        assert sample.method == "schmidt"
        weights = np.abs(sample.state.amplitudes) ** 2
        assert weights[0] == pytest.approx(0.8)
        assert weights[3] == pytest.approx(0.2)

    def test_half_coordinates_split_off_product_factors(self):
        target = SpectraPoint.exact(["1/2", "1/10", "1/5", "3/20"])
        sample = sample_fiber(target, seed=2)
        assert sample.method == "product"
        # qubit 1 sits in |0>, so only the first half of the register is populated
        assert np.abs(sample.state.amplitudes[8:]).max() == 0.0
        assert sample.residual <= 1e-10

    def test_fully_separable_target(self):
        sample = sample_fiber(SpectraPoint.exact(["1/2"] * 3), seed=0)
        assert sample.method == "product"
        assert np.abs(sample.state.amplitudes[0]) == pytest.approx(1.0)

    def test_outside_target_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            sample_fiber(SpectraPoint((0.4, 0.0, 0.3)))

    @pytest.mark.parametrize("tol", (-1.0, 0.0, math.nan, math.inf))
    def test_bad_tolerance_refused_before_sampling(self, tol, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(fiberlab, "_exact_start", no_sampling)
        monkeypatch.setattr(fiberlab, "haar_state", no_sampling)
        with pytest.raises(ValidationError, match="residual tolerance"):
            sample_fiber(INTERIOR3, tol=tol)

    def test_gives_up_honestly(self):
        with pytest.raises(ConvergenceError):
            sample_fiber(INTERIOR3, seed=0, max_iters=1, max_restarts=0)

    def test_failure_reports_best_residual(self, monkeypatch):
        # three staged attempts of known residual, the best one in the middle
        target = INTERIOR3.as_array()
        rng = np.random.default_rng(0)
        staged = sorted((haar_state(3, rng) for _ in range(3)),
                        key=lambda s: fiberlab._spectra_residual(s, target))
        staged = [staged[1], staged[0], staged[2]]
        residuals = [f"{fiberlab._spectra_residual(s, target):.3e}" for s in staged]
        attempts = iter(staged)
        monkeypatch.setattr(fiberlab, "_descend",
                            lambda *args: (next(attempts).amplitudes, 1.0, 7))
        with pytest.raises(ConvergenceError) as exc:
            sample_fiber(INTERIOR3, seed=0, max_restarts=2)
        assert next(attempts, None) is None
        assert len(set(residuals)) == 3
        assert f"(best residual {residuals[1]})" in str(exc.value)

    @pytest.mark.parametrize("slack", WALL_SLACKS)
    @pytest.mark.parametrize("L", (3, 4, 5))
    def test_near_wall_target_reached_fast(self, L, slack):
        target = near_wall_point(L, slack, seed=[L, WALL_SLACKS.index(slack)])
        assert classify(target).tight_walls == ()
        start = time.perf_counter()
        sample = sample_fiber(target, seed=L)
        elapsed = time.perf_counter() - start
        assert sample.method == "descent"
        off = np.linalg.norm(psi_map(sample.state).as_array() - target.as_array())
        assert off <= 1e-10 and sample.residual <= 1e-10
        assert membership(psi_map(sample.state)).member
        assert elapsed < 1.0, f"{elapsed:.3f} s"

    def test_descent_never_raises_the_objective(self):
        # near a product state the Jacobian is tiny and an undamped step overshoots
        rng = np.random.default_rng(0)
        target = INTERIOR3.as_array()
        for _ in range(20):
            start = PureState.basis(3, 0).amplitudes + 1e-3 * (
                rng.normal(size=8) + 1j * rng.normal(size=8))
            start /= np.linalg.norm(start)
            objectives = [
                fiberlab._descend(start.copy(), 3, target, np.zeros(3, dtype=bool), 1e-10, n)[1]
                for n in range(8)
            ]
            assert objectives == sorted(objectives, reverse=True)

    def test_failing_call_ends_fast(self, monkeypatch):
        # residuals that shrink on every evaluation but never reach tol: each
        # attempt runs all max_iters steps, so this is the slowest failing call
        residuals_and_jacobian = fiberlab._residuals_and_jacobian
        calls = []

        def creeping(amps, L, target, zero_mask):
            calls.append(None)
            e, g = residuals_and_jacobian(amps, L, target, zero_mask)
            return np.abs(e) + 0.5 ** (len(calls) / 200), g

        monkeypatch.setattr(fiberlab, "_residuals_and_jacobian", creeping)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="after 5 restarts"):
            sample_fiber(SpectraPoint((0.1, 0.12, 0.1, 0.13, 0.1, 0.11)), seed=0)
        elapsed = time.perf_counter() - start
        assert len(calls) == (fiberlab.MAX_RESTARTS + 1) * (fiberlab.MAX_ITERS + 1)
        assert elapsed < 1.0, f"{elapsed:.3f} s"

    def test_early_stop_counts_iterations_done(self):
        # a product state is a critical point: its Jacobian rows vanish
        amps = PureState.basis(3, 0).amplitudes.copy()
        _, f, iterations = fiberlab._descend(
            amps, 3, INTERIOR3.as_array(), np.zeros(3, dtype=bool), 1e-10, 500
        )
        assert iterations == 0
        assert f > 0.1


class TestMomentumDifferential:
    def test_matrix_shape(self):
        state = haar_state(3, np.random.default_rng(1))
        assert momentum_differential_matrix(state).shape == (16, 9)

    @pytest.mark.parametrize("rank_tol", (2.0, 1.0, 0.0, math.nan))
    def test_bad_rank_tolerance_refused(self, rank_tol):
        # rank_tol = 2 would put the cut above the top singular value (rank 0)
        with pytest.raises(ValidationError, match="rank tolerance must be a finite number"):
            rank_dmu(haar_state(3, np.random.default_rng(4)), rank_tol=rank_tol)

    def test_rank_at_product_state(self):
        assert rank_dmu(PureState.basis(4, 0)) == 8

    def test_rank_at_generic_state(self):
        assert rank_dmu(haar_state(3, np.random.default_rng(3))) == 9

    def test_rank_at_stable_state(self):
        assert rank_dmu(stable_state(5)) == 15

    def test_rank_at_max_qubits(self):
        # no 2^L x 2^L array: a dense tangent frame alone needs about 1 GiB at L = 12
        state = haar_state(MAX_QUBITS, np.random.default_rng(5))
        tracemalloc.start()
        try:
            rank = rank_dmu(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank == 3 * MAX_QUBITS
        assert peak < 32 * 2**20, f"{peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("num_qubits", (2, 3, 4))
    def test_rank_duality(self, num_qubits):
        rng = np.random.default_rng(40 + num_qubits)
        for _ in range(5):
            state = haar_state(num_qubits, rng)
            iso = orbit_dimensions(state).dim_isotropy_algebra
            assert rank_dmu(state) == 3 * num_qubits - iso

    def test_report_fields(self):
        report = momentum_rank_report(stable_state(5))
        assert report.rank == 15
        assert len(report.singular_values) == 15
        assert report.gap > 10.0
        assert not report.ill_conditioned


class TestNumericDim:
    def test_interior_three_qubits(self):
        estimate = numeric_dim(INTERIOR3, n_samples=3)
        assert estimate.dim_estimate == 2
        assert estimate.status == "ok"
        assert estimate.regular
        assert estimate.agreement == 3
        assert estimate.dim_k_alpha == 3

    def test_zero_stratum_four_qubits(self):
        estimate = numeric_dim(SpectraPoint((0.0, 0.1, 0.2, 0.15)), n_samples=3)
        assert estimate.dim_estimate == 12
        assert estimate.dim_k_alpha == 6

    def test_ghz_vertex_four_qubits(self):
        estimate = numeric_dim(SpectraPoint((0.0, 0.0, 0.0, 0.0)), n_samples=3)
        assert estimate.dim_estimate == 6
        assert estimate.dim_k_alpha == 12

    def test_interior_five_qubits(self):
        estimate = numeric_dim(SpectraPoint((0.1, 0.1, 0.1, 0.1, 0.1)), n_samples=3)
        assert estimate.dim_estimate == 42

    def test_half_coordinates_refused(self):
        with pytest.raises(ValidationError, match="^singular value of mu"):
            numeric_dim(SpectraPoint.exact(["1/2", "1/10", "1/5", "3/20"]))

    def test_tight_wall_refused(self):
        with pytest.raises(ValidationError, match="^singular value of mu"):
            numeric_dim(SpectraPoint.exact(["1/6", "1/3", "1/3"]))

    def test_nonmember_refused(self):
        with pytest.raises(ValidationError, match="outside"):
            numeric_dim(SpectraPoint((0.4, 0.0, 0.3)))

    @pytest.mark.parametrize(
        "kwargs",
        ({"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf}, {"rank_tol": 0.0},
         {"rank_tol": 1.0}, {"rank_tol": -1e-8}, {"rank_tol": math.nan}),
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bad_tolerances_refused_before_sampling(self, kwargs, monkeypatch):
        def no_sampling(*args, **kw):
            raise AssertionError("sampling started")

        monkeypatch.setattr(fiberlab, "sample_fiber", no_sampling)
        with pytest.raises(ValidationError, match="tolerance must be a finite number"):
            numeric_dim(INTERIOR3, n_samples=2, **kwargs)

    def test_explicit_seeds_must_match_count(self):
        with pytest.raises(ValidationError, match="expected 3 seeds"):
            numeric_dim(INTERIOR3, n_samples=3, seeds=[1, 2])
        with pytest.raises(ValidationError, match="n_samples must be at least 1, got 0"):
            numeric_dim(INTERIOR3, n_samples=0)

    def test_sample_audits_recorded(self):
        estimate = numeric_dim(INTERIOR3, n_samples=2, seeds=[7, 9])
        assert [a.seed for a in estimate.samples] == [7, 9]
        for audit in estimate.samples:
            assert audit.regular
            assert audit.rank_dmu == 9
            assert audit.estimate == 2
            assert audit.residual <= 1e-10
            sample = sample_fiber(INTERIOR3, seed=audit.seed)
            assert (audit.iterations, audit.restarts) == (sample.iterations, sample.restarts)
            assert audit.iterations > 0

    def test_document_shapes(self):
        doc = numeric_dim(INTERIOR3, n_samples=2).document()
        assert doc["dim_estimate"] == 2 and doc["status"] == "ok"
        assert len(doc["samples"]) == 2
        assert doc["samples"][0]["sv_gap"] is None or doc["samples"][0]["sv_gap"] > 0

    def test_audit_document_masks_infinite_gap(self):
        audit = SampleAudit(0, 9, 0, 2, 1e-12, math.inf, True, 40, 0)
        assert audit.document()["sv_gap"] is None
