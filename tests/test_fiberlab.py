"""Fiber sampling, the momentum differential, and the sampled dimension estimate."""

import math

import numpy as np
import pytest

from lupoly import (
    ConvergenceError,
    PureState,
    SampleAudit,
    SpectraPoint,
    ValidationError,
    haar_state,
    membership,
    momentum_differential_matrix,
    momentum_rank_report,
    numeric_dim,
    orbit_dimensions,
    psi_map,
    rank_dmu,
    sample_fiber,
    stable_state,
)
from lupoly import fiberlab

INTERIOR3 = SpectraPoint((0.1, 0.2, 0.15))


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

    def test_gives_up_honestly(self):
        with pytest.raises(ConvergenceError):
            sample_fiber(INTERIOR3, seed=0, max_iters=1, max_restarts=0)

    def test_failure_reports_best_residual(self, monkeypatch):
        seen = []
        spectra_residual = fiberlab._spectra_residual

        def recording(state, target):
            seen.append(spectra_residual(state, target))
            return seen[-1]

        monkeypatch.setattr(fiberlab, "_spectra_residual", recording)
        with pytest.raises(ConvergenceError) as exc:
            sample_fiber(INTERIOR3, seed=0, max_iters=3, max_restarts=2)
        assert len(seen) == 3 and min(seen) < seen[-1]
        assert f"(best residual {min(seen):.3e})" in str(exc.value)

    def test_early_stop_counts_iterations_done(self):
        # a product state is a critical point: its tangent gradient vanishes
        amps = PureState.basis(3, 0).amplitudes.copy()
        _, f, iterations = fiberlab._descend(
            amps, 3, INTERIOR3.as_array(), np.zeros(3, dtype=bool), 1e-10, 500
        )
        assert iterations == 0
        assert f > 0.1


class TestMomentumDifferential:
    def test_matrix_shape(self):
        state = haar_state(3, np.random.default_rng(1))
        assert momentum_differential_matrix(state).shape == (14, 9)
        assert momentum_differential_matrix(state, slots=(2,)).shape == (14, 3)

    def test_slot_bounds(self):
        state = haar_state(2, np.random.default_rng(2))
        with pytest.raises(ValidationError):
            momentum_differential_matrix(state, slots=(3,))

    def test_rank_at_product_state(self):
        assert rank_dmu(PureState.basis(4, 0)) == 8

    def test_rank_at_generic_state(self):
        assert rank_dmu(haar_state(3, np.random.default_rng(3))) == 9

    def test_rank_at_stable_state(self):
        assert rank_dmu(stable_state(5)) == 15

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

    def test_explicit_seeds_must_match_count(self):
        with pytest.raises(ValidationError, match="expected 3 seeds"):
            numeric_dim(INTERIOR3, n_samples=3, seeds=[1, 2])

    def test_sample_audits_recorded(self):
        estimate = numeric_dim(INTERIOR3, n_samples=2, seeds=[7, 9])
        assert [a.seed for a in estimate.samples] == [7, 9]
        for audit in estimate.samples:
            assert audit.regular
            assert audit.rank_dmu == 9
            assert audit.estimate == 2
            assert audit.residual <= 1e-10

    def test_document_shapes(self):
        doc = numeric_dim(INTERIOR3, n_samples=2).document()
        assert doc["dim_estimate"] == 2 and doc["status"] == "ok"
        assert len(doc["samples"]) == 2
        assert doc["samples"][0]["sv_gap"] is None or doc["samples"][0]["sv_gap"] > 0

    def test_audit_document_masks_infinite_gap(self):
        audit = SampleAudit(0, 9, 0, 2, 1e-12, math.inf, True)
        assert audit.document()["sv_gap"] is None
