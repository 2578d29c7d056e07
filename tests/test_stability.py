"""Generator bases, orbit/isotropy ranks, and the stable zero-momentum families."""

import math

import numpy as np
import pytest

from lupoly import (
    PureState,
    ValidationError,
    complement_pair_state,
    generator_set,
    haar_state,
    momentum_map,
    orbit_dimensions,
    stable_state,
    verify_stable,
)
from lupoly.stability import factor_inner

GHZ3 = PureState.from_amplitudes([np.sqrt(0.5), 0, 0, 0, 0, 0, 0, np.sqrt(0.5)])
GHZ4 = PureState.from_amplitudes(
    [np.sqrt(0.5) if i in (0, 15) else 0.0 for i in range(16)]
)


class TestGenerators:
    def test_counts_and_slots(self):
        gens = generator_set(4)
        assert len(gens.compact) == 12 and len(gens.complexified) == 12
        assert [op.slot for op in gens.compact] == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]

    def test_labels(self):
        gens = generator_set(2)
        assert gens.compact[0].label == "i*sigma_x@1"
        assert gens.complexified[5].label == "H@2"

    def test_compact_factors_orthonormal(self):
        gens = generator_set(1)
        factors = [op.factor for op in gens.compact]
        for i, a in enumerate(factors):
            for j, b in enumerate(factors):
                want = 1.0 if i == j else 0.0
                assert factor_inner(a, b) == pytest.approx(want)

    def test_z_generator_fixes_zero_ket(self):
        zero = PureState.basis(3, 0)
        gens = generator_set(3)
        for op in gens.compact:
            if "sigma_z" not in op.label:
                continue
            moved = op.apply(zero.amplitudes, 3)
            assert np.allclose(moved, 1j * zero.amplitudes)

    def test_qubit_count_bounds(self):
        with pytest.raises(ValidationError):
            generator_set(0)
        with pytest.raises(ValidationError):
            generator_set(13)


class TestOrbitDimensions:
    def test_product_state(self):
        report = orbit_dimensions(PureState.basis(3, 0))
        assert report.dim_K_orbit == 6
        assert report.dim_isotropy_algebra == 3

    def test_ghz_three(self):
        report = orbit_dimensions(GHZ3)
        assert report.dim_K_orbit == 7
        assert report.dim_isotropy_algebra == 2

    def test_stable_state_has_full_complex_orbit(self):
        assert orbit_dimensions(stable_state(5)).dim_G_orbit_complex == 15

    @pytest.mark.parametrize("num_qubits", (2, 3, 4))
    def test_rank_isotropy_duality(self, num_qubits):
        rng = np.random.default_rng(200 + num_qubits)
        for _ in range(5):
            report = orbit_dimensions(haar_state(num_qubits, rng))
            assert report.dim_K_orbit + report.dim_isotropy_algebra == 3 * num_qubits
            assert report.dim_K_orbit <= 3 * num_qubits
            assert report.dim_G_orbit_complex <= 3 * num_qubits

    @pytest.mark.parametrize("rank_tol", (0.0, 1.0, 2.0, -1e-8, math.nan, math.inf))
    def test_bad_rank_tolerance_refused(self, rank_tol):
        with pytest.raises(ValidationError, match="rank tolerance must be a finite number"):
            orbit_dimensions(GHZ3, rank_tol=rank_tol)

    def test_document_carries_singular_values(self):
        doc = orbit_dimensions(GHZ3).document()
        assert len(doc["compact_singular_values"]) == 9
        # complex columns form an 8x9 matrix at three qubits
        assert len(doc["complex_singular_values"]) == 8
        assert doc["rank_tol"] == 1e-8
        assert doc["ill_conditioned"] is False


class TestConstructions:
    def test_ket_counts(self):
        assert np.count_nonzero(stable_state(5).amplitudes) == 10
        assert np.count_nonzero(stable_state(4).amplitudes) == 8

    def test_five_qubit_weights_are_uniform(self):
        amps = stable_state(5).amplitudes
        nonzero = amps[np.abs(amps) > 0]
        assert np.allclose(nonzero, 1 / np.sqrt(10))

    @pytest.mark.parametrize("num_qubits", range(4, 9))
    def test_reductions_are_maximally_mixed(self, num_qubits):
        state = stable_state(num_qubits)
        mu = momentum_map(state)
        for l in range(1, num_qubits + 1):
            assert np.abs(mu.block(l)).max() < 1e-12

    def test_four_qubit_default_weight(self):
        assert np.allclose(stable_state(4).amplitudes, stable_state(4, 2.0).amplitudes)

    def test_excluded_weights_rejected(self):
        for alpha in (1.0, -3.0):
            with pytest.raises(ValidationError, match="excluded set"):
                stable_state(4, alpha)

    def test_excluded_set_is_four_qubit_only(self):
        state = stable_state(5, 1.0)
        assert np.count_nonzero(state.amplitudes) == 10

    def test_small_systems_rejected(self):
        with pytest.raises(ValidationError):
            stable_state(3)
        with pytest.raises(ValidationError):
            complement_pair_state(1, 1.0)


class TestVerifyStable:
    def test_constructed_family_is_stable(self):
        for num_qubits in (4, 5, 6):
            report = verify_stable(stable_state(num_qubits))
            assert report.stable
            assert report.k1_rank == report.required_rank == 3 * num_qubits
            assert report.max_reduction_deviation < 1e-12

    @pytest.mark.parametrize("alpha", (-2.0, 0.5, 2.0, 5.0))
    def test_admissible_four_qubit_weights(self, alpha):
        assert verify_stable(stable_state(4, alpha)).stable

    @pytest.mark.parametrize("alpha", (1.0, -3.0))
    def test_excluded_weights_lose_rank(self, alpha):
        report = verify_stable(complement_pair_state(4, alpha))
        assert not report.stable
        assert report.reductions_ok
        assert report.k1_rank < 12

    def test_zero_weight_family_is_unstable(self):
        # pair-only state: momentum vanishes but the orbit rank drops to 11
        report = verify_stable(complement_pair_state(4, 0.0))
        assert not report.stable
        assert report.reductions_ok
        assert report.k1_rank == 11

    def test_ghz_is_critical_but_not_stable(self):
        report = verify_stable(GHZ4)
        assert not report.stable
        assert report.reductions_ok
        assert report.k1_rank == 9

    def test_product_state_fails_on_reductions(self):
        report = verify_stable(PureState.basis(4, 0), k1=1)
        assert not report.stable
        assert not report.reductions_ok
        assert report.k1_rank == 2

    def test_partial_group_verification(self):
        report = verify_stable(stable_state(5), k1=3)
        assert report.stable
        assert report.k1 == 3 and report.required_rank == 9

    @pytest.mark.parametrize("rank_tol", (math.nan, 0.0, 1.5))
    def test_bad_rank_tolerance_refused(self, rank_tol):
        # NaN would fail every singular-value cut (stable False, k1_rank 0)
        with pytest.raises(ValidationError, match="rank tolerance must be a finite number"):
            verify_stable(stable_state(4), rank_tol=rank_tol)

    def test_k1_bounds(self):
        with pytest.raises(ValidationError):
            verify_stable(GHZ4, k1=5)
        with pytest.raises(ValidationError):
            verify_stable(GHZ4, k1=0)

    def test_report_protocol(self):
        report = verify_stable(stable_state(4))
        assert bool(report) is True
        doc = report.document()
        assert doc["stable"] is True
        assert doc["orbit"]["dim_K_orbit"] == 12
