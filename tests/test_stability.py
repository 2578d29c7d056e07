"""Orbit/isotropy ranks from the Pauli-image kernel, and the stable zero-momentum families."""

import json

import numpy as np
import pytest

from lupoly import (
    PureState,
    ValidationError,
    complement_pair_state,
    document,
    haar_state,
    momentum_map,
    orbit_dimensions,
    stable_state,
    verify_stable,
)
from lupoly import stability
from lupoly.qstate import MAX_QUBITS, apply_slot_operator, pauli_images
from lupoly.stability import _rank_and_svals

# Test-local generator matrices, applied through the tensordot path as a reference.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)

GHZ3 = PureState.from_amplitudes([np.sqrt(0.5), 0, 0, 0, 0, 0, 0, np.sqrt(0.5)])
GHZ4 = PureState.from_amplitudes(
    [np.sqrt(0.5) if i in (0, 15) else 0.0 for i in range(16)]
)


def reference_columns(state):
    """Compact and complexified columns from one contraction and projection per generator."""
    L, phi = state.num_qubits, state.amplitudes

    def projected(factor, slot):
        w = apply_slot_operator(phi, factor, L, slot)
        return w - np.vdot(phi, w) * phi

    slots = range(1, L + 1)
    compact = [projected(1j * sigma, l) for l in slots for sigma in PAULIS]
    complexified = [projected(f, l) for l in slots for f in (E12, E21, SIGMA_Z)]
    compact_cols = np.stack([np.concatenate([w.real, w.imag]) for w in compact], axis=1)
    return compact_cols, np.stack(complexified, axis=1)


def reference_states():
    rng = np.random.default_rng(41)
    states = [haar_state(L, rng) for L in range(1, 11)]
    states += [PureState.basis(L, 0) for L in (1, 3, 5)] + [PureState.basis(4, 0b0110), GHZ3, GHZ4]
    states += [stable_state(L) for L in range(4, 9)]
    states += [complement_pair_state(4, alpha) for alpha in (1.0, -3.0, 0.0, 1.00000003)]
    return states


class TestGenerators:
    def test_z_generator_fixes_zero_ket(self):
        # a pure phase projects to zero, so i*sigma_z lands in the isotropy algebra
        images, z = pauli_images(PureState.basis(3, 0).amplitudes, 3)
        assert np.abs(images[2::3]).max() == 0.0
        assert np.array_equal(z[2::3], np.ones(3))

    def test_qubit_count_bounds(self):
        amps = np.full(2 ** (MAX_QUBITS + 1), 2 ** (-(MAX_QUBITS + 1) / 2), dtype=np.complex128)
        with pytest.raises(ValidationError, match=f"1..{MAX_QUBITS}, got {MAX_QUBITS + 1}"):
            orbit_dimensions(PureState(MAX_QUBITS + 1, amps))

    def test_ranks_match_the_per_generator_reference(self):
        for state in reference_states():
            L = state.num_qubits
            compact_cols, complex_cols = reference_columns(state)
            k_rank, k_svals, k_shaky = _rank_and_svals(compact_cols)
            g_rank, g_svals, g_shaky = _rank_and_svals(complex_cols)
            report = orbit_dimensions(state)
            assert (report.dim_K_orbit, report.dim_G_orbit_complex) == (k_rank, g_rank)
            assert report.dim_isotropy_algebra == 3 * L - k_rank
            assert report.ill_conditioned == (k_shaky or g_shaky)
            assert np.allclose(report.compact_singular_values, k_svals, rtol=0, atol=1e-12)
            assert np.allclose(report.complex_singular_values, g_svals, rtol=0, atol=1e-12)
            for k1 in {1, L // 2 or 1, L}:
                want, _, _ = _rank_and_svals(compact_cols[:, : 3 * k1])
                stability = verify_stable(state, k1=k1)
                assert stability.k1_rank == want
                assert stability.stable == (stability.reductions_ok and want == 3 * k1)
                assert stability.orbit == report


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

    def test_document_carries_singular_values(self):
        doc = document(orbit_dimensions(GHZ3))
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
            assert np.abs(mu[l - 1]).max() < 1e-12

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

    def test_k1_bounds(self):
        with pytest.raises(ValidationError):
            verify_stable(GHZ4, k1=5)
        with pytest.raises(ValidationError):
            verify_stable(GHZ4, k1=0)
        for bad in (2.5, 2.0, True, np.True_, "2"):
            with pytest.raises(ValidationError, match="k1 must be an integer"):
                verify_stable(GHZ4, k1=bad)
        report = verify_stable(GHZ4, k1=np.int64(4))
        assert type(report.k1) is int and report == verify_stable(GHZ4, k1=4)
        assert json.loads(json.dumps(document(report))) == document(verify_stable(GHZ4))

    @pytest.mark.parametrize("k1", (1, 2, 4))
    def test_pauli_images_computed_once(self, k1, monkeypatch):
        calls = []

        def counted(amps, num_qubits):
            calls.append(num_qubits)
            return pauli_images(amps, num_qubits)

        monkeypatch.setattr(stability, "pauli_images", counted)
        verify_stable(stable_state(4), k1=k1)
        assert calls == [4]

    def test_report_protocol(self):
        report = verify_stable(stable_state(4))
        assert bool(report) is True
        doc = document(report)
        assert doc["stable"] is True
        assert doc["orbit"]["dim_K_orbit"] == 12
