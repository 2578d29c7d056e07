"""The generator table, orbit/isotropy ranks, and the stable zero-momentum families."""

import math

import numpy as np
import pytest

from lupoly import (
    PureState,
    ValidationError,
    complement_pair_state,
    haar_state,
    momentum_map,
    orbit_dimensions,
    stable_state,
    verify_stable,
)
from lupoly.qstate import MAX_QUBITS, apply_slot_operator
from lupoly.stability import (
    E12,
    E21,
    GENERATORS,
    PAULIS,
    SIGMA_Z,
    _generator_actions,
    _rank_and_svals,
    _real_columns,
)

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
    def test_counts_and_slots(self):
        assert GENERATORS.shape == (6, 2, 2) and not GENERATORS.flags.writeable
        actions = _generator_actions(haar_state(4, np.random.default_rng(3)))
        assert actions.shape == (4, 6, 16)
        cols = _real_columns(actions[:, :3])
        assert cols.shape == (32, 12)
        # column 3(l-1)+k holds the i*sigma_k action at slot l
        for l in range(1, 5):
            for k in range(3):
                want = np.concatenate([actions[l - 1, k].real, actions[l - 1, k].imag])
                assert np.array_equal(cols[:, 3 * (l - 1) + k], want)

    def test_compact_factors_orthonormal(self):
        compact, complexified = GENERATORS[:3], GENERATORS[3:]
        for i, a in enumerate(compact):
            for j, b in enumerate(compact):
                # invariant pairing <A|B> = -1/2 tr(AB)
                want = 1.0 if i == j else 0.0
                assert (-0.5 * np.trace(a @ b)).real == pytest.approx(want)
        assert np.array_equal(complexified, [E12, E21, SIGMA_Z])

    def test_z_generator_fixes_zero_ket(self):
        zero = PureState.basis(3, 0)
        for l in range(1, 4):
            moved = apply_slot_operator(zero.amplitudes, GENERATORS[2], 3, l)
            assert np.allclose(moved, 1j * zero.amplitudes)
        # a pure phase projects to zero, so i*sigma_z lands in the isotropy algebra
        assert np.abs(_generator_actions(zero)[:, 2]).max() == 0.0

    def test_qubit_count_bounds(self):
        amps = np.full(2 ** (MAX_QUBITS + 1), 2 ** (-(MAX_QUBITS + 1) / 2), dtype=np.complex128)
        with pytest.raises(ValidationError, match=f"1..{MAX_QUBITS} qubits, got {MAX_QUBITS + 1}"):
            orbit_dimensions(PureState(MAX_QUBITS + 1, amps))

    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_stacked_application_matches_per_factor(self, num_qubits):
        rng = np.random.default_rng(60 + num_qubits)
        amps = haar_state(num_qubits, rng).amplitudes
        stack = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
        for l in range(1, num_qubits + 1):
            got = apply_slot_operator(amps, stack, num_qubits, l)
            assert got.shape == (2, 3, 2**num_qubits)
            for index in np.ndindex(2, 3):
                want = apply_slot_operator(amps, stack[index], num_qubits, l)
                assert np.array_equal(got[index], want)
            table = apply_slot_operator(amps, GENERATORS, num_qubits, l)
            for k, factor in enumerate(GENERATORS):
                assert np.array_equal(table[k], apply_slot_operator(amps, factor, num_qubits, l))

    def test_ranks_match_the_per_generator_reference(self):
        for state in reference_states():
            L = state.num_qubits
            compact_cols, complex_cols = reference_columns(state)
            k_rank, k_svals, k_shaky = _rank_and_svals(compact_cols, 1e-8)
            g_rank, g_svals, g_shaky = _rank_and_svals(complex_cols, 1e-8)
            report = orbit_dimensions(state)
            assert (report.dim_K_orbit, report.dim_G_orbit_complex) == (k_rank, g_rank)
            assert report.dim_isotropy_algebra == 3 * L - k_rank
            assert report.ill_conditioned == (k_shaky or g_shaky)
            assert np.allclose(report.compact_singular_values, k_svals, rtol=0, atol=1e-12)
            assert np.allclose(report.complex_singular_values, g_svals, rtol=0, atol=1e-12)
            for k1 in {1, L // 2 or 1, L}:
                want, _, _ = _rank_and_svals(compact_cols[:, : 3 * k1], 1e-8)
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
