"""State container, partial traces, spectra, and the state-file format."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lupoly import (
    PureState,
    SpectraPoint,
    ValidationError,
    apply_local_unitary,
    haar_state,
    load_state,
    momentum_map,
    psi_map,
    purity_invariants,
    random_local_unitaries,
    reduce_one_qubit,
    state_document,
    state_from_document,
)
from lupoly import qstate
from lupoly.qstate import _marginals, psi_stack


def loop_partial_trace(amps, num_qubits, keep):
    """Partial trace by explicit index pairs; independent of the library path."""
    bit = num_qubits - keep
    mask = ~(1 << bit)
    rho = np.zeros((2, 2), dtype=np.complex128)
    for i in range(2**num_qubits):
        for j in range(2**num_qubits):
            if (i & mask) == (j & mask):
                rho[(i >> bit) & 1, (j >> bit) & 1] += amps[i] * np.conj(amps[j])
    return rho


W3 = PureState.from_amplitudes([0, 1, 1, 0, 1, 0, 0, 0], renormalize=True)
GHZ3 = PureState.from_amplitudes([1, 0, 0, 0, 0, 0, 0, 1], renormalize=True)


class TestReductions:
    def test_w_state_marginal(self):
        rho = reduce_one_qubit(W3, 1)
        assert np.allclose(rho, np.diag([2 / 3, 1 / 3]), atol=1e-12)
        assert rho.shape == (2, 2) and not rho.flags.writeable

    def test_w_state_spectra(self):
        assert np.allclose(psi_map(W3).as_array(), [1 / 6, 1 / 6, 1 / 6], atol=1e-12)

    def test_ghz_marginals_maximally_mixed(self):
        for l in (1, 2, 3):
            rho = reduce_one_qubit(GHZ3, l)
            assert np.allclose(rho, np.eye(2) / 2, atol=1e-15)
        assert np.allclose(psi_map(GHZ3).as_array(), 0.0, atol=1e-15)

    def test_product_basis_state(self):
        state = PureState.basis(3, 0b101)
        for l, want in zip((1, 2, 3), ([1, 1], [0, 0], [1, 1])):
            rho = reduce_one_qubit(state, l)
            assert rho[want[0], want[1]] == pytest.approx(1.0)
        assert psi_map(state).lambdas == (0.5, 0.5, 0.5)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_against_loop_trace(self, num_qubits):
        rng = np.random.default_rng(17)
        for _ in range(5):
            state = haar_state(num_qubits, rng)
            for l in range(1, num_qubits + 1):
                fast = reduce_one_qubit(state, l)
                slow = loop_partial_trace(state.amplitudes, num_qubits, l)
                assert np.allclose(fast, slow, atol=1e-12)

    def test_momentum_blocks_are_shifted_marginals(self):
        mu = momentum_map(W3)
        assert mu.shape == (3, 2, 2) and not mu.flags.writeable
        for l in (1, 2, 3):
            rho = reduce_one_qubit(W3, l)
            assert np.allclose(mu[l - 1], rho - np.eye(2) / 2, atol=1e-15)
            assert abs(np.trace(mu[l - 1])) < 1e-14


def tensordot_partial_trace(amps, num_qubits, keep):
    """Partial trace by contracting every other tensor axis; independent of the library path."""
    t = amps.reshape((2,) * num_qubits)
    axes = tuple(i for i in range(num_qubits) if i != keep - 1)
    return np.tensordot(t, t.conj(), axes=(axes, axes))


class TestStackedMarginals:
    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_rows_match_the_one_state_functions(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        states = [haar_state(num_qubits, rng) for _ in range(3)]
        stack = np.array([s.amplitudes for s in states])
        blocks = _marginals(stack)[0]
        spectra = psi_stack(stack)
        assert blocks.shape == (3, num_qubits, 2, 2) and spectra.shape == (3, num_qubits)
        for state, row_blocks, row_spectra in zip(states, blocks, spectra):
            assert np.abs(row_spectra - psi_map(state).as_array()).max() <= 1e-15
            for l in range(1, num_qubits + 1):
                rho = reduce_one_qubit(state, l)
                assert np.abs(row_blocks[l - 1] - rho).max() <= 1e-15
                ref = tensordot_partial_trace(state.amplitudes, num_qubits, l)
                assert np.abs(rho - ref).max() <= 1e-15

    def test_one_vector_is_the_one_row_case(self):
        assert psi_stack(W3.amplitudes).tolist() == list(psi_map(W3).lambdas)
        assert psi_stack(W3.amplitudes[None]).shape == (1, 3)

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "reduced matrix is not Hermitian within tolerance"),
        (2.0, "reduced matrix trace differs from 1"),  # the row's norm is 2
    ], ids=("nan", "unnormalized"))
    def test_one_bad_row_fails_the_stack(self, bad, message):
        stack = np.array([s.amplitudes for s in (W3, GHZ3, W3)])
        stack[1] = stack[1] * bad
        with pytest.raises(ValidationError, match=f"^{message}$"):
            psi_stack(stack)
        psi_stack(stack[::2])  # the other rows pass

    def test_eigenvalue_check(self):
        # Hermitian and of trace 1, but the eigenvalues are 1/2 -+ 0.6
        blocks = np.array([[[0.5, 0.6], [0.6, 0.5]]], dtype=np.complex128)
        with pytest.raises(ValidationError, match="eigenvalue outside"):
            qstate._check_density_blocks(blocks)

    def test_rejects_an_amplitude_count_off_a_power_of_two(self):
        with pytest.raises(ValidationError, match="is not 2\\*\\*L"):
            psi_stack(np.ones((2, 6)) / math.sqrt(6))


class TestSpectraAndPurity:
    def test_purity_identity_on_haar_states(self):
        rng = np.random.default_rng(3)
        for num_qubits in (2, 3, 4, 5):
            state = haar_state(num_qubits, rng)
            lams = psi_map(state).as_array()
            assert np.allclose(
                purity_invariants(state), 0.5 + 2.0 * lams**2, atol=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
            ),
            min_size=8,
            max_size=8,
        )
    )
    def test_purity_identity_property(self, pairs):
        amps = np.array([complex(re, im) for re, im in pairs])
        norm = np.linalg.norm(amps)
        if norm < 1e-3:
            return
        state = PureState.from_amplitudes(amps, renormalize=True)
        lams = psi_map(state).as_array()
        assert np.allclose(purity_invariants(state), 0.5 + 2.0 * lams**2, atol=1e-10)

    def test_equivariance_of_spectra(self):
        rng = np.random.default_rng(23)
        for num_qubits in (2, 3, 4):
            state = haar_state(num_qubits, rng)
            rotated = apply_local_unitary(state, random_local_unitaries(num_qubits, rng))
            assert np.allclose(
                psi_map(rotated).as_array(), psi_map(state).as_array(), atol=1e-10
            )

    def test_spectra_stay_in_chamber(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            lams = psi_map(haar_state(4, rng)).as_array()
            assert (lams >= 0.0).all() and (lams <= 0.5).all()

    def test_closed_form_eigenvalues_match_lapack(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            state = haar_state(3, rng)
            lo, hi = np.linalg.eigvalsh(reduce_one_qubit(state, 2))
            assert psi_map(state).lambdas[1] == pytest.approx(0.5 - lo, abs=1e-12)
            assert hi == pytest.approx(1.0 - lo, abs=1e-12)


class TestValidation:
    def test_rejects_wrong_amplitude_count(self):
        with pytest.raises(ValidationError):
            PureState(2, np.ones(3) / math.sqrt(3))

    def test_rejects_unnormalized_without_flag(self):
        with pytest.raises(ValidationError):
            PureState.from_amplitudes([1.0, 1.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValidationError):
            PureState.from_amplitudes([0.0, 0.0], renormalize=True)

    @pytest.mark.parametrize(
        "amps,want",
        (([1e-200, 0.0], [1.0, 0.0]),
         ([1e200, 1e200], [0.5**0.5, 0.5**0.5]),
         ([5e-324, 0.0], [1.0, 0.0]),
         ([1.5e308, 1.5e308j], [0.5**0.5, 0.5**0.5 * 1j])),
        ids=("underflow", "overflow", "subnormal", "overflow-complex"),
    )
    def test_renormalizes_extreme_scales(self, amps, want):
        # the squares of these amplitudes leave the float range; warnings are errors here
        state = PureState.from_amplitudes(amps, renormalize=True)
        assert np.allclose(state.amplitudes, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("amps", ([1e200, 0.0], [1e-200, 0.0], [1.7e308, 1.7e308]))
    def test_rejects_extreme_scales_without_flag(self, amps):
        with pytest.raises(ValidationError, match="unnormalized state"):
            PureState.from_amplitudes(amps)

    def test_normal_range_uses_the_plain_norm(self):
        amps = np.array([1.0, 1j]) @ np.random.default_rng(5).normal(size=(2, 16))
        once = amps / np.linalg.norm(amps)
        want = once / np.linalg.norm(once)
        assert np.array_equal(PureState.from_amplitudes(amps, renormalize=True).amplitudes, want)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            PureState.from_amplitudes([np.nan, 1.0], renormalize=True)

    def test_strided_amplitudes_build_the_contiguous_state(self):
        a = np.zeros(16, dtype=np.complex128)
        state = haar_state(3, np.random.default_rng(5))
        a[::2] = state.amplitudes
        strided = PureState(3, a[::2])
        assert strided.amplitudes.tobytes() == PureState(3, a[::2].copy()).amplitudes.tobytes()
        assert psi_map(strided) == psi_map(state)

    def test_rejects_oversized_register(self):
        with pytest.raises(ValidationError):
            PureState(13, np.zeros(2**13))

    def test_amplitudes_read_only(self):
        state = PureState.basis(2, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_rejects_non_unitary_factor(self):
        state = PureState.basis(2, 0)
        bad = [np.array([[1, 1], [0, 1]], dtype=complex), np.eye(2, dtype=complex)]
        with pytest.raises(ValidationError):
            apply_local_unitary(state, bad)

    def test_rejects_unit_determinant_violation(self):
        state = PureState.basis(2, 0)
        bad = [np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex)]
        with pytest.raises(ValidationError):
            apply_local_unitary(state, bad)


class TestSpectraPoint:
    def test_exact_parsing(self):
        point = SpectraPoint.exact(["1/6", "1/3", "1/3"])
        assert point.is_exact
        assert sum(point.lambdas) == pytest.approx(5 / 6)

    def test_float_point_not_exact(self):
        assert not SpectraPoint((0.1, 0.2)).is_exact

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            SpectraPoint((float("inf"), 0.0))

    @pytest.mark.parametrize("flag", (True, False, np.True_))
    def test_rejects_booleans(self, flag):
        # bool is a numbers.Rational, so without a check True would pass as 1
        with pytest.raises(ValidationError, match="spectra coordinate must be a finite number"):
            SpectraPoint((flag, 0.1, 0.1))

    def test_as_array_round_trip(self):
        point = SpectraPoint.exact(["0", "1/2"])
        assert np.allclose(point.as_array(), [0.0, 0.5])


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        state = haar_state(3, rng)
        path = tmp_path / "state.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state_document(state), fh)
        again = load_state(path)
        assert np.allclose(again.amplitudes, state.amplitudes, atol=1e-15)

    def test_round_trip_through_stream(self):
        state = haar_state(2, np.random.default_rng(7))
        buf = io.StringIO()
        json.dump(state_document(state), buf)
        again = load_state(io.StringIO(buf.getvalue()))
        assert np.allclose(again.amplitudes, state.amplitudes, atol=1e-15)

    def test_document_shape(self):
        doc = state_document(PureState.basis(2, 3))
        assert doc["L"] == 2
        assert doc["amplitudes"] == [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_rejects_bad_json(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_state(io.StringIO("{nope"))

    def test_rejects_missing_keys(self):
        with pytest.raises(ValidationError):
            state_from_document({"L": 2})

    def test_rejects_length_mismatch(self):
        doc = {"L": 2, "amplitudes": [[1.0, 0.0]] * 3}
        with pytest.raises(ValidationError, match="expected 2"):
            state_from_document(doc)

    def test_rejects_malformed_entry(self):
        doc = {"L": 1, "amplitudes": [[1.0, 0.0], [0.0]]}
        with pytest.raises(ValidationError, match="pair"):
            state_from_document(doc)

    @pytest.mark.parametrize(
        "doc",
        (
            {"L": 1, "amplitudes": [["a", 0], [1, 0]]},
            {"L": 1, "amplitudes": [["1", 0], [0, 0]]},
            {"L": 1, "amplitudes": [[True, False], [False, False]]},
            {"L": 1, "amplitudes": [[1, None], [0, 0]]},
            {"L": True, "amplitudes": [[1, 0], [0, 0]]},
            {"L": 1, "amplitudes": [[10**400, 0], [0, 0]]},
        ),
    )
    def test_rejects_non_numbers(self, doc):
        with pytest.raises(ValidationError):
            state_from_document(doc)

    def test_seeded_states_reproducible(self):
        a = haar_state(4, np.random.default_rng(5))
        b = haar_state(4, np.random.default_rng(5))
        assert np.array_equal(a.amplitudes, b.amplitudes)
