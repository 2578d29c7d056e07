"""Wall operator, its eigenspaces, explicit wall states, and the torus certificate."""

import math

import numpy as np
import pytest

from lupoly import (
    SpectraPoint,
    ValidationError,
    build_wall_operator,
    complement_pair_state,
    eigenspace_basis,
    psi_map,
    purity_invariants,
    random_wall_point,
    reduce_one_qubit,
    torus_transitivity_check,
    wall_state,
)
from lupoly.qstate import MAX_QUBITS


class TestOperator:
    def test_single_qubit_diagonal(self):
        op = build_wall_operator(1)
        assert list(op.diagonal) == [-1, 1]

    @pytest.mark.parametrize("num_qubits", range(1, 11))
    def test_spectrum(self, num_qubits):
        want = tuple(
            (-num_qubits + 2 * k, math.comb(num_qubits, k))
            for k in range(num_qubits + 1)
        )
        assert build_wall_operator(num_qubits).spectrum() == want

    def test_xi_marks_distinguished_qubit(self):
        op = build_wall_operator(3, distinguished=2)
        assert op.xi == (1, -1, 1)

    def test_diagonal_from_sign_convention(self):
        # distinguished qubit: -1 for |0>, +1 for |1>; others flipped
        op = build_wall_operator(3, distinguished=2)
        for ket in range(8):
            bits = format(ket, "03b")
            want = sum(
                (1 if b == "0" else -1) * (-1 if pos == 1 else 1)
                for pos, b in enumerate(bits)
            )
            assert op.diagonal[ket] == want

    def test_validation(self):
        with pytest.raises(ValidationError):
            build_wall_operator(0)
        with pytest.raises(ValidationError):
            build_wall_operator(3, distinguished=4)


class TestEigenspaces:
    @pytest.mark.parametrize("num_qubits", range(1, 11))
    def test_dimensions_partition_the_space(self, num_qubits):
        total = 0
        for k in range(num_qubits + 1):
            basis = eigenspace_basis(num_qubits, k)
            assert basis.dim == math.comb(num_qubits, k)
            total += basis.dim
        assert total == 2**num_qubits

    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_low_eigenspace_dim_is_qubit_count(self, num_qubits):
        assert eigenspace_basis(num_qubits, 1).dim == num_qubits

    @pytest.mark.parametrize("num_qubits", (2, 3, 4, 5))
    def test_kets_carry_labelled_eigenvalue(self, num_qubits):
        for d in (1, num_qubits):
            op = build_wall_operator(num_qubits, distinguished=d)
            for k in range(num_qubits + 1):
                basis = eigenspace_basis(num_qubits, k, distinguished=d)
                assert basis.eigenvalue == -num_qubits + 2 * k
                assert {int(op.diagonal[i]) for i in basis.kets} == {basis.eigenvalue}

    def test_three_qubit_ordering(self):
        assert eigenspace_basis(3, 1).bitstrings() == ("111", "001", "010")

    def test_four_qubit_ordering(self):
        assert eigenspace_basis(4, 1).bitstrings() == ("1111", "0011", "0101", "0110")

    def test_lowest_level_is_single_complement_ket(self):
        basis = eigenspace_basis(2, 0)
        assert basis.bitstrings() == ("01",)
        assert basis.eigenvalue == -2

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            eigenspace_basis(3, 4)
        with pytest.raises(ValidationError):
            eigenspace_basis(3, -1)


class TestWallState:
    def test_three_qubit_example(self):
        alpha = SpectraPoint.exact(["1/6", "1/3", "1/3"])
        state = wall_state(alpha, np.zeros(3))
        weights = np.abs(state.amplitudes) ** 2
        assert weights[0b111] == pytest.approx(2 / 3)
        assert weights[0b001] == pytest.approx(1 / 6)
        assert weights[0b010] == pytest.approx(1 / 6)
        assert weights.sum() == pytest.approx(1.0)
        assert np.count_nonzero(weights > 1e-15) == 3

    @pytest.mark.parametrize("num_qubits", (3, 4, 5))
    def test_reproduces_target_spectra(self, num_qubits):
        rng = np.random.default_rng(20 + num_qubits)
        alpha = random_wall_point(num_qubits, rng)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=num_qubits)
        state = wall_state(alpha, phases)
        got = psi_map(state).as_array()
        assert np.allclose(got, alpha.as_array(), atol=1e-10)

    def test_reductions_are_diagonal(self):
        rng = np.random.default_rng(31)
        alpha = random_wall_point(4, rng)
        state = wall_state(alpha, rng.uniform(0.0, 2.0 * np.pi, size=4))
        for l in range(1, 5):
            rho = reduce_one_qubit(state, l).matrix
            assert abs(rho[0, 1]) < 1e-12 and abs(rho[1, 0]) < 1e-12

    def test_wall_equality_reproduced(self):
        rng = np.random.default_rng(32)
        for num_qubits in (3, 5):
            lams = psi_map(
                wall_state(random_wall_point(num_qubits, rng), np.zeros(num_qubits))
            ).as_array()
            deviation = -lams[0] + lams[1:].sum() - (num_qubits / 2 - 1)
            assert abs(deviation) < 1e-10

    def test_phases_do_not_move_the_invariants(self):
        rng = np.random.default_rng(33)
        alpha = random_wall_point(4, rng)
        base = wall_state(alpha, np.zeros(4))
        want_psi = psi_map(base).as_array()
        want_purity = purity_invariants(base)
        for _ in range(10):
            state = wall_state(alpha, rng.uniform(-np.pi, np.pi, size=4))
            assert np.allclose(psi_map(state).as_array(), want_psi, atol=1e-12)
            assert np.allclose(purity_invariants(state), want_purity, atol=1e-12)

    def test_support_spans_low_eigenspace_kets(self):
        rng = np.random.default_rng(34)
        alpha = random_wall_point(5, rng, distinguished=3)
        state = wall_state(alpha, np.zeros(5), distinguished=3)
        support = set(np.flatnonzero(np.abs(state.amplitudes) > 1e-15))
        assert support == set(eigenspace_basis(5, 1, distinguished=3).kets)

    def test_two_qubit_diagonal_point(self):
        state = wall_state(SpectraPoint((0.2, 0.2)), np.zeros(2))
        weights = np.abs(state.amplitudes) ** 2
        assert weights[0b11] == pytest.approx(0.7)
        assert weights[0b00] == pytest.approx(0.3)

    def test_validation(self):
        rng = np.random.default_rng(35)
        with pytest.raises(ValidationError, match="wall equality"):
            wall_state(SpectraPoint((0.1, 0.1, 0.1)), np.zeros(3))
        with pytest.raises(ValidationError, match="strictly below"):
            wall_state(SpectraPoint.exact(["1/2", "1/6", "1/3", "1/3"]), np.zeros(4))
        with pytest.raises(ValidationError, match="admissible"):
            wall_state(SpectraPoint((0.4, 0.0, 0.3)), np.zeros(3))
        alpha = random_wall_point(3, rng)
        with pytest.raises(ValidationError, match="wall equality of qubit 2"):
            wall_state(alpha, np.zeros(3), distinguished=2)
        with pytest.raises(ValidationError, match="expected 3 phases"):
            wall_state(alpha, np.zeros(4))
        with pytest.raises(ValidationError, match="finite"):
            wall_state(alpha, [0.0, np.nan, 0.0])
        with pytest.raises(ValidationError, match="two qubits"):
            wall_state(SpectraPoint.exact(["1/2"]), np.zeros(1))


class TestTorusCertificate:
    @pytest.mark.parametrize("num_qubits", range(3, 11))
    def test_full_rank_and_transitive(self, num_qubits):
        cert = torus_transitivity_check(num_qubits)
        assert cert.rank == num_qubits
        assert cert.quotient_rank == num_qubits - 1
        assert cert.transitive

    def test_matrix_rows(self):
        cert = torus_transitivity_check(4)
        assert cert.matrix[0] == (-1, -1, -1, -1)
        assert cert.matrix[2] == (1, -1, 1, -1)

    def test_document(self):
        doc = torus_transitivity_check(3).document()
        assert doc == {
            "L": 3,
            "matrix": [[-1, -1, -1], [1, 1, -1], [1, -1, 1]],
            "rank": 3,
            "quotient_rank": 2,
            "transitive": True,
        }

    def test_needs_three_qubits(self):
        with pytest.raises(ValidationError):
            torus_transitivity_check(2)


def test_qubit_count_bounded_before_allocation():
    for build in (
        build_wall_operator,
        torus_transitivity_check,
        lambda L: eigenspace_basis(L, 1),
        lambda L: complement_pair_state(L, 1.0),
    ):
        with pytest.raises(ValidationError, match=f"..{MAX_QUBITS} qubits, got 30"):
            build(30)
