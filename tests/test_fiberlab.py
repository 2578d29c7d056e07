"""Fiber sampling, the momentum differential, and the sampled dimension estimate."""

import json
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
    document,
    haar_state,
    membership,
    momentum_differential_matrix,
    momentum_rank_report,
    numeric_dim,
    orbit_dimensions,
    psi_map,
    random_interior_point,
    random_wall_point,
    rank_dmu,
    sample_fiber,
    stable_state,
)
from lupoly import fiberlab, stability
from lupoly.polytope import MEMBER_TOL
from lupoly.qstate import MAX_QUBITS, apply_slot_operator, pauli_images
from lupoly.stability import _rank_and_svals
from test_stability import PAULIS, reference_columns

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


def refuse_sampling(monkeypatch):
    """Make every way into the sampler raise, so a check must come first."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started")

    for name in ("_haar_row", "_descend", "wall_state"):
        monkeypatch.setattr(fiberlab, name, no_sampling)


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
        images, z = pauli_images(amps, L)
        assert images.shape == (3 * L, 2**L) and z.shape == (3 * L,)
        for l in range(1, L + 1):
            for k, sigma in enumerate(PAULIS):
                image = apply_slot_operator(amps, sigma, L, l)
                want_z = np.vdot(amps, image)
                row = 3 * (l - 1) + k
                assert abs(z[row] - want_z) <= 1e-15
                expected = image - want_z * amps
                assert np.allclose(images[row], expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("case", list(objective_cases()), ids=lambda c: c[0])
    def test_objective_matches_reference(self, case):
        _, amps, target, zero_mask = case
        L = amps.size.bit_length() - 1
        e, g = fiberlab._residuals_and_jacobian(amps, L, target, fiberlab._keep(zero_mask))
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
        keep = fiberlab._keep([masked, False, False, masked])
        _, g = fiberlab._residuals_and_jacobian(amps, L, target, keep)
        h = 1e-6
        for _ in range(5):
            d = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
            d -= np.vdot(amps, d) * amps  # a tangent direction at phi
            d /= np.linalg.norm(d)

            def e(t):
                moved = amps + t * d
                moved /= np.linalg.norm(moved)
                return fiberlab._residuals_and_jacobian(moved, L, target, keep)[0]

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


class TestStackedKernel:
    """The descent and the rank layer run on a stack (n, 2^L), one row per sample."""

    @staticmethod
    def descend_rows(starts, L, target, zero_mask):
        return fiberlab._descend(starts, L, target, fiberlab._keep(zero_mask), fiberlab.MAX_ITERS)

    def assert_rows_match_one_row_runs(self, starts, L, target, zero_mask):
        amps, f, steps = self.descend_rows(starts, L, target, zero_mask)
        assert max(f) <= 1e-20
        for i in range(len(starts)):
            one = self.descend_rows(starts[i:i + 1], L, target, zero_mask)
            assert steps[i] == one[2][0]
            assert np.allclose(amps[i], one[0][0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("masked", (False, True), ids=("plain", "zero-mask"))
    @pytest.mark.parametrize("L", (3, 4, 5, 6))
    def test_rows_match_the_one_row_path(self, L, masked):
        rng = np.random.default_rng(90 + L)
        target = random_interior_point(L, rng).as_array()
        zero_mask = np.zeros(L, dtype=bool)
        if masked:
            zero_mask[:2] = True
            target[:2] = 0.0
        starts = np.stack([haar_state(L, np.random.default_rng(s)).amplitudes for s in range(6)])
        self.assert_rows_match_one_row_runs(starts, L, target, zero_mask)

    def test_one_row_restarts_while_the_others_converge(self, monkeypatch):
        # a product state is a critical point, so row 0 restarts from its own generator;
        # the first draw of a seed-0 generator still advances it, so its restart is a Haar start
        haar_row = fiberlab._haar_row
        fresh_seed_0 = np.random.default_rng(0).bit_generator.state

        def product_start_for_seed_0(L, rng):
            fresh = rng.bit_generator.state == fresh_seed_0
            row = haar_row(L, rng)
            return PureState.basis(L, 0).amplitudes if fresh else row

        monkeypatch.setattr(fiberlab, "_haar_row", product_start_for_seed_0)
        stratum = classify(INTERIOR3)
        amps, rows = fiberlab._fiber_samples(INTERIOR3, stratum, [0, 1, 2])
        assert amps.shape == (3, 8)
        assert [restarts for _, _, restarts, _, _ in rows] == [1, 0, 0]
        assert all(type(its) is int and type(restarts) is int for _, its, restarts, _, _ in rows)
        assert [method for *_, method in rows] == ["descent"] * 3
        for row_amps, (_, its, restarts, seed, _) in zip(amps, rows):
            one_amps, ((_, one_its, one_restarts, _, _),) = fiberlab._fiber_samples(
                INTERIOR3, stratum, [seed])
            assert (its, restarts) == (one_its, one_restarts)
            assert np.allclose(row_amps, one_amps[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lams", ((0.3, 0.3), (0.0, 0.0)))
    def test_two_qubit_targets_need_no_steps(self, lams):
        target = SpectraPoint(lams)
        estimate = numeric_dim(target, n_samples=3)
        assert estimate.status == "ok" and estimate.dim_estimate == 0
        assert [(a.iterations, a.restarts) for a in estimate.samples] == [(0, 0)] * 3
        sample = sample_fiber(target, seed=4)
        assert (sample.method, sample.iterations, sample.restarts) == ("schmidt", 0, 0)

    @pytest.mark.parametrize("L", range(3, 9))
    def test_stacked_ranks_match_the_per_state_ranks(self, L):
        states = [haar_state(L, np.random.default_rng(L)), PureState.basis(L, 5), ghz_state(L)]
        if L >= 4:
            states.append(stable_state(L))
        amps = np.stack([s.amplitudes for s in states])
        ranks, svals, shaky = _rank_and_svals(fiberlab._dmu_matrices(amps, L))
        for i, state in enumerate(states):
            report = momentum_rank_report(state)
            assert (ranks[i], shaky[i]) == (report.rank, report.ill_conditioned)
            assert np.allclose(svals[i], report.singular_values, rtol=0, atol=1e-12)
            assert ranks[i] == orbit_dimensions(state).dim_K_orbit

    @pytest.mark.parametrize("L", range(1, 9))
    def test_compact_orbit_matrix_is_j_dmu_over_two(self, L):
        # i sigma phi projected off phi is i times the projected image sigma phi: the compact
        # orbit columns are J [Re; Im] / 2 of the dmu columns, so numeric_dim ranks dmu alone
        states = [haar_state(L, np.random.default_rng(L)), PureState.basis(L, 5 % 2**L),
                  ghz_state(L)]
        if L >= 4:
            states.append(stable_state(L))
        half = 2**L
        for state in states:
            compact, _ = reference_columns(state)
            dmu = momentum_differential_matrix(state)
            j_dmu = np.concatenate([-dmu[half:], dmu[:half]])
            assert np.abs(compact - j_dmu / 2.0).max() <= 1e-14


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

    @pytest.mark.parametrize("seed", (0, 3))
    @pytest.mark.parametrize("lams", ((0.5, 0.1, 0.2, 0.15), (0.5, 0.0, 0.2, 0.15)))
    def test_half_face_reports_the_residual_sample(self, lams, seed):
        # the row's generator draws the residual sample's seed; the row reports that sample's
        # counters, and its amplitudes fill the |0> half of the register
        sample = sample_fiber(SpectraPoint(lams), seed=seed)
        residual = SpectraPoint(lams[1:])
        sub_seed = int(np.random.default_rng(seed).integers(2**32))
        _, ((_, iterations, restarts, _, _),) = fiberlab._fiber_samples(
            residual, classify(residual), [sub_seed])
        assert iterations > 0
        assert (sample.method, sample.iterations, sample.restarts) == (
            "product", iterations, restarts)
        sub = sample_fiber(residual, seed=sub_seed).state.amplitudes
        want = PureState(4, np.concatenate([sub, np.zeros(8)])).amplitudes
        assert np.array_equal(sample.state.amplitudes, want)

    def test_fully_separable_target(self):
        for target in (SpectraPoint.exact(["1/2"] * 3), SpectraPoint((0.5, 0.5))):
            sample = sample_fiber(target, seed=0)
            assert (sample.method, sample.iterations, sample.restarts) == ("product", 0, 0)
            assert np.abs(sample.state.amplitudes[0]) == pytest.approx(1.0)

    def test_outside_target_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            sample_fiber(SpectraPoint((0.4, 0.0, 0.3)))

    @pytest.mark.parametrize("seed", (-1, 1.5, True, "3"))
    def test_bad_seed_refused_before_sampling(self, seed, monkeypatch):
        refuse_sampling(monkeypatch)
        with pytest.raises(ValidationError, match="seed must be"):
            sample_fiber(INTERIOR3, seed=seed)

    def test_descent_bounds_are_not_arguments(self):
        # a non-integer bound never met ran unbounded; the bounds are module constants
        with pytest.raises(TypeError, match="max_restarts"):
            sample_fiber(INTERIOR3, max_restarts=1.5)
        with pytest.raises(TypeError, match="max_iters"):
            sample_fiber(INTERIOR3, max_iters=-1)

    @pytest.mark.parametrize("sampler", (sample_fiber, numeric_dim), ids=("sample", "numeric"))
    def test_sample_outside_the_region_fails_its_check(self, sampler, monkeypatch):
        # every lower-bound slack of every sample reads just past the cut
        slacks = fiberlab.slacks

        def lower_rows_violated(columns):
            rows = slacks(columns)
            return tuple(np.full_like(s, -2 * MEMBER_TOL) for s in rows[:3]) + rows[3:]

        monkeypatch.setattr(fiberlab, "slacks", lower_rows_violated)
        with pytest.raises(ConvergenceError, match="outside the admissible region$"):
            sampler(INTERIOR3)

    @pytest.mark.parametrize("sampler", (sample_fiber, numeric_dim), ids=("sample", "numeric"))
    def test_sample_off_the_target_fails_its_check(self, sampler, monkeypatch):
        # the stacked check read 1e-9 off the converged samples, which stay inside the region
        psi = fiberlab.psi_stack
        monkeypatch.setattr(fiberlab, "psi_stack", lambda amps: psi(amps) + 1e-9)
        with pytest.raises(ConvergenceError, match=r"lies 1\.7\d+e-09 from the target, above"):
            sampler(INTERIOR3)

    def test_one_failing_row_of_a_stack_fails_the_call(self, monkeypatch):
        # numeric_dim checks its three samples in one call; only row 1 reads off the target
        psi, calls = fiberlab.psi_stack, []

        def row_1_off(amps):
            calls.append(amps.shape)
            return psi(amps) + np.array([[0.0], [1e-9], [0.0]])

        monkeypatch.setattr(fiberlab, "psi_stack", row_1_off)
        with pytest.raises(ConvergenceError, match=r"lies 1\.7\d+e-09 from the target, above"):
            numeric_dim(INTERIOR3, n_samples=3)
        assert calls == [(3, 8)]

    def test_one_unconverged_row_of_a_stack_restarts_alone(self, monkeypatch):
        # rows 0 and 2 start on the fiber; with no steps allowed only row 1 restarts, and fails
        on_fiber = [sample_fiber(INTERIOR3, seed=seed).state.amplitudes for seed in (0, 2)]
        rng = np.random.default_rng(0)
        starts = [on_fiber[0], haar_state(3, rng).amplitudes, on_fiber[1]]
        attempts = iter(starts + [haar_state(3, rng).amplitudes for _ in range(2)])
        monkeypatch.setattr(fiberlab, "_haar_row", lambda L, rng: next(attempts))
        monkeypatch.setattr(fiberlab, "MAX_RESTARTS", 2)
        monkeypatch.setattr(fiberlab, "MAX_ITERS", 0)
        with pytest.raises(ConvergenceError, match="did not reach residual"):
            numeric_dim(INTERIOR3, n_samples=3)
        assert next(attempts, None) is None

    def test_one_row_outside_the_region_fails_the_call(self, monkeypatch):
        # numeric_dim checks its three samples in one slacks pass; only row 1's wall
        # slack of qubit 1 reads past the cut
        slacks, calls = fiberlab.slacks, []

        def row_1_outside(columns):
            calls.append(columns)
            rows = list(slacks(columns))
            rows[6] = rows[6] - np.array([0.0, rows[6][1] + 2 * MEMBER_TOL, 0.0])
            return tuple(rows)

        monkeypatch.setattr(fiberlab, "slacks", row_1_outside)
        with pytest.raises(ConvergenceError, match="outside the admissible region$"):
            numeric_dim(INTERIOR3, n_samples=3)
        (columns,) = calls
        assert [c.shape for c in columns] == [(3,)] * 3
        points = [SpectraPoint(tuple(float(c[i]) for c in columns)) for i in range(3)]
        assert all(membership(point).member for point in points)

    def test_gives_up_honestly(self, monkeypatch):
        monkeypatch.setattr(fiberlab, "MAX_ITERS", 1)
        monkeypatch.setattr(fiberlab, "MAX_RESTARTS", 0)
        with pytest.raises(ConvergenceError):
            sample_fiber(INTERIOR3, seed=0)

    def test_failure_reports_best_residual(self, monkeypatch):
        # three staged Haar starts of known residual, the best one in the middle;
        # with no steps allowed every attempt ends at its start
        target = INTERIOR3.as_array()
        rng = np.random.default_rng(0)

        def residual(state):
            return np.linalg.norm(psi_map(state).as_array() - target)

        staged = sorted((haar_state(3, rng) for _ in range(3)), key=residual)
        staged = [staged[1], staged[0], staged[2]]
        residuals = [f"{residual(s):.3e}" for s in staged]
        attempts = iter(s.amplitudes for s in staged)
        monkeypatch.setattr(fiberlab, "_haar_row", lambda L, rng: next(attempts))
        monkeypatch.setattr(fiberlab, "MAX_RESTARTS", 2)
        monkeypatch.setattr(fiberlab, "MAX_ITERS", 0)
        with pytest.raises(ConvergenceError) as exc:
            sample_fiber(INTERIOR3, seed=0)
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
                fiberlab._descend(start[None], 3, target, fiberlab._keep([False] * 3), n)[1][0]
                for n in range(8)
            ]
            assert objectives == sorted(objectives, reverse=True)

    def test_failing_call_ends_fast(self, monkeypatch):
        # residuals that shrink on every evaluation but never reach tol: each
        # attempt runs all MAX_ITERS steps, so this is the slowest failing call
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
        amps = PureState.basis(3, 0).amplitudes[None]
        keep = fiberlab._keep([False] * 3)
        _, f, steps = fiberlab._descend(amps, 3, INTERIOR3.as_array(), keep, 500)
        assert steps == [0]
        assert f[0] > 0.1


class TestMomentumDifferential:
    def test_matrix_shape(self):
        state = haar_state(3, np.random.default_rng(1))
        assert momentum_differential_matrix(state).shape == (16, 9)

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

    def test_sample_count_bounds(self, monkeypatch):
        refuse_sampling(monkeypatch)
        bound = rf"n_samples must be an integer in 1\.\.{fiberlab.MAX_SAMPLES}, got"
        with pytest.raises(ValidationError, match=f"{bound} 0$"):
            numeric_dim(INTERIOR3, n_samples=0)
        with pytest.raises(ValidationError, match=f"{bound} {fiberlab.MAX_SAMPLES + 1}$"):
            numeric_dim(INTERIOR3, n_samples=fiberlab.MAX_SAMPLES + 1)

    @pytest.mark.parametrize(
        "kwargs, message",
        (({"n_samples": 1, "seed": 1.7}, "seed must be an integer >= 0, got 1.7"),
         ({"n_samples": 1, "seed": True}, "seed must be an integer >= 0, got True"),
         ({"n_samples": 1, "seed": -1}, "seed must be an integer >= 0, got -1"),
         ({"n_samples": True}, "n_samples must be an integer"),
         ({"n_samples": 2.0}, "n_samples must be an integer")),
        ids=("float-seed", "bool-seed", "negative-seed", "bool-count", "float-count"),
    )
    def test_bad_seeds_and_counts_refused_before_sampling(self, kwargs, message, monkeypatch):
        refuse_sampling(monkeypatch)
        with pytest.raises(ValidationError, match=message):
            numeric_dim(INTERIOR3, **kwargs)

    def test_numpy_integer_seeds_accepted(self):
        estimate = numeric_dim(INTERIOR3, n_samples=np.int64(2), seed=np.int64(7))
        assert [a.seed for a in estimate.samples] == [7, 8]
        assert all(type(a.seed) is int for a in estimate.samples)

    def test_sample_audits_recorded(self):
        estimate = numeric_dim(INTERIOR3, n_samples=2, seed=7)
        assert [a.seed for a in estimate.samples] == [7, 8]
        for audit in estimate.samples:
            assert audit.regular
            assert audit.rank_dmu == 9
            assert audit.estimate == 2
            assert audit.residual <= 1e-10
            sample = sample_fiber(INTERIOR3, seed=audit.seed)
            assert (audit.iterations, audit.restarts) == (sample.iterations, sample.restarts)
            assert audit.iterations > 0

    @pytest.mark.parametrize("zero", (False, True), ids=("interior", "zero-coordinate"))
    @pytest.mark.parametrize("L", (3, 4, 5, 6))
    def test_audits_match_the_per_seed_reference(self, L, zero):
        # the stacked path against one sample_fiber and one momentum_rank_report per seed
        lams = list(random_interior_point(L, np.random.default_rng(40 + L)).lambdas)
        if zero:
            lams = [0.0] + [lam / 2.0 for lam in lams[1:]]
        target = SpectraPoint(tuple(lams))
        stratum = classify(target)
        assert stratum.zero_qubits == ((1,) if zero else ()) and stratum.tight_walls == ()
        estimate = numeric_dim(target, n_samples=4, seed=5)
        assert estimate.status == "ok"
        for audit in estimate.samples:
            sample = sample_fiber(target, seed=audit.seed)
            report = momentum_rank_report(sample.state)
            assert (audit.rank_dmu, audit.iterations, audit.restarts) == (
                report.rank, sample.iterations, sample.restarts)
            assert (audit.regular, audit.sv_gap) == (not report.ill_conditioned, report.gap)
            assert abs(audit.residual - sample.residual) <= 1e-15

    def test_builds_no_pure_state(self, monkeypatch):
        # the samples stay one amplitude stack; only sample_fiber wraps its row
        def no_state(*args, **kwargs):
            raise AssertionError("a PureState was built")

        monkeypatch.setattr(fiberlab, "PureState", no_state)
        for target in (INTERIOR3, SpectraPoint((0.0, 0.1, 0.2, 0.15)), SpectraPoint((0.3, 0.3))):
            assert numeric_dim(target, n_samples=3).status == "ok"
        with pytest.raises(AssertionError, match="a PureState was built"):
            sample_fiber(INTERIOR3)

    def test_singular_value_in_the_band_is_not_regular(self, monkeypatch):
        # a cut at twice the smallest singular value drops it, and it lies within the band;
        # the rank cut is read from stability.RANK_TOL at call time
        svals = momentum_rank_report(sample_fiber(INTERIOR3, seed=0).state).singular_values
        cut = 2.0 * svals[-1]
        monkeypatch.setattr(stability, "RANK_TOL", cut / svals[0])
        estimate = numeric_dim(INTERIOR3, n_samples=1, seed=0)
        (audit,) = estimate.samples
        assert audit.rank_dmu == sum(s > cut for s in svals) < 9
        assert audit.dim_isotropy == 9 - audit.rank_dmu and not audit.regular
        assert estimate.status == "inconclusive" and estimate.dim_estimate is None

    def test_counters_are_python_ints(self):
        estimate = numeric_dim(INTERIOR3, n_samples=2)
        for audit in estimate.samples:
            assert type(audit.iterations) is int and type(audit.restarts) is int
            assert type(audit.rank_dmu) is int
        json.dumps(document(estimate))
        sample = sample_fiber(INTERIOR3, seed=3)
        assert type(sample.iterations) is int and type(sample.restarts) is int

    def test_document_shapes(self):
        doc = document(numeric_dim(INTERIOR3, n_samples=2))
        assert doc["dim_estimate"] == 2 and doc["status"] == "ok"
        assert len(doc["samples"]) == 2
        assert doc["samples"][0]["sv_gap"] is None or doc["samples"][0]["sv_gap"] > 0

    def test_audit_document_masks_infinite_gap(self):
        audit = SampleAudit(0, 9, 0, 2, 1e-12, math.inf, True, 40, 0)
        assert document(audit)["sv_gap"] is None
