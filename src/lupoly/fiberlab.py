"""Numerical oracle for the reduced-space dimension at regular spectra.

Three ingredients, kept independent of the closed-form module so the
two can be compared honestly:

* ``sample_fiber``: find a state whose shifted marginal spectra match a
  prescribed admissible target, by projected gradient descent on the
  unit sphere (with exact constructions for product, Schmidt, and
  tight-wall targets, where first-order descent is slow or needless).
* ``rank_dmu``: numerical rank of the momentum differential at a state.
* ``numeric_dim``: assembles per-sample estimates
  (dim P(H) - rank dmu) - (dim K_alpha - dim isotropy) and reports the
  common value only when every sample agrees and looks regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError
from .polytope import StratumClass, classify, membership
from .qstate import (
    PureState,
    SpectraPoint,
    apply_slot_operator,
    haar_state,
    one_qubit_marginal,
    psi_map,
)
from .stability import PAULIS, RANK_TOL, _rank_and_svals, orbit_dimensions
from .wall import wall_state

FIBER_TOL = 1e-10
MAX_ITERS = 20000
MAX_RESTARTS = 5

# Armijo sufficient-decrease constant and step bounds for the BB step.
_ARMIJO = 1e-4
_STEP_MIN = 1e-12
_STEP_MAX = 1e3


def _objective_and_grad(amps: np.ndarray, L: int, target: np.ndarray, zero_mask: np.ndarray):
    """f = sum_l (lambda_l - t_l)^2 and its tangent gradient.

    For coordinates with target 0 the term equals lambda^2 = tr(B^2)/2,
    whose gradient 2*B phi is smooth through the spectral degeneracy;
    elsewhere the eigenvalue gradient 2*(uu*) phi is used.
    """
    f = 0.0
    grad = np.zeros_like(amps)
    for l in range(1, L + 1):
        rho = one_qubit_marginal(amps, L, l)
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
            top_proj = np.outer(u, u.conj())
            grad += 4.0 * diff * apply_slot_operator(amps, top_proj, L, l)
    grad -= np.vdot(amps, grad) * amps
    return f, grad


def _spectra_residual(state: PureState, target: np.ndarray) -> float:
    return float(np.linalg.norm(psi_map(state).as_array() - target))


def _descend(amps: np.ndarray, L: int, target: np.ndarray, zero_mask: np.ndarray,
             tol: float, max_iters: int) -> tuple[np.ndarray, float, int]:
    """Projected gradient descent with BB steps and Armijo backtracking.

    Returns the final amplitudes, their objective, and the number of
    steps taken, which is below max_iters when the descent converged or
    stopped early.
    """
    f, grad = _objective_and_grad(amps, L, target, zero_mask)
    step = 1.0
    prev_amps = prev_grad = None
    for it in range(max_iters):
        if f <= tol * tol:
            break
        if prev_amps is not None:
            s = amps - prev_amps
            y = grad - prev_grad
            sy = np.vdot(s, y).real
            step = (
                min(_STEP_MAX, max(_STEP_MIN, np.vdot(s, s).real / sy))
                if sy > 0.0
                else min(_STEP_MAX, step * 2.0)
            )
        grad_sq = np.vdot(grad, grad).real
        if grad_sq < 1e-32:
            break  # critical point away from the fiber; let the caller restart
        alpha = step
        for _ in range(60):
            cand = amps - alpha * grad
            cand /= np.linalg.norm(cand)
            f_cand, g_cand = _objective_and_grad(cand, L, target, zero_mask)
            if f_cand <= f - _ARMIJO * alpha * grad_sq:
                break
            alpha *= 0.5
        else:
            break  # line search exhausted
        prev_amps, prev_grad = amps, grad
        amps, f, grad = cand, f_cand, g_cand
    else:
        it = max_iters
    return amps, f, it


@dataclass(frozen=True, eq=False)
class FiberSample:
    state: PureState
    target: SpectraPoint
    residual: float
    iterations: int
    restarts: int
    seed: int
    method: str  # "descent" | "wall-construction" | "product" | "schmidt"


def _exact_start(stratum: StratumClass, target: SpectraPoint,
                 rng: np.random.Generator) -> tuple[np.ndarray, str] | None:
    """Closed-form fiber states for strata where descent is wasteful.

    Tight-wall targets use the explicit wall construction with random
    torus phases; a two-qubit residual is a Schmidt pair; an empty
    residual is a product of |0> factors.  Returns None for the regular
    strata, which the optimizer handles well.
    """
    L = stratum.num_qubits
    if stratum.k_half == 0:
        if stratum.tight_walls:
            phases = rng.uniform(0.0, 2.0 * math.pi, size=L)
            return wall_state(target, phases).amplitudes, "wall-construction"
        if stratum.residual_L == 2 and L == 2:
            lam = float(target.lambdas[0])
            amps = np.zeros(4, dtype=np.complex128)
            amps[0] = math.sqrt(0.5 + lam)
            amps[3] = math.sqrt(0.5 - lam)
            return amps, "schmidt"
        return None
    # Strip the lambda = 1/2 coordinates: each is an unentangled |0> factor.
    residual = stratum.residual_qubits
    if not residual:
        amps = np.zeros(2**L, dtype=np.complex128)
        amps[0] = 1.0
        return amps, "product"
    sub_target = SpectraPoint(tuple(target.lambdas[l - 1] for l in residual))
    sub = sample_fiber(sub_target, seed=int(rng.integers(2**32)))
    full = np.zeros((2,) * L, dtype=np.complex128)
    selector = tuple(
        slice(None) if l in residual else 0 for l in range(1, L + 1)
    )
    full[selector] = sub.state.amplitudes.reshape((2,) * len(residual))
    return full.reshape(-1), "product"


def sample_fiber(
    target: SpectraPoint,
    seed: int = 0,
    tol: float = FIBER_TOL,
    max_restarts: int = MAX_RESTARTS,
    max_iters: int = MAX_ITERS,
) -> FiberSample:
    """Find a normalized state whose shifted spectra match the target.

    Parameters
    ----------
    target:
        Admissible spectra point (membership is enforced).
    seed:
        Seeds both the Haar starting points and any random phases.
    tol:
        Success requires the Euclidean spectra distance <= tol.
    max_restarts:
        Fresh Haar restarts after a stalled descent before giving up.

    Raises
    ------
    ValidationError
        If the target lies outside the admissible region.
    ConvergenceError
        If no attempt reaches the tolerance; never returns a near-miss.
    """
    if not membership(target).member:
        raise ValidationError("target spectra lie outside the admissible region")
    L = target.num_qubits
    stratum = classify(target)
    rng = np.random.default_rng(seed)
    t_arr = target.as_array()

    start = _exact_start(stratum, target, rng)
    if start is not None:
        amps, method = start
        state = PureState(L, amps)
        residual = _spectra_residual(state, t_arr)
        if residual <= tol:
            return FiberSample(state, target, residual, 0, 0, seed, method)
        # fall through to descent from this start
    else:
        method = "descent"
        amps = haar_state(L, rng).amplitudes

    zero_mask = np.zeros(L, dtype=bool)
    for l in stratum.zero_qubits:
        zero_mask[l - 1] = True

    total_iters = 0
    best = math.inf
    for attempt in range(max_restarts + 1):
        if attempt > 0:
            amps = haar_state(L, rng).amplitudes
        amps, _, iters = _descend(np.array(amps), L, t_arr, zero_mask, tol, max_iters)
        total_iters += iters
        state = PureState(L, amps)
        residual = _spectra_residual(state, t_arr)
        if residual <= tol:
            return FiberSample(state, target, residual, total_iters, attempt, seed, "descent")
        best = min(best, residual)
    raise ConvergenceError(
        f"fiber sampling did not reach residual {tol:g} after {max_restarts} restarts "
        f"(best residual {best:.3e})"
    )


# --- momentum differential ---------------------------------------------------


def _tangent_frame(amps: np.ndarray) -> np.ndarray:
    """Orthonormal complex basis of the orthogonal complement of amps."""
    n = amps.size
    a = np.eye(n, dtype=np.complex128)
    a[:, 0] = amps
    q, _ = np.linalg.qr(a)
    return q[:, 1:]


def momentum_differential_matrix(state: PureState, slots: Sequence[int] | None = None) -> np.ndarray:
    """Real matrix of the momentum differential on the projective tangent space.

    Rows are indexed by a real tangent frame (w_j and i*w_j for a
    complex orthonormal frame of phi-perp, 2^{L+1} - 2 rows), columns
    by Pauli coefficients of the selected one-qubit blocks.
    """
    L = state.num_qubits
    chosen = tuple(range(1, L + 1)) if slots is None else tuple(slots)
    for l in chosen:
        if not 1 <= l <= L:
            raise ValidationError(f"slot {l} out of range 1..{L}")
    phi_t = state.tensor_view()
    frame = _tangent_frame(state.amplitudes)
    rows = []
    for j in range(frame.shape[1]):
        for v in (frame[:, j], 1j * frame[:, j]):
            v_t = v.reshape((2,) * L)
            row = []
            for l in chosen:
                axes = tuple(i for i in range(L) if i != l - 1)
                m = np.tensordot(v_t, phi_t.conj(), axes=(axes, axes))
                block = m + m.conj().T
                for sigma in PAULIS:
                    row.append(float(np.trace(sigma @ block).real))
            rows.append(row)
    return np.array(rows)


@dataclass(frozen=True)
class DmuReport:
    rank: int
    singular_values: tuple
    gap: float  # ratio of smallest kept to largest dropped singular value
    ill_conditioned: bool


def momentum_rank_report(
    state: PureState, rank_tol: float = RANK_TOL, slots: Sequence[int] | None = None
) -> DmuReport:
    matrix = momentum_differential_matrix(state, slots=slots)
    rank, svals, shaky = _rank_and_svals(matrix, rank_tol)
    kept = svals[rank - 1] if rank > 0 else math.inf
    dropped = svals[rank] if rank < svals.size else 0.0
    gap = math.inf if dropped == 0.0 else float(kept / dropped)
    return DmuReport(rank, tuple(float(s) for s in svals), gap, shaky)


def rank_dmu(state: PureState, rank_tol: float = RANK_TOL,
             slots: Sequence[int] | None = None) -> int:
    """Numerical real rank of the momentum differential at the state."""
    return momentum_rank_report(state, rank_tol=rank_tol, slots=slots).rank


# --- dimension estimate ------------------------------------------------------


@dataclass(frozen=True)
class SampleAudit:
    seed: int
    rank_dmu: int
    dim_isotropy: int
    estimate: int
    residual: float
    sv_gap: float
    regular: bool

    def document(self) -> dict:
        return {
            "seed": self.seed,
            "rank_dmu": self.rank_dmu,
            "dim_isotropy": self.dim_isotropy,
            "estimate": self.estimate,
            "residual": self.residual,
            "sv_gap": self.sv_gap if math.isfinite(self.sv_gap) else None,
            "regular": self.regular,
        }


@dataclass(frozen=True)
class NumericDimEstimate:
    target: SpectraPoint
    dim_estimate: int | None
    status: str  # "ok" | "inconclusive"
    regular: bool
    dim_k_alpha: int
    samples: tuple
    agreement: int

    def document(self) -> dict:
        return {
            "target": [float(x) for x in self.target.lambdas],
            "dim_estimate": self.dim_estimate,
            "status": self.status,
            "regular": self.regular,
            "dim_k_alpha": self.dim_k_alpha,
            "agreement": self.agreement,
            "samples": [s.document() for s in self.samples],
        }


def _one_sample(target: SpectraPoint, seed: int, tol: float, rank_tol: float,
                dim_k_alpha: int, dim_proj: int, num_qubits: int) -> SampleAudit:
    sample = sample_fiber(target, seed=seed, tol=tol)
    # independent re-verification through the marginal-spectra path
    achieved = psi_map(sample.state)
    off = float(np.linalg.norm(achieved.as_array() - target.as_array()))
    if not membership(achieved).member or off > tol:
        raise ConvergenceError(
            f"fiber sample failed re-verification (spectra distance {off:.3e})"
        )
    report = momentum_rank_report(sample.state, rank_tol=rank_tol)
    iso = orbit_dimensions(sample.state, rank_tol=rank_tol).dim_isotropy_algebra
    estimate = (dim_proj - report.rank) - (dim_k_alpha - iso)
    regular = report.rank == 3 * num_qubits - iso and not report.ill_conditioned
    return SampleAudit(
        seed=seed,
        rank_dmu=report.rank,
        dim_isotropy=iso,
        estimate=estimate,
        residual=sample.residual,
        sv_gap=report.gap,
        regular=regular,
    )


def numeric_dim(
    target: SpectraPoint,
    n_samples: int = 5,
    seeds: Sequence[int] | None = None,
    tol: float = FIBER_TOL,
    rank_tol: float = RANK_TOL,
) -> NumericDimEstimate:
    """Independent dimension estimate from fiber samples.

    Parameters
    ----------
    target:
        Admissible spectra point in the regular regime: no coordinate
        at 1/2 and no tight wall.  Other strata are refused because the
        momentum differential drops rank there and the estimator would
        be silently wrong.
    n_samples, seeds:
        Number of independent fiber samples; seeds default to
        0..n_samples-1 and determine the samples completely.

    The estimate for each sample is
    (2^{L+1} - 2 - rank dmu) - (dim K_alpha - dim isotropy), with
    dim K_alpha counting 1 per nonzero coordinate and 3 per zero one.
    The common integer is reported only when every sample agrees and
    passes the regularity check rank dmu = 3L - dim isotropy.
    """
    if not membership(target).member:
        raise ValidationError("target spectra lie outside the admissible region")
    stratum = classify(target)
    if stratum.k_half > 0 or stratum.tight_walls:
        raise ValidationError(
            "singular value of mu: use case-specific certificate reductions "
            "(strip lambda = 1/2 product factors and recurse; tight walls are "
            "dimension 0 by the torus transitivity certificate)"
        )
    L = target.num_qubits
    dim_proj = 2 ** (L + 1) - 2
    dim_k_alpha = sum(3 if l in stratum.zero_qubits else 1 for l in range(1, L + 1))
    if seeds is None:
        seeds = range(n_samples)
    seeds = [int(s) for s in seeds]
    if len(seeds) != n_samples:
        raise ValidationError(f"expected {n_samples} seeds, got {len(seeds)}")

    audits = [_one_sample(target, s, tol, rank_tol, dim_k_alpha, dim_proj, L) for s in seeds]

    estimates = {a.estimate for a in audits}
    regular = all(a.regular for a in audits)
    agreement = max(
        (sum(1 for a in audits if a.estimate == e) for e in estimates), default=0
    )
    if regular and len(estimates) == 1:
        value = estimates.pop()
        return NumericDimEstimate(target, value, "ok", True, dim_k_alpha, tuple(audits), agreement)
    return NumericDimEstimate(target, None, "inconclusive", regular, dim_k_alpha, tuple(audits), agreement)
