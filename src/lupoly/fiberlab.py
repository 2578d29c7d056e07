"""Numerical oracle for the reduced-space dimension at regular spectra.

Three ingredients, kept independent of the closed-form module so the
two can be compared honestly:

* ``sample_fiber``: find a state whose shifted marginal spectra match a
  prescribed admissible target, by damped Gauss-Newton steps on the
  spectra residuals over the unit sphere (with exact constructions for
  product, Schmidt, and tight-wall targets, where no descent is needed).
* ``rank_dmu``: numerical rank of the momentum differential at a state,
  whose matrix is the residual Jacobian with every qubit masked.
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
from .qstate import PureState, SpectraPoint, haar_state, pauli_images, psi_map
from .stability import RANK_TOL, _check_tolerance, _rank_and_svals, orbit_dimensions
from .wall import wall_state

FIBER_TOL = 1e-10
# A step costs one residual/Jacobian evaluation and one small solve, about
# 0.1 ms at L = 6 on a 2-core x86-64 VM, so a call that fails on all
# MAX_RESTARTS + 1 attempts ends in about 0.2 s there.  Converging attempts
# took at most 45 steps from Haar starts, down to wall slack 2e-9.
MAX_ITERS = 200
MAX_RESTARTS = 5


def _residuals_and_jacobian(amps: np.ndarray, L: int, target: np.ndarray, zero_mask: np.ndarray):
    """Residuals e of the spectra map and their tangent Jacobian rows g.

    With S the Pauli images of phi, the Bloch vectors are r = Re(S conj(phi))
    and lambda = |r|/2.  A qubit with a nonzero target gives e_l = lambda_l - t_l
    with row g_l = rhat_l . S_l (rhat = z where r = 0); a zero_mask qubit gives
    the three components r_l/2 with rows S_l, which are smooth through the
    spectral degeneracy.  Rows are projected off phi, so a tangent step delta
    changes e_i by Re<g_i, delta> to first order; f = e.e is the objective.
    """
    images = pauli_images(amps, L)
    z = images @ amps.conj()
    images = (images - np.outer(z, amps)).reshape(L, 3, -1)
    r = z.real.reshape(L, 3)
    norm = np.sqrt(np.einsum("ij,ij->i", r, r))
    unit = r / np.where(norm > 0.0, norm, 1.0)[:, None]
    unit[:, 2] += norm == 0.0
    keep = ~zero_mask
    e = np.concatenate([norm[keep] / 2.0 - target[keep], r[zero_mask].reshape(-1) / 2.0])
    rows = np.concatenate([
        (unit[keep, None, :] @ images[keep])[:, 0],
        images[zero_mask].reshape(-1, images.shape[2]),
    ])
    return e, rows


def _spectra_residual(state: PureState, target: np.ndarray) -> float:
    return float(np.linalg.norm(psi_map(state).as_array() - target))


def _descend(amps: np.ndarray, L: int, target: np.ndarray, zero_mask: np.ndarray,
             tol: float, max_iters: int) -> tuple[np.ndarray, float, int]:
    """Damped Gauss-Newton (Levenberg-Marquardt) on the spectra residuals.

    A step solves (A + mu scale I) c = -e with A = Re(g conj(g)^T), moves
    along delta = c . g and retracts onto the unit sphere.  It is kept
    when f = e.e falls (then mu shrinks) and rejected otherwise (mu grows).
    Returns the final amplitudes, their objective, and the number of
    steps tried, accepted or not, which is below max_iters when the descent
    converged or stopped early.
    """
    e, g = _residuals_and_jacobian(amps, L, target, zero_mask)
    f = float(e @ e)
    mu = 1e-3
    for it in range(max_iters):
        if f <= tol * tol:
            break
        a = (g.conj() @ g.T).real
        if e @ a @ e < 1e-32 or mu > 1e12:
            break  # stationary away from the fiber, or no step lowers f: restart
        scale = np.trace(a) / a.shape[0]
        c = np.linalg.solve(a + mu * scale * np.eye(a.shape[0]), -e)
        cand = amps + c @ g
        cand /= np.linalg.norm(cand)
        e_cand, g_cand = _residuals_and_jacobian(cand, L, target, zero_mask)
        f_cand = float(e_cand @ e_cand)
        if f_cand < f:
            amps, e, g, f = cand, e_cand, g_cand, f_cand
            mu = max(mu / 10.0, 1e-12)
        else:
            mu *= 10.0
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
    """Closed-form fiber states for strata that need no descent.

    Tight-wall targets use the explicit wall construction with random
    torus phases; a two-qubit residual is a Schmidt pair; an empty
    residual is a product of |0> factors.  Returns None for the regular
    strata, where the Gauss-Newton descent converges from Haar starts,
    also close to a wall.
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
    max_iters:
        Gauss-Newton steps tried per attempt, accepted or not; the
        sample's ``iterations`` counts them over all attempts.

    Raises
    ------
    ValidationError
        If ``tol`` is not a finite number > 0, or the target lies outside
        the admissible region.
    ConvergenceError
        If no attempt reaches the tolerance; never returns a near-miss.
    """
    _check_tolerance("residual tolerance", tol, math.inf)
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


def momentum_differential_matrix(state: PureState) -> np.ndarray:
    """Real matrix of the momentum differential at the state, shape (2^{L+1}, 3L).

    It is the residual Jacobian with every qubit masked, whose residuals
    r_l/2 are the momentum map: column 3(l-1)+k is 2 [Re P; Im P] for P the
    image sigma_k@l phi projected off phi, so its real pairing with
    (Re v, Im v) is 2 Re<P, v>.  Every column is real-orthogonal to phi and
    i*phi, so rank and nonzero singular values are those of dmu on the
    projective tangent space, with no tangent frame built.
    """
    L = state.num_qubits
    _, rows = _residuals_and_jacobian(state.amplitudes, L, np.zeros(L), np.ones(L, dtype=bool))
    return 2.0 * np.concatenate([rows.real, rows.imag], axis=1).T


@dataclass(frozen=True)
class DmuReport:
    rank: int
    singular_values: tuple
    gap: float  # ratio of smallest kept to largest dropped singular value
    ill_conditioned: bool


def momentum_rank_report(state: PureState, rank_tol: float = RANK_TOL) -> DmuReport:
    matrix = momentum_differential_matrix(state)
    rank, svals, shaky = _rank_and_svals(matrix, rank_tol)
    kept = svals[rank - 1] if rank > 0 else math.inf
    dropped = svals[rank] if rank < svals.size else 0.0
    gap = math.inf if dropped == 0.0 else float(kept / dropped)
    return DmuReport(rank, tuple(float(s) for s in svals), gap, shaky)


def rank_dmu(state: PureState, rank_tol: float = RANK_TOL) -> int:
    """Numerical real rank of the momentum differential at the state."""
    return momentum_rank_report(state, rank_tol=rank_tol).rank


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
    iterations: int  # Gauss-Newton steps tried for the fiber sample, over all restarts
    restarts: int

    def document(self) -> dict:
        return {
            "seed": self.seed,
            "rank_dmu": self.rank_dmu,
            "dim_isotropy": self.dim_isotropy,
            "estimate": self.estimate,
            "residual": self.residual,
            "sv_gap": self.sv_gap if math.isfinite(self.sv_gap) else None,
            "regular": self.regular,
            "iterations": self.iterations,
            "restarts": self.restarts,
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
        iterations=sample.iterations,
        restarts=sample.restarts,
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
        Number of independent fiber samples (at least 1); seeds default to
        0..n_samples-1 and determine the samples completely.

    The estimate for each sample is
    (2^{L+1} - 2 - rank dmu) - (dim K_alpha - dim isotropy), with
    dim K_alpha counting 1 per nonzero coordinate and 3 per zero one.
    The common integer is reported only when every sample agrees and
    passes the regularity check rank dmu = 3L - dim isotropy.
    ``tol`` must be a finite number > 0 and ``rank_tol`` lie in (0, 1).
    """
    _check_tolerance("residual tolerance", tol, math.inf)
    _check_tolerance("rank tolerance", rank_tol, 1.0)
    if n_samples < 1:
        raise ValidationError(f"n_samples must be at least 1, got {n_samples}")
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
    agreement = max(sum(1 for a in audits if a.estimate == e) for e in estimates)
    if regular and len(estimates) == 1:
        value = estimates.pop()
        return NumericDimEstimate(target, value, "ok", True, dim_k_alpha, tuple(audits), agreement)
    return NumericDimEstimate(target, None, "inconclusive", regular, dim_k_alpha, tuple(audits), agreement)
