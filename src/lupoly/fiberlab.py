"""Numerical oracle for the reduced-space dimension at regular spectra.

Three ingredients, kept independent of the closed-form module so the
two can be compared honestly:

* ``sample_fiber``: find a state whose shifted marginal spectra match a
  prescribed admissible target, by damped Gauss-Newton steps on the
  spectra residuals over the unit sphere (with exact constructions for
  Schmidt and tight-wall targets, where no descent is needed, and |0>
  factors for the 1/2 coordinates around a sample of the residual system).
  The target's ``classify`` stratum picks the start once per stack.
* ``rank_dmu``: numerical rank of the momentum differential at a state,
  whose columns are the projected Pauli images in real coordinates.
* ``numeric_dim``: assembles per-sample estimates
  (dim P(H) - rank dmu) - (dim K_alpha - dim isotropy) and reports the
  common value only when every sample agrees and looks regular.

The descent works on a stack of states, shape (n, 2^L): ``numeric_dim``
descends its n samples together, each row with its own damping and stop
test, and ``sample_fiber`` is the one-row case.  A row that stops leaves the
stack in the pass that stops it, and the other rows step in that same pass.
A row whose attempt ends above FIBER_TOL restarts from a fresh Haar start
after the stack, together with the other such rows.  Haar starts are bare
amplitude rows drawn as ``haar_state`` draws them, with no PureState built.
The residual Jacobian and the dmu matrix both read ``qstate.pauli_images``.
The stack stays a stack: each one is checked with one call to
``qstate.psi_stack``, the stacked partial trace behind ``psi_map`` (not the
Pauli images), whose point for each row must lie near the target, and with
one ``polytope.slacks`` pass over those points' coordinate columns, which
puts every point inside the admissible region.  ``numeric_dim`` then ranks
the checked amplitude stack as it is, with no PureState per sample; only
``sample_fiber`` wraps its one row.  The dmu ranks of a stack come from one
SVD call, and the compact orbit columns are J dmu / 2, so no orbit SVD is
taken.
MAX_ITERS and MAX_RESTARTS bound every descent, every sample reaches the
residual FIBER_TOL, and every rank cuts at ``stability.RANK_TOL``; no entry
point takes any of them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, ValidationError
from .polytope import MEMBER_TOL, SpectraPoint, StratumClass, check_int, classify, slacks
from .qstate import PureState, _haar_row, pauli_images, psi_stack
from .stability import _rank_and_svals, _real_columns
from .wall import wall_state

# Every fiber sample reaches this Euclidean spectra distance, or raises.
FIBER_TOL = 1e-10
# A step costs one residual/Jacobian evaluation and one small solve, about
# 0.065 ms for one row at L = 6 on a 2-core x86-64 VM (one BLAS thread), so a
# call that fails on all MAX_RESTARTS + 1 attempts ends in about 0.08 s there
# (medians of 7).  Converging attempts took at most 45 steps from Haar
# starts, down to wall slack 2e-9.
MAX_ITERS = 200
MAX_RESTARTS = 5
# numeric_dim descends at most this many Pauli-image entries (n * 3L * 2^L,
# 4 MiB) as one stack: all samples at small L, one at a time at L = 12.
STACK_ENTRIES = 2**18
# numeric_dim refuses more samples than this before it allocates anything.
# One L = 12 sample took 52-78 ms (one BLAS thread, 2-core x86-64 VM), so
# MAX_SAMPLES of them take 27-40 s there.
MAX_SAMPLES = 512


def _keep(zero_mask: np.ndarray) -> np.ndarray | None:
    """Which of [lambda_l - t_l for every l] + [r_lk / 2 for every l, k] are residuals.

    Those of the nonzero-target qubits come first, then the three components
    of each zero_mask qubit, each in qubit order.  None when no qubit is in
    zero_mask: then the residuals are the first L, in order.
    """
    mask = np.asarray(zero_mask, dtype=bool)
    if not mask.any():
        return None
    return np.flatnonzero(np.concatenate([~mask, np.repeat(mask, 3)]))


def _residuals_and_jacobian(amps: np.ndarray, L: int, target: np.ndarray, keep: np.ndarray | None):
    """Residuals e of the spectra map and their tangent Jacobian rows g, per state.

    ``amps`` is one amplitude vector or a stack (..., 2^L); e has shape
    (..., m) and g (..., m, 2^L) for the m residuals ``keep`` selects (see
    ``_keep``).  With S the projected Pauli images of phi and
    z = <phi|sigma|phi> from ``pauli_images``, the Bloch vectors are r = Re z
    and lambda = |r|/2.  A nonzero target gives e_l = lambda_l - t_l with
    row g_l = rhat_l . S_l (rhat = z where r = 0); a zero target gives the
    three components r_l/2 with rows S_l, which are smooth through the
    spectral degeneracy.
    Rows lie off phi, so a tangent step delta changes e_i by Re<g_i, delta>
    to first order; f = e.e is the objective.
    """
    batch = amps.shape[:-1]
    images, z = pauli_images(amps, L)
    r = z.real.reshape(batch + (L, 3))
    norm = np.sqrt(np.einsum("...ij,...ij->...i", r, r))
    unit = r / np.where(norm > 0.0, norm, 1.0)[..., None]
    unit[..., 2] += norm == 0.0
    along = (unit[..., None, :] @ images.reshape(batch + (L, 3, -1)))[..., 0, :]
    if keep is None:
        return norm / 2.0 - target, along
    e = np.concatenate([norm / 2.0 - target, z.real / 2.0], axis=-1)[..., keep]
    rows = np.concatenate([along, images], axis=-2)[..., keep, :]
    return e, rows


def _descend(amps: np.ndarray, L: int, target: np.ndarray, keep: np.ndarray | None, max_iters: int):
    """Damped Gauss-Newton (Levenberg-Marquardt) on the spectra residuals of a stack of states.

    ``amps`` (n, 2^L) holds one start per row.  A step solves
    (A + mu scale I) c = -e with A = Re(g conj(g)^T), moves along
    delta = c . g and retracts onto the unit sphere.  It is kept when
    f = e.e falls (then mu shrinks) and rejected otherwise (mu grows).
    Each row has its own mu, accept test and stop test, and leaves the
    stack when it stops: when f <= FIBER_TOL^2, when it is stationary away
    from the fiber or no step lowers f, or after max_iters steps.  This is
    one attempt; restarts are the caller's.

    Returns per row its end amplitudes, their objective, and the steps it
    tried, accepted or not.
    """
    amps = np.array(amps, dtype=np.complex128)
    n, tol2 = len(amps), FIBER_TOL * FIBER_TOL
    end, end_f, end_steps = amps.copy(), [math.inf] * n, [0] * n
    # per row of the stack: its input row and damping; every live row has taken `steps`
    live, mu, steps = list(range(n)), [1e-3] * n, 0
    e, g = _residuals_and_jacobian(amps, L, target, keep)
    f = (e * e).sum(axis=1)
    m = e.shape[1]
    while live:
        gv = g.view(np.float64)  # A = Re(g conj(g)^T) is the real Gram matrix of the rows
        a = gv @ gv.swapaxes(1, 2)
        fs, slopes = f.tolist(), ((a @ e[..., None])[..., 0] * e).sum(axis=1).tolist()
        # converged, stationary away from the fiber, no step lowers f, or out of steps
        stop = [fj <= tol2 or sj < 1e-32 or mj > 1e12 or steps == max_iters
                for fj, sj, mj in zip(fs, slopes, mu)]
        if any(stop):
            for j, i in enumerate(live):
                if stop[j]:
                    end[i], end_f[i], end_steps[i] = amps[j], fs[j], steps
            go = [j for j, sj in enumerate(stop) if not sj]
            live, mu = [live[j] for j in go], [mu[j] for j in go]
            if not live:
                break
            # the rows that go on step in this pass, on the Gram matrices already taken
            amps, e, g, f, a = amps[go], e[go], g[go], f[go], a[go]
            gv = g.view(np.float64)
        diag = a.reshape(len(a), -1)[:, ::m + 1]  # a view of each row's diagonal
        diag += np.array(mu)[:, None] * (diag.sum(axis=1) / m)[:, None]
        c = np.linalg.solve(a, -e[..., None])
        cand = amps + (c.swapaxes(1, 2) @ gv)[:, 0].view(np.complex128)
        # np.linalg.norm(cand, axis=1, keepdims=True), the same arithmetic without its wrapper
        cand /= np.sqrt(np.add.reduce((cand.conj() * cand).real, axis=1, keepdims=True))
        e_cand, g_cand = _residuals_and_jacobian(cand, L, target, keep)
        f_cand = (e_cand * e_cand).sum(axis=1)
        down = (f_cand < f).tolist()
        if all(down):
            amps, e, g, f = cand, e_cand, g_cand, f_cand
        elif any(down):
            took = [j for j, d in enumerate(down) if d]
            amps[took], e[took] = cand[took], e_cand[took]
            g[took], f[took] = g_cand[took], f_cand[took]
        mu = [max(mj / 10.0, 1e-12) if d else mj * 10.0 for mj, d in zip(mu, down)]
        steps += 1
    return end, end_f, end_steps


class FiberSample(NamedTuple):
    state: PureState
    target: SpectraPoint
    residual: float
    iterations: int
    restarts: int
    seed: int
    method: str  # "descent" | "wall-construction" | "product" | "schmidt"


def sample_fiber(target: SpectraPoint, seed: int = 0) -> FiberSample:
    """Find a normalized state whose shifted spectra lie within FIBER_TOL of the target.

    Parameters
    ----------
    target:
        Admissible spectra point (membership is enforced).
    seed:
        Seeds both the Haar starting points and any random phases.

    An attempt tries at most MAX_ITERS steps, accepted or not.  An attempt
    that ends above FIBER_TOL is followed by one from a fresh Haar start, at
    most MAX_RESTARTS times; ``iterations`` counts the steps of all attempts,
    on a 1/2 face those of the residual system's sample too.
    The sample's ``psi_map`` point is checked against the target and the
    admissible region.

    Raises
    ------
    ValidationError
        If the seed is not an integer >= 0, or the target lies outside the
        admissible region.
    ConvergenceError
        If no attempt reaches FIBER_TOL, or the sample fails its check;
        never returns a near-miss.
    """
    seed = check_int(seed, "seed", 0)
    stratum = classify(target)  # refuses a target outside the admissible region
    amps, (row,) = _fiber_samples(target, stratum, [seed])
    return FiberSample(PureState(target.num_qubits, amps[0]), target, *row)


def _fiber_samples(target: SpectraPoint, stratum: StratumClass,
                   seeds: Sequence[int]) -> tuple[np.ndarray, list]:
    """Checked fiber samples, one per seed, in seed order, all descended as one stack.

    Returns their amplitudes, shape (n, 2^L), and per row the tuple
    (residual, iterations, restarts, seed, method) of ``FiberSample`` fields.
    The stratum picks one kind of start for the whole stack: with 1/2
    coordinates, |0> factors times the residual system's samples from one
    nested call; at a tight wall, ``wall_state``; at L = 2, the Schmidt
    pair; anywhere else, Haar starts.  ``default_rng(seed)`` draws that row's
    start (the residual sample's seed, the wall phases, or the Haar row) and
    then the Haar start of each restart, so a row's sample does not depend on
    the other rows.  A row's iterations and restarts include those of its
    residual sample, and its method is the start's kind while the row's own
    attempt takes no step, "descent" otherwise.  After each attempt the rows
    still above FIBER_TOL restart together; each row keeps its lowest attempt
    end.  One ``psi_stack`` call checks every row's reductions (finite,
    Hermitian and of trace 1, the squared norm, within MATRIX_TOL) and reads
    its ``psi_map`` point, which must lie within FIBER_TOL of the target; one
    ``slacks`` pass over the points' coordinate columns requires every point
    to lie inside the admissible region within MEMBER_TOL.  Otherwise
    ConvergenceError names the test that failed.
    """
    L = target.num_qubits
    t_arr = target.as_array()
    keep = _keep([l in stratum.zero_qubits for l in range(1, L + 1)])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n, tol2 = len(seeds), FIBER_TOL * FIBER_TOL
    nested = [(0, 0)] * n  # per row, the iterations and restarts of its residual sample
    if stratum.k_half:  # each 1/2 coordinate is an unentangled |0> factor
        start, residual, sub = "product", stratum.residual_qubits, np.ones(n)
        if residual:
            sub_target = SpectraPoint(tuple(target.lambdas[l - 1] for l in residual))
            sub, sub_rows = _fiber_samples(sub_target, classify(sub_target),
                                           [int(rng.integers(2**32)) for rng in rngs])
            sub = np.array([row / np.linalg.norm(row) for row in sub])  # as PureState renormalizes
            nested = [(its, rs) for _, its, rs, _, _ in sub_rows]
        amps = np.zeros((n, 2**L), dtype=np.complex128)
        factors = tuple(slice(None) if l in residual else 0 for l in range(1, L + 1))
        amps.reshape((n,) + (2,) * L)[(slice(None),) + factors] = sub.reshape(
            (n,) + (2,) * len(residual))
    elif stratum.tight_walls:
        start = "wall-construction"
        amps = np.array([wall_state(target, rng.uniform(0.0, 2.0 * math.pi, size=L)).amplitudes
                         for rng in rngs])
    elif L == 2:  # the Schmidt pair
        lam, start = float(target.lambdas[0]), "schmidt"
        amps = np.zeros((n, 4), dtype=np.complex128)
        amps[:, 0], amps[:, 3] = math.sqrt(0.5 + lam), math.sqrt(0.5 - lam)
    else:
        amps, start = np.array([_haar_row(L, rng) for rng in rngs]), "descent"
    f, iterations, restarts = [math.inf] * n, [0] * n, [0] * n
    rows, tries = list(range(n)), amps
    for attempt in range(MAX_RESTARTS + 1):
        if attempt:
            tries = np.array([_haar_row(L, rngs[i]) for i in rows])
        ends, end_f, steps = _descend(tries, L, t_arr, keep, MAX_ITERS)
        for i, end, fj, sj in zip(rows, ends, end_f, steps):
            iterations[i] += sj
            restarts[i] = attempt
            if fj < f[i]:
                amps[i], f[i] = end, fj
        rows = [i for i in rows if f[i] > tol2]
        if not rows:
            break
    achieved = psi_stack(amps)  # one check per stack
    residuals = np.linalg.norm(achieved - t_arr, axis=1).tolist()
    outside = (np.array(slacks(tuple(achieved.T))) < -MEMBER_TOL).any(axis=0).tolist()
    out = []
    for i, (seed, residual) in enumerate(zip(seeds, residuals)):
        if f[i] > tol2:
            raise ConvergenceError(
                f"fiber sampling did not reach residual {FIBER_TOL:g} after {MAX_RESTARTS} "
                f"restarts (best residual {residual:.3e})"
            )
        if residual > FIBER_TOL:
            raise ConvergenceError(
                f"fiber sample failed re-verification: its psi_map point lies {residual:.3e} "
                f"from the target, above FIBER_TOL = {FIBER_TOL:g}"
            )
        if outside[i]:
            raise ConvergenceError(
                "fiber sample failed re-verification: its psi_map point lies outside the "
                "admissible region"
            )
        method = start if iterations[i] == 0 and restarts[i] == 0 else "descent"
        out.append((residual, iterations[i] + nested[i][0], restarts[i] + nested[i][1], seed,
                    method))
    return amps, out


# --- momentum differential ---------------------------------------------------


def _dmu_matrices(amps: np.ndarray, L: int) -> np.ndarray:
    """The momentum differential (2^{L+1}, 3L) at one state, or at each state of a stack."""
    return 2.0 * _real_columns(pauli_images(amps, L)[0])


def momentum_differential_matrix(state: PureState) -> np.ndarray:
    """Real matrix of the momentum differential at the state, shape (2^{L+1}, 3L).

    Column 3(l-1)+k is 2 [Re P; Im P] for P the image sigma_k@l phi
    projected off phi (row 3(l-1)+k of ``pauli_images``), so its real
    pairing with (Re v, Im v) is 2 Re<P, v>, the derivative of the Bloch
    component r_lk along v.  Every column is real-orthogonal to phi and
    i*phi, so rank and nonzero singular values are those of dmu on the
    projective tangent space, with no tangent frame built.
    """
    return _dmu_matrices(state.amplitudes, state.num_qubits)


def _sv_gap(svals: np.ndarray, rank: int) -> float:
    """Ratio of the smallest kept to the largest dropped singular value."""
    kept = svals[rank - 1] if rank > 0 else math.inf
    dropped = svals[rank] if rank < svals.size else 0.0
    return math.inf if dropped == 0.0 else float(kept / dropped)


class DmuReport(NamedTuple):
    rank: int
    singular_values: tuple
    gap: float  # ratio of smallest kept to largest dropped singular value
    ill_conditioned: bool


def momentum_rank_report(state: PureState) -> DmuReport:
    matrix = momentum_differential_matrix(state)
    rank, svals, shaky = _rank_and_svals(matrix)
    return DmuReport(rank, tuple(float(s) for s in svals), _sv_gap(svals, rank), shaky)


def rank_dmu(state: PureState) -> int:
    """Numerical real rank of the momentum differential at the state."""
    return momentum_rank_report(state).rank


# --- dimension estimate ------------------------------------------------------


class SampleAudit(NamedTuple):
    seed: int
    rank_dmu: int
    dim_isotropy: int
    estimate: int
    residual: float
    sv_gap: float
    regular: bool
    iterations: int  # Gauss-Newton steps tried for the fiber sample, over all restarts
    restarts: int


class NumericDimEstimate(NamedTuple):
    target: SpectraPoint
    dim_estimate: int | None
    status: str  # "ok" | "inconclusive"
    regular: bool
    dim_k_alpha: int
    agreement: int
    samples: tuple


def numeric_dim(target: SpectraPoint, n_samples: int = 5, seed: int = 0) -> NumericDimEstimate:
    """Independent dimension estimate from fiber samples.

    Parameters
    ----------
    target:
        Admissible spectra point in the regular regime: no coordinate
        at 1/2 and no tight wall.  Other strata are refused because the
        momentum differential drops rank there and the estimator would
        be silently wrong.
    n_samples, seed:
        Number of independent fiber samples, 1..MAX_SAMPLES, and the base
        seed (>= 0): sample i uses seed + i, which determines it completely.

    The estimate for each sample is
    (2^{L+1} - 2 - rank dmu) - (dim K_alpha - dim isotropy), with
    dim K_alpha counting 1 per nonzero coordinate and 3 per zero one.
    dim isotropy is 3L - rank dmu, since rank dmu = dim K.x.  The common
    integer is reported only when every sample agrees and is regular: no
    singular value of dmu within ILL_CONDITION_BAND of the rank cut
    (``stability.RANK_TOL``).  Every sample lies within FIBER_TOL of the target.
    """
    n_samples = check_int(n_samples, "n_samples", 1, MAX_SAMPLES)
    seed = check_int(seed, "seed", 0)
    seeds = range(seed, seed + n_samples)
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
    per_stack = max(1, STACK_ENTRIES // (3 * L * 2**L))
    audits = []
    for first in range(0, n_samples, per_stack):
        amps, rows = _fiber_samples(target, stratum, seeds[first:first + per_stack])
        ranks, svals, shaky = _rank_and_svals(_dmu_matrices(amps, L))  # one SVD call per stack
        for (residual, iterations, restarts, sample_seed, _), rank, sv, ill in zip(
                rows, ranks, svals, shaky):
            iso = 3 * L - rank  # dim K.x = rank dmu
            audits.append(SampleAudit(
                seed=sample_seed,
                rank_dmu=rank,
                dim_isotropy=iso,
                estimate=(dim_proj - rank) - (dim_k_alpha - iso),
                residual=residual,
                sv_gap=_sv_gap(sv, rank),
                regular=not ill,
                iterations=iterations,
                restarts=restarts,
            ))

    estimates = {a.estimate for a in audits}
    regular = all(a.regular for a in audits)
    agreement = max(sum(1 for a in audits if a.estimate == e) for e in estimates)
    if regular and len(estimates) == 1:
        value = estimates.pop()
        return NumericDimEstimate(target, value, "ok", True, dim_k_alpha, agreement, tuple(audits))
    return NumericDimEstimate(target, None, "inconclusive", regular, dim_k_alpha, agreement, tuple(audits))
