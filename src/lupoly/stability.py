"""Orbit and isotropy dimensions via numerical rank, and the explicitly
stable zero-momentum states.

Both orbit ranks read the projected images of ``qstate.pauli_images``, the
package's one Pauli action.  The compact generators i*sigma_k act by i times
those images, which keeps the singular values, and the complexified ones
E12, E21, H are fixed combinations of them (``LADDER``).  ``verify_stable``
takes its orbit report and its k1 rank from one call of the kernel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .polytope import check_qubit_count, check_qubit_index, check_real
from .qstate import PureState, momentum_map, pauli_images

# E12 = (sigma_x + i sigma_y)/2, E21 = (sigma_x - i sigma_y)/2 and H = sigma_z.
LADDER = np.array([[0.5, 0.5j, 0.0], [0.5, -0.5j, 0.0], [0.0, 0.0, 1.0]])
LADDER.flags.writeable = False

# Every numerical rank counts the singular values above RANK_TOL times the largest.
RANK_TOL = 1e-8
REDUCTION_TOL = 1e-10
# Singular values within this factor of the threshold are suspicious.
ILL_CONDITION_BAND = 10.0


class OrbitReport(NamedTuple):
    dim_K_orbit: int
    dim_G_orbit_complex: int
    dim_isotropy_algebra: int
    compact_singular_values: tuple
    complex_singular_values: tuple
    rank_tol: float
    ill_conditioned: bool


def _real_columns(rows: np.ndarray) -> np.ndarray:
    """Real columns [Re; Im] of rows (..., m, 2^L): shape (..., 2^{L+1}, m), column i from row i."""
    return np.concatenate([rows.real, rows.imag], axis=-1).swapaxes(-1, -2)


def _rank_and_svals(cols: np.ndarray) -> tuple:
    """Rank, singular values and conditioning flag of a matrix, or of each in a stack (B..., m, n).

    The rank counts singular values above RANK_TOL times the largest; the flag
    is set when one lies within ILL_CONDITION_BAND of that cut.  For a stack the
    ranks and flags are nested lists of shape B, from one SVD call.
    """
    svals = np.linalg.svd(cols, compute_uv=False)
    cut = RANK_TOL * svals[..., :1]
    rank = (svals > cut).sum(axis=-1)
    shaky = ((svals > cut / ILL_CONDITION_BAND) & (svals < cut * ILL_CONDITION_BAND)).any(axis=-1)
    return rank.tolist(), svals, shaky.tolist()


def orbit_dimensions(state: PureState) -> OrbitReport:
    """Orbit and isotropy dimensions from generator actions at the state.

    Each generator action is projected off the complex line through the
    state, so the phase direction never counts toward the orbit; a
    generator whose action is a pure phase therefore lands in the
    isotropy algebra.  Ranks are singular-value counts above
    RANK_TOL times the top singular value.
    """
    return _orbit_report(pauli_images(state.amplitudes, state.num_qubits)[0])


def _orbit_report(images: np.ndarray) -> OrbitReport:
    """The orbit report of one state's (3L, 2^L) projected Pauli images."""
    rows, dim = images.shape
    k_rank, k_svals, k_shaky = _rank_and_svals(_real_columns(images))
    ladder = (LADDER @ images.reshape(-1, 3, dim)).reshape(rows, dim)
    g_rank, g_svals, g_shaky = _rank_and_svals(ladder.T)
    return OrbitReport(
        dim_K_orbit=k_rank,
        dim_G_orbit_complex=g_rank,
        dim_isotropy_algebra=rows - k_rank,
        compact_singular_values=tuple(float(s) for s in k_svals),
        complex_singular_values=tuple(float(s) for s in g_svals),
        rank_tol=RANK_TOL,
        ill_conditioned=k_shaky or g_shaky,
    )


def complement_pair_state(num_qubits: int, ghz_weight: float) -> PureState:
    """Unvalidated member of the paired-ket family.

    GHZ pair |0..0> + |1..1> at the given weight, plus for every
    l in 2..L the ket with ones exactly at qubits {1, l} and its
    bitwise complement at weight 1.  Exposed so that weights outside
    the guaranteed-stable set can still be probed.
    """
    L = num_qubits
    check_qubit_count(L, 2, "the paired-ket family")
    full = 2**L - 1
    amps = np.zeros(2**L, dtype=np.complex128)
    amps[0] += ghz_weight
    amps[full] += ghz_weight
    for l in range(2, L + 1):
        ket = (1 << (L - 1)) + (1 << (L - l))
        amps[ket] += 1.0
        amps[full - ket] += 1.0
    return PureState.from_amplitudes(amps, renormalize=True)


def stable_state(num_qubits: int, alpha: float | None = None) -> PureState:
    """A zero-momentum state whose local orbit has full dimension.

    For L >= 5 the default weights are all 1; for L = 4 the GHZ pair
    carries the weight alpha (default 2), a finite real number, and the
    weights 1 and -3 are rejected because the orbit rank drops there.
    """
    L = check_qubit_count(num_qubits, 4, "stable_state")
    if alpha is None:
        alpha = 2.0 if L == 4 else 1.0
    alpha = check_real(alpha, "alpha", -math.inf)
    if L == 4 and alpha in (1.0, -3.0):
        raise ValidationError(
            f"alpha={alpha:g} is in the excluded set {{1, -3}}: the four-qubit "
            "family loses orbit rank there and stability fails"
        )
    return complement_pair_state(L, alpha)


class StabilityReport(NamedTuple):
    stable: bool
    k1: int
    k1_rank: int
    required_rank: int
    max_reduction_deviation: float
    reductions_ok: bool
    orbit: OrbitReport

    def __bool__(self) -> bool:
        return self.stable


def verify_stable(state: PureState, k1: int | None = None) -> StabilityReport:
    """Check stability with respect to the local group of the first k1 qubits.

    Requires (a) the first k1 reduced matrices to equal I/2 within
    REDUCTION_TOL and (b) the orbit rank over the compact generators of
    slots 1..k1 to reach 3*k1.  The report also carries the full-group
    orbit data.  k1 is an integer in 1..L, by default L, where the k1 rank
    is the orbit's compact rank.
    """
    L = state.num_qubits
    k1 = L if k1 is None else check_qubit_index(k1, L, "k1")

    dev = float(np.abs(momentum_map(state)[:k1]).max())
    reductions_ok = dev <= REDUCTION_TOL

    images = pauli_images(state.amplitudes, L)[0]
    orbit = _orbit_report(images)
    k1_rank = orbit.dim_K_orbit
    if k1 < L:
        k1_rank, _, _ = _rank_and_svals(_real_columns(images[:3 * k1]))
    return StabilityReport(
        stable=bool(reductions_ok and k1_rank == 3 * k1),
        k1=k1,
        k1_rank=k1_rank,
        required_rank=3 * k1,
        max_reduction_deviation=dev,
        reductions_ok=reductions_ok,
        orbit=orbit,
    )
