"""The local generator table, orbit and isotropy dimensions via
numerical rank, and the explicitly stable zero-momentum states.

Every generator acts on a single tensor slot, so one table of six 2x2
factors is applied at each slot by ``apply_slot_operator``; the full
2^L x 2^L matrices are never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qstate import PureState, apply_slot_operator, check_qubit_count, reduce_one_qubit

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
E21 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)
# Per slot: i*sigma_{x,y,z} span the compact algebra, E12, E21, H the complexified one.
GENERATORS = np.stack([1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z, E12, E21, SIGMA_Z])
GENERATORS.flags.writeable = False

RANK_TOL = 1e-8
REDUCTION_TOL = 1e-10
# Singular values within this factor of the threshold are suspicious.
ILL_CONDITION_BAND = 10.0


@dataclass(frozen=True)
class OrbitReport:
    dim_K_orbit: int
    dim_G_orbit_complex: int
    dim_isotropy_algebra: int
    compact_singular_values: tuple
    complex_singular_values: tuple
    rank_tol: float
    ill_conditioned: bool

    def document(self) -> dict:
        return {
            "dim_K_orbit": self.dim_K_orbit,
            "dim_G_orbit_complex": self.dim_G_orbit_complex,
            "dim_isotropy_algebra": self.dim_isotropy_algebra,
            "compact_singular_values": list(self.compact_singular_values),
            "complex_singular_values": list(self.complex_singular_values),
            "rank_tol": self.rank_tol,
            "ill_conditioned": self.ill_conditioned,
        }


def _generator_actions(state: PureState) -> np.ndarray:
    """(L, 6, 2^L): entry [l-1, k] is GENERATORS[k] at slot l applied to the state,
    projected off the complex line through the state."""
    L, phi = state.num_qubits, state.amplitudes
    check_qubit_count(L, 1, "the orbit ranks")
    w = np.stack([apply_slot_operator(phi, GENERATORS, L, l) for l in range(1, L + 1)])
    return w - (w @ phi.conj())[..., None] * phi


def _real_columns(actions: np.ndarray) -> np.ndarray:
    """Real columns [Re; Im] of (k, 3, 2^L) actions, slot-major: column 3(l-1)+k."""
    rows = actions.reshape(-1, actions.shape[-1])
    return np.concatenate([rows.real, rows.imag], axis=1).T


def _check_tolerance(name: str, value: float, high: float) -> None:
    if not 0.0 < value < high:  # false for NaN too
        raise ValidationError(f"{name} must be a finite number in (0, {high:g}), got {value}")


def _rank_and_svals(cols: np.ndarray, rank_tol: float) -> tuple[int, np.ndarray, bool]:
    _check_tolerance("rank tolerance", rank_tol, 1.0)
    svals = np.linalg.svd(cols, compute_uv=False)
    top = svals[0] if svals.size else 0.0
    if top == 0.0:
        return 0, svals, False
    cut = rank_tol * top
    rank = int((svals > cut).sum())
    shaky = bool(np.any((svals > cut / ILL_CONDITION_BAND) & (svals < cut * ILL_CONDITION_BAND)))
    return rank, svals, shaky


def orbit_dimensions(state: PureState, rank_tol: float = RANK_TOL) -> OrbitReport:
    """Orbit and isotropy dimensions from generator actions at the state.

    Each generator action is projected off the complex line through the
    state, so the phase direction never counts toward the orbit; a
    generator whose action is a pure phase therefore lands in the
    isotropy algebra.  Ranks are singular-value counts above
    rank_tol times the top singular value.
    """
    actions = _generator_actions(state)
    k_rank, k_svals, k_shaky = _rank_and_svals(_real_columns(actions[:, :3]), rank_tol)
    complex_cols = actions[:, 3:].reshape(-1, state.dim).T
    g_rank, g_svals, g_shaky = _rank_and_svals(complex_cols, rank_tol)
    return OrbitReport(
        dim_K_orbit=k_rank,
        dim_G_orbit_complex=g_rank,
        dim_isotropy_algebra=3 * state.num_qubits - k_rank,
        compact_singular_values=tuple(float(s) for s in k_svals),
        complex_singular_values=tuple(float(s) for s in g_svals),
        rank_tol=rank_tol,
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
    carries the weight alpha (default 2), and the weights 1 and -3 are
    rejected because the orbit rank drops there.
    """
    L = num_qubits
    if L < 4:
        raise ValidationError("stable states are constructed for four or more qubits")
    if alpha is None:
        alpha = 2.0 if L == 4 else 1.0
    if L == 4 and alpha in (1.0, -3.0):
        raise ValidationError(
            f"alpha={alpha:g} is in the excluded set {{1, -3}}: the four-qubit "
            "family loses orbit rank there and stability fails"
        )
    return complement_pair_state(L, float(alpha))


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    k1: int
    k1_rank: int
    required_rank: int
    max_reduction_deviation: float
    reductions_ok: bool
    orbit: OrbitReport

    def __bool__(self) -> bool:
        return self.stable

    def document(self) -> dict:
        return {
            "stable": self.stable,
            "k1": self.k1,
            "k1_rank": self.k1_rank,
            "required_rank": self.required_rank,
            "max_reduction_deviation": self.max_reduction_deviation,
            "reductions_ok": self.reductions_ok,
            "orbit": self.orbit.document(),
        }


def verify_stable(
    state: PureState, k1: int | None = None, rank_tol: float = RANK_TOL
) -> StabilityReport:
    """Check stability with respect to the local group of the first k1 qubits.

    Requires (a) the first k1 reduced matrices to equal I/2 within
    REDUCTION_TOL and (b) the orbit rank over the compact generators of
    slots 1..k1 to reach 3*k1.  The report also carries the full-group
    orbit data.
    """
    L = state.num_qubits
    if k1 is None:
        k1 = L
    if not 1 <= k1 <= L:
        raise ValidationError(f"k1={k1} out of range 1..{L}")

    dev = 0.0
    half_eye = np.eye(2) / 2.0
    for l in range(1, k1 + 1):
        rho = np.asarray(reduce_one_qubit(state, l).matrix)
        dev = max(dev, float(np.abs(rho - half_eye).max()))
    reductions_ok = dev <= REDUCTION_TOL

    k1_actions = _generator_actions(state)[:k1, :3]
    k1_rank, _, _ = _rank_and_svals(_real_columns(k1_actions), rank_tol)

    orbit = orbit_dimensions(state, rank_tol=rank_tol)
    return StabilityReport(
        stable=bool(reductions_ok and k1_rank == 3 * k1),
        k1=k1,
        k1_rank=k1_rank,
        required_rank=3 * k1,
        max_reduction_deviation=dev,
        reductions_ok=reductions_ok,
        orbit=orbit,
    )
