"""Pure multiqubit states and their one-qubit marginal data.

Conventions used throughout the package:

* Qubits are numbered 1..L and qubit 1 is the most significant bit of
  the computational-basis index, so ``|b_1 b_2 ... b_L>`` sits at index
  ``sum(b_l * 2**(L - l))``.
* ``lambda_l = 1/2 - p_l`` where ``p_l`` is the smaller eigenvalue of
  the one-qubit reduction ``rho_l``; each ``lambda_l`` lies in [0, 1/2].
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

# Input states may be off unit norm by this much before rejection;
# internally constructed states are normalized to machine precision.
NORM_TOL = 1e-9
# Hermiticity / trace checks on reduced matrices.
MATRIX_TOL = 1e-12
# Local unitaries must satisfy g g^dag = I and det g = 1 this tightly.
UNITARY_TOL = 1e-10

MAX_QUBITS = 12


def check_qubit_count(num_qubits: int, low: int, what: str) -> None:
    """Refuse a qubit count outside low..MAX_QUBITS before anything is allocated."""
    if not low <= num_qubits <= MAX_QUBITS:
        raise ValidationError(f"{what} supports {low}..{MAX_QUBITS} qubits, got {num_qubits}")


def _num_qubits_for(dim: int) -> int:
    L = dim.bit_length() - 1
    if dim <= 1 or 2**L != dim:
        raise ValidationError(f"amplitude count {dim} is not 2**L for L >= 1")
    return L


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state of ``num_qubits`` qubits.

    The amplitude array is stored read-only.  Construction rejects
    vectors whose norm deviates from 1 by more than ``NORM_TOL`` unless
    renormalization is requested explicitly.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if self.num_qubits != _num_qubits_for(amps.size):
            raise ValidationError(
                f"num_qubits={self.num_qubits} does not match {amps.size} amplitudes"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValidationError("amplitudes contain NaN or infinity")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(
                f"unnormalized state (norm deviation {abs(norm - 1.0):.3e} > {NORM_TOL:g}); "
                "pass renormalize=True to from_amplitudes if this is intended"
            )
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: Iterable[complex], renormalize: bool = False) -> "PureState":
        amps = np.asarray(list(amplitudes), dtype=np.complex128).reshape(-1)
        L = _num_qubits_for(amps.size)
        if renormalize:
            if not np.all(np.isfinite(amps.view(np.float64))):
                raise ValidationError("amplitudes contain NaN or infinity")
            norm = np.linalg.norm(amps)
            if norm == 0.0:
                raise ValidationError("cannot renormalize the zero vector")
            amps = amps / norm
        return cls(L, amps)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "PureState":
        """Computational basis state |index> on num_qubits qubits."""
        check_qubit_count(num_qubits, 1, "PureState.basis")
        dim = 2**num_qubits
        if not 0 <= index < dim:
            raise ValidationError(f"basis index {index} out of range for {num_qubits} qubits")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class DensityMatrix2:
    """One-qubit density matrix: Hermitian, trace 1, PSD (all within MATRIX_TOL)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValidationError(f"expected a 2x2 matrix, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > MATRIX_TOL:
            raise ValidationError("reduced matrix is not Hermitian within tolerance")
        if abs(m[0, 0].real + m[1, 1].real - 1.0) > MATRIX_TOL:
            raise ValidationError("reduced matrix trace differs from 1")
        a = (m[0, 0].real - m[1, 1].real) / 2.0
        r = math.hypot(a, abs(m[0, 1]))
        if 0.5 - r < -MATRIX_TOL or 0.5 + r > 1.0 + MATRIX_TOL:
            raise ValidationError("reduced matrix has an eigenvalue outside [0, 1]")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> tuple[float, float]:
        """(smaller, larger) eigenvalue, via the closed form for 2x2 Hermitian."""
        m = np.asarray(self.matrix, dtype=np.complex128)
        a = (m[0, 0].real - m[1, 1].real) / 2.0
        r = math.hypot(a, abs(m[0, 1]))
        return 0.5 - r, 0.5 + r

    def shifted(self) -> np.ndarray:
        """Traceless part rho - I/2."""
        return np.asarray(self.matrix) - np.eye(2) / 2.0


def _is_exact(value) -> bool:
    return isinstance(value, Rational)


@dataclass(frozen=True)
class SpectraPoint:
    """Ordered shifted spectra (lambda_1, ..., lambda_L).

    Coordinates may be floats or exact rationals (fractions.Fraction);
    exact coordinates make boundary classification exact.
    """

    lambdas: tuple

    def __post_init__(self) -> None:
        lams = tuple(self.lambdas)
        if not lams:
            raise ValidationError("a spectra point needs at least one coordinate")
        for x in lams:
            if isinstance(x, (bool, np.bool_)):
                raise ValidationError("spectra coordinates must be numbers, not booleans")
            if not _is_exact(x) and not math.isfinite(float(x)):
                raise ValidationError("spectra coordinates must be finite")
        object.__setattr__(self, "lambdas", lams)

    @property
    def num_qubits(self) -> int:
        return len(self.lambdas)

    @property
    def is_exact(self) -> bool:
        """True when every coordinate is rational and comparisons are exact."""
        return all(_is_exact(x) for x in self.lambdas)

    def as_array(self) -> np.ndarray:
        return np.array([float(x) for x in self.lambdas], dtype=np.float64)

    @classmethod
    def exact(cls, values: Sequence) -> "SpectraPoint":
        return cls(tuple(Fraction(v) for v in values))


def reduce_one_qubit(state: PureState, l: int) -> DensityMatrix2:
    """Partial trace onto qubit l (1-based), discarding all other qubits."""
    L = state.num_qubits
    if not 1 <= l <= L:
        raise ValidationError(f"qubit index {l} out of range 1..{L}")
    t = state.amplitudes.reshape((2,) * L)
    other_axes = tuple(i for i in range(L) if i != l - 1)
    return DensityMatrix2(np.tensordot(t, t.conj(), axes=(other_axes, other_axes)))


def momentum_map(state: PureState) -> np.ndarray:
    """Read-only (L, 2, 2) array whose entry l-1 is the traceless Hermitian block rho_l - I/2."""
    mu = np.stack([reduce_one_qubit(state, l).shifted() for l in range(1, state.num_qubits + 1)])
    mu.flags.writeable = False
    return mu


def psi_map(state: PureState) -> SpectraPoint:
    """Shifted spectra lambda_l = 1/2 - min eig(rho_l), clamped to [0, 1/2]."""
    lams = []
    for l in range(1, state.num_qubits + 1):
        p_small, _ = reduce_one_qubit(state, l).eigenvalues()
        lams.append(min(max(0.5 - p_small, 0.0), 0.5))
    return SpectraPoint(tuple(lams))


def purity_invariants(state: PureState) -> np.ndarray:
    """tr rho_l^2 for l = 1..L.

    Satisfies tr rho_l^2 = 1/2 + 2 lambda_l^2, which ties the quadratic
    invariants to the spectra coordinates.
    """
    out = np.empty(state.num_qubits)
    for l in range(1, state.num_qubits + 1):
        m = np.asarray(reduce_one_qubit(state, l).matrix)
        out[l - 1] = float(np.sum(np.abs(m) ** 2).real)
    return out


def _check_special_unitary(g: np.ndarray) -> None:
    if g.shape != (2, 2):
        raise ValidationError("local factors must be 2x2 matrices")
    if np.abs(g.conj().T @ g - np.eye(2)).max() > UNITARY_TOL:
        raise ValidationError("local factor is not unitary within tolerance")
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if abs(det - 1.0) > UNITARY_TOL:
        raise ValidationError("local factor determinant differs from 1")


def apply_slot_operator(amps: np.ndarray, op: np.ndarray, num_qubits: int, l: int) -> np.ndarray:
    """Apply a single-qubit operator, or a stack (..., 2, 2) of them, at slot l (1-based).

    Returns the images of the amplitude vector, shape (..., 2^L): one per stacked operator.
    """
    t = amps.reshape((2,) * num_qubits)
    out = np.tensordot(op, t, axes=([-1], [l - 1]))  # (..., 2, other slots)
    return np.moveaxis(out, op.ndim - 2, op.ndim + l - 3).reshape(op.shape[:-2] + (-1,))


@functools.lru_cache(maxsize=MAX_QUBITS)
def _slot_tables(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Per slot l: the index with bit l flipped, and +1/-1 for bit l = 0/1 (read-only)."""
    index = np.arange(2**num_qubits)
    bit = (1 << (num_qubits - 1 - np.arange(num_qubits)))[:, None]  # slot 1 is the top bit
    flip, sign = index ^ bit, np.where(index & bit, -1.0, 1.0)
    flip.flags.writeable = sign.flags.writeable = False
    return flip, sign


def pauli_images(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    """(3L, 2^L) array whose row 3(l-1)+k is sigma_k applied at slot l, k = x, y, z.

    sigma_x is a gather, sigma_z a sign multiply, sigma_y = -i sign sigma_x.
    """
    flip, sign = _slot_tables(num_qubits)
    out = np.empty((num_qubits, 3, amps.size), dtype=np.complex128)
    out[:, 0] = amps[flip]
    out[:, 1] = -1j * sign * out[:, 0]
    out[:, 2] = sign * amps
    return out.reshape(3 * num_qubits, -1)


def apply_local_unitary(state: PureState, g: Sequence[np.ndarray]) -> PureState:
    """Apply a product of per-qubit special unitaries g = (g_1, ..., g_L)."""
    L = state.num_qubits
    factors = [np.asarray(gl, dtype=np.complex128) for gl in g]
    if len(factors) != L:
        raise ValidationError(f"expected {L} local factors, got {len(factors)}")
    for gl in factors:
        _check_special_unitary(gl)
    amps = state.amplitudes
    for l, gl in enumerate(factors, start=1):
        amps = apply_slot_operator(amps, gl, L, l)
    return PureState(L, amps)


def haar_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state drawn from an existing generator."""
    check_qubit_count(num_qubits, 1, "haar_state")
    z = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return PureState(num_qubits, z / np.linalg.norm(z))


def random_state(num_qubits: int, seed: int) -> PureState:
    """Seeded Haar-random pure state (normalized complex Gaussian vector)."""
    return haar_state(num_qubits, np.random.default_rng(seed))


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element via a uniform point on the unit 3-sphere."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def random_local_unitaries(num_qubits: int, rng: np.random.Generator) -> list[np.ndarray]:
    return [random_su2(rng) for _ in range(num_qubits)]


# --- state files -----------------------------------------------------------
#
# {"L": 3, "amplitudes": [[re, im], ...]} with exactly 2**L entries.


def read_json(source, what: str):
    """Parse JSON text, or the text of a readable handle; bad input is a ValidationError.

    Covers syntax errors, undecodable bytes, integers past the digit
    limit, and nesting deep enough to exhaust the recursion limit.
    """
    try:
        return json.loads(source if isinstance(source, str) else source.read())
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def loads_state(text: str, renormalize: bool = False) -> PureState:
    return state_from_document(read_json(text, "state file"), renormalize=renormalize)


def state_from_document(doc, renormalize: bool = False) -> PureState:
    if not isinstance(doc, dict) or "L" not in doc or "amplitudes" not in doc:
        raise ValidationError('state document must be {"L": ..., "amplitudes": [[re, im], ...]}')
    L = doc["L"]
    raw = doc["amplitudes"]
    if type(L) is not int or not 1 <= L <= MAX_QUBITS:  # refuses true/false too
        raise ValidationError(f"L must be an integer in 1..{MAX_QUBITS}")
    if not isinstance(raw, list) or len(raw) != 2**L:
        raise ValidationError(f"expected 2**{L} = {2**L} amplitude entries, got {len(raw) if isinstance(raw, list) else type(raw).__name__}")
    amps = []
    for entry in raw:
        pair = isinstance(entry, (list, tuple)) and len(entry) == 2
        if not pair or any(type(x) not in (int, float) for x in entry):  # JSON true/false too
            raise ValidationError("each amplitude must be a [re, im] pair of numbers")
        try:
            amps.append(complex(float(entry[0]), float(entry[1])))
        except OverflowError as exc:
            raise ValidationError(f"amplitude part out of float range: {exc}") from exc
    return PureState.from_amplitudes(amps, renormalize=renormalize)


def load_state(path_or_file, renormalize: bool = False) -> PureState:
    """Read a state from a JSON file (path or open text handle)."""
    if hasattr(path_or_file, "read"):
        return state_from_document(read_json(path_or_file, "state file"), renormalize=renormalize)
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return load_state(fh, renormalize=renormalize)


def state_document(state: PureState) -> dict:
    return {
        "L": state.num_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def dump_state(state: PureState, path_or_file) -> None:
    doc = state_document(state)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file)
        return
    with open(path_or_file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
