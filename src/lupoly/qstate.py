"""Pure multiqubit states and their one-qubit marginal data.

Conventions used throughout the package:

* Qubits are numbered 1..L and qubit 1 is the most significant bit of
  the computational-basis index, so ``|b_1 b_2 ... b_L>`` sits at index
  ``sum(b_l * 2**(L - l))``.
* ``lambda_l = 1/2 - p_l`` where ``p_l`` is the smaller eigenvalue of
  the one-qubit reduction ``rho_l``; each ``lambda_l`` lies in [0, 1/2].

The point type ``SpectraPoint``, ``MAX_QUBITS``, ``check_qubit_count``
and ``read_json`` live in the numpy-free ``polytope`` module and are
re-exported here, so ``lupoly.qstate.SpectraPoint`` names the same class.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .polytope import (MAX_QUBITS, SpectraPoint, check_int, check_qubit_count, check_qubit_index,
                       read_json)

# Input states may be off unit norm by this much before rejection;
# internally constructed states are normalized to machine precision.
NORM_TOL = 1e-9
# Hermiticity / trace checks on reduced matrices.
MATRIX_TOL = 1e-12
# Local unitaries must satisfy g g^dag = I and det g = 1 this tightly.
UNITARY_TOL = 1e-10


def _norm_parts(amps: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(scale, scaled, n): finite amplitudes are scale * scaled, and n is the norm of scaled.

    scale is 1 unless the plain norm overflows or falls below 1e-150, where
    its squares lose precision; then scale is the largest real or imaginary
    part, divided out on the float view (a complex division by a subnormal
    overflows).
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if 1e-150 < norm < math.inf:
        return 1.0, amps, norm
    parts = amps.view(np.float64)
    scale = float(np.abs(parts).max())
    if scale == 0.0:
        return 1.0, amps, 0.0
    scaled = (parts / scale).view(np.complex128)
    return scale, scaled, float(np.linalg.norm(scaled))


def _num_qubits_for(dim: int) -> int:
    L = dim.bit_length() - 1
    if dim <= 1 or 2**L != dim:
        raise ValidationError(f"amplitude count {dim} is not 2**L for L >= 1")
    return L


class PureState:
    """Normalized pure state of ``num_qubits`` qubits.

    The amplitude array is stored read-only.  Construction rejects
    vectors whose norm deviates from 1 by more than ``NORM_TOL`` and
    divides the rest by their norm; only ``from_amplitudes(...,
    renormalize=True)`` rescales an arbitrary nonzero vector first.
    A state is immutable and compares by identity; a copy or an
    unpickled state keeps the amplitudes bit for bit.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray) -> None:
        amps = np.ascontiguousarray(amplitudes, dtype=np.complex128).reshape(-1)
        L = _num_qubits_for(amps.size)
        num_qubits = check_int(num_qubits, f"num_qubits of {amps.size} amplitudes", L, L)
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValidationError("amplitudes contain NaN or infinity")
        scale, _, norm = _norm_parts(amps)
        norm *= scale  # inf where the norm exceeds the float range
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(
                f"unnormalized state: the norm must be 1 within NORM_TOL = {NORM_TOL:g}, "
                f"got a deviation of {abs(norm - 1.0):.3e}"
            )
        self.__setstate__((num_qubits, amps / norm))

    def __getstate__(self) -> tuple:
        return self.num_qubits, self.amplitudes

    def __setstate__(self, state: tuple) -> None:
        num_qubits, amps = state
        amps.flags.writeable = False
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"PureState(num_qubits={self.num_qubits!r}, amplitudes={self.amplitudes!r})"

    @classmethod
    def from_amplitudes(cls, amplitudes: Iterable[complex], renormalize: bool = False) -> "PureState":
        amps = np.asarray(list(amplitudes), dtype=np.complex128).reshape(-1)
        L = _num_qubits_for(amps.size)
        if renormalize:
            if not np.all(np.isfinite(amps.view(np.float64))):
                raise ValidationError("amplitudes contain NaN or infinity")
            _, scaled, norm = _norm_parts(amps)
            if norm == 0.0:
                raise ValidationError("cannot renormalize the zero vector")
            amps = scaled / norm
        return cls(L, amps)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "PureState":
        """Computational basis state |index> on num_qubits qubits."""
        dim = 2 ** check_qubit_count(num_qubits, 1, "PureState.basis")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[check_int(index, "basis index", 0, dim - 1)] = 1.0
        return cls(num_qubits, amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def _check_density_blocks(blocks: np.ndarray) -> np.ndarray:
    """Check a stack (..., 2, 2) of one-qubit density matrices; returns the r of each, shape (...).

    Each block must be Hermitian, of trace 1, and have both eigenvalues
    1/2 -+ r in [0, 1], all within MATRIX_TOL; a NaN entry fails the first
    test it reaches.  Each test runs once over the whole stack.
    """
    a, b, c, d = blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 0], blocks[..., 1, 1]
    skew = np.maximum(np.maximum(2.0 * abs(a.imag), 2.0 * abs(d.imag)), abs(b - c.conj()))
    if not (skew <= MATRIX_TOL).all():
        raise ValidationError("reduced matrix is not Hermitian within tolerance")
    if not (abs(a.real + d.real - 1.0) <= MATRIX_TOL).all():
        raise ValidationError("reduced matrix trace differs from 1")
    r = np.hypot((a.real - d.real) / 2.0, abs(b))
    if not ((0.5 - r >= -MATRIX_TOL) & (0.5 + r <= 1.0 + MATRIX_TOL)).all():
        raise ValidationError("reduced matrix has an eigenvalue outside [0, 1]")
    return r


@functools.lru_cache(maxsize=MAX_QUBITS)
def _slot_rows(num_qubits: int) -> np.ndarray:
    """Gather index, shape (L, 2, 2^{L-1}): entry l-1 lists row b the indices whose slot-l bit is b.

    The columns keep the order of the other bits, so the partial trace onto
    slot l is X X^H for X = amps[entry l-1].  The array is read-only.
    """
    index = np.arange(2**num_qubits)
    rows = np.stack([index.reshape(2 ** (l - 1), 2, -1).swapaxes(0, 1).reshape(2, -1)
                     for l in range(1, num_qubits + 1)])
    rows.flags.writeable = False
    return rows


def _marginals(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The package's one partial trace: every one-qubit reduction of amplitudes (..., 2^L).

    Returns the reductions, shape (..., L, 2, 2), checked at once, and the r
    of each, shape (..., L).  One gather and one matmul serve the whole stack.
    """
    x = np.take(amps, _slot_rows(_num_qubits_for(amps.shape[-1])), axis=-1)
    blocks = x @ x.conj().swapaxes(-1, -2)
    return blocks, _check_density_blocks(blocks)


def reduce_one_qubit(state: PureState, l: int) -> np.ndarray:
    """Read-only (2, 2) partial trace onto qubit l (1-based), discarding all other qubits."""
    check_qubit_index(l, state.num_qubits, "qubit index")
    rho = _marginals(state.amplitudes)[0][l - 1]
    rho.flags.writeable = False
    return rho


def momentum_map(state: PureState) -> np.ndarray:
    """Read-only (L, 2, 2) array whose entry l-1 is the traceless Hermitian block rho_l - I/2."""
    mu = _marginals(state.amplitudes)[0] - np.eye(2) / 2.0
    mu.flags.writeable = False
    return mu


def psi_stack(amps: np.ndarray) -> np.ndarray:
    """``psi_map`` of each row of a stack (..., 2^L) of unit amplitude vectors, shape (..., L).

    Every reduction is checked as in ``psi_map``, in one pass over the stack.
    """
    return np.clip(0.5 - (0.5 - _marginals(amps)[1]), 0.0, 0.5)


def psi_map(state: PureState) -> SpectraPoint:
    """Shifted spectra lambda_l = 1/2 - min eig(rho_l), clamped to [0, 1/2]."""
    return SpectraPoint(tuple(psi_stack(state.amplitudes).tolist()))


def purity_invariants(state: PureState) -> np.ndarray:
    """tr rho_l^2 for l = 1..L.

    Satisfies tr rho_l^2 = 1/2 + 2 lambda_l^2, which ties the quadratic
    invariants to the spectra coordinates.
    """
    return (np.abs(_marginals(state.amplitudes)[0]) ** 2).sum(axis=(1, 2))


def _check_special_unitary(g: np.ndarray) -> None:
    if g.shape != (2, 2):
        raise ValidationError("local factors must be 2x2 matrices")
    if np.abs(g.conj().T @ g - np.eye(2)).max() > UNITARY_TOL:
        raise ValidationError("local factor is not unitary within tolerance")
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if abs(det - 1.0) > UNITARY_TOL:
        raise ValidationError("local factor determinant differs from 1")


def apply_slot_operator(amps: np.ndarray, op: np.ndarray, num_qubits: int, l: int) -> np.ndarray:
    """Apply a single-qubit operator (2, 2) at slot l (1-based) to amplitudes (2^L,)."""
    t = np.tensordot(op, amps.reshape((2,) * num_qubits), axes=([1], [l - 1]))
    return np.moveaxis(t, 0, l - 1).reshape(-1)


@functools.lru_cache(maxsize=MAX_QUBITS)
def _pauli_tables(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and factor, shape (3L, 2^L): sigma_k at slot l maps phi to factor * phi[index].

    For slot l let flip be the index with bit l flipped and s = +1/-1 for bit
    l = 0/1 (slot 1 is the top bit): sigma_x phi = phi[flip], sigma_y phi =
    -i s phi[flip], sigma_z phi = s phi.  Both arrays are read-only.
    """
    check_qubit_count(num_qubits, 1, "the Pauli images")
    index = np.arange(2**num_qubits)
    bit = (1 << (num_qubits - 1 - np.arange(num_qubits)))[:, None]
    flip, sign = index ^ bit, np.where(index & bit, -1.0, 1.0)
    gather = np.stack([flip, flip, np.broadcast_to(index, flip.shape)], axis=1)
    factor = np.stack([np.ones_like(sign), -1j * sign, sign], axis=1).astype(np.complex128)
    gather, factor = gather.reshape(3 * num_qubits, -1), factor.reshape(3 * num_qubits, -1)
    gather.flags.writeable = factor.flags.writeable = False
    return gather, factor


def pauli_images(amps: np.ndarray, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The package's one Pauli action: (images, z) for sigma_k at every slot l, k = x, y, z.

    ``amps`` is one amplitude vector phi or a stack (..., 2^L) of them.  Row
    3(l-1)+k of images, shape (..., 3L, 2^L), is sigma_k at slot l applied to
    phi and projected off the complex line through phi; z, shape (..., 3L),
    holds <phi|sigma_k at l|phi>, whose real part is the Bloch vector r_lk.
    Each image is one gather and one multiply by a cached table.
    """
    gather, factor = _pauli_tables(num_qubits)
    images = np.take(amps, gather, axis=-1) * factor
    z = (images @ amps.conj()[..., None])[..., 0]
    images -= z[..., None] * amps[..., None, :]
    return images, z


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


def _haar_row(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Unit amplitude vector of a Haar-random state, unchecked: the draws ``haar_state`` makes."""
    z = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return z / np.linalg.norm(z)


def haar_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state drawn from an existing generator."""
    return PureState(num_qubits, _haar_row(check_qubit_count(num_qubits, 1, "haar_state"), rng))


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element via a uniform point on the unit 3-sphere."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def random_local_unitaries(num_qubits: int, rng: np.random.Generator) -> list[np.ndarray]:
    L = check_qubit_count(num_qubits, 1, "random_local_unitaries")
    return [random_su2(rng) for _ in range(L)]


# --- state files -----------------------------------------------------------
#
# {"L": 3, "amplitudes": [[re, im], ...]} with exactly 2**L entries.


def state_from_document(doc) -> PureState:
    if not isinstance(doc, dict) or "L" not in doc or "amplitudes" not in doc:
        raise ValidationError('state document must be {"L": ..., "amplitudes": [[re, im], ...]}')
    L = check_qubit_count(doc["L"], 1, "the state document")  # refuses true/false too
    raw = doc["amplitudes"]
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
    return PureState.from_amplitudes(amps)


def load_state(path_or_file) -> PureState:
    """Read a state from a JSON file (path or open text handle)."""
    if hasattr(path_or_file, "read"):
        return state_from_document(read_json(path_or_file, "state file"))
    with open(path_or_file, "r", encoding="utf-8") as fh:
        return load_state(fh)


def state_document(state: PureState) -> dict:
    return {
        "L": state.num_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }

