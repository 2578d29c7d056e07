"""Tight-wall machinery: the diagonal wall operator, its eigenspaces,
the explicit fiber states over wall points, and a torus certificate
showing those fibers are single orbits.

Sign convention (distinguished index d): qubit d contributes -1 for
|0> and +1 for |1>; every other qubit contributes +1 for |0> and -1
for |1>.  Eigenvalues then run over {-L, -L+2, ..., L}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from ._exact import exact_rank
from .errors import ValidationError
from .polytope import HALF, membership
from .qstate import PureState, SpectraPoint, check_qubit_count

# How tightly alpha must satisfy the wall equality.
WALL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class WallOperator:
    """Diagonal operator attached to the wall of the distinguished qubit."""

    num_qubits: int
    distinguished: int
    xi: tuple
    diagonal: np.ndarray

    def spectrum(self) -> tuple:
        """Sorted (eigenvalue, multiplicity) pairs of the diagonal."""
        values, counts = np.unique(self.diagonal, return_counts=True)
        return tuple((int(v), int(c)) for v, c in zip(values, counts))


def build_wall_operator(num_qubits: int, distinguished: int = 1) -> WallOperator:
    """Diagonal of the wall operator for the given distinguished qubit.

    Single-qubit systems are admitted (the operator is just diag(-1, 1));
    the wall inequality itself is only meaningful from two qubits up.
    """
    L = num_qubits
    check_qubit_count(L, 1, "the wall operator")
    if not 1 <= distinguished <= L:
        raise ValidationError(f"distinguished index {distinguished} out of range 1..{L}")
    xi = tuple(-1 if l == distinguished else 1 for l in range(1, L + 1))
    idx = np.arange(2**L)
    diag = np.zeros(2**L, dtype=np.int64)
    for l in range(1, L + 1):
        bit = (idx >> (L - l)) & 1
        # bit=0 contributes +xi_l, bit=1 contributes -xi_l
        diag += np.where(bit == 1, -xi[l - 1], xi[l - 1])
    return WallOperator(L, distinguished, xi, diag)


@dataclass(frozen=True)
class WeightSubspaceBasis:
    """Computational kets spanning an eigenspace of the wall operator."""

    num_qubits: int
    k: int
    kets: tuple  # basis-state indices, listed deterministically
    distinguished: int
    eigenvalue: int

    @property
    def dim(self) -> int:
        return len(self.kets)

    def bitstrings(self) -> tuple:
        return tuple(format(i, f"0{self.num_qubits}b") for i in self.kets)


def eigenspace_basis(num_qubits: int, k: int, distinguished: int = 1) -> WeightSubspaceBasis:
    """Kets spanning the eigenspace with eigenvalue -L+2k of the wall operator.

    The distinguished qubit in |1> combines with k-1 zeros elsewhere,
    the distinguished qubit in |0> with k zeros elsewhere; together
    these give C(L,k) kets.  For k = 1 the first ket is the all-ones
    ket and the rest carry zeros exactly at the distinguished qubit
    and one further position, in ascending order.
    """
    L = num_qubits
    check_qubit_count(L, 1, "eigenspace_basis")
    if not 0 <= k <= L:
        raise ValidationError(f"k={k} out of range 0..{L}")
    if not 1 <= distinguished <= L:
        raise ValidationError(f"distinguished index {distinguished} out of range 1..{L}")
    d = distinguished
    others = [l for l in range(1, L + 1) if l != d]
    full = 2**L - 1

    def kets_with_zeros(extra_zero_count: int, d_bit: int) -> list:
        out = []
        for zeros in combinations(others, extra_zero_count):
            ket = full - sum(1 << (L - l) for l in zeros)
            if d_bit == 0:
                ket -= 1 << (L - d)
            out.append(ket)
        return sorted(out)

    kets = []
    if k >= 1:
        kets.extend(kets_with_zeros(k - 1, d_bit=1))
    kets.extend(kets_with_zeros(k, d_bit=0))
    return WeightSubspaceBasis(L, k, tuple(kets), distinguished=d, eigenvalue=-L + 2 * k)


def _wall_deviation(lams: tuple, d: int):
    """Deviation of -lambda_d + sum_{j != d} lambda_j from L/2 - 1."""
    L = len(lams)
    total = sum(lams)
    return total - 2 * lams[d - 1] - (HALF * L - 1)


def wall_state(
    alpha: SpectraPoint,
    phases,
    distinguished: int | None = None,
    tol: float = WALL_TOL,
) -> PureState:
    """Explicit fiber state over a wall point.

    Parameters
    ----------
    alpha:
        Member spectra point satisfying the wall equality of some qubit
        d: -lambda_d + sum_{j != d} lambda_j = L/2 - 1.  All coordinates
        must be strictly below 1/2 (strip 1/2 coordinates first).
    phases:
        Real vector of L phases; entry l-1 multiplies the amplitude
        attached to qubit l.
    distinguished:
        Which wall to use.  Detected automatically when omitted.

    The state is supported on the eigenvalue -L+2 eigenspace: amplitude
    sqrt(1/2 + lambda_d) on the all-ones ket and sqrt(1/2 - lambda_j)
    on the ket with zeros exactly at qubits {d, j}.
    """
    L = alpha.num_qubits
    if L < 2:
        raise ValidationError("wall states need at least two qubits")
    if not membership(alpha, tol=max(tol, 0.0)).member:
        raise ValidationError("alpha is not an admissible spectra point")
    lams = alpha.lambdas
    if any(float(x) >= 0.5 for x in lams):
        raise ValidationError(
            "wall_state requires all coordinates strictly below 1/2; "
            "strip 1/2 coordinates (product factors) first"
        )
    if distinguished is None:
        matches = [d for d in range(1, L + 1) if abs(_wall_deviation(lams, d)) <= tol]
        if not matches:
            raise ValidationError("alpha does not satisfy any wall equality")
        distinguished = matches[0]
    else:
        if not 1 <= distinguished <= L:
            raise ValidationError(f"distinguished index {distinguished} out of range 1..{L}")
        if abs(_wall_deviation(lams, distinguished)) > tol:
            raise ValidationError(
                f"alpha does not satisfy the wall equality of qubit {distinguished}"
            )
    d = distinguished

    theta = np.asarray(phases, dtype=np.float64).reshape(-1)
    if theta.size != L:
        raise ValidationError(f"expected {L} phases, got {theta.size}")
    if not np.all(np.isfinite(theta)):
        raise ValidationError("phases must be finite")

    moduli_sq = {}
    moduli_sq[d] = 0.5 + float(lams[d - 1])
    for j in range(1, L + 1):
        if j != d:
            moduli_sq[j] = 0.5 - float(lams[j - 1])
    if any(m < 0.0 or m > 1.0 for m in moduli_sq.values()):
        raise ValidationError("a squared modulus fell outside [0, 1]")

    full = 2**L - 1
    amps = np.zeros(2**L, dtype=np.complex128)
    amps[full] = math.sqrt(moduli_sq[d]) * np.exp(1j * theta[d - 1])
    for j in range(1, L + 1):
        if j == d:
            continue
        ket = full - (1 << (L - d)) - (1 << (L - j))
        amps[ket] = math.sqrt(moduli_sq[j]) * np.exp(1j * theta[j - 1])
    return PureState.from_amplitudes(amps, renormalize=True)


@dataclass(frozen=True)
class TorusCertificate:
    """Integer phase-shift matrix of the diagonal torus on the fiber amplitudes."""

    num_qubits: int
    matrix: tuple
    rank: int
    quotient_rank: int
    transitive: bool

    def document(self) -> dict:
        return {
            "L": self.num_qubits,
            "matrix": [list(row) for row in self.matrix],
            "rank": self.rank,
            "quotient_rank": self.quotient_rank,
            "transitive": self.transitive,
        }


def torus_transitivity_check(num_qubits: int) -> TorusCertificate:
    """Certify that the stabilizer torus sweeps the wall-fiber phases.

    Row l of the matrix lists the phase shift of amplitude c_l per unit
    angle on each qubit (convention diag(e^{i theta}, e^{-i theta})):
    the all-ones ket picks up (-1, ..., -1), the ket with zeros at
    qubits {1, l} picks up +1 there and -1 elsewhere.  Transitivity on
    the fiber modulo global phase needs rank >= L-1 on the quotient by
    the global-phase direction (1, ..., 1).
    """
    L = num_qubits
    check_qubit_count(L, 3, "the torus certificate")
    rows = [[-1] * L]
    for l in range(2, L + 1):
        row = [-1] * L
        row[0] = 1
        row[l - 1] = 1
        rows.append(row)
    rank = exact_rank(rows)
    augmented = [row + [1] for row in rows]
    quotient_rank = exact_rank(augmented) - 1
    return TorusCertificate(
        L,
        tuple(tuple(r) for r in rows),
        rank,
        quotient_rank,
        transitive=quotient_rank >= L - 1,
    )
