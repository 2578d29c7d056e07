"""Tight-wall machinery: the diagonal wall operator, its eigenspaces,
the explicit fiber states over wall points, and a torus certificate
showing those fibers are single orbits.

Sign convention (distinguished index d): qubit d contributes -1 for
|0> and +1 for |1>; every other qubit contributes +1 for |0> and -1
for |1>.  Eigenvalues then run over {-L, -L+2, ..., L}.

Only ``wall_state`` builds amplitudes; it imports numpy when called, so
the operator, its eigenspaces and the certificate run without numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import NamedTuple

from ._exact import exact_rank
from .errors import ValidationError
from .polytope import SpectraPoint, check_int, check_qubit_count, check_qubit_index, classify


class WallOperator(NamedTuple):
    """Diagonal operator attached to the wall of the distinguished qubit."""

    num_qubits: int
    distinguished: int
    xi: tuple
    diagonal: tuple  # of ints, one per computational-basis index

    def spectrum(self) -> tuple:
        """Sorted (eigenvalue, multiplicity) pairs of the diagonal."""
        return tuple(sorted(Counter(self.diagonal).items()))


def build_wall_operator(num_qubits: int, distinguished: int = 1) -> WallOperator:
    """Diagonal of the wall operator for the given distinguished qubit.

    Single-qubit systems are admitted (the operator is just diag(-1, 1));
    the wall inequality itself is only meaningful from two qubits up.
    """
    L = check_qubit_count(num_qubits, 1, "the wall operator")
    distinguished = check_qubit_index(distinguished, L, "distinguished index")
    xi = tuple(-1 if l == distinguished else 1 for l in range(1, L + 1))
    diag = (0,)
    for x in xi:  # qubit l at bit 0 adds +xi_l, at bit 1 adds -xi_l; qubit 1 is the top bit
        diag = tuple(v + s for v in diag for s in (x, -x))
    return WallOperator(L, distinguished, xi, diag)


class WeightSubspaceBasis(NamedTuple):
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
    L = check_qubit_count(num_qubits, 1, "eigenspace_basis")
    k = check_int(k, "k", 0, L)
    d = check_qubit_index(distinguished, L, "distinguished index")
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


def wall_state(alpha: SpectraPoint, phases) -> "PureState":
    """Explicit fiber state over a wall point.

    Parameters
    ----------
    alpha:
        Member spectra point satisfying the wall equality of some qubit
        d: -lambda_d + sum_{j != d} lambda_j = L/2 - 1.  ``classify`` decides
        the stratum at its default slack tolerance: it refuses a non-member,
        no coordinate may be stripped at 1/2 (strip those first), and d is
        its first tight wall.  At L = 2 every member lies on both walls and
        ``classify`` reports none for the degenerate residual, so d = 1;
        the other choice just swaps the two phases.
    phases:
        Real vector of L phases; entry l-1 multiplies the amplitude
        attached to qubit l.

    The state is supported on the eigenvalue -L+2 eigenspace: amplitude
    sqrt(1/2 + lambda_d) on the all-ones ket and sqrt(1/2 - lambda_j)
    on the ket with zeros exactly at qubits {d, j}.
    """
    L = alpha.num_qubits
    if L < 2:
        raise ValidationError("wall states need at least two qubits")
    stratum = classify(alpha)
    if stratum.k_half:
        raise ValidationError(
            "wall_state requires all coordinates strictly below 1/2; "
            "strip 1/2 coordinates (product factors) first"
        )
    if L == 2:
        d = 1
    elif stratum.tight_walls:
        d = stratum.tight_walls[0]
    else:
        raise ValidationError("alpha does not satisfy any wall equality")

    import numpy as np

    from .qstate import PureState

    theta = np.asarray(phases, dtype=np.float64).reshape(-1)
    if theta.size != L:
        raise ValidationError(f"expected {L} phases, got {theta.size}")
    if not np.all(np.isfinite(theta)):
        raise ValidationError("phases must be finite")

    # every coordinate lies within the slack tolerance of [0, 1/2), so each modulus is in (0, 1]
    lams = alpha.lambdas
    full = 2**L - 1
    amps = np.zeros(2**L, dtype=np.complex128)
    amps[full] = math.sqrt(0.5 + float(lams[d - 1])) * np.exp(1j * theta[d - 1])
    for j in range(1, L + 1):
        if j == d:
            continue
        ket = full - (1 << (L - d)) - (1 << (L - j))
        amps[ket] = math.sqrt(0.5 - float(lams[j - 1])) * np.exp(1j * theta[j - 1])
    return PureState.from_amplitudes(amps, renormalize=True)


class TorusCertificate(NamedTuple):
    """Integer phase-shift matrix of the diagonal torus on the fiber amplitudes."""

    L: int
    matrix: tuple
    rank: int
    quotient_rank: int
    transitive: bool


def torus_transitivity_check(num_qubits: int) -> TorusCertificate:
    """Certify that the stabilizer torus sweeps the wall-fiber phases.

    Row l of the matrix lists the phase shift of amplitude c_l per unit
    angle on each qubit (convention diag(e^{i theta}, e^{-i theta})):
    the all-ones ket picks up (-1, ..., -1), the ket with zeros at
    qubits {1, l} picks up +1 there and -1 elsewhere.  Transitivity on
    the fiber modulo global phase needs rank >= L-1 on the quotient by
    the global-phase direction (1, ..., 1).
    """
    L = check_qubit_count(num_qubits, 3, "the torus certificate")
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
