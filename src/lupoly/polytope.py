"""The admissible region of shifted marginal spectra and its strata.

For L qubits the region is cut out by 3L inequalities in the
coordinates lambda_1..lambda_L, the polygon inequalities of Higuchi,
Sudbery & Szulc (PRL 90, 107902, 2003):

* ``lower`` bounds   lambda_l >= 0,
* ``upper`` bounds   lambda_l <= 1/2,
* ``wall`` bounds    (1/2 - lambda_l) <= sum_{j != l} (1/2 - lambda_j).

One function, ``slacks``, evaluates all of them.  It returns the 3L
slacks in row order: the lower, then the upper, then the wall rows, each
for qubits 1..L, so row i is inequality ``KINDS[i // L]`` of qubit
``i % L + 1``.  Membership, strata, facets, the vertex oracle's rows and
the wall checks of ``wall.wall_state`` are all read off these slacks.

All constraint arithmetic on exact or mixed points goes through
Fraction constants; float coordinates take the float 1/2, which rounds
the same.  For an exact point ``membership`` and ``classify`` turn the
slack tolerance into one exact cut, Fraction(tol), and every slack, zero
and 1/2 test compares against it, so exact points are classified exactly
at any tolerance; float and mixed points compare against the float.
A point keeps its slacks once ``membership`` has computed them, so
``classify`` reads membership and, when no coordinate is stripped at 1/2,
the tight walls off one ``slacks`` pass; only a stripped residual system
gets a pass of its own.

This module is the numpy-free base layer.  It also holds the point type
``SpectraPoint``, ``read_json``, ``document`` (the one rule that turns a
result into its JSON document) and the package's two argument checks:
``check_int`` for every count, index and seed and ``check_real`` for the
slack tolerance, the float coordinates and ``stable_state``'s weight.  The
slack tolerance (below 1/4 in ``classify``) is the one tolerance a caller
sets; ``slack_tol`` gives its default, 0 for exact points and MEMBER_TOL
for floats, to ``membership``, ``classify`` and ``wall.wall_state``.  So
``dimension``, ``wall`` and the exact CLI subcommands run without
importing numpy; ``qstate`` re-exports the point type and the qubit checks.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import combinations
from numbers import Rational, Real
from typing import Sequence

from ._exact import solve_unique
from .errors import ValidationError

MAX_QUBITS = 12


def check_int(value, what: str, low: int, high: int | None = None) -> int:
    """The value as an int if it is an integer in low..high, or at least low without high.

    Python and numpy integers pass; bools, numpy.bool_, floats, strings and
    None raise ValidationError, whose message names what, the range and the value.
    """
    if not isinstance(value, bool):
        try:
            n = operator.index(value)  # also refuses numpy.bool_
        except TypeError:
            pass
        else:
            if low <= n and (high is None or n <= high):
                return n
    bound = f">= {low}" if high is None else f"in {low}..{high}"
    raise ValidationError(f"{what} must be an integer {bound}, got {value!r}")


def check_real(value, what: str, low: float) -> float:
    """The value as a float if it is a finite real number >= low.

    Python and numpy numbers pass; bools, numpy.bool_, strings, None, NaN and
    the infinities raise ValidationError, whose message names what, the
    interval and the value.
    """
    # float and int first: isinstance against the Real ABC alone takes about 0.7 us
    if not isinstance(value, bool) and isinstance(value, (float, int, Real)):
        try:
            x = float(value)
        except OverflowError:  # an integer or fraction past the float range
            x = math.inf
        if math.isfinite(x) and low <= x:
            return x
    interval = "" if low == -math.inf else f" in [{low:g}, inf)"
    raise ValidationError(f"{what} must be a finite number{interval}, got {value!r}")


def check_qubit_count(num_qubits: int, low: int, what: str) -> int:
    """A qubit count in low..MAX_QUBITS, refused before anything is allocated."""
    return check_int(num_qubits, f"{what}: the qubit count", low, MAX_QUBITS)


def check_qubit_index(index: int, num_qubits: int, what: str) -> int:
    """A 1-based qubit index in 1..num_qubits."""
    return check_int(index, what, 1, num_qubits)


def read_json(source, what: str):
    """Parse JSON text, or the text of a readable handle; bad input is a ValidationError.

    Covers syntax errors, undecodable bytes, integers past the digit
    limit, and nesting deep enough to exhaust the recursion limit.
    """
    try:
        return json.loads(source if isinstance(source, str) else source.read())
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


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
        exact = True
        for x in lams:  # rationals stay exact; floats, bools and anything else are checked
            if isinstance(x, (float, bool)) or not isinstance(x, Rational):
                check_real(x, "spectra coordinate", -math.inf)
                exact = False
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "_exact", exact)

    @property
    def num_qubits(self) -> int:
        return len(self.lambdas)

    @property
    def is_exact(self) -> bool:
        """True when every coordinate is rational and comparisons are exact."""
        return self._exact

    def as_array(self) -> "numpy.ndarray":
        import numpy as np

        return np.array([float(x) for x in self.lambdas], dtype=np.float64)

    @classmethod
    def exact(cls, values: Sequence) -> "SpectraPoint":
        return cls(tuple(Fraction(v) for v in values))


def document(result):
    """The JSON document of a result, written by one rule.

    A dataclass becomes an object of its fields in declaration order, tuples
    and lists become lists, a SpectraPoint becomes its float coordinates and
    a non-finite float becomes null; these apply recursively, and every
    other value passes through unchanged.
    """
    if isinstance(result, SpectraPoint):
        return [float(x) for x in result.lambdas]
    if is_dataclass(result):
        return {f.name: document(getattr(result, f.name)) for f in fields(result)}
    if isinstance(result, (tuple, list)):
        return [document(x) for x in result]
    if isinstance(result, float) and not math.isfinite(result):
        return None
    return result


HALF = Fraction(1, 2)

# Inequality kinds in row order of ``slacks``.
KINDS = ("lower", "upper", "wall")

# Default slack tolerance for float-valued points (see ``slack_tol``).
MEMBER_TOL = 1e-9

# The brute-force vertex oracle solves C(3L, L) exact systems, about 1.4 s at
# L = 6 and 14 s at L = 7 on a 2-core x86-64 VM.
MAX_ORACLE_QUBITS = 6

# Every slack of a random_interior_point exceeds this.
INTERIOR_MARGIN = 0.02


def slacks(lams) -> tuple:
    """The 3L slacks at ``lams`` (>= 0 inside the region), in row order.

    Rows 0..L-1 are lambda_l, rows L..2L-1 are 1/2 - lambda_l, and rows
    2L..3L-1 are the wall slacks (L - 2)/2 - sum_j lambda_j + 2 lambda_l.
    A point of floats (numpy floats too) takes the float 1/2, which gives
    the same floats as the Fraction constant without its operator dispatch.
    """
    half = 0.5 if all(isinstance(lam, float) for lam in lams) else HALF
    base = half * (len(lams) - 2) - sum(lams)
    return (*lams, *(half - lam for lam in lams), *(base + 2 * lam for lam in lams))


@dataclass(frozen=True)
class Inequality:
    """One of the 3L defining inequalities, tagged by kind and qubit."""

    kind: str  # "lower" | "upper" | "wall"
    qubit: int  # 1-based distinguished index

    @property
    def equality(self) -> str:
        l = self.qubit
        if self.kind == "lower":
            return f"lambda_{l} = 0"
        if self.kind == "upper":
            return f"lambda_{l} = 1/2"
        return f"1/2 - lambda_{l} = sum_(j != {l}) (1/2 - lambda_j)"


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    violations: tuple  # of (Inequality, float slack)


def slack_tol(point: SpectraPoint, tol: float | None = None) -> float:
    """The checked slack tolerance; by default 0 for exact points and MEMBER_TOL for floats."""
    if tol is None:
        return 0.0 if point.is_exact else MEMBER_TOL
    return check_real(tol, "slack tolerance", 0.0)


def _point_slacks(point: SpectraPoint) -> tuple:
    """``slacks(point.lambdas)``, computed once per point and kept on it."""
    row = point.__dict__.get("_slacks")
    if row is None:
        row = slacks(point.lambdas)
        object.__setattr__(point, "_slacks", row)
    return row


def _cut(point: SpectraPoint, tol: float):
    """The checked tolerance as compared: exactly, as Fraction(tol), for exact points."""
    return Fraction(tol) if point.is_exact else tol


def membership(point: SpectraPoint, tol: float | None = None) -> MembershipResult:
    """Check the 3L inequalities; slacks below -tol (default ``slack_tol``) are violations."""
    cut = _cut(point, slack_tol(point, tol))
    L = check_qubit_count(point.num_qubits, 1, "membership")
    bad = tuple(
        (Inequality(KINDS[i // L], i % L + 1), float(s))
        for i, s in enumerate(_point_slacks(point))
        if s < -cut
    )
    return MembershipResult(member=not bad, violations=bad)


@dataclass(frozen=True)
class StratumClass:
    """Where a member point sits relative to the boundary strata.

    ``k_half`` coordinates at 1/2 are stripped first; the remaining
    ``residual_L`` coordinates form the residual system in which tight
    walls and zero coordinates are detected.
    """

    num_qubits: int
    k_half: int = 0
    half_qubits: tuple = ()
    k_zero: int = 0
    zero_qubits: tuple = ()
    tight_walls: tuple = ()
    residual_qubits: tuple = ()
    residual_L: int = 0
    degenerate: bool = False
    tol: float = 0.0
    trail: tuple = ()


def classify(point: SpectraPoint, tol: float | None = None) -> StratumClass:
    """Classify a member point into its boundary stratum.

    Parameters
    ----------
    point:
        Candidate spectra point.  Must satisfy membership.
    tol:
        Slack tolerance below 1/4, where a coordinate could count as both 0
        and 1/2.  Defaults to 0 for exact points and to MEMBER_TOL for floats.

    Order of detection: coordinates at 1/2 are stripped, a residual
    system with fewer than three qubits is marked degenerate, then
    tight walls and zero coordinates are read off the residual system.
    """
    checked = slack_tol(point, tol)
    if checked >= 0.25:
        raise ValidationError(f"slack tolerance must be a finite number in [0, 1/4), got {tol!r}")
    tol = checked
    res = membership(point, tol=tol)
    if not res.member:
        worst = min(s for _, s in res.violations)
        raise ValidationError(
            f"point is outside the admissible region (worst slack {worst:.3e}); "
            + "; ".join(f"violated: {q.equality.replace(' = ', ' vs ')}" for q, _ in res.violations)
        )
    cut = _cut(point, tol)
    lams = point.lambdas
    L = point.num_qubits
    trail = [f"membership verified (tol={tol:g})"]

    half = tuple(l for l in range(1, L + 1) if lams[l - 1] >= HALF - cut)
    residual = tuple(l for l in range(1, L + 1) if l not in half)
    res_L = len(residual)
    if half:
        trail.append(f"stripped {len(half)} coordinate(s) at 1/2: qubits {half}")
    trail.append(f"residual system has {res_L} qubit(s)")

    degenerate = res_L <= 2
    tight = ()
    if degenerate:
        trail.append("residual system is degenerate (fewer than 3 qubits); wall detection skipped")
    else:
        # with nothing stripped the residual system is the whole one, whose slacks
        # membership has just computed
        walls = slacks(tuple(lams[l - 1] for l in residual)) if half else _point_slacks(point)
        tight = tuple(q for q, s in zip(residual, walls[2 * res_L:]) if abs(s) <= cut)
        trail.append(f"tight walls at qubits {tight}" if tight else "no tight walls")

    zeros = tuple(l for l in residual if lams[l - 1] <= cut)
    trail.append(f"zero coordinates at qubits {zeros}" if zeros else "no zero coordinates")

    return StratumClass(
        num_qubits=L,
        k_half=len(half),
        half_qubits=half,
        k_zero=len(zeros),
        zero_qubits=zeros,
        tight_walls=tight,
        residual_qubits=residual,
        residual_L=res_L,
        degenerate=degenerate,
        tol=tol,
        trail=tuple(trail),
    )


# --- vertices ---------------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    """Extreme point: lambda_l = 0 on zero_set, 1/2 elsewhere."""

    label: str
    zero_set: tuple  # 1-based qubit indices with lambda = 0
    point: SpectraPoint


@dataclass(frozen=True)
class VertexList:
    num_qubits: int
    vertices: tuple
    source: str = "closed-form"

    def labels(self) -> tuple:
        return tuple(v.label for v in self.vertices)

    def coordinate_set(self) -> frozenset:
        return frozenset(v.point.lambdas for v in self.vertices)


def _vertex_label(L: int, zero_set: tuple) -> str:
    k = len(zero_set)
    if k == 0:
        return "v_SEP"
    if k == L:
        return "v_GHZ"
    if k == L - 1:
        (j,) = tuple(l for l in range(1, L + 1) if l not in zero_set)
        return f"v_{j}"
    if k == 2:
        rank = list(combinations(range(1, L + 1), 2)).index(zero_set) + 1
        return f"v_B{rank}"
    return "v_z" + ".".join(str(l) for l in zero_set)


def _vertex_from_zero_set(L: int, zero_set: tuple) -> Vertex:
    lams = tuple(Fraction(0) if l in zero_set else HALF for l in range(1, L + 1))
    return Vertex(_vertex_label(L, zero_set), zero_set, SpectraPoint(lams))


def vertices(num_qubits: int) -> VertexList:
    """All extreme points, from the zero-pattern characterization.

    A 0/1-half pattern is a vertex exactly when the number of zero
    coordinates is 0 or at least 2, giving 2**L - L vertices.
    """
    L = check_qubit_count(num_qubits, 1, "vertices")
    out = [_vertex_from_zero_set(L, ())]
    for k in range(2, L + 1):
        out.extend(_vertex_from_zero_set(L, zs) for zs in combinations(range(1, L + 1), k))
    return VertexList(L, tuple(out), source="closed-form")


def vertices_oracle(num_qubits: int) -> VertexList:
    """Vertices by brute force: exact solves of L-subsets of the 3L equalities.

    The slacks are affine in lambda, so row i of the system is read off
    ``slacks``: coefficient j is slacks(e_j)[i] - slacks(0)[i], and the
    equality sets that to -slacks(0)[i], passed doubled so that every
    coefficient and constant is an integer.  Every candidate basic solution
    is kept iff all its slacks are >= 0; duplicates from different active
    sets are merged.  Guarded to small qubit counts.
    """
    L = check_int(num_qubits, "vertices_oracle: the qubit count", 2, MAX_ORACLE_QUBITS)
    origin = slacks((0,) * L)
    unit = [slacks(tuple(int(i == j) for i in range(L))) for j in range(L)]
    rows = [[int(2 * (e[r] - origin[r])) for e in unit] for r in range(3 * L)]
    rhs = [int(-2 * s0) for s0 in origin]
    seen: dict[tuple, Vertex] = {}
    for picks in combinations(range(3 * L), L):
        sol = solve_unique([rows[i] for i in picks], [rhs[i] for i in picks])
        if sol is None:
            continue
        point = tuple(sol)
        if point in seen:
            continue
        if min(slacks(point)) < 0:
            continue
        zero_set = tuple(l for l in range(1, L + 1) if point[l - 1] == 0)
        seen[point] = Vertex(_vertex_label(L, zero_set), zero_set, SpectraPoint(point))
    ordered = sorted(seen.values(), key=lambda v: (len(v.zero_set), v.zero_set))
    return VertexList(L, tuple(ordered), source="oracle")


# --- facets -----------------------------------------------------------------


@dataclass(frozen=True)
class Facet:
    """A defining inequality whose tight set has affine dimension L-1."""

    kind: str
    qubit: int
    equality: str
    vertex_labels: tuple
    n_incident: int


def facets(num_qubits: int) -> tuple:
    """Facets of the region, each with its incident vertex labels.

    A face of a polytope is fixed by its vertices, and every proper face
    lies in a facet, so row r cuts out a facet exactly when its tight
    vertex set is non-empty and no other row's tight set strictly
    contains it.  For L >= 4 all 3L rows are facets; at L = 3 the upper
    bounds only cut out edges and are dropped; at L = 2, where the region
    is a segment, the two wall rows hold on all of it.
    """
    L = check_qubit_count(num_qubits, 2, "facets")
    verts = vertices(L).vertices
    # 0, 1/2 and sums of at most 12 halves are exact floats: each slack is exact, == 0 too
    vert_slacks = [slacks(tuple(map(float, v.point.lambdas))) for v in verts]
    # tight[r] has bit i set when vertex i lies on row r
    tight = [
        sum(1 << i for i, s in enumerate(vert_slacks) if s[row] == 0) for row in range(3 * L)
    ]
    out = []
    for row, mask in enumerate(tight):
        if not mask or any(other != mask and (mask & other) == mask for other in tight):
            continue
        ineq = Inequality(KINDS[row // L], row % L + 1)
        labels = tuple(v.label for i, v in enumerate(verts) if mask >> i & 1)
        out.append(Facet(ineq.kind, ineq.qubit, ineq.equality, labels, len(labels)))
    return tuple(out)


def random_interior_point(num_qubits: int, rng) -> SpectraPoint:
    """Rejection-sample a point with all 3L slacks above INTERIOR_MARGIN; L = 2 is a segment."""
    L, margin = check_qubit_count(num_qubits, 3, "interior sampling"), INTERIOR_MARGIN
    for _ in range(10000):
        lams = tuple(float(x) for x in rng.uniform(margin, 0.5 - margin, size=L))
        if all(s > margin for s in slacks(lams)[2 * L:]):
            return SpectraPoint(lams)
    raise ValidationError(f"no interior point found at margin {margin} for L={L}")


def random_wall_point(num_qubits: int, rng) -> SpectraPoint:
    """Random member point on the wall facet of qubit 1.

    Sampled through the amplitude moduli of the wall fibration: a
    dominant weight m_1 in (0.55, 0.95) and a Dirichlet split of the
    remaining mass.  With lambda_1 = m_1 - 1/2 and lambda_j = 1/2 - m_j
    the wall equality holds up to rounding and every other slack is
    2(lambda_j - lambda_1) > 0, so membership is automatic.  Permuting
    the coordinates moves the point onto another qubit's wall.
    """
    L = check_qubit_count(num_qubits, 3, "wall sampling")
    m_1 = rng.uniform(0.55, 0.95)
    floor = 0.25 * (1.0 - m_1) / (L - 1)
    for _ in range(10000):
        parts = rng.dirichlet([1.0] * (L - 1)) * (1.0 - m_1)
        if parts.min() >= floor:
            break
    else:
        raise ValidationError(f"no wall point found for L={L}")
    return SpectraPoint((m_1 - 0.5, *(float(x) for x in 0.5 - parts)))
