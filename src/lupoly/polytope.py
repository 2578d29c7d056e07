"""The admissible region of shifted marginal spectra and its strata.

For L qubits the region is cut out by 3L inequalities in the
coordinates lambda_1..lambda_L:

* ``lower`` bounds   lambda_l >= 0,
* ``upper`` bounds   lambda_l <= 1/2,
* ``wall`` bounds    (1/2 - lambda_l) <= sum_{j != l} (1/2 - lambda_j).

All constraint arithmetic goes through Fraction constants, so points
with exact rational coordinates are classified exactly; float
coordinates fall back to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._exact import exact_rank, solve_unique
from .errors import ValidationError
from .qstate import SpectraPoint, check_qubit_count

HALF = Fraction(1, 2)

# Default slack tolerance for float-valued points.
MEMBER_TOL = 1e-9

# The exact vertex-enumeration cross-check is meant for small systems.
MAX_ORACLE_QUBITS = 8


@dataclass(frozen=True)
class Inequality:
    """One of the 3L defining inequalities, tagged by kind and qubit."""

    kind: str  # "lower" | "upper" | "wall"
    qubit: int  # 1-based distinguished index

    def slack(self, lams: tuple) -> object:
        """Slack of the inequality at the given coordinates (>= 0 inside)."""
        lam = lams[self.qubit - 1]
        if self.kind == "lower":
            return lam
        if self.kind == "upper":
            return HALF - lam
        total = sum(lams)
        return HALF * (len(lams) - 2) - total + 2 * lam

    @property
    def equality(self) -> str:
        l = self.qubit
        if self.kind == "lower":
            return f"lambda_{l} = 0"
        if self.kind == "upper":
            return f"lambda_{l} = 1/2"
        return f"1/2 - lambda_{l} = sum_(j != {l}) (1/2 - lambda_j)"


@dataclass(frozen=True)
class PolytopeModel:
    """The 3L-inequality model for a fixed qubit count."""

    num_qubits: int
    inequalities: tuple


def polytope_model(num_qubits: int) -> PolytopeModel:
    check_qubit_count(num_qubits, 1, "polytope_model")
    ineqs = []
    for kind in ("lower", "upper", "wall"):
        ineqs.extend(Inequality(kind, l) for l in range(1, num_qubits + 1))
    return PolytopeModel(num_qubits, tuple(ineqs))


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    violations: tuple  # of (Inequality, float slack)


def membership(point: SpectraPoint, tol: float = MEMBER_TOL) -> MembershipResult:
    """Check the 3L inequalities; slacks below -tol are violations."""
    if not 0.0 <= tol < math.inf:  # false for NaN too
        raise ValidationError(f"slack tolerance must be a finite number >= 0, got {tol}")
    model = polytope_model(point.num_qubits)
    bad = []
    for ineq in model.inequalities:
        s = ineq.slack(point.lambdas)
        if s < -tol:
            bad.append((ineq, float(s)))
    return MembershipResult(member=not bad, violations=tuple(bad))


@dataclass(frozen=True)
class StratumClass:
    """Where a member point sits relative to the boundary strata.

    ``k_half`` coordinates at 1/2 are stripped first; the remaining
    ``residual_L`` coordinates form the residual system in which tight
    walls and zero coordinates are detected.
    """

    member: bool
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
    violations: tuple = ()


def classify(point: SpectraPoint, tol: float | None = None) -> StratumClass:
    """Classify a member point into its boundary stratum.

    Parameters
    ----------
    point:
        Candidate spectra point.  Must satisfy membership.
    tol:
        Slack tolerance.  Defaults to 0 for exact rational points and
        to MEMBER_TOL for float-valued ones.

    Order of detection: coordinates at 1/2 are stripped, a residual
    system with fewer than three qubits is marked degenerate, then
    tight walls and zero coordinates are read off the residual system.
    """
    if tol is None:
        tol = 0.0 if point.is_exact else MEMBER_TOL
    res = membership(point, tol=tol)
    if not res.member:
        worst = min(s for _, s in res.violations)
        raise ValidationError(
            f"point is outside the admissible region (worst slack {worst:.3e}); "
            + "; ".join(f"violated: {q.equality.replace(' = ', ' vs ')}" for q, _ in res.violations)
        )
    lams = point.lambdas
    L = point.num_qubits
    trail = [f"membership verified (tol={tol:g})"]

    half = tuple(l for l in range(1, L + 1) if lams[l - 1] >= HALF - tol)
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
        res_lams = tuple(lams[l - 1] for l in residual)
        tight = tuple(
            residual[i]
            for i in range(res_L)
            if abs(Inequality("wall", i + 1).slack(res_lams)) <= tol
        )
        trail.append(f"tight walls at qubits {tight}" if tight else "no tight walls")

    zeros = tuple(l for l in residual if lams[l - 1] <= tol)
    trail.append(f"zero coordinates at qubits {zeros}" if zeros else "no zero coordinates")

    return StratumClass(
        member=True,
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
    L = num_qubits
    check_qubit_count(L, 1, "vertices")
    out = [_vertex_from_zero_set(L, ())]
    for k in range(2, L + 1):
        out.extend(_vertex_from_zero_set(L, zs) for zs in combinations(range(1, L + 1), k))
    return VertexList(L, tuple(out), source="closed-form")


def _constraint_row(L: int, ineq: Inequality) -> tuple[list[Fraction], Fraction]:
    """Row a, rhs b with the equality written as a . lambda = b."""
    row = [Fraction(0)] * L
    l = ineq.qubit - 1
    if ineq.kind == "lower":
        row[l] = Fraction(1)
        return row, Fraction(0)
    if ineq.kind == "upper":
        row[l] = Fraction(1)
        return row, HALF
    row = [Fraction(1)] * L
    row[l] = Fraction(-1)
    return row, HALF * (L - 2)


def vertices_oracle(num_qubits: int) -> VertexList:
    """Vertices by brute force: exact solves of L-subsets of the 3L equalities.

    Every candidate basic solution is kept iff it satisfies all
    inequalities; duplicates from different active sets are merged.
    Guarded to small qubit counts, where the enumeration is cheap.
    """
    L = num_qubits
    if not 2 <= L <= MAX_ORACLE_QUBITS:
        raise ValidationError(f"oracle enumeration supports 2..{MAX_ORACLE_QUBITS} qubits")
    model = polytope_model(L)
    rows = [_constraint_row(L, q) for q in model.inequalities]
    seen: dict[tuple, Vertex] = {}
    for picks in combinations(range(3 * L), L):
        sol = solve_unique([rows[i][0] for i in picks], [rows[i][1] for i in picks])
        if sol is None:
            continue
        point = tuple(sol)
        if point in seen:
            continue
        if any(q.slack(point) < 0 for q in model.inequalities):
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

    Candidate faces come from the 3L inequalities; a candidate is kept
    only when its incident vertices affinely span a hyperplane.  For
    L >= 4 all 3L candidates survive; at L = 3 the upper bounds only
    cut out edges and are dropped.
    """
    L = num_qubits
    if not 2 <= L <= MAX_ORACLE_QUBITS:
        raise ValidationError(f"facet enumeration supports 2..{MAX_ORACLE_QUBITS} qubits")
    verts = vertices(L).vertices
    out = []
    for ineq in polytope_model(L).inequalities:
        incident = [v for v in verts if ineq.slack(v.point.lambdas) == 0]
        if len(incident) < L:
            continue
        base = incident[0].point.lambdas
        diffs = [
            [v.point.lambdas[i] - base[i] for i in range(L)]
            for v in incident[1:]
        ]
        if exact_rank(diffs) != L - 1:
            continue
        out.append(
            Facet(
                kind=ineq.kind,
                qubit=ineq.qubit,
                equality=ineq.equality,
                vertex_labels=tuple(v.label for v in incident),
                n_incident=len(incident),
            )
        )
    return tuple(out)


def random_interior_point(num_qubits: int, rng, margin: float = 0.02) -> SpectraPoint:
    """Rejection-sample a point with all 3L slacks at least ``margin``."""
    L = num_qubits
    check_qubit_count(L, 2, "interior sampling")
    if not 0.0 < margin < 0.1:
        raise ValidationError("margin must sit in (0, 0.1)")
    wall_rhs = 0.5 * (L - 2)
    for _ in range(10000):
        lams = rng.uniform(margin, 0.5 - margin, size=L)
        if (wall_rhs - lams.sum() + 2.0 * lams > margin).all():
            return SpectraPoint(tuple(float(x) for x in lams))
    raise ValidationError(f"no interior point found at margin {margin} for L={L}")


def random_wall_point(num_qubits: int, rng, distinguished: int = 1) -> SpectraPoint:
    """Random member point on the wall facet of the distinguished qubit.

    Sampled through the amplitude moduli of the wall fibration: a
    dominant weight m_d in (0.55, 0.95) and a Dirichlet split of the
    remaining mass.  With lambda_d = m_d - 1/2 and lambda_j = 1/2 - m_j
    the wall equality holds up to rounding and every other slack is
    2(lambda_j - lambda_d) > 0, so membership is automatic.
    """
    L = num_qubits
    d = distinguished
    check_qubit_count(L, 3, "wall sampling")
    if not 1 <= d <= L:
        raise ValidationError(f"distinguished qubit {d} out of range 1..{L}")
    m_d = rng.uniform(0.55, 0.95)
    floor = 0.25 * (1.0 - m_d) / (L - 1)
    for _ in range(10000):
        parts = rng.dirichlet([1.0] * (L - 1)) * (1.0 - m_d)
        if parts.min() >= floor:
            break
    else:
        raise ValidationError(f"no wall point found for L={L}")
    lams = [0.0] * L
    lams[d - 1] = m_d - 0.5
    rest = iter(0.5 - parts)
    for j in range(L):
        if j != d - 1:
            lams[j] = float(next(rest))
    return SpectraPoint(tuple(lams))
