"""Closed-form top-stratum dimension of the reduced space at given spectra.

The report carries which formula fired and whether the value is a
directly worked case ("paper-exact") or a composition of reductions
("composed").  The invariant-polynomial count is always dim + L.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalInvariantError
from .polytope import SpectraPoint, StratumClass, classify

# Formula labels, in precedence order of the classifier.
FORMULAS = (
    "interior",
    "case1+interior",
    "case2",
    "case3",
    "three-qubit-boundary",
    "degenerate-product",
    "composed",
)


class _DimFields(NamedTuple):
    dim_M: int
    num_invariants: int
    formula: str
    status: str  # "paper-exact" | "composed"
    notes: tuple = ()


class DimReport(_DimFields):
    """The dimension of a reduced space; a negative dimension is refused at construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        report = super().__new__(cls, *args, **kwargs)
        if report.dim_M < 0:
            raise InternalInvariantError(f"negative dimension {report.dim_M}")
        return report

    @classmethod
    def _make(cls, iterable) -> "DimReport":
        return cls(*iterable)  # through the guard, as ``_replace`` is too


def _generic_dim(L: int) -> int:
    return 2 ** (L + 1) - 4 * L - 2


def dim_reduced_space(stratum: StratumClass) -> DimReport:
    """Dimension of the top stratum of the reduced space for a classified point.

    Precedence: coordinates at 1/2 are stripped first (each removes a
    product factor), a degenerate residual (fewer than 3 qubits) gives
    0, a tight wall gives 0 unconditionally, and otherwise the interior
    formula applies with a deduction of 2 per zero coordinate.
    """
    L = stratum.num_qubits
    res_L = stratum.residual_L
    k_half = stratum.k_half
    k_zero = stratum.k_zero
    notes = []
    if k_half:
        notes.append(f"stripped {k_half} product factor(s) with lambda = 1/2")

    if res_L <= 2:
        kind = "fully separable fiber" if res_L <= 1 else "two-qubit Schmidt fiber"
        notes.append(f"residual system of {res_L} qubit(s): {kind}, a single orbit")
        return _report(0, L, "degenerate-product", "composed", notes)

    if stratum.tight_walls:
        notes.append(f"tight wall at qubit(s) {stratum.tight_walls}: fiber is a single orbit")
        if k_zero:
            notes.append(
                "wall result applied with degenerate spectra present "
                f"({k_zero} zero coordinate(s)); the statement is unconditional"
            )
        return _report(0, L, "case2", "paper-exact", notes)

    if k_zero == 0:
        dim = _generic_dim(res_L)
        formula = "interior" if k_half == 0 else "case1+interior"
        return _report(dim, L, formula, "paper-exact", notes)

    if res_L == 3:
        notes.append("three-qubit boundary point: every fiber over the boundary is a single orbit")
        status = "paper-exact" if k_half == 0 else "composed"
        return _report(0, L, "three-qubit-boundary", status, notes)

    dim = _generic_dim(res_L) - 2 * k_zero
    notes.append(f"{k_zero} maximally mixed reduction(s): deduction of {2 * k_zero}")
    if k_half == 0:
        return _report(dim, L, "case3", "paper-exact", notes)
    return _report(dim, L, "composed", "composed", notes)


def _report(dim: int, L: int, formula: str, status: str, notes: list) -> DimReport:
    if formula not in FORMULAS:
        raise InternalInvariantError(f"unknown formula label {formula!r}")
    return DimReport(dim, dim + L, formula, status, tuple(notes))


def dim_for_point(point: SpectraPoint, tol: float | None = None) -> tuple[StratumClass, DimReport]:
    """Classify a point and report its reduced-space dimension."""
    stratum = classify(point, tol=tol)
    return stratum, dim_reduced_space(stratum)
