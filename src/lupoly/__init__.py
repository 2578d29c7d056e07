"""Local-unitary orbit geometry of multiqubit pure states.

Shifted one-qubit marginal spectra, the polytope they fill, closed-form
reduced-space dimensions per boundary stratum, explicit wall and stable
states, and a numerical fiber oracle that cross-checks the formulas.

The exact layer (``errors``, ``polytope``, ``dimension``, ``wall``) is
imported with the package and needs no numpy.  The names of the numpy
modules ``qstate``, ``fiberlab`` and ``stability`` are imported on first
access through ``__getattr__`` (PEP 562), so ``import lupoly`` does not
load numpy.
"""

import importlib

from .dimension import DimReport, dim_for_point, dim_reduced_space, report_document
from .errors import (
    ConvergenceError,
    InternalInvariantError,
    LupolyError,
    NumericalError,
    ValidationError,
)
from .polytope import (
    Facet,
    Inequality,
    MembershipResult,
    SpectraPoint,
    StratumClass,
    Vertex,
    VertexList,
    classify,
    facets,
    membership,
    random_interior_point,
    random_wall_point,
    slacks,
    vertices,
    vertices_oracle,
)
from .wall import (
    TorusCertificate,
    WallOperator,
    WeightSubspaceBasis,
    build_wall_operator,
    eigenspace_basis,
    torus_transitivity_check,
    wall_state,
)

# Public name -> the numpy module that defines it, imported on first access.
_LAZY = {
    "PureState": "qstate",
    "apply_local_unitary": "qstate",
    "dump_state": "qstate",
    "haar_state": "qstate",
    "load_state": "qstate",
    "momentum_map": "qstate",
    "psi_map": "qstate",
    "purity_invariants": "qstate",
    "random_local_unitaries": "qstate",
    "reduce_one_qubit": "qstate",
    "state_document": "qstate",
    "state_from_document": "qstate",
    "DmuReport": "fiberlab",
    "FiberSample": "fiberlab",
    "NumericDimEstimate": "fiberlab",
    "SampleAudit": "fiberlab",
    "momentum_differential_matrix": "fiberlab",
    "momentum_rank_report": "fiberlab",
    "numeric_dim": "fiberlab",
    "rank_dmu": "fiberlab",
    "sample_fiber": "fiberlab",
    "OrbitReport": "stability",
    "StabilityReport": "stability",
    "complement_pair_state": "stability",
    "orbit_dimensions": "stability",
    "stable_state": "stability",
    "verify_stable": "stability",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DimReport",
    "DmuReport",
    "Facet",
    "FiberSample",
    "Inequality",
    "InternalInvariantError",
    "LupolyError",
    "MembershipResult",
    "NumericDimEstimate",
    "NumericalError",
    "OrbitReport",
    "PureState",
    "SampleAudit",
    "SpectraPoint",
    "StabilityReport",
    "StratumClass",
    "TorusCertificate",
    "ValidationError",
    "Vertex",
    "VertexList",
    "WallOperator",
    "WeightSubspaceBasis",
    "apply_local_unitary",
    "build_wall_operator",
    "classify",
    "complement_pair_state",
    "dim_for_point",
    "dim_reduced_space",
    "dump_state",
    "eigenspace_basis",
    "facets",
    "haar_state",
    "load_state",
    "membership",
    "momentum_map",
    "momentum_differential_matrix",
    "momentum_rank_report",
    "numeric_dim",
    "orbit_dimensions",
    "psi_map",
    "purity_invariants",
    "random_interior_point",
    "random_local_unitaries",
    "random_wall_point",
    "rank_dmu",
    "reduce_one_qubit",
    "report_document",
    "sample_fiber",
    "slacks",
    "stable_state",
    "state_document",
    "state_from_document",
    "torus_transitivity_check",
    "verify_stable",
    "vertices",
    "vertices_oracle",
    "wall_state",
]
