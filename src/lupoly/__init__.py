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
import types

from .dimension import DimReport, dim_for_point, dim_reduced_space
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
    document,
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


# Every public name is bound above or listed in _LAZY, and nowhere else.
__all__ = sorted([
    name for name, value in dict(globals()).items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + list(_LAZY))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
