"""The package's public names: ``lupoly.__all__`` is the pinned set the package binds or loads lazily."""

import types

import pytest

import lupoly


# The package's public surface, written out so that a new public helper in
# ``lupoly/__init__.py`` cannot join the derived ``__all__`` unnoticed.
PUBLIC = {
    "ConvergenceError", "DimReport", "DmuReport", "Facet", "FiberSample", "Inequality",
    "InternalInvariantError", "LupolyError", "MembershipResult", "NumericDimEstimate",
    "NumericalError", "OrbitReport", "PureState", "SampleAudit", "SpectraPoint",
    "StabilityReport", "StratumClass", "TorusCertificate", "ValidationError", "Vertex",
    "VertexList", "WallOperator", "WeightSubspaceBasis", "apply_local_unitary",
    "build_wall_operator", "classify", "complement_pair_state", "dim_for_point",
    "dim_reduced_space", "document", "eigenspace_basis", "facets", "haar_state", "load_state", "membership",
    "momentum_differential_matrix", "momentum_map", "momentum_rank_report", "numeric_dim",
    "orbit_dimensions", "psi_map", "purity_invariants", "random_interior_point",
    "random_local_unitaries", "random_wall_point", "rank_dmu", "reduce_one_qubit",
    "sample_fiber", "slacks", "stable_state", "state_document",
    "state_from_document", "torus_transitivity_check", "verify_stable", "vertices",
    "vertices_oracle", "wall_state",
}


def test_public_surface_is_pinned():
    assert set(lupoly.__all__) == PUBLIC
    assert lupoly.__all__ == sorted(PUBLIC)


def test_every_exported_name_resolves():
    missing = [name for name in lupoly.__all__ if not hasattr(lupoly, name)]
    assert not missing
    assert len(set(lupoly.__all__)) == len(lupoly.__all__)


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(lupoly).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(lupoly.__all__) == set()


def test_dir_covers_all():
    assert set(lupoly.__all__) <= set(dir(lupoly))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from lupoly import *", namespace)
    assert {name for name in lupoly.__all__ if name not in namespace} == set()


def test_lazy_names_are_the_defining_modules_objects():
    from lupoly import fiberlab, polytope, qstate, stability

    assert lupoly.SpectraPoint is qstate.SpectraPoint is polytope.SpectraPoint
    assert lupoly.PureState is qstate.PureState
    assert lupoly.sample_fiber is fiberlab.sample_fiber
    assert lupoly.verify_stable is stability.verify_stable


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lupoly.no_such_name  # noqa: B018
