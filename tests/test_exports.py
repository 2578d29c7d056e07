"""The package's public names: ``lupoly.__all__`` matches what the package binds or loads lazily."""

import types

import pytest

import lupoly


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
