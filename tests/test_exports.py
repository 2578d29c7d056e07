"""The package's public names: ``lupoly.__all__`` matches what the package binds."""

import types

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
