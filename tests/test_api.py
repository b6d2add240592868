"""The package's public surface: ``fastslow.__all__`` is exactly the set of
public names the package binds, and every one of them resolves."""

import inspect

import fastslow


def test_every_exported_name_resolves():
    missing = [name for name in fastslow.__all__
               if not hasattr(fastslow, name)]
    assert not missing


def test_every_public_name_is_exported():
    public = {name for name, value in vars(fastslow).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public - set(fastslow.__all__) == set()


def test_exports_are_unique():
    assert len(fastslow.__all__) == len(set(fastslow.__all__))
