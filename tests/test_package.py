"""The package's public names: ``__all__`` is built from the imports of
``proxsplit/__init__.py``, so this checks the rule, not a second list."""

import types

import proxsplit


def test_all_is_every_public_import_once_and_star_binds_it():
    names = proxsplit.__all__
    assert len(set(names)) == len(names)
    public = [name for name, value in vars(proxsplit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert names == public + ["__version__"]
    # a class or function imported from another package would leak into
    # the API under the rule; every one must come from proxsplit's modules
    for name in names:
        value = getattr(proxsplit, name)
        if callable(value):
            assert value.__module__.startswith("proxsplit."), name
    namespace = {}
    exec("from proxsplit import *", namespace)
    assert [name for name in names if namespace.get(name) is not getattr(proxsplit, name)] == []
