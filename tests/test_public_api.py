"""The public names resolve: every entry of a module's ``__all__`` and every
name of the package's lazy export map, so that deleting a function cannot
leave a dangling export behind."""

import importlib
import pkgutil

import pytest

import halfcyl

MODULES = sorted(m.name for m in pkgutil.iter_modules(halfcyl.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"halfcyl.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), exported
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"halfcyl.{name}.__all__ names missing objects: {missing}"


def test_export_map_names_real_modules():
    assert halfcyl._EXPORTS, "the export map is empty"
    assert set(halfcyl._EXPORTS.values()) <= set(MODULES)
    assert sorted(halfcyl.__all__) == sorted(halfcyl._EXPORTS)


def test_every_name_the_package_imports_resolves():
    """Each name of ``halfcyl.__all__`` resolves through the package to the
    very object that its module defines."""
    missing, other = [], []
    for name in halfcyl.__all__:
        module = importlib.import_module(f"halfcyl.{halfcyl._EXPORTS[name]}")
        if not hasattr(module, name):
            missing.append(f"{module.__name__}.{name}")
        elif getattr(halfcyl, name) is not getattr(module, name):
            other.append(name)
    assert not missing, missing
    assert not other, other


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        halfcyl.no_such_name  # noqa: B018
    assert not hasattr(halfcyl, "no_such_name")
