"""The public names resolve: every entry of a module's ``__all__`` and every
name that the package ``__init__`` imports, so that deleting a function
cannot leave a dangling export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(halfcyl.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.asname or alias.name)
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert {module for module, _ in imported} <= set(MODULES)
    missing = [f"{module}.{n}" for module, n in imported if not hasattr(halfcyl, n)]
    assert not missing, missing
