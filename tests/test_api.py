import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import peerpred

MODULES = sorted(info.name for info in pkgutil.iter_modules(peerpred.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"peerpred.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"peerpred.{name}.__all__ lists undefined names {missing}"


def test_package_reexports_are_public():
    tree = ast.parse(Path(peerpred.__file__).read_text(encoding="utf-8"))
    private = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"peerpred.{node.module}")
            private += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in module.__all__
            ]
    assert private == [], f"peerpred re-exports names outside their module's __all__: {private}"
