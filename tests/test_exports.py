"""The package API is each module's ``__all__``, written once.

``conncalc/__init__.py`` re-exports every submodule's ``__all__`` with a
wildcard import, so these checks keep the lists honest: no name is exported
twice, each is exported by the module that defines it, the package list is
their sorted union, and no module imports a name it neither uses nor exports.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import conncalc

SOURCE = Path(conncalc.__file__).parent
MODULES = [
    importlib.import_module(f"conncalc.{info.name}")
    for info in pkgutil.iter_modules(conncalc.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_module_lists_are_disjoint():
    listed = [name for module in EXPORTING for name in module.__all__]
    assert len(listed) == len(set(listed))


def test_each_class_and_function_is_exported_by_its_own_module():
    for module in EXPORTING:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name


def test_package_list_is_the_sorted_union():
    union = [name for module in EXPORTING for name in module.__all__]
    assert conncalc.__all__ == sorted(union) + ["__version__"]


def test_wildcard_import_binds_exactly_the_package_list():
    namespace: dict = {}
    exec("from conncalc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(conncalc.__all__)


def unneeded_imports(path: Path, exported: list[str]) -> list[str]:
    """Top-level imports of ``path`` that its code never reads, that
    ``exported`` does not list, and whose line carries no ``# noqa: F401``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).partition(".")[0]
            if name == "*" or name in read or name in exported:
                continue
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                found.append(f"{path.name}:{alias.lineno} {name}")
    return found


def test_every_import_is_used_or_exported():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module(f"conncalc.{path.stem}".removesuffix(".__init__"))
        found += unneeded_imports(path, getattr(module, "__all__", []))
    assert found == []


def test_the_import_check_sees_an_unneeded_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os  # noqa: F401 - kept on purpose\n"
        "from .model import (\n"
        "    Scenario,\n"
        "    to_rational,\n"
        ")\n"
        "from .paths import *\n"
        "json.dumps(to_rational)\n",
        encoding="utf-8",
    )
    assert unneeded_imports(path, []) == ["sample.py:5 Scenario"]
    assert unneeded_imports(path, ["Scenario"]) == []
