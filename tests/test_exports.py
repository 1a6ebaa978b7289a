"""The package API is each module's ``__all__``, written once.

``conncalc/__init__.py`` re-exports every submodule's ``__all__`` with a
wildcard import, so these checks keep the lists honest: no name is exported
twice, each is exported by the module that defines it, the package list is
their sorted union, and no module imports a name it neither uses nor exports.
The private names one module imports from another are pinned in a list,
``model._builder`` is the one function that compiles code at run time, and
``model.to_rational`` the one that tests a value's type with ``isinstance``.
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


# Each public name is one more entry point that the library-input contract covers,
# so adding or removing one is an edit here.
PUBLIC_NAMES = [
    "AttributeVector", "Band", "ComputationError", "ConfigurationError", "ConfusionCause",
    "ConfusionReport", "ConncalcError", "Connection", "ConnectionKind", "ConnectivityReport",
    "DEFAULT_ATTRIBUTE", "Entity", "EntityKind", "IntegrityError", "MAGNITUDE_MAX",
    "MAGNITUDE_MIN", "ParseDiagnostic", "ParseResult", "Path", "QualityTrajectory",
    "RemovalOrder", "ReplacementReport", "RosterHypothetical", "RosterRef", "Scenario",
    "ScoringMode", "Severity", "StateError", "TrajectoryStep", "ValidationError", "Violation",
    "block", "classify_quality", "confirm_silent", "connection_value", "connectivity_score",
    "detect_confusion", "distance_sum", "efficiency", "emit_report", "ensure_valid",
    "export_dot", "find_paths", "format_rational", "ideal_connectivity", "impact_factor",
    "importance", "law_holds", "parse_connection_doc", "parse_scenario", "path_viability",
    "quality", "resolve_self_conflict", "run_removal", "run_replacement", "serialize_scenario",
    "silent_closure", "to_rational", "unblock", "validate_scenario",
]


def test_package_list_is_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert conncalc.__all__ == PUBLIC_NAMES + ["__version__"]


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


def unread_private_names(paths: list[Path]) -> list[str]:
    """Module-level private names of ``paths`` (a ``def``, a ``class`` or an
    assignment target) that no code in ``paths`` reads: no load of the name,
    no attribute of that name, and no import of it."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in defined
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return found


def test_every_private_name_is_read():
    assert unread_private_names(sorted(SOURCE.glob("*.py"))) == []


def test_the_private_name_check_sees_an_unread_name(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(
        "__all__ = []\n"
        "_LIMIT: int = 4\n"
        "_KINDS, _SPARE = {}, {}\n"
        "def _step(item):\n"
        "    return _KINDS.get(item)\n"
        "class _Helper:\n"
        "    _private = 1\n"
        "def _unused():\n"
        "    return _Helper._private\n",
        encoding="utf-8",
    )
    second.write_text("from .first import _step\nimport first\nfirst._LIMIT\n", encoding="utf-8")
    assert unread_private_names([first]) == [
        "first.py:2 _LIMIT", "first.py:3 _SPARE", "first.py:4 _step", "first.py:8 _unused"
    ]
    assert unread_private_names([first, second]) == ["first.py:3 _SPARE", "first.py:8 _unused"]


# The private names each conncalc module imports from another one: a new
# cross-module private import needs a one-line edit here.
PRIVATE_IMPORTS = {
    "ablation": ["_builder"],
    "paths": ["_best_links", "_new_connection", "_number_text"],
    "scenario_io": [
        "_LiteralTooLarge", "_new_connection", "_new_entity", "_number_text", "_proven_scenario",
        "_rational_texts", "_shortest_text",
    ],
}


def private_imports(paths: list[Path]) -> dict[str, list[str]]:
    """For each of ``paths`` that has any, the sorted private names it imports
    from a sibling module (a relative import), anywhere in its code."""
    found = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = sorted(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_")
        )
        if names:
            found[path.stem] = names
    return found


def test_cross_module_private_imports_are_the_listed_ones():
    assert private_imports(sorted(SOURCE.glob("*.py"))) == PRIVATE_IMPORTS


def test_the_private_import_check_sees_a_private_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import os._private\n"
        "from json import _default_decoder\n"
        "from .model import Scenario, _builder\n"
        "def build():\n"
        "    from .paths import _best_links as links\n"
        "    return links\n",
        encoding="utf-8",
    )
    assert private_imports([path]) == {"sample": ["_best_links", "_builder"]}


def calls(path: Path) -> list[tuple[str, ast.Call]]:
    """Each call in ``path``, in source order, with the name of its innermost
    enclosing ``def``, or ``<module>`` outside any."""
    found = []

    def visit(node, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            found.append((function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


# Calls that compile source at run time, by the name they are called by.
DYNAMIC_CODE = {"exec", "eval", "compile"}


def dynamic_code_calls(path: Path) -> list[str]:
    """Each call in ``path`` that compiles source at run time, as ``file:function
    name``: ``exec``, ``eval`` or ``compile`` called by that name (not, say,
    ``re.compile``), or ``get_annotations`` given an ``eval_str`` that is not a
    literal false. ``function`` is as :func:`calls` names it."""
    found = []
    for function, node in calls(path):
        func = node.func
        if isinstance(func, ast.Name) and func.id in DYNAMIC_CODE:
            found.append(f"{path.name}:{function} {func.id}")
        elif getattr(func, "attr", getattr(func, "id", None)) == "get_annotations" and any(
            keyword.arg == "eval_str"
            and not (isinstance(keyword.value, ast.Constant) and not keyword.value.value)
            for keyword in node.keywords
        ):
            found.append(f"{path.name}:{function} get_annotations")
    return found


def test_only_the_record_builder_compiles_code():
    found = [call for path in sorted(SOURCE.glob("*.py")) for call in dynamic_code_calls(path)]
    assert found == ["model.py:_builder exec"]


def test_the_compile_check_sees_each_dynamic_call(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import inspect, re\n"
        "from inspect import get_annotations\n"
        "exec('x = 1')\n"
        "PATTERN = re.compile('a')\n"
        "def outer(cls):\n"
        "    def inner(text):\n"
        "        return eval(text)\n"
        "    inspect.get_annotations(cls, eval_str=False)\n"
        "    get_annotations(cls, eval_str=True)\n"
        "    return inspect.get_annotations(cls, eval_str=1), compile('1', '<s>', 'eval')\n",
        encoding="utf-8",
    )
    assert dynamic_code_calls(path) == [
        "sample.py:<module> exec",
        "sample.py:inner eval",
        "sample.py:outer get_annotations",
        "sample.py:outer get_annotations",
        "sample.py:outer compile",
    ]


# A field value is tested by its exact type (``type(x) is str``), as the read's walks
# test it: ``isinstance`` would let a subclass through, whose own ``__eq__`` or
# ``__hash__`` then runs. ``model.to_rational`` alone coerces by ``isinstance``, as
# its docstring says.
EXACT_TYPES = {"str", "int", "bool"}


def isinstance_type_tests(path: Path) -> list[str]:
    """Each ``isinstance`` call in ``path`` whose classes name ``str``, ``int`` or
    ``bool``, alone or in a tuple, as ``file:function`` (see :func:`calls`)."""
    found = []
    for function, node in calls(path):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            classes = node.args[1]
            names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
            if any(isinstance(name, ast.Name) and name.id in EXACT_TYPES for name in names):
                found.append(f"{path.name}:{function}")
    return found


def test_field_values_are_tested_by_exact_type():
    found = [test for path in sorted(SOURCE.glob("*.py")) for test in isinstance_type_tests(path)]
    assert [test for test in found if test != "model.py:to_rational"] == []


def test_the_type_check_sees_each_isinstance_test(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from fractions import Fraction\n"
        "FLAG = isinstance(1, (int,))\n"
        "def check(x, y):\n"
        "    if isinstance(x, (bytes, str)) or isinstance(y, dict):\n"
        "        return isinstance(x, bool) and not isinstance(x, Fraction)\n"
        "    return type(x) is str\n"
        "class Text(str):\n"
        "    def __eq__(self, other):\n"
        "        return isinstance(other, str)\n",
        encoding="utf-8",
    )
    assert isinstance_type_tests(path) == [
        "sample.py:<module>", "sample.py:check", "sample.py:check", "sample.py:__eq__"
    ]
