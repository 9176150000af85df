"""The public surface: every function the package exports is reached by a workflow, and
every name a module imports is read there."""

import ast
import inspect
from pathlib import Path

import chirpsounder

# exported for analysis and reference, with no caller in the package itself
UNCALLED = {
    "average_segments": "the segment averaging of demos/03 and the README",
    "closed_form_autocorrelation": "the reference of the correlation acceptance test and "
    "of the benchmark's check",
}


def _called_names(path):
    """Every name that ``path`` calls, as ``name(...)`` or ``obj.name(...)``."""
    nodes = ast.walk(ast.parse(path.read_text()))
    return {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in nodes if isinstance(node, ast.Call)
    }


def _unused_imports(path):
    """Every name that ``path`` imports and never reads."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return imported - {node.id for node in nodes if isinstance(node, ast.Name)}


def test_every_exported_function_has_a_caller_in_the_package():
    # a call in a module other than __init__.py, or a reason on the UNCALLED list
    package = Path(chirpsounder.__file__).parent
    modules = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    called = set().union(*map(_called_names, modules))
    exported = {name for name, obj in vars(chirpsounder).items() if inspect.isfunction(obj)}
    assert sorted(exported - called - set(UNCALLED)) == []
    assert sorted(set(UNCALLED) - exported) == []  # the list names only exported functions
    assert sorted(set(UNCALLED) & called) == []  # and only uncalled ones


def test_no_module_keeps_an_unused_import():
    # __init__.py imports the exports; every other module reads each name it imports
    package = Path(chirpsounder.__file__).parent
    unused = {p.name: _unused_imports(p) for p in package.glob("*.py") if p.name != "__init__.py"}
    assert {name: sorted(names) for name, names in unused.items() if names} == {}
