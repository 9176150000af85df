"""The public surface: every function the package exports is reached by a workflow."""

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


def test_every_exported_function_has_a_caller_in_the_package():
    # a call in a module other than __init__.py, or a reason on the UNCALLED list
    package = Path(chirpsounder.__file__).parent
    modules = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    called = set().union(*map(_called_names, modules))
    exported = {name for name, obj in vars(chirpsounder).items() if inspect.isfunction(obj)}
    assert sorted(exported - called - set(UNCALLED)) == []
    assert sorted(set(UNCALLED) - exported) == []  # the list names only exported functions
    assert sorted(set(UNCALLED) & called) == []  # and only uncalled ones
