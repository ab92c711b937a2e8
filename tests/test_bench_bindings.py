"""The benchmark's tracer wraps package attributes by name.

``bench/tracing.py`` lists every (module, attribute) it replaces in
``WRAPPED``; a binding that moves or is renamed makes the traced benchmark
fail.  This test reads that list from the file, without importing or
changing anything under ``bench/``, and resolves each name on the package,
so a moved binding fails here too.
"""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def wrapped_bindings():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "WRAPPED"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no WRAPPED")


def test_every_traced_binding_resolves():
    bindings = wrapped_bindings()
    assert bindings
    missing = []
    for module, attribute, _ in bindings:
        owner = importlib.import_module(f"wroncrit.{module}")
        # class attributes are given as "Class.attr", as the tracer reads them
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"wroncrit.{module}.{attribute}")
    assert missing == []
