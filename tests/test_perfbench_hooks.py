"""Every entry point the system benchmark wraps still exists.

``perfbench`` traces layers by replacing methods and module functions from
outside the program (``Tracer.wrap(owner, "attr", name)``), so renaming or
deleting a wrapped entry point breaks a traced benchmark run.  The
benchmark's own smoke test finds that out only after running every
workload; this test finds each ``.wrap(owner, "attr", ...)`` call in the
benchmark's sources, imports the workload module and resolves the owner
and attribute the way ``Tracer.wrap`` does, without running anything.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _wrap_calls():
    """``(module, owner expression, attribute, line)`` of every wrap call."""
    for source in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                yield f"perfbench.{source.stem}", node.args[0], node.args[1].value, node.lineno


def _evaluate(expr: ast.expr, namespace: dict):
    """Value of a dotted name (``Owner`` or ``module.Owner``) in a module."""
    if isinstance(expr, ast.Name):
        return namespace[expr.id]
    if isinstance(expr, ast.Attribute):
        return getattr(_evaluate(expr.value, namespace), expr.attr)
    raise TypeError(f"wrap owner {ast.unparse(expr)!r} is not a dotted name")


def test_every_wrapped_entry_point_resolves():
    hooks = list(_wrap_calls())
    assert hooks, "found no .wrap(owner, 'attr', ...) call under perfbench/"
    unresolved = []
    for module_name, owner_expr, attr, line in hooks:
        where = f"{module_name}:{line} {ast.unparse(owner_expr)}.{attr}"
        try:
            owner = _evaluate(owner_expr, vars(importlib.import_module(module_name)))
        except (KeyError, AttributeError, TypeError) as exc:
            unresolved.append(f"{where}: owner does not resolve ({exc!r})")
            continue
        # As Tracer.wrap: a class must define the method itself.
        if isinstance(owner, type):
            target = owner.__dict__.get(attr)
        else:
            target = getattr(owner, attr, None)
        if not callable(target) and not isinstance(target, (staticmethod, classmethod)):
            unresolved.append(f"{where}: no such entry point")
    assert not unresolved, "\n".join(unresolved)
