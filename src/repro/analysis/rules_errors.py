"""Error-taxonomy rules: typed raises in serving, no swallowed BaseException.

``typed-raise``
    Modules under ``repro/serving/`` may only raise members of the typed
    hierarchy rooted in :mod:`repro.exceptions` (detected through their
    ``from repro.exceptions import ...`` bindings, plus classes defined in
    the module whose bases resolve to one), or the control-flow builtins
    (``NotImplementedError``, ``SystemExit``, ``KeyboardInterrupt``,
    ``StopIteration``, ``StopAsyncIteration``), or ``AttributeError`` from
    a module-level ``__getattr__``, which PEP 562 requires.  Best-effort
    by design: re-raises (``raise``) and dynamically constructed exceptions
    (``raise some_variable``/``raise factory()``) pass — the rule exists
    to stop *new literal* ``raise RuntimeError(...)``-style taxonomy leaks.

``broad-except``
    A bare ``except:`` is always a finding; ``except BaseException`` is a
    finding unless the handler re-raises — swallowing ``BaseException``
    in a dispatcher loop turns ``KeyboardInterrupt``/``SystemExit`` into
    a silently wedged service (the PR-3 bug class).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, Rule, SourceModule, register

__all__ = ["TypedRaiseRule", "BroadExceptRule"]

_CONTROL_FLOW_BUILTINS = {
    "NotImplementedError",
    "SystemExit",
    "KeyboardInterrupt",
    "StopIteration",
    "StopAsyncIteration",
}


def _serving_module(module: SourceModule) -> bool:
    parts = module.path.replace("\\", "/").split("/")
    return "serving" in parts and "tests" not in parts


@register
class TypedRaiseRule(Rule):
    id = "typed-raise"
    summary = (
        "serving modules may only raise the typed repro.exceptions hierarchy "
        "(plus control-flow builtins); no ad-hoc RuntimeError/ValueError"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not _serving_module(module):
            return
        allowed = set(_CONTROL_FLOW_BUILTINS)
        # names imported from the taxonomy module
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.exceptions":
                for alias in node.names:
                    allowed.add(alias.asname or alias.name)
        # local classes whose bases resolve (transitively) to allowed names
        local_bases: dict[str, list[str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                local_bases[node.name] = [
                    base.id for base in node.bases if isinstance(base, ast.Name)
                ]
        changed = True
        while changed:
            changed = False
            for name, bases in local_bases.items():
                if name not in allowed and any(base in allowed for base in bases):
                    allowed.add(name)
                    changed = True
        # PEP 562: a module's __getattr__ reports a missing name this way.
        module_getattr = {
            node
            for definition in module.tree.body
            if isinstance(definition, ast.FunctionDef) and definition.name == "__getattr__"
            for node in ast.walk(definition)
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                # `raise SomeClass` without arguments — only flag when the
                # name is statically a class; plain variables (re-raising a
                # captured exception object) pass.
                if exc.id in local_bases or exc.id[:1].isupper():
                    name = exc.id
            if name is None or name in allowed:
                continue
            if name == "AttributeError" and node in module_getattr:
                continue
            if name in local_bases or name.endswith(("Error", "Exception", "Warning")):
                yield self.finding(
                    module,
                    node,
                    f"serving code raises {name}, which is outside the typed "
                    "hierarchy — raise a repro.exceptions subclass (derive "
                    "from ServingError) so transports can map it",
                )


@register
class BroadExceptRule(Rule):
    id = "broad-except"
    summary = (
        "no bare `except:`; `except BaseException` only with an unconditional "
        "re-raise (never swallow KeyboardInterrupt/SystemExit)"
    )

    @staticmethod
    def _catches_base_exception(handler: ast.ExceptHandler) -> bool:
        def is_base(expr: ast.expr) -> bool:
            return isinstance(expr, ast.Name) and expr.id == "BaseException"

        if handler.type is None:
            return True
        if is_base(handler.type):
            return True
        if isinstance(handler.type, ast.Tuple):
            return any(is_base(el) for el in handler.type.elts)
        return False

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise) and node.exc is None:
                return True
        return False

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt — "
                    "catch Exception (or a typed subclass) instead",
                )
                continue
            if self._catches_base_exception(node) and not self._reraises(node):
                yield self.finding(
                    module,
                    node,
                    "`except BaseException` without re-raise swallows "
                    "control-flow exceptions and can wedge the dispatcher — "
                    "catch Exception, or re-raise unconditionally",
                )
