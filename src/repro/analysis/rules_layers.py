"""Layering rule: a serving process never loads the training stack.

``import-layer``
    Two clauses over the imports a module runs when it is imported (its
    module scope, class bodies included; function bodies and
    ``if TYPE_CHECKING:`` blocks are exempt, because a function-scope
    import is how training code such as ``repro-serve fit`` takes its
    dependencies):

    * no module of the ``repro`` package imports ``scipy``;
    * the serving layer, which is what a serving process loads —
      ``repro/__init__.py`` and ``repro._lazy``, ``repro.core``'s
      ``__init__`` and ``config``, ``repro.exceptions``,
      ``repro.analysis``'s ``__init__`` and ``lockorder``,
      ``repro.utils``, ``repro.hmm`` and ``repro.serving`` — imports none of
      ``repro.dpp``, ``repro.optim``, ``repro.datasets``,
      ``repro.baselines``, ``repro.experiments`` or the estimator modules
      ``repro.core.{transition_prior,diversified_hmm,supervised}``.

    A name re-exported lazily by a package ``__init__`` (PEP 562) is a
    string, not an import, so the rule does not see it; the cold-start
    test checks what a fresh serving process actually loads.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.framework import Finding, Rule, SourceModule, register

__all__ = ["ImportLayerRule"]

_SERVING_MODULES = {
    "repro",
    "repro._lazy",
    "repro.core",
    "repro.core.config",
    "repro.exceptions",
    "repro.analysis",
    "repro.analysis.lockorder",
}
_SERVING_PACKAGES = ("repro.utils", "repro.hmm", "repro.serving")
_TRAINING_ONLY = (
    "repro.dpp",
    "repro.optim",
    "repro.datasets",
    "repro.baselines",
    "repro.experiments",
    "repro.core.transition_prior",
    "repro.core.diversified_hmm",
    "repro.core.supervised",
)


def _within(name: str, prefixes: Iterable[str]) -> bool:
    return any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)


def _module_name(path: str) -> str | None:
    """The dotted name of a file inside a ``repro`` package directory."""
    parts = path.replace("\\", "/").removesuffix(".py").split("/")
    if "repro" not in parts[:-1]:
        return None
    start = max(i for i, part in enumerate(parts[:-1]) if part == "repro")
    names = parts[start:]
    return ".".join(names[:-1] if names[-1] == "__init__" else names)


def _type_checking(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` or ``if typing.TYPE_CHECKING:``."""
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def _runs_at_import(body: list) -> Iterator[ast.Import | ast.ImportFrom]:
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _type_checking(node.test):
            yield from _runs_at_import(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                yield from _runs_at_import(getattr(node, field, []))


def _imported(node: ast.Import | ast.ImportFrom, package: str) -> Iterator[str]:
    """Every module ``node`` may import (``from m import x`` may import ``m.x``)."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
        return
    base = node.module or ""
    if node.level:
        parent = package.rsplit(".", node.level - 1)[0]
        base = f"{parent}.{base}" if base else parent
    yield base
    for alias in node.names:
        yield f"{base}.{alias.name}"


@register
class ImportLayerRule(Rule):
    id = "import-layer"
    summary = (
        "no module-scope scipy import in repro; the serving layer (repro, "
        "core.config, exceptions, utils, hmm, serving) imports no training code"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        name = _module_name(module.path)
        if name is None:
            return
        package = name if module.path.endswith("__init__.py") else name.rpartition(".")[0]
        serving = name in _SERVING_MODULES or _within(name, _SERVING_PACKAGES)
        for node in _runs_at_import(module.tree.body):
            imported = list(_imported(node, package))
            if any(_within(target, ("scipy",)) for target in imported):
                yield self.finding(
                    module,
                    node,
                    "module-scope scipy import — import it inside the function "
                    "that needs it, so a serving process never loads scipy",
                )
            elif serving:
                training = [t for t in imported if _within(t, _TRAINING_ONLY)]
                if training:
                    yield self.finding(
                        module,
                        node,
                        f"serving-layer module {name} imports training code "
                        f"({training[0]}) at module scope — import it inside the "
                        "function that uses it",
                    )
