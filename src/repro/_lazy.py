"""Package exports that import on first use (PEP 562).

A process that only tags sequences should not pay for the training stack
just because a package ``__init__`` re-exports it.  The packages therefore
name their exports instead of importing them: :func:`lazy_exports` builds
the module-level ``__getattr__`` and ``__dir__`` that import a name's
module the first time the name is read and cache the value as an
ordinary attribute of the package, and the ``__all__`` that lists them.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``.

    ``exports`` maps a module's dotted name to the names the package
    re-exports from it.  Under the package's own name it lists submodules
    that are themselves exports (``repro.serving.faults``).
    """
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == package:
            value = import_module(f"{package}.{name}")
        else:
            value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return __getattr__, __dir__, list(source)
