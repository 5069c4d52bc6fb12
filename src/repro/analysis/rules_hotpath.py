"""Hot-path purity rules for the numpy inference kernels.

Functions whose ``def`` line carries ``# repro: hot-path`` (or any
function in a module with a standalone ``# repro: hot-path`` comment) are
inner-loop kernels: the packed forward/backward/Viterbi recursions in
:mod:`repro.hmm.backends` and the scoring path of :mod:`repro.hmm.corpus`.  Three rules keep them pure:

``hot-path-loop``
    Python ``for``/``while`` loops are forbidden unless annotated
    ``# repro: loop-ok[<reason>]`` — an HMM's time recursion is inherently
    sequential (one batched matmul per step), so those loops are expected
    and *declared*; an undeclared loop is usually an accidental per-token
    or per-sequence scalar path.

``hot-path-copy``
    Dtype-converting array constructors (``np.asarray(..., dtype=...)``,
    ``np.array``, ``.astype``, ``np.ascontiguousarray``) inside a loop
    body copy per iteration; hoist them out of the loop.

``hot-path-unguarded-log``
    ``np.log`` / ``np.divide`` whose argument is not visibly clamped
    (``np.maximum``/``np.clip``/``_TINY``/``safe_log``) underflows to
    ``-inf``/``nan`` on degenerate inputs; route through the module's
    ``_TINY`` guard idiom.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import Finding, Rule, SourceModule, register

__all__ = ["HotPathLoopRule", "HotPathCopyRule", "HotPathLogRule"]


def _hot_functions(
    module: SourceModule,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    whole_module = module.has_module_pragma("hot-path")
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if whole_module or module.header_pragma(node, "hot-path") is not None:
                yield node


def _loops(func: ast.AST) -> Iterator[ast.For | ast.While]:
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.While)):
            yield node


@register
class HotPathLoopRule(Rule):
    id = "hot-path-loop"
    summary = (
        "no Python for/while in `# repro: hot-path` kernels unless declared "
        "`# repro: loop-ok[reason]` (time recursions are; scalar paths aren't)"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in _hot_functions(module):
            for loop in _loops(func):
                if module.header_pragma(loop, "loop-ok") is not None:
                    continue
                kind = "for" if isinstance(loop, ast.For) else "while"
                yield self.finding(
                    module,
                    loop,
                    f"Python `{kind}` loop in hot-path kernel "
                    f"'{func.name}' — vectorize over the batch axis, or "
                    "declare an inherent recursion with "
                    "`# repro: loop-ok[reason]`",
                )


def _is_copying_call(call: ast.Call) -> str | None:
    """Describe the copy when ``call`` converts/copies an array, else None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr == "astype":
            return ".astype(...)"
        if isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"):
            if func.attr == "array":
                return "np.array(...)"
            if func.attr == "ascontiguousarray":
                return "np.ascontiguousarray(...)"
            if func.attr == "asarray" and any(
                kw.arg == "dtype" for kw in call.keywords
            ):
                return "np.asarray(..., dtype=...)"
    return None


@register
class HotPathCopyRule(Rule):
    id = "hot-path-copy"
    summary = (
        "no dtype-converting array copies (np.array/astype/asarray+dtype) "
        "inside loop bodies of hot-path kernels — hoist them out"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in _hot_functions(module):
            for loop in _loops(func):
                for stmt in loop.body:
                    for node in ast.walk(stmt):
                        if isinstance(node, ast.Call):
                            what = _is_copying_call(node)
                            if what is not None:
                                yield self.finding(
                                    module,
                                    node,
                                    f"{what} copies its input on every "
                                    f"iteration of the loop at line "
                                    f"{loop.lineno} — hoist the conversion "
                                    "out of the hot loop",
                                )


_GUARD_NAMES = {"_TINY", "safe_log"}
_GUARD_CALLS = {"maximum", "clip", "fmax"}


def _is_guarded(arg: ast.expr) -> bool:
    """True when the expression subtree visibly clamps away zeros."""
    for node in ast.walk(arg):
        if isinstance(node, ast.Name) and node.id in _GUARD_NAMES:
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _GUARD_CALLS:
                return True
            if isinstance(func, ast.Name) and func.id in _GUARD_NAMES:
                return True
    return False


@register
class HotPathLogRule(Rule):
    id = "hot-path-unguarded-log"
    summary = (
        "np.log/np.divide in hot-path kernels must clamp their input "
        "(np.maximum/np.clip/_TINY/safe_log) against underflow"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in _hot_functions(module):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if not (
                    isinstance(f, ast.Attribute)
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("np", "numpy")
                    and f.attr in ("log", "divide", "true_divide")
                ):
                    continue
                if any(_is_guarded(arg) for arg in node.args):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"np.{f.attr}() without a visible _TINY guard in "
                    f"hot-path kernel '{func.name}' — clamp the argument "
                    "(np.maximum(x, _TINY)) or justify with a suppression",
                )
