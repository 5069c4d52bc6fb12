"""Core of the ``repro-lint`` static-analysis framework.

The framework is deliberately small and stdlib-only: a source file is
parsed once into a :class:`SourceModule` (AST + a tokenize-derived comment
map + structured ``# repro:`` pragmas), every registered :class:`Rule`
walks it and yields :class:`Finding` objects, and the runner applies the
suppression pragmas before reporting.

Pragma grammar (one per comment, trailing or standalone)::

    # repro: ignore[rule-id, ...] -- <justification>
    # repro: hot-path
    # repro: guarded-by[<lock attribute>]
    # repro: confined[<thread that owns this method>]
    # repro: loop-ok[<why this Python loop is acceptable>]

``ignore`` suppresses findings reported *on the same line*; a suppression
without a ``-- justification`` (or one that suppresses nothing) is itself
a finding of the always-on ``suppression`` meta rule, which is how the
"zero unjustified suppressions" gate is enforced.  The other pragmas are
declarations consumed by individual rules (see the rule modules).
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "Finding",
    "LintResult",
    "Pragma",
    "Rule",
    "SourceModule",
    "all_rules",
    "lint_paths",
    "lint_sources",
    "register",
    "render_json",
    "render_text",
]

#: stable exit codes of the ``repro-lint`` CLI.
EXIT_CLEAN = 0  # no findings
EXIT_FINDINGS = 1  # at least one finding survived suppression
EXIT_USAGE = 2  # bad invocation or unanalyzable input (syntax error)

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*(?P<kind>[a-z-]+)"
    r"(?:\[(?P<args>[^\]]*)\])?"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)

_PRAGMA_KINDS = {"ignore", "hot-path", "guarded-by", "confined", "loop-ok"}


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# repro: ...`` comment."""

    kind: str
    args: tuple[str, ...]
    reason: str | None
    line: int


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


class SourceModule:
    """A parsed source file: AST, raw lines, comments and pragmas."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        #: comment text (including ``#``) keyed by 1-based line number.
        self.comments: dict[int, str] = {}
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                self.comments[token.start[0]] = token.string
        self.pragmas: dict[int, Pragma] = {}
        self.bad_pragmas: list[tuple[int, str]] = []
        for line, comment in self.comments.items():
            if "repro:" not in comment:
                continue
            match = _PRAGMA_RE.search(comment)
            if match is None:
                self.bad_pragmas.append((line, comment.strip()))
                continue
            kind = match.group("kind")
            if kind not in _PRAGMA_KINDS:
                self.bad_pragmas.append((line, comment.strip()))
                continue
            args = tuple(
                part.strip()
                for part in (match.group("args") or "").split(",")
                if part.strip()
            )
            self.pragmas[line] = Pragma(
                kind=kind, args=args, reason=match.group("reason"), line=line
            )

    # ------------------------------------------------------------------
    def pragma_in_range(self, kind: str, start: int, end: int) -> Pragma | None:
        """The first ``kind`` pragma on any line in ``[start, end]``."""
        for line in range(start, end + 1):
            pragma = self.pragmas.get(line)
            if pragma is not None and pragma.kind == kind:
                return pragma
        return None

    def header_pragma(self, node: ast.AST, kind: str) -> Pragma | None:
        """A ``kind`` pragma attached to a statement's header lines.

        The header spans from the statement's first line to the line before
        its body starts (or its own end for body-less statements), so
        black-wrapped ``def`` signatures still pick up a trailing pragma.
        """
        start = getattr(node, "lineno", None)
        if start is None:
            return None
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and hasattr(body[0], "lineno"):
            end = body[0].lineno - 1
        else:
            end = getattr(node, "end_lineno", start)
        return self.pragma_in_range(kind, start, max(start, end))

    def has_module_pragma(self, kind: str) -> bool:
        """True when a ``kind`` pragma marks the whole file.

        Module pragmas live in the file header: on a line above the first
        top-level statement after the module docstring.  Pragmas further
        down attach to their own statement, never to the module.
        """
        stmts = self.tree.body
        if (
            stmts
            and isinstance(stmts[0], ast.Expr)
            and isinstance(stmts[0].value, ast.Constant)
            and isinstance(stmts[0].value.value, str)
        ):
            stmts = stmts[1:]
        cutoff = stmts[0].lineno if stmts else len(self.lines) + 1
        return any(
            p.kind == kind and line < cutoff
            for line, p in self.pragmas.items()
        )


class Rule:
    """Base class for lint rules.  Subclasses register via :func:`register`."""

    #: stable kebab-case identifier used in reports and suppressions.
    id: str
    #: one-line description shown by ``repro-lint --list-rules``.
    summary: str

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_RULES: dict[str, Rule] = {}

#: meta rule id for suppression hygiene (always active, never suppressible).
SUPPRESSION_RULE = "suppression"


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule instance to the global registry."""
    rule = rule_cls()
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _RULES[rule.id] = rule
    return rule_cls


def all_rules() -> dict[str, Rule]:
    """The registered rules (id -> instance), loading the built-ins."""
    # Imported here (not at module top) to avoid a registration cycle:
    # the rule modules import this framework.
    for name in ("concurrency", "errors", "hotpath", "hygiene", "layers"):
        import_module(f"repro.analysis.rules_{name}")
    return dict(_RULES)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    n_files: int = 0
    rule_ids: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.errors:
            return EXIT_USAGE
        return EXIT_FINDINGS if self.findings else EXIT_CLEAN


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" in candidate.parts:
                    continue
                yield candidate
        else:
            yield path


def _apply_suppressions(
    module: SourceModule, findings: list[Finding], check_unused: bool
) -> list[Finding]:
    """Drop suppressed findings; report suppression-hygiene violations."""
    kept: list[Finding] = []
    used: set[int] = set()
    for finding in findings:
        pragma = module.pragmas.get(finding.line)
        if (
            pragma is not None
            and pragma.kind == "ignore"
            and finding.rule in pragma.args
            and finding.rule != SUPPRESSION_RULE
        ):
            used.add(pragma.line)
            continue
        kept.append(finding)
    known = set(_RULES)
    for pragma in module.pragmas.values():
        if pragma.kind != "ignore":
            continue
        if not pragma.args:
            kept.append(
                Finding(
                    SUPPRESSION_RULE, module.path, pragma.line, 1,
                    "ignore pragma names no rule: use "
                    "`# repro: ignore[rule-id] -- reason`",
                )
            )
            continue
        unknown = [rule for rule in pragma.args if rule not in known]
        if unknown:
            kept.append(
                Finding(
                    SUPPRESSION_RULE, module.path, pragma.line, 1,
                    f"suppression names unknown rule(s): {', '.join(unknown)}",
                )
            )
        if not pragma.reason:
            kept.append(
                Finding(
                    SUPPRESSION_RULE, module.path, pragma.line, 1,
                    "suppression without justification: append "
                    "`-- <why this finding is acceptable>`",
                )
            )
        elif check_unused and pragma.line not in used and not unknown:
            kept.append(
                Finding(
                    SUPPRESSION_RULE, module.path, pragma.line, 1,
                    "unused suppression: no finding of "
                    f"[{', '.join(pragma.args)}] on this line — delete it",
                )
            )
    for line, comment in module.bad_pragmas:
        kept.append(
            Finding(
                SUPPRESSION_RULE, module.path, line, 1,
                f"malformed repro pragma: {comment!r}",
            )
        )
    return kept


def lint_sources(
    sources: Iterable[tuple[str, str]],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintResult:
    """Lint in-memory ``(path, text)`` pairs (the test-friendly entry)."""
    rules = all_rules()
    result = LintResult()
    selected = dict(rules)
    if select is not None:
        wanted = set(select)
        unknown = wanted - set(rules)
        if unknown:
            result.errors.append(
                f"unknown rule id(s) in --select: {', '.join(sorted(unknown))}"
            )
            return result
        selected = {rule_id: rules[rule_id] for rule_id in wanted}
    if ignore is not None:
        dropped = set(ignore)
        unknown = dropped - set(rules)
        if unknown:
            result.errors.append(
                f"unknown rule id(s) in --ignore: {', '.join(sorted(unknown))}"
            )
            return result
        selected = {
            rule_id: rule
            for rule_id, rule in selected.items()
            if rule_id not in dropped
        }
    # Unused-suppression detection is only sound when every rule ran.
    check_unused = len(selected) == len(rules)
    # The suppression meta rule is always active (and never suppressible).
    result.rule_ids = sorted(set(selected) | {SUPPRESSION_RULE})
    for path, text in sources:
        result.n_files += 1
        try:
            module = SourceModule(path, text)
        except SyntaxError as exc:
            result.errors.append(f"{path}:{exc.lineno}: syntax error: {exc.msg}")
            continue
        raw: list[Finding] = []
        for rule in selected.values():
            raw.extend(rule.check(module))
        result.findings.extend(_apply_suppressions(module, raw, check_unused))
    result.findings.sort(key=Finding.sort_key)
    return result


def lint_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintResult:
    """Lint files and directory trees from disk."""
    sources: list[tuple[str, str]] = []
    missing: list[str] = []
    for path in _iter_python_files(paths):
        try:
            sources.append((str(path), path.read_text(encoding="utf-8")))
        except OSError as exc:
            missing.append(f"{path}: {exc}")
    result = lint_sources(sources, select=select, ignore=ignore)
    result.errors.extend(missing)
    return result


# ---------------------------------------------------------------------- #
# Reporters
# ---------------------------------------------------------------------- #
def render_text(result: LintResult) -> str:
    """Human-oriented report: one ``path:line:col: [rule] message`` per line."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: [{f.rule}] {f.message}"
        for f in result.findings
    ]
    lines.extend(f"error: {message}" for message in result.errors)
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(
        f"{len(result.findings)} {noun} in {result.n_files} file(s), "
        f"{len(result.rule_ids)} rule(s) active"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-oriented report with a stable schema (``schema_version`` 1)."""
    payload = {
        "schema_version": 1,
        "rules": result.rule_ids,
        "n_files": result.n_files,
        "errors": list(result.errors),
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
            }
            for f in result.findings
        ],
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
