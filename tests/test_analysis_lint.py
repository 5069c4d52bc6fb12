"""The repro-lint framework: rules, pragmas, suppressions, reporters, CLI."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import cli
from repro.analysis.framework import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    all_rules,
    lint_sources,
    render_json,
    render_text,
)


def lint(text, path="src/repro/mod.py", **kwargs):
    return lint_sources([(path, textwrap.dedent(text))], **kwargs)


def rules_hit(result):
    return sorted({finding.rule for finding in result.findings})


# ------------------------------------------------------------------ #
# Rule registry
# ------------------------------------------------------------------ #
class TestRegistry:
    def test_at_least_eight_rules(self):
        assert len(all_rules()) >= 8

    def test_rule_ids_are_stable_kebab_case(self):
        for rule_id, rule in all_rules().items():
            assert rule_id == rule.id
            assert rule_id == rule_id.lower()
            assert " " not in rule_id
            assert rule.summary


# ------------------------------------------------------------------ #
# guarded-by
# ------------------------------------------------------------------ #
GUARDED = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0  # repro: guarded-by[_lock]

        def locked_increment(self):
            with self._lock:
                self.count += 1

        def unlocked_increment(self):
            self.count += 1

        def leaking_closure(self):
            with self._lock:
                return lambda: self.count

        def confined_read(self):  # repro: confined[dispatcher]
            return self.count
"""


class TestGuardedBy:
    def test_unlocked_and_closure_access_flagged(self):
        result = lint(GUARDED)
        lines = sorted(
            f.line for f in result.findings if f.rule == "guarded-by"
        )
        text = textwrap.dedent(GUARDED).splitlines()
        assert len(lines) == 2
        assert "self.count += 1" in text[lines[0] - 1]  # unlocked_increment
        assert "lambda" in text[lines[1] - 1]  # closure escapes the lock

    def test_lock_holders_init_and_confined_pass(self):
        result = lint(GUARDED)
        flagged = {f.line for f in result.findings if f.rule == "guarded-by"}
        text = textwrap.dedent(GUARDED).splitlines()
        locked_increment = next(
            i
            for i, line in enumerate(text, 1)
            if "def locked_increment" in line
        )
        # the guarded increment under the lock, the __init__ declaration and
        # the confined read are all clean
        assert locked_increment + 2 not in flagged
        init_decl = next(
            i for i, line in enumerate(text, 1) if "self.count = 0" in line
        )
        assert init_decl not in flagged
        confined = next(
            i for i, line in enumerate(text, 1) if "def confined_read" in line
        )
        assert confined + 1 not in flagged

    def test_nested_function_does_not_inherit_lock(self):
        result = lint(
            """
            class Box:
                def __init__(self):
                    self._lock = object()
                    self.items = []  # repro: guarded-by[_lock]

                def deferred(self):
                    with self._lock:
                        def closure():
                            return self.items
                        return closure
            """
        )
        assert rules_hit(result) == ["guarded-by"]


# ------------------------------------------------------------------ #
# async-blocking
# ------------------------------------------------------------------ #
ASYNC = """
    import time

    class Server:
        async def bad(self, future):
            time.sleep(0.1)
            with self._state_lock:
                pass
            return future.result()

        async def good(self, loop, future):
            def blocking():
                time.sleep(0.1)
                return future.result()
            return await loop.run_in_executor(None, blocking)
"""


class TestAsyncBlocking:
    def test_blocking_primitives_flagged(self):
        result = lint(ASYNC)
        findings = [f for f in result.findings if f.rule == "async-blocking"]
        assert len(findings) == 3  # sleep, lock, result
        messages = " ".join(f.message for f in findings)
        assert "time.sleep" in messages
        assert "result" in messages
        assert "_state_lock" in messages

    def test_run_in_executor_pattern_passes(self):
        result = lint(ASYNC)
        text = textwrap.dedent(ASYNC).splitlines()
        good_start = next(
            i for i, line in enumerate(text, 1) if "async def good" in line
        )
        assert all(
            f.line < good_start
            for f in result.findings
            if f.rule == "async-blocking"
        )

    def test_open_flagged_in_async_def(self):
        result = lint(
            """
            async def handler(path):
                with open(path) as fh:
                    return fh.name
            """
        )
        assert "async-blocking" in rules_hit(result)


# ------------------------------------------------------------------ #
# hot-path purity
# ------------------------------------------------------------------ #
class TestHotPath:
    def test_undeclared_loop_and_unguarded_log_flagged(self):
        result = lint(
            """
            import numpy as np

            def kernel(x):  # repro: hot-path
                for t in range(x.shape[0]):
                    x[t] = np.log(x[t])
                return x
            """
        )
        assert rules_hit(result) == ["hot-path-loop", "hot-path-unguarded-log"]

    def test_declared_loop_and_guarded_log_pass(self):
        result = lint(
            """
            import numpy as np

            _TINY = 1e-300

            def kernel(x):  # repro: hot-path
                total = x[0]
                for t in range(1, x.shape[0]):  # repro: loop-ok[time recursion]
                    total = total + np.log(np.maximum(x[t], _TINY))
                return total
            """
        )
        assert result.findings == []

    def test_dtype_copy_inside_loop_flagged(self):
        result = lint(
            """
            import numpy as np

            def gather(rows):  # repro: hot-path
                out = []
                for row in rows:  # repro: loop-ok[ragged rows]
                    out.append(np.asarray(row, dtype=np.float64))
                return out
            """
        )
        assert rules_hit(result) == ["hot-path-copy"]

    def test_unmarked_function_is_not_checked(self):
        result = lint(
            """
            import numpy as np

            def slow_path(x):
                for t in range(x.shape[0]):
                    x[t] = np.log(x[t])
                return x
            """
        )
        assert result.findings == []


# ------------------------------------------------------------------ #
# error taxonomy
# ------------------------------------------------------------------ #
TYPED = """
    from repro.exceptions import ServingError

    class LocalError(ServingError):
        pass

    def ok():
        raise LocalError("typed")

    def also_ok():
        raise NotImplementedError

    def bad():
        raise RuntimeError("untyped")
"""


class TestTypedRaise:
    def test_untyped_raise_flagged_in_serving_modules(self):
        result = lint(TYPED, path="src/repro/serving/mod.py")
        findings = [f for f in result.findings if f.rule == "typed-raise"]
        assert len(findings) == 1
        assert "RuntimeError" in findings[0].message

    def test_rule_is_scoped_to_serving(self):
        result = lint(TYPED, path="src/repro/hmm/mod.py")
        assert all(f.rule != "typed-raise" for f in result.findings)

    def test_module_getattr_may_raise_attribute_error(self):
        result = lint(
            """
            def __getattr__(name):
                raise AttributeError(name)

            class Lazy:
                def __getattr__(self, name):
                    raise AttributeError(name)
            """,
            path="src/repro/serving/__init__.py",
        )
        findings = [f for f in result.findings if f.rule == "typed-raise"]
        # PEP 562 requires the module's AttributeError; the method's is a leak.
        assert [f.line for f in findings] == [7]


class TestBroadExcept:
    def test_bare_and_base_exception_flagged(self):
        result = lint(
            """
            def swallow_all():
                try:
                    pass
                except:
                    pass

            def swallow_base(log):
                try:
                    pass
                except BaseException as exc:
                    log(exc)
            """
        )
        findings = [f for f in result.findings if f.rule == "broad-except"]
        assert len(findings) == 2

    def test_reraising_handler_passes(self):
        result = lint(
            """
            def supervise(cleanup):
                try:
                    pass
                except BaseException:
                    cleanup()
                    raise
            """
        )
        assert result.findings == []


# ------------------------------------------------------------------ #
# hygiene
# ------------------------------------------------------------------ #
class TestHygiene:
    def test_unused_import_flagged(self):
        result = lint(
            """
            import os
            import sys

            def platform():
                return sys.platform
            """
        )
        findings = [f for f in result.findings if f.rule == "unused-import"]
        assert len(findings) == 1
        assert "os" in findings[0].message

    def test_all_export_counts_as_use(self):
        result = lint(
            """
            from os import path

            __all__ = ["path"]
            """
        )
        assert result.findings == []

    def test_unreachable_code_flagged(self):
        result = lint(
            """
            def f():
                return 1
                print("never")
            """
        )
        assert rules_hit(result) == ["unreachable-code"]


# ------------------------------------------------------------------ #
# import layering
# ------------------------------------------------------------------ #
TRAINING_IMPORTS = """
    import numpy as np
    import scipy.linalg
    from repro.core.transition_prior import DPPTransitionPrior
    from repro.dpp import log_det
    from ..core import supervised

    try:
        from repro.datasets.pos import generate_wsj_like_corpus
    except ImportError:
        generate_wsj_like_corpus = None

    __all__ = ["np", "scipy", "DPPTransitionPrior", "log_det", "supervised"]
"""

DEFERRED_IMPORTS = """
    from typing import TYPE_CHECKING

    import numpy as np
    from repro.core.config import DHMMConfig
    from repro.hmm.model import HMM

    if TYPE_CHECKING:
        from repro.core.diversified_hmm import DiversifiedHMM

    def fit(config: DHMMConfig) -> "DiversifiedHMM":
        from scipy.linalg import cho_solve
        from repro.core.diversified_hmm import DiversifiedHMM
        from repro.datasets.pos import generate_wsj_like_corpus

        return DiversifiedHMM, cho_solve, generate_wsj_like_corpus, np, HMM
"""


def layer_findings(text, path):
    return [f for f in lint(text, path=path).findings if f.rule == "import-layer"]


class TestImportLayer:
    def test_serving_module_importing_training_code_is_flagged(self):
        findings = layer_findings(TRAINING_IMPORTS, "src/repro/serving/mod.py")
        assert [f.line for f in findings] == [3, 4, 5, 6, 9]
        assert "scipy" in findings[0].message
        assert "repro.core.transition_prior" in findings[1].message
        assert "repro.core.supervised" in findings[3].message

    def test_scipy_is_flagged_outside_the_serving_layer_too(self):
        findings = layer_findings(TRAINING_IMPORTS, "src/repro/dpp/mod.py")
        assert [f.line for f in findings] == [3]

    def test_function_scope_and_type_checking_imports_pass(self):
        assert layer_findings(DEFERRED_IMPORTS, "src/repro/serving/cli.py") == []
        assert layer_findings(DEFERRED_IMPORTS, "src/repro/core/__init__.py") == []


# ------------------------------------------------------------------ #
# suppressions
# ------------------------------------------------------------------ #
class TestSuppressions:
    def test_justified_suppression_silences_the_finding(self):
        result = lint(
            """
            def swallow():
                try:
                    pass
                except:  # repro: ignore[broad-except] -- fixture exercises it
                    pass
            """
        )
        assert result.findings == []

    def test_suppression_without_reason_is_reported(self):
        result = lint(
            """
            def swallow():
                try:
                    pass
                except:  # repro: ignore[broad-except]
                    pass
            """
        )
        assert rules_hit(result) == ["suppression"]
        assert "justification" in result.findings[0].message

    def test_unknown_rule_in_suppression_is_reported(self):
        result = lint("x = 1  # repro: ignore[not-a-rule] -- why\n")
        assert rules_hit(result) == ["suppression"]
        assert "unknown rule" in result.findings[0].message

    def test_unused_suppression_is_reported(self):
        result = lint("x = 1  # repro: ignore[broad-except] -- stale\n")
        assert rules_hit(result) == ["suppression"]
        assert "unused" in result.findings[0].message

    def test_unused_detection_requires_full_rule_set(self):
        result = lint(
            "x = 1  # repro: ignore[broad-except] -- stale\n",
            select=["unused-import"],
        )
        assert result.findings == []

    def test_malformed_pragma_is_reported(self):
        result = lint("x = 1  # repro: frobnicate\n")
        assert rules_hit(result) == ["suppression"]
        assert "malformed" in result.findings[0].message


# ------------------------------------------------------------------ #
# selection, reporters, exit codes
# ------------------------------------------------------------------ #
class TestFrameworkPlumbing:
    def test_select_restricts_rules(self):
        result = lint(
            """
            import os

            def f():
                try:
                    pass
                except:
                    pass
            """,
            select=["unused-import"],
        )
        assert rules_hit(result) == ["unused-import"]

    def test_ignore_drops_rules(self):
        result = lint("import os\n", ignore=["unused-import"])
        assert result.findings == []

    def test_unknown_rule_ids_are_usage_errors(self):
        assert lint("x = 1\n", select=["nope"]).exit_code == EXIT_USAGE
        assert lint("x = 1\n", ignore=["nope"]).exit_code == EXIT_USAGE

    def test_syntax_error_is_a_usage_error(self):
        result = lint("def broken(:\n")
        assert result.errors
        assert result.exit_code == EXIT_USAGE

    def test_exit_codes(self):
        assert lint("x = 1\n").exit_code == EXIT_CLEAN
        assert lint("import os\n").exit_code == EXIT_FINDINGS

    def test_text_report_format(self):
        result = lint("import os\n", path="pkg/mod.py")
        report = render_text(result)
        assert "pkg/mod.py:1:1: [unused-import]" in report
        assert report.endswith("rule(s) active")

    def test_json_report_schema(self):
        result = lint("import os\n", path="pkg/mod.py")
        payload = json.loads(render_json(result))
        assert payload["schema_version"] == 1
        assert payload["exit_code"] == EXIT_FINDINGS
        assert payload["n_files"] == 1
        assert payload["errors"] == []
        assert "suppression" in payload["rules"]
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "unused-import"
        assert finding["path"] == "pkg/mod.py"


# ------------------------------------------------------------------ #
# CLI
# ------------------------------------------------------------------ #
class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert cli.main([str(tmp_path)]) == EXIT_CLEAN
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import os\n")
        assert cli.main([str(tmp_path)]) == EXIT_FINDINGS
        assert "[unused-import]" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import os\n")
        assert cli.main(["--format", "json", str(tmp_path)]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1

    def test_missing_file_is_usage_error(self, tmp_path):
        assert cli.main([str(tmp_path / "absent.py")]) == EXIT_USAGE

    def test_empty_directory_is_usage_error(self, tmp_path):
        assert cli.main([str(tmp_path)]) == EXIT_USAGE

    def test_list_rules(self, capsys):
        assert cli.main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out
        assert "suppression" in out

    def test_select_filters(self, tmp_path):
        (tmp_path / "bad.py").write_text("import os\n")
        assert (
            cli.main(["--select", "broad-except", str(tmp_path)]) == EXIT_CLEAN
        )
        assert (
            cli.main(["--select", "unused-import", str(tmp_path)])
            == EXIT_FINDINGS
        )
