"""Static analysis and runtime concurrency instrumentation for repro.

Two halves:

* :mod:`repro.analysis.framework` + the ``rules_*`` modules — the
  stdlib-``ast`` lint pass behind the ``repro-lint`` CLI
  (:mod:`repro.analysis.cli`): guarded-by lock coverage, async-blocking
  detection, hot-path purity, error-taxonomy enforcement and hygiene
  sweeps, with ``# repro:`` pragmas for declarations and justified
  suppressions.
* :mod:`repro.analysis.lockorder` — the runtime lock-order tracker the
  serving layer's locks are created through (:func:`make_lock`); armed
  via ``REPRO_LOCK_TRACKER=1`` it turns an ABBA acquisition-order cycle
  observed during the test suites into a failure.

This package intentionally imports nothing from the serving or hmm layers
so that instrumentation (``lockorder``) stays import-cycle-free, and its
exports import on first access, so the serving layer's ``make_lock`` does
not load the lint framework.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.framework": [
            "EXIT_CLEAN",
            "EXIT_FINDINGS",
            "EXIT_USAGE",
            "Finding",
            "LintResult",
            "Rule",
            "all_rules",
            "lint_paths",
            "lint_sources",
            "render_json",
            "render_text",
        ],
        "repro.analysis.lockorder": [
            "LockOrderError",
            "LockOrderTracker",
            "TrackedLock",
            "arm",
            "disarm",
            "get_tracker",
            "is_armed",
            "make_lock",
        ],
    },
)
