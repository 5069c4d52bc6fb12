"""Output checks.  Each returns ``{"check", "ok", "detail"}``; any failed
check makes the run report ``"correct": false`` and exit non-zero."""

from __future__ import annotations

import numpy as np


def _result(name: str, ok: bool, detail) -> dict:
    return {"check": name, "ok": bool(ok), "detail": detail}


def estep_matches_reference(ll, xi_sum, ll_ref, xi_sum_ref, tol: float = 1e-8) -> dict:
    """First E-step log-likelihood and expected transition counts vs the
    ``log`` reference backend, both to ``tol`` relative."""
    xi_sum = np.asarray(xi_sum)
    xi_sum_ref = np.asarray(xi_sum_ref)
    ll_err = abs(ll - ll_ref) / max(abs(ll_ref), 1.0)
    xi_err = float(np.max(np.abs(xi_sum - xi_sum_ref)) / max(np.max(np.abs(xi_sum_ref)), 1.0))
    return _result(
        "estep_vs_log_reference",
        ll_err <= tol and xi_err <= tol,
        {"ll_rel_err": ll_err, "xi_sum_rel_err": xi_err, "tol": tol},
    )


class PathTally:
    """Served label paths compared with in-process references as they arrive.

    Every path must equal its reference element for element; the share of
    tokens matching the gold tags is kept as the tagging accuracy.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.compared = self.mismatched = 0
        self.tokens = self.correct_tokens = 0

    def add(self, served, reference, gold=None) -> None:
        served = np.asarray(served)
        self.compared += 1
        if not np.array_equal(served, np.asarray(reference)):
            self.mismatched += 1
        if gold is not None:
            n = min(len(served), len(gold))
            self.tokens += len(gold)
            self.correct_tokens += int(np.count_nonzero(served[:n] == gold[:n]))

    @property
    def accuracy(self) -> float:
        return self.correct_tokens / self.tokens if self.tokens else 0.0

    def result(self) -> dict:
        return _result(
            self.name,
            self.compared > 0 and self.mismatched == 0,
            {"compared": self.compared, "mismatched": self.mismatched},
        )


def close_relative(name: str, value: float, reference: float, tol: float) -> dict:
    """``value`` agrees with ``reference`` to ``tol`` relative."""
    err = abs(value - reference) / max(abs(reference), 1e-300)
    return _result(
        name, err <= tol, {"value": value, "reference": reference, "rel_err": err, "tol": tol}
    )


def no_backlog(queue_depth: int) -> dict:
    """The open-loop phase left nothing queued: the offered rate was sustained."""
    return _result("idle_phase_no_backlog", queue_depth == 0, {"queue_depth": queue_depth})
