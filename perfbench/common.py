"""Types shared by the workloads and ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Context:
    """What ``run.py`` hands a workload."""

    seed: int
    seconds: float
    scale: float  # 1.0 = the documented sizes; the smoke test shrinks them
    root: Path  # checkout root (holds src/)
    out_dir: Path  # where records, spans and temporary registries go


@dataclass
class Phase:
    """Operation counts of one phase; ``errors`` maps a failure kind to a count."""

    attempted: int = 0
    succeeded: int = 0
    errors: dict[str, int] = field(default_factory=dict)

    def ok(self, n: int = 1) -> None:
        self.attempted += n
        self.succeeded += n

    def fail(self, kind: str) -> None:
        self.attempted += 1
        self.errors[kind] = self.errors.get(kind, 0) + 1

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "errors": dict(self.errors),
        }


@dataclass
class Measurement:
    """Result of one measured pass of a workload.

    ``end_to_end`` maps each end-to-end metric name to a
    :func:`perfbench.record.summary` dict (its ``median`` is the reported
    value).  ``named`` holds the same figures under workload-specific names
    for the human-readable report.  ``overhead_basis`` is the per-unit work
    time the tracing overhead is computed from.
    """

    end_to_end: dict[str, dict]
    named: dict[str, tuple[float, str]]
    phases: dict[str, Phase]
    checks: list[dict]
    overhead_basis: float
    layer_raw: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
