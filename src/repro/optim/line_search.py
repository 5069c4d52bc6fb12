"""Step-size selection for projected gradient ascent.

The paper uses an "adaptive step" for the M-step gradient ascent
(Section 3.5.1, Eq. 16): a stateful controller that grows the step after
successful iterations and shrinks it on failures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AdaptiveStepController:
    """Grow-on-success / shrink-on-failure step-size controller.

    This mimics the "adaptive step" mentioned in the paper: after an accepted
    ascent step the base step is multiplied by ``growth``; after a rejected
    one it is multiplied by ``shrink``.  The step is clamped to
    ``[min_step, max_step]``.
    """

    initial_step: float = 1.0
    growth: float = 1.2
    shrink: float = 0.5
    min_step: float = 1e-12
    max_step: float = 1e6

    def __post_init__(self) -> None:
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")
        if self.growth <= 1.0:
            raise ValueError("growth must be greater than 1")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must lie in (0, 1)")
        self._step = float(self.initial_step)

    @property
    def step(self) -> float:
        """Current base step size."""
        return self._step

    def report_success(self) -> float:
        """Record an accepted step and return the enlarged step size."""
        self._step = min(self._step * self.growth, self.max_step)
        return self._step

    def report_failure(self) -> float:
        """Record a rejected step and return the reduced step size."""
        self._step = max(self._step * self.shrink, self.min_step)
        return self._step

    def reset(self) -> None:
        """Restore the initial step size."""
        self._step = float(self.initial_step)
