"""Unit tests for step-size selection."""

import pytest

from repro.optim.line_search import AdaptiveStepController


class TestAdaptiveStepController:
    def test_success_grows_step(self):
        c = AdaptiveStepController(initial_step=1.0, growth=2.0)
        c.report_success()
        assert c.step == 2.0

    def test_failure_shrinks_step(self):
        c = AdaptiveStepController(initial_step=1.0, shrink=0.25)
        c.report_failure()
        assert c.step == 0.25

    def test_step_is_clamped(self):
        c = AdaptiveStepController(initial_step=1.0, max_step=1.5, growth=2.0, min_step=0.5)
        c.report_success()
        assert c.step == 1.5
        for _ in range(10):
            c.report_failure()
        assert c.step == 0.5

    def test_reset(self):
        c = AdaptiveStepController(initial_step=0.3)
        c.report_success()
        c.reset()
        assert c.step == 0.3

    def test_invalid_configuration_raises(self):
        with pytest.raises(ValueError):
            AdaptiveStepController(initial_step=0.0)
        with pytest.raises(ValueError):
            AdaptiveStepController(growth=0.9)
        with pytest.raises(ValueError):
            AdaptiveStepController(shrink=1.0)
