"""Lock-order regression tests for the serving tier (armed tracker).

The historical hazard: ``MicroBatchScheduler._enqueue`` recorded the
queue-full rejection *while holding* the lifecycle lock (lifecycle ->
stats), while ``ServiceStats.snapshot`` reads the queue depth and health
through callbacks (stats -> lifecycle).  Two threads interleaving those
orders can deadlock.  These tests build real services with the tracker
armed, hammer exactly that interleaving, and assert the acquisition-order
graph stays acyclic.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis import lockorder
from repro.core.config import ServingConfig
from repro.exceptions import QueueFullError
from repro.hmm import HMM, CategoricalEmission
from repro.serving import TaggingService


def _random_hmm(seed=0, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(
        rng.dirichlet(np.ones(n_symbols), size=n_states)
    )
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


@pytest.fixture
def armed_tracker():
    """Arm a fresh tracker for the test; restore whatever was armed before."""
    previous = lockorder.get_tracker()
    tracker = lockorder.arm()
    try:
        yield tracker
    finally:
        lockorder._tracker = previous


class TestSchedulerLockOrder:
    def test_rejects_racing_snapshots_stay_acyclic(self, armed_tracker):
        """Queue-full rejections (stats writes) vs concurrent snapshots
        (stats -> lifecycle reads) — the exact pair behind the old ABBA."""
        model = _random_hmm()
        config = ServingConfig(max_batch_size=4, queue_capacity=2)
        stop = threading.Event()
        errors: list[BaseException] = []

        with TaggingService(model, config=config) as service:
            assert isinstance(
                service._lifecycle_lock, lockorder.TrackedLock
            ), "service must be constructed while the tracker is armed"

            def submit_hard():
                rng = np.random.default_rng(1)
                while not stop.is_set():
                    try:
                        service.tag(rng.integers(0, 8, size=6))
                    except QueueFullError:
                        pass
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)
                        return

            def observe():
                while not stop.is_set():
                    try:
                        snapshot = service.stats.snapshot()
                        assert "health" in snapshot
                        assert snapshot["queue_depth"] >= 0
                        _ = service.health
                        _ = service.queue_depth
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)
                        return

            threads = [
                threading.Thread(target=submit_hard) for _ in range(3)
            ] + [threading.Thread(target=observe) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=0.05)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "worker wedged: likely deadlock"

        assert errors == []
        armed_tracker.assert_clean()
        snapshot = service.stats.snapshot()
        assert snapshot["n_requests"] >= 1

    def test_rejection_is_still_counted(self, armed_tracker, hold_dispatcher):
        """Moving record_rejected() out of the lifecycle lock must not lose
        the count."""
        model = _random_hmm(seed=2)
        config = ServingConfig(max_batch_size=1, queue_capacity=1)
        with TaggingService(model, config=config) as service:
            rng = np.random.default_rng(3)
            rejected = 0
            # with the dispatcher held on the first request, the second
            # fills the queue and every later one is rejected
            with hold_dispatcher() as held:
                service.submit_tag(rng.integers(0, 8, size=4))
                assert held.wait(timeout=10)
                for _ in range(49):
                    try:
                        service.submit_tag(rng.integers(0, 8, size=4))
                    except QueueFullError:
                        rejected += 1
            assert rejected >= 1
            assert service.stats.snapshot()["n_rejected"] == rejected
        armed_tracker.assert_clean()

    def test_inverted_order_would_be_caught(self, armed_tracker):
        """Negative control: the tracker does flag the pre-fix interleaving
        (stats taken under lifecycle vs lifecycle taken under stats)."""
        stats = lockorder.make_lock("stats")
        lifecycle = lockorder.make_lock("scheduler.lifecycle")
        with stats:
            with lifecycle:  # snapshot -> _stats_extra: the kept order
                pass
        with lifecycle:
            with stats:  # the removed _enqueue pattern
                pass
        assert any(v.kind == "cycle" for v in armed_tracker.violations)
        with pytest.raises(lockorder.LockOrderError):
            armed_tracker.assert_clean()
