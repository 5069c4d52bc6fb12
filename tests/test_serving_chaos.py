"""Chaos suite: deterministic fault drills against the serving stack.

Every failure here is injected through :mod:`repro.serving.faults` named
points — no monkey-patching of internals — so each drill replays
identically: dispatcher crash and supervised restart, restart-budget
exhaustion, circuit-breaker trip / fast-fail / half-open recovery,
streaming tick isolation, drain-deadline shedding and HTTP timeout
surfacing.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import RetryPolicy, ServingConfig
from repro.exceptions import (
    ModelUnavailableError,
    QueueFullError,
    ServiceShuttingDownError,
    ServingError,
    ValidationError,
)
from repro.hmm import HMM, CategoricalEmission
from repro.serving import (
    HTTPServingServer,
    ModelRegistry,
    Router,
    StreamingDecoder,
    StreamingService,
    TaggingService,
    faults,
)


@pytest.fixture(autouse=True)
def _disarm_everything():
    """No drill may leak an armed fault into the next test."""
    yield
    faults.reset()


def _random_hmm(seed, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


class _GatedEmission(CategoricalEmission):
    """Emissions whose batched scoring blocks until the test releases it."""

    family = "abstract"

    def __init__(self, emission_probs):
        super().__init__(emission_probs)
        self.release = threading.Event()
        self.started = threading.Event()

    def log_likelihoods(self, observations):
        self.started.set()
        assert self.release.wait(timeout=30), "test forgot to release the gate"
        return super().log_likelihoods(observations)


def _gated_hmm(seed, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = _GatedEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


@pytest.fixture
def model():
    return _random_hmm(0)


@pytest.fixture
def sequences(model):
    _, seqs = model.sample_dataset(12, 10, seed=1)
    return seqs


@pytest.fixture
def registry(tmp_path, model):
    registry = ModelRegistry(tmp_path / "registry")
    registry.save("alpha", model)
    return registry


# ------------------------------------------------------------------ #
# The harness itself
# ------------------------------------------------------------------ #
class TestFaultHarness:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValidationError, match="unknown fault injection point"):
            with faults.inject("no.such.point", error=OSError):
                pass

    def test_double_arming_one_point_rejected(self):
        with faults.inject(faults.ARTIFACT_LOAD, error=OSError):
            with pytest.raises(ValidationError, match="already armed"):
                with faults.inject(faults.ARTIFACT_LOAD, error=OSError):
                    pass

    def test_distinct_points_arm_together(self):
        with faults.inject(faults.ARTIFACT_LOAD, error=OSError) as load_fault:
            with faults.inject(faults.REGISTRY_WRITE, error=OSError) as write_fault:
                with pytest.raises(OSError):
                    faults.fire(faults.ARTIFACT_LOAD)
                with pytest.raises(OSError):
                    faults.fire(faults.REGISTRY_WRITE)
        assert (load_fault.hits, write_fault.hits) == (1, 1)

    def test_disarmed_fire_is_a_pass_through(self):
        payload = object()
        assert faults.fire(faults.EXECUTOR_RUN, payload) is payload
        assert faults.fire(faults.EXECUTOR_RUN) is None

    def test_first_hit_and_n_failures_schedule(self):
        boom = RuntimeError("boom")
        with faults.inject(
            faults.DISPATCHER_LOOP, error=boom, first_hit=3, n_failures=1
        ) as fault:
            faults.fire(faults.DISPATCHER_LOOP)  # hit 1: untouched
            faults.fire(faults.DISPATCHER_LOOP)  # hit 2: untouched
            with pytest.raises(RuntimeError, match="boom"):
                faults.fire(faults.DISPATCHER_LOOP)  # hit 3: triggers
            faults.fire(faults.DISPATCHER_LOOP)  # budget spent: untouched
        assert fault.hits == 4
        assert fault.n_triggered == 1

    def test_error_class_is_instantiated_per_trigger(self):
        with faults.inject(faults.STREAM_TICK, error=OSError):
            with pytest.raises(OSError) as first:
                faults.fire(faults.STREAM_TICK)
            with pytest.raises(OSError) as second:
                faults.fire(faults.STREAM_TICK)
        assert first.value is not second.value

    def test_corrupt_transforms_payload_on_trigger_only(self):
        with faults.inject(
            faults.ARTIFACT_LOAD, corrupt=lambda p: p + 1, first_hit=2
        ) as fault:
            assert faults.fire(faults.ARTIFACT_LOAD, 10) == 10
            assert faults.fire(faults.ARTIFACT_LOAD, 10) == 11
        assert fault.n_triggered == 1

    def test_probability_mode_replays_identically(self):
        def pattern(seed):
            triggered = []
            with faults.inject(
                faults.EXECUTOR_RUN, error=OSError, probability=0.5, seed=seed
            ):
                for _ in range(20):
                    try:
                        faults.fire(faults.EXECUTOR_RUN)
                        triggered.append(False)
                    except OSError:
                        triggered.append(True)
            return triggered

        assert pattern(7) == pattern(7)
        assert any(pattern(7)) and not all(pattern(7))

    def test_reset_disarms_everything(self):
        armed = faults.inject(faults.ARTIFACT_LOAD, error=OSError)
        armed.__enter__()
        faults.reset()
        faults.fire(faults.ARTIFACT_LOAD)  # no raise: disarmed

    def test_delay_sleeps_on_trigger(self):
        with faults.inject(faults.EXECUTOR_RUN, delay_s=0.05, n_failures=1):
            start = time.perf_counter()
            faults.fire(faults.EXECUTOR_RUN)
            assert time.perf_counter() - start >= 0.05
            start = time.perf_counter()
            faults.fire(faults.EXECUTOR_RUN)  # budget spent: no sleep
            assert time.perf_counter() - start < 0.05


# ------------------------------------------------------------------ #
# Supervised dispatcher restarts
# ------------------------------------------------------------------ #
class TestDispatcherSupervision:
    def test_crash_fails_only_in_flight_and_restarts(self, model, sequences):
        config = ServingConfig(max_batch_size=1, restart_backoff_ms=1.0)
        with TaggingService(model, config=config) as service:
            with faults.inject(
                faults.DISPATCHER_LOOP, error=RuntimeError("injected"), n_failures=1
            ) as fault:
                futures = [service.submit_tag(s) for s in sequences[:5]]
                outcomes = []
                for future, seq in zip(futures, sequences[:5]):
                    try:
                        outcomes.append(
                            np.array_equal(future.result(timeout=10), model.decode(seq))
                        )
                    except ServingError as exc:
                        assert "dispatcher crashed" in str(exc)
                        outcomes.append("crashed")
            # exactly the one in-flight batch died; every queued request
            # survived the restart and was answered correctly
            assert fault.n_triggered == 1
            assert outcomes.count("crashed") == 1
            assert [o for o in outcomes if o != "crashed"] == [True] * 4
            # the service keeps serving after supervision kicked in
            assert np.array_equal(
                service.tag(sequences[5]), model.decode(sequences[5])
            )
            stats = service.stats.snapshot()
        assert stats["n_dispatcher_restarts"] == 1
        assert stats["health"] == "healthy"  # recovered after a clean batch
        assert service.queue_depth == 0

    def test_stats_survive_a_restart(self, model, sequences):
        config = ServingConfig(restart_backoff_ms=1.0)
        with TaggingService(model, config=config) as service:
            for seq in sequences[:3]:
                service.tag(seq)
            before = service.stats.snapshot()["n_requests"]
            with faults.inject(
                faults.DISPATCHER_LOOP, error=RuntimeError("injected"), n_failures=1
            ):
                with pytest.raises(ServingError, match="dispatcher crashed"):
                    service.tag(sequences[3])
            service.tag(sequences[4])
            stats = service.stats.snapshot()
        # counters accumulated before the crash are not reset by restart
        assert stats["n_requests"] == before + 1
        assert stats["n_dispatcher_restarts"] == 1

    def test_restart_budget_exhaustion_fails_the_service(self, model, sequences):
        config = ServingConfig(max_dispatcher_restarts=1, restart_backoff_ms=1.0)
        with TaggingService(model, config=config) as service:
            with faults.inject(
                faults.DISPATCHER_LOOP, error=RuntimeError("injected")
            ) as fault:
                first = service.submit_tag(sequences[0])
                with pytest.raises(ServingError, match="dispatcher crashed"):
                    first.result(timeout=10)
                # the restarted dispatcher crashes again on the next batch,
                # which spends the whole restart budget
                second = service.submit_tag(sequences[1])
                with pytest.raises(ServingError, match="dispatcher crashed"):
                    second.result(timeout=10)
            deadline = time.perf_counter() + 5.0
            while service.health != "failed" and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert service.health == "failed"
            assert fault.n_triggered == 2
            with pytest.raises(ServiceShuttingDownError, match="dispatcher failed"):
                service.submit_tag(sequences[2])
            stats = service.stats.snapshot()
        assert stats["health"] == "failed"
        assert stats["n_dispatcher_restarts"] == 1

    def test_backoff_grows_exponentially_and_caps(self):
        config = ServingConfig(
            restart_backoff_ms=10.0, restart_backoff_max_ms=25.0
        )
        delays = [
            min(
                config.restart_backoff_ms * 2 ** (attempt - 1),
                config.restart_backoff_max_ms,
            )
            for attempt in (1, 2, 3, 4)
        ]
        assert delays == [10.0, 20.0, 25.0, 25.0]


# ------------------------------------------------------------------ #
# Circuit breakers
# ------------------------------------------------------------------ #
class TestCircuitBreaker:
    def test_trip_fast_fail_and_half_open_recovery(self, registry, model, sequences):
        config = ServingConfig(breaker_threshold=3, breaker_cooldown_s=30.0)
        with Router(registry, config=config) as router:
            with faults.inject(
                faults.ARTIFACT_LOAD, error=OSError("disk gone")
            ) as fault:
                # each failed load is one consecutive breaker failure
                for i in range(3):
                    with pytest.raises(OSError, match="disk gone"):
                        router.submit_tag("alpha", sequences[i]).result(timeout=10)
                assert fault.hits == 3
                breaker = router.breaker_states()["alpha:v0001"]
                assert breaker["state"] == "open"
                assert breaker["n_trips"] == 1
                # while cooling down the rejection happens at submit time —
                # no queue slot, and crucially no artifact read
                with pytest.raises(ModelUnavailableError) as info:
                    router.submit_tag("alpha", sequences[3])
                assert info.value.retry_after_s is not None
                assert 0 < info.value.retry_after_s <= 30.0
                assert fault.hits == 3  # the registry was never touched
            # fault cleared + cooldown elapsed -> one half-open probe heals it
            with router._breakers_lock:
                router._breakers[("alpha", 1)].opened_at -= 31.0
            assert np.array_equal(
                router.tag("alpha", sequences[4]), model.decode(sequences[4])
            )
            assert router.breaker_states()["alpha:v0001"]["state"] == "closed"
            # back to normal service, stats expose the breaker history
            stats = router.stats.snapshot()
        assert stats["breakers"]["alpha:v0001"]["n_trips"] == 1

    def test_failed_probe_reopens_the_breaker(self, registry, sequences):
        config = ServingConfig(breaker_threshold=1, breaker_cooldown_s=0.05)
        with Router(registry, config=config) as router:
            with faults.inject(faults.ARTIFACT_LOAD, error=OSError("disk gone")):
                with pytest.raises(OSError):
                    router.submit_tag("alpha", sequences[0]).result(timeout=10)
                assert router.breaker_states()["alpha:v0001"]["state"] == "open"
                time.sleep(0.06)  # cooldown elapses with the fault still armed
                with pytest.raises(OSError):
                    router.submit_tag("alpha", sequences[1]).result(timeout=10)
                breaker = router.breaker_states()["alpha:v0001"]
                assert breaker["state"] == "open"
                assert breaker["n_trips"] == 2

    def test_breaker_isolates_models(self, tmp_path, sequences):
        healthy_model = _random_hmm(0)
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("healthy", healthy_model)
        registry.save("doomed", _random_hmm(1))
        config = ServingConfig(breaker_threshold=1, breaker_cooldown_s=30.0)
        with Router(registry, config=config) as router:
            # warm the healthy model first so its artifact read happens
            # before the load fault is armed
            assert router.warm_up(["healthy"]).ok
            with faults.inject(faults.ARTIFACT_LOAD, error=OSError("disk gone")):
                with pytest.raises(OSError):
                    router.submit_tag("doomed", sequences[0]).result(timeout=10)
                with pytest.raises(ModelUnavailableError):
                    router.submit_tag("doomed", sequences[1])
                # the doomed model's open breaker never blocks its neighbor
                assert np.array_equal(
                    router.tag("healthy", sequences[2]),
                    healthy_model.decode(sequences[2]),
                )
            states = router.breaker_states()
            assert states["doomed:v0001"]["state"] == "open"
            assert "healthy:v0001" not in states

    def test_warm_up_reports_broken_models_without_aborting(
        self, tmp_path, sequences
    ):
        healthy_model = _random_hmm(0)
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("broken", _random_hmm(1))
        registry.save("healthy", healthy_model)
        with Router(registry) as router:
            # first artifact read dies ("broken" is submitted first); the
            # sweep still loads everything after it
            with faults.inject(
                faults.ARTIFACT_LOAD, error=OSError("disk gone"), n_failures=1
            ):
                report = router.warm_up(["broken", "healthy"])
            assert not report.ok
            assert report.loaded == [("healthy", 1)]
            assert isinstance(report.errors["broken"], OSError)
            assert np.array_equal(
                router.tag("healthy", sequences[0]),
                healthy_model.decode(sequences[0]),
            )


# ------------------------------------------------------------------ #
# Streaming isolation
# ------------------------------------------------------------------ #
class TestStreamingChaos:
    def test_single_tick_fault_leaves_results_bit_identical(self, model):
        rng = np.random.default_rng(3)
        n_symbols = model.emissions.emission_probs.shape[1]
        observations = [rng.integers(0, n_symbols, size=15) for _ in range(3)]

        def run_session():
            with StreamingService(model, lag=4) as service:
                streams = [service.open() for _ in observations]
                for t in range(15):
                    for stream, obs in zip(streams, observations):
                        stream.push(obs[t])
                return [stream.finish() for stream in streams]

        baseline = run_session()
        with faults.inject(
            faults.STREAM_TICK, error=RuntimeError("tick died"), first_hit=2,
            n_failures=1,
        ) as fault:
            injected = run_session()
        # the per-stream fallback absorbed the batched tick's failure: same
        # paths, same posteriors, same log-likelihoods, bit for bit
        assert fault.n_triggered == 1
        for got, want, obs in zip(injected, baseline, observations):
            assert np.array_equal(got.path, want.path)
            np.testing.assert_array_equal(got.filtering, want.filtering)
            assert got.log_likelihood == want.log_likelihood
            decoder = StreamingDecoder(model, lag=4)
            decoder.push_many(obs)
            assert np.array_equal(got.path, decoder.finish().path)


# ------------------------------------------------------------------ #
# Graceful drain
# ------------------------------------------------------------------ #
class TestGracefulDrain:
    def test_drain_deadline_sheds_backlog_but_finishes_in_flight(self, sequences):
        model = _gated_hmm(0)
        gate = model.emissions
        config = ServingConfig(max_batch_size=1)
        service = TaggingService(model, config=config)
        try:
            in_flight = service.submit_tag(sequences[0])
            assert gate.started.wait(timeout=10)
            backlog = [service.submit_tag(s) for s in sequences[1:3]]

            closed = {}

            def close_draining():
                closed["clean"] = service.close(drain_timeout_s=0.1)

            closer = threading.Thread(target=close_draining)
            closer.start()
            time.sleep(0.4)  # hold the gate well past the drain deadline
            gate.release.set()
            closer.join(timeout=10)
            assert closed["clean"] is True
            # the batch already computing is served to completion...
            assert np.array_equal(
                in_flight.result(timeout=1), model.decode(sequences[0])
            )
            # ...the backlog behind the deadline is shed, loudly
            for future in backlog:
                with pytest.raises(ServiceShuttingDownError):
                    future.result(timeout=1)
            stats = service.stats.snapshot()
            assert stats["n_shed"] == 2
            assert service.queue_depth == 0
        finally:
            gate.release.set()
            service.close()

    def test_generous_drain_deadline_serves_everything(self, model, sequences):
        service = TaggingService(model)
        futures = [service.submit_tag(s) for s in sequences]
        assert service.close(drain_timeout_s=30.0) is True
        for future, seq in zip(futures, sequences):
            assert np.array_equal(future.result(timeout=1), model.decode(seq))
        assert service.stats.snapshot()["n_shed"] == 0

    def test_draining_service_refuses_new_work(self, sequences):
        model = _gated_hmm(0)
        gate = model.emissions
        service = TaggingService(model, config=ServingConfig(max_batch_size=1))
        try:
            service.submit_tag(sequences[0])
            assert gate.started.wait(timeout=10)
            closer = threading.Thread(
                target=service.close, kwargs={"drain_timeout_s": 5.0}
            )
            closer.start()
            time.sleep(0.05)  # intake is shut the moment close() begins
            with pytest.raises(ServiceShuttingDownError, match="closed"):
                service.submit_tag(sequences[1])
        finally:
            gate.release.set()
            closer.join(timeout=10)
            service.close()


# ------------------------------------------------------------------ #
# HTTP surfacing
# ------------------------------------------------------------------ #
class TestHttpResilience:
    def _tag_status(self, server, sequence):
        request = urllib.request.Request(
            f"http://{server.host}:{server.port}/v1/models/alpha/tag",
            data=json.dumps({"sequence": sequence.tolist()}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, dict(response.headers), json.loads(
                    response.read()
                )
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), json.loads(exc.read())

    def test_request_timeout_maps_to_503_with_retry_after(
        self, registry, sequences
    ):
        config = ServingConfig(request_timeout_s=0.1)
        with HTTPServingServer(registry, port=0, config=config) as server:
            with faults.inject(
                faults.EXECUTOR_RUN, delay_s=0.5, n_failures=1
            ) as fault:
                status, headers, body = self._tag_status(server, sequences[0])
            assert fault.n_triggered == 1
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert "timed out" in body["error"]
            # the stalled engine call finishes in the background; the
            # server then serves normally again (queued requests behind the
            # stall may still time out, so poll past it)
            deadline = time.perf_counter() + 5.0
            while True:
                status, _, body = self._tag_status(server, sequences[1])
                if status == 200 or time.perf_counter() > deadline:
                    break
                time.sleep(0.05)
            assert status == 200

    def test_breaker_open_maps_to_503_with_retry_after(self, registry, sequences):
        config = ServingConfig(breaker_threshold=1, breaker_cooldown_s=30.0)
        with HTTPServingServer(registry, port=0, config=config) as server:
            with faults.inject(faults.ARTIFACT_LOAD, error=OSError("disk gone")):
                status, _, _ = self._tag_status(server, sequences[0])
                assert status == 500  # the load failure itself
                status, headers, body = self._tag_status(server, sequences[1])
            assert status == 503
            assert "circuit breaker" in body["error"]
            assert int(headers["Retry-After"]) >= 1

    def test_failed_dispatcher_turns_healthz_503(self, registry, sequences):
        config = ServingConfig(max_dispatcher_restarts=0)
        with HTTPServingServer(registry, port=0, config=config) as server:
            url = f"http://{server.host}:{server.port}/healthz"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert json.loads(response.read())["health"] == "healthy"
            with faults.inject(
                faults.DISPATCHER_LOOP, error=RuntimeError("injected"), n_failures=1
            ):
                status, _, _ = self._tag_status(server, sequences[0])
                assert status == 500
            deadline = time.perf_counter() + 5.0
            while server.router.health != "failed" and time.perf_counter() < deadline:
                time.sleep(0.01)
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(url, timeout=10)
            assert info.value.code == 503
            body = json.loads(info.value.read())
            assert body["status"] == "failed"
            assert body["health"] == "failed"


# ------------------------------------------------------------------ #
# Retry policy
# ------------------------------------------------------------------ #
class TestRetryPolicy:
    def test_retries_transient_errors_until_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise QueueFullError("queue full")
            return "served"

        policy = RetryPolicy(max_attempts=4, initial_backoff_ms=1.0)
        slept = []
        assert policy.call(flaky, sleep=slept.append) == "served"
        assert calls["n"] == 3
        assert len(slept) == 2
        assert all(s >= 0 for s in slept)

    def test_never_retries_validation_errors(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValidationError("bad payload")

        policy = RetryPolicy(max_attempts=5, initial_backoff_ms=1.0)
        with pytest.raises(ValidationError):
            policy.call(broken, sleep=lambda _s: None)
        assert calls["n"] == 1

    def test_attempt_budget_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(max_attempts=3, initial_backoff_ms=1.0)
        calls = {"n": 0}

        def always_full():
            calls["n"] += 1
            raise QueueFullError("queue full")

        with pytest.raises(QueueFullError):
            policy.call(always_full, sleep=lambda _s: None)
        assert calls["n"] == 3

    def test_server_retry_after_floors_the_backoff(self):
        policy = RetryPolicy(max_attempts=2, initial_backoff_ms=1.0)
        calls = {"n": 0}

        def unavailable_once():
            calls["n"] += 1
            if calls["n"] == 1:
                raise ModelUnavailableError("breaker open", retry_after_s=0.25)
            return "served"

        slept = []
        got = policy.call(
            unavailable_once,
            sleep=slept.append,
            min_backoff_s=lambda exc: getattr(exc, "retry_after_s", None),
        )
        assert got == "served"
        assert slept == [pytest.approx(0.25, abs=0.25)]
        assert slept[0] >= 0.25

    def test_backoff_schedule_is_capped(self):
        policy = RetryPolicy(
            max_attempts=6,
            initial_backoff_ms=10.0,
            backoff_multiplier=2.0,
            max_backoff_ms=35.0,
            jitter=0.0,
        )
        schedule = [policy.backoff_s(i) for i in range(5)]
        assert schedule == [0.010, 0.020, 0.035, 0.035, 0.035]
