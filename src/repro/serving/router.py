"""Multi-model routed serving: every registry model behind one queue.

:class:`Router` generalizes :class:`~repro.serving.service.TaggingService`
from one model to a whole :class:`~repro.serving.registry.ModelRegistry`:
requests carry a ``(name, version)`` routing key, a single bounded queue
feeds a single dispatcher thread, and the dispatcher coalesces each drained
micro-batch *per model* so every group still becomes one batched engine
call.  Models are loaded lazily from the registry on first use and kept in
an LRU cache of at most ``ServingConfig.max_loaded_models`` resident
models — cold models cost one artifact load, hot models nothing.

Backpressure and deadlines are inherited from the shared dispatcher
machinery: the queue is bounded (``ServingConfig.queue_capacity``,
fast-fail :class:`~repro.exceptions.QueueFullError`) and per-request
``deadline_ms`` drops expired requests before any engine work
(:class:`~repro.exceptions.DeadlineExceededError`).

Version resolution happens at submit time — ``version=None`` pins the
request to the registry's latest version *at that moment* — so every
queued request has a concrete routing key and per-model grouping is exact
even while new versions are being saved concurrently.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.lockorder import make_lock
from repro.core.config import ServingConfig
from repro.exceptions import ModelUnavailableError
from repro.serving.registry import ModelRegistry
from repro.serving.scheduler import (
    _SCORE,
    _TAG,
    MicroBatchScheduler,
    Request,
    _model_label,
)
from repro.serving.service import _ModelExecutor

#: internal request kind for Router.warm_up: load the executor, compute
#: nothing.
_WARM = "warm"

#: circuit-breaker states
_CLOSED = "closed"
_OPEN = "open"
_HALF_OPEN = "half_open"


class _CircuitBreaker:
    """Per-``(name, version)`` failure accounting (state under the router's
    breaker lock).

    ``closed`` (normal) counts consecutive load/execute failures; at
    ``ServingConfig.breaker_threshold`` it trips ``open`` and requests for
    the key fast-fail without touching the registry.  After
    ``breaker_cooldown_s`` one dispatcher-side probe is let through
    (``half_open``): success re-closes the breaker, failure re-opens it for
    another full cooldown.
    """

    __slots__ = ("state", "consecutive_failures", "opened_at", "n_trips")

    def __init__(self) -> None:
        self.state = _CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.n_trips = 0


@dataclass
class WarmUpReport:
    """Per-model outcome of :meth:`Router.warm_up`.

    ``loaded`` holds the resident ``(name, version)`` keys in request
    order; ``errors`` maps each failed entry's model name to the exception
    it raised.  One corrupt artifact no longer aborts warm-up of the
    healthy fleet — iterate the report (or check :attr:`ok`) instead of
    assuming everything loaded.
    """

    loaded: list[tuple[str, int]] = field(default_factory=list)
    errors: dict[str, Exception] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every requested model loaded."""
        return not self.errors

    def __iter__(self):
        return iter(self.loaded)

    def __len__(self) -> int:
        return len(self.loaded)


class Router(MicroBatchScheduler):
    """Routed, load-aware tagging service over a model registry.

    Parameters
    ----------
    registry:
        A :class:`~repro.serving.registry.ModelRegistry` or its root path.
    config:
        Batching, backpressure and cache knobs (``max_batch_size``,
        ``queue_capacity``, ``max_loaded_models``); defaults to the
        process-wide serving configuration.  Batching is continuous: an
        idle dispatcher computes a request at once, and requests that
        queue while it is busy form the next batch.

    Examples
    --------
    >>> with Router("./registry") as router:                 # doctest: +SKIP
    ...     future = router.submit_tag("pos-tagger", sequence, deadline_ms=50)
    ...     labels = future.result()
    """

    _thread_name = "repro-serving-router"

    def __init__(
        self,
        registry: ModelRegistry | str | Path,
        config: ServingConfig | None = None,
    ) -> None:
        super().__init__(config)
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self._executors_lock = make_lock("router.executors")
        self._breakers_lock = make_lock("router.breakers")
        #: LRU of resident models, keyed by ``(name, version)``; mutated by
        #: the dispatcher thread, read by ``loaded_models`` from any thread.
        #: Invariant: no stats method is ever called while holding either
        #: lock below (snapshot's extra callback takes the breakers lock
        #: under the stats lock, so the reverse order would deadlock; the
        #: lock-order tracker enforces stats -> breakers).
        self._executors: OrderedDict[tuple[str, int], _ModelExecutor] = (
            OrderedDict()
        )  # repro: guarded-by[_executors_lock]
        #: per-key circuit breakers.
        self._breakers: dict[tuple[str, int], _CircuitBreaker] = (
            {}
        )  # repro: guarded-by[_breakers_lock]
        self._start()

    # -------------------------------------------------------------- #
    # Client API
    # -------------------------------------------------------------- #
    def _resolve_key(
        self, name: str, version: int | None, check_breaker: bool = True
    ) -> tuple[str, int]:
        """Pin a request to a concrete ``(name, version)`` at submit time.

        Unknown names/versions fail here, in the client thread, instead of
        poisoning a queued batch.  Explicit versions that are already
        resident skip the registry I/O entirely (version directories are
        immutable, so residency proves existence).  ``version=None`` asks
        :meth:`~repro.serving.registry.ModelRegistry.latest_version`, so
        "latest" means latest *now*, not latest-at-load-time; while the
        model directory is unchanged that costs one ``stat``, not a scan.

        A key whose circuit breaker is open (and still cooling down)
        fast-fails right here with
        :class:`~repro.exceptions.ModelUnavailableError`: no registry I/O,
        no queue slot.  ``check_breaker=False`` (warm-up) skips that, so an
        operator can always force a probe.
        """
        if version is None:
            key = (name, int(self.registry.latest_version(name)))
            if check_breaker:
                self._check_breaker(key)
            return key
        key = (name, int(version))
        if check_breaker:
            self._check_breaker(key)
        with self._executors_lock:
            if key in self._executors:
                return key
        # Validates existence (raises ValidationError otherwise).
        self.registry.artifact_path(name, version)
        return key

    # -------------------------------------------------------------- #
    # Circuit breakers
    # -------------------------------------------------------------- #
    def _check_breaker(self, key: tuple[str, int]) -> None:
        """Fast-fail (client thread) while ``key``'s breaker is cooling down."""
        with self._breakers_lock:
            breaker = self._breakers.get(key)
            if breaker is None or breaker.state != _OPEN:
                return
            remaining = (
                breaker.opened_at + self.config.breaker_cooldown_s
                - time.perf_counter()
            )
        if remaining > 0:
            raise ModelUnavailableError(
                f"circuit breaker for model {_model_label(key)} is open after "
                f"{self.config.breaker_threshold} consecutive failures; "
                f"retry in {remaining:.2f}s",
                retry_after_s=remaining,
            )
        # Cooldown elapsed: let the request through; the dispatcher turns
        # it into the half-open probe.

    def _breaker_failure(self, key: tuple[str, int]) -> None:
        """Record a load/execute failure; trip the breaker at the threshold."""
        with self._breakers_lock:
            breaker = self._breakers.setdefault(key, _CircuitBreaker())
            breaker.consecutive_failures += 1
            trip = breaker.state == _HALF_OPEN or (
                breaker.state == _CLOSED
                and breaker.consecutive_failures >= self.config.breaker_threshold
            )
            if trip:
                breaker.state = _OPEN
                breaker.opened_at = time.perf_counter()
                breaker.n_trips += 1

    def _breaker_success(self, key: tuple[str, int]) -> None:
        """A healthy load+execute: reset the count, re-close after a probe."""
        with self._breakers_lock:
            breaker = self._breakers.get(key)
            if breaker is not None:
                breaker.consecutive_failures = 0
                breaker.state = _CLOSED

    def breaker_states(self) -> dict[str, dict]:
        """Per-model breaker state/failure-count/trip-count (any thread)."""
        with self._breakers_lock:
            return {
                _model_label(key): {
                    "state": breaker.state,
                    "consecutive_failures": breaker.consecutive_failures,
                    "n_trips": breaker.n_trips,
                }
                for key, breaker in self._breakers.items()
            }

    def _stats_extra(self) -> dict:
        extra = super()._stats_extra()
        extra["breakers"] = self.breaker_states()
        return extra

    def submit_tag(
        self,
        name: str,
        sequence: np.ndarray,
        version: int | None = None,
        deadline_ms: float | None = None,
        trace_id: str | None = None,
    ) -> Future:
        """Enqueue a Viterbi tagging request against one registry model."""
        key = self._resolve_key(name, version)
        return self._enqueue(
            _TAG, sequence, deadline_ms=deadline_ms, key=key, trace_id=trace_id
        )

    def submit_score(
        self,
        name: str,
        sequence: np.ndarray,
        version: int | None = None,
        deadline_ms: float | None = None,
        trace_id: str | None = None,
    ) -> Future:
        """Enqueue a scoring request against one registry model."""
        key = self._resolve_key(name, version)
        return self._enqueue(
            _SCORE, sequence, deadline_ms=deadline_ms, key=key, trace_id=trace_id
        )

    def tag(self, name: str, sequence: np.ndarray, **kwargs) -> np.ndarray:
        """Synchronous tag through the routed queue."""
        return self.submit_tag(name, sequence, **kwargs).result()

    def score(self, name: str, sequence: np.ndarray, **kwargs) -> float:
        """Synchronous score through the routed queue."""
        return self.submit_score(name, sequence, **kwargs).result()

    def tag_many(
        self, name: str, sequences: Sequence[np.ndarray], **kwargs
    ) -> list[np.ndarray]:
        """Submit many tagging requests for one model; gather all results."""
        futures = [self.submit_tag(name, seq, **kwargs) for seq in sequences]
        return [future.result() for future in futures]

    def score_many(
        self, name: str, sequences: Sequence[np.ndarray], **kwargs
    ) -> list[float]:
        """Submit many scoring requests for one model; gather all results."""
        futures = [self.submit_score(name, seq, **kwargs) for seq in sequences]
        return [future.result() for future in futures]

    def loaded_models(self) -> list[tuple[str, int]]:
        """Resident ``(name, version)`` keys, least recently used first."""
        with self._executors_lock:
            return list(self._executors)

    def warm_up(
        self,
        names: Sequence[str | tuple[str, int | None]],
        timeout: float | None = 30.0,
    ) -> WarmUpReport:
        """Preload hot models before first traffic; per-model outcomes.

        Each entry is a model name (latest version) or a ``(name, version)``
        pair.  Loading happens on the dispatcher thread — warm-up requests
        go through the same queue as traffic, so there is no concurrent
        artifact I/O against the executor cache — and this call blocks
        until every requested model is resident or failed (or ``timeout``
        expires).  A broken entry (unknown name, corrupt artifact) lands in
        :attr:`WarmUpReport.errors` instead of aborting the rest: one bad
        artifact cannot block warm-up of the healthy fleet.  Warm-up
        ignores open circuit breakers on the submit side, so it doubles as
        a manual recovery probe.  Listing more models than
        ``ServingConfig.max_loaded_models`` is allowed but pointless: the
        earliest ones are evicted again before this returns.
        """
        report = WarmUpReport()
        futures: list[tuple[str, Future]] = []
        for entry in names:
            name, version = entry if isinstance(entry, tuple) else (entry, None)
            try:
                key = self._resolve_key(name, version, check_breaker=False)
                future = self._enqueue(_WARM, np.zeros(1, dtype=np.int64), key=key)
            except Exception as exc:
                report.errors[name] = exc
                continue
            futures.append((name, future))
        for name, future in futures:
            try:
                report.loaded.append(future.result(timeout=timeout))
            except Exception as exc:
                report.errors[name] = exc
        return report

    # -------------------------------------------------------------- #
    # Dispatcher side
    # -------------------------------------------------------------- #
    def _executor_for(self, key: tuple[str, int]) -> _ModelExecutor:
        """The resident executor for ``key``, loading/evicting as needed.

        The dispatcher-side breaker gate: while the key's breaker is open
        and cooling down this raises
        :class:`~repro.exceptions.ModelUnavailableError` *before* any
        registry read; once the cooldown has elapsed the breaker moves to
        half-open and this call proceeds as the probe.
        """
        with self._breakers_lock:
            breaker = self._breakers.get(key)
            if breaker is not None and breaker.state == _OPEN:
                remaining = (
                    breaker.opened_at + self.config.breaker_cooldown_s
                    - time.perf_counter()
                )
                if remaining > 0:
                    raise ModelUnavailableError(
                        f"circuit breaker for model {_model_label(key)} is "
                        f"open; retry in {remaining:.2f}s",
                        retry_after_s=remaining,
                    )
                breaker.state = _HALF_OPEN
        with self._executors_lock:
            executor = self._executors.get(key)
            if executor is not None:
                self._executors.move_to_end(key)
                return executor
        # Artifact I/O happens outside the lock; only the dispatcher thread
        # loads, so there is no duplicate-load race.  mmap is only forwarded
        # when enabled, so registries with a plain (name, version) load
        # signature keep working.
        name, version = key
        if self.config.mmap_artifacts:
            model = self.registry.load(name, version, mmap=True)
        else:
            model = self.registry.load(name, version)
        executor = _ModelExecutor(model)
        self.stats.record_model_load()
        n_evicted = 0
        with self._executors_lock:
            self._executors[key] = executor
            while len(self._executors) > self.config.max_loaded_models:
                self._executors.popitem(last=False)
                n_evicted += 1
        # Recorded after releasing the executors lock: stats methods take
        # the stats lock, and a lock held while calling into stats would
        # invert the documented stats-first order.
        for _ in range(n_evicted):
            self.stats.record_model_eviction()
        return executor

    def _execute(self, batch: list[Request]) -> None:
        # Group per routing key, preserving batch order inside each group,
        # so one drained micro-batch becomes one coalesced engine call per
        # distinct model.
        groups: OrderedDict[tuple[str, int], list[Request]] = OrderedDict()
        for request in batch:
            assert request.key is not None, "router requests always carry a key"
            groups.setdefault(request.key, []).append(request)
        for key, group in groups.items():
            try:
                executor = self._executor_for(key)
            except Exception as exc:
                # Loading failed (artifact vanished, corrupt manifest, ...)
                # or the breaker fast-failed: resolve this group's requests,
                # keep serving the others.  A breaker fast-fail is not a
                # *new* model failure — only real load attempts count.
                if not isinstance(exc, ModelUnavailableError):
                    self._breaker_failure(key)
                for request in group:
                    if request.future.set_running_or_notify_cancel():
                        request.future.set_exception(exc)
                continue
            # Warm-up requests only needed the load above; resolve them and
            # keep the engine out of it.
            compute = []
            for request in group:
                if request.kind == _WARM:
                    if request.future.set_running_or_notify_cancel():
                        request.future.set_result(key)
                else:
                    compute.append(request)
            # Deadlines were checked when the batch was drained, but an
            # earlier group's compute (or this group's cold-model load) may
            # have outlived a later group's deadline — re-check immediately
            # before the engine call so the "expired requests never reach
            # the engine" guarantee holds per group, not just per batch.
            compute = self._drop_expired(compute)
            try:
                if compute:
                    executor.run(compute, self.stats, policy=self.scheduling_policy)
            except Exception as exc:
                # The whole engine call hard-failed (per-request problems
                # are isolated inside run()): that's a model-level failure.
                self._breaker_failure(key)
                for request in compute:
                    future = request.future
                    if future.done():
                        continue
                    if future.set_running_or_notify_cancel():
                        future.set_exception(exc)
                continue
            self._breaker_success(key)
