"""Scheduling core of the serving stack: queueing, coalescing, policies.

This module is the bottom layer of the serving architecture (scheduling /
transport / storage / execution).  It owns everything between ``submit``
and the service-specific compute callback:

* a **bounded intake queue** (``ServingConfig.queue_capacity``) whose
  overflow fast-fails with :class:`~repro.exceptions.QueueFullError`;
* a single **dispatcher thread** per scheduler that batches continuously:
  it dispatches as soon as it is free, and a batch is whatever queued up
  while the previous one computed (at most ``max_batch_size`` requests,
  handed to the service's ``_execute`` hook) — no timer, so a lone request
  on an idle engine goes straight to compute;
* a pluggable :class:`SchedulingPolicy` deciding *which* pending requests
  form the next batch — :class:`FIFOPolicy` (arrival order, the default
  and behavior-identical to the pre-policy dispatcher),
  :class:`WeightedFairPolicy` (deficit-round-robin across models, so one
  chatty model cannot starve the others) and :class:`EDFPolicy`
  (earliest-deadline-first) — selected via
  ``ServingConfig.scheduling_policy``;
* **deadline expiry**: requests whose ``deadline_ms`` lapsed while queued
  resolve with :class:`~repro.exceptions.DeadlineExceededError` *before*
  any engine work is spent on them;
* :class:`ServiceStats` — throughput, occupancy, shed/expiry counters and
  the queue-depth gauge, snapshot-able from any thread.

:class:`~repro.serving.service.TaggingService`,
:class:`~repro.serving.router.Router` and
:class:`~repro.serving.streaming_service.StreamingService` all subclass
:class:`MicroBatchScheduler` and implement only their compute
(`_execute`); transport front ends such as :mod:`repro.serving.http` sit
on top of their ``submit`` APIs.

The dispatcher is a single thread, so each engine and its parameter cache
are used from one thread only; submission is thread-safe and can come from
any number of client threads.
"""

from __future__ import annotations

import heapq
import itertools
import math
import queue
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.lockorder import make_lock
from repro.core.config import SCHEDULING_POLICIES, ServingConfig, get_serving_config
from repro.exceptions import (
    DeadlineExceededError,
    QueueFullError,
    ServiceShuttingDownError,
    ServingError,
    ValidationError,
)
from repro.serving import faults
from repro.serving.observability import LatencyHistogram, new_trace_id

#: ring-buffer size of per-request trace records kept in ServiceStats.
RECENT_TRACES = 256

#: Dispatcher health states (see :attr:`MicroBatchScheduler.health`).
HEALTHY = "healthy"
DEGRADED = "degraded"
FAILED = "failed"

_TAG = "tag"
_SCORE = "score"


@dataclass
class Request:
    """One queued unit of work, resolved through its future."""

    kind: str
    sequence: np.ndarray
    future: Future
    #: absolute ``time.perf_counter()`` deadline; ``None`` = no deadline.
    deadline: float | None = None
    #: routing key ``(name, version)``; ``None`` in a single-model service.
    key: tuple[str, int] | None = None
    #: service-specific payload (e.g. the stream handle of a push).
    payload: Any = None
    #: opaque per-request identifier, minted at submission when the
    #: transport did not provide one; echoed in stats trace records.
    trace_id: str = ""
    #: ``time.perf_counter()`` at admission; basis for latency histograms.
    enqueued_at: float | None = None
    #: ``time.perf_counter()`` when the dispatcher popped the request into
    #: a batch; ``dequeued_at - enqueued_at`` is the queue wait.  Written
    #: by the dispatcher thread only.
    dequeued_at: float | None = None


def _model_label(key: tuple[str, int]) -> str:
    name, version = key
    return f"{name}:v{version:04d}"


class ServiceStats:
    """Running throughput / batch-occupancy counters (thread-safe snapshots).

    Besides the engine-side counters (batches, tokens, busy time) it tracks
    the load-shedding events of the bounded queue — rejected (queue full)
    and expired (deadline passed) requests — plus, for routed services,
    per-model request counts and model load/evict churn.
    """

    def __init__(
        self,
        queue_depth: Callable[[], int] | None = None,
        extra: Callable[[], dict] | None = None,
    ) -> None:
        self._lock = make_lock("stats")
        #: providers of the queue-depth gauge and additional snapshot
        #: entries (the owning service's health / breaker states).  Called
        #: under the stats lock, so they may only take locks that are
        #: *never* held while calling into this stats object — the
        #: documented order is stats -> {lifecycle, breakers}; the
        #: lock-order tracker verifies it at runtime.
        self._queue_depth = queue_depth
        self._extra = extra
        self.started_at = time.perf_counter()
        self.n_requests = 0  # repro: guarded-by[_lock]
        self.n_batches = 0  # repro: guarded-by[_lock]
        self.n_tokens = 0  # repro: guarded-by[_lock]
        self.max_batch_size = 0  # repro: guarded-by[_lock]
        self.busy_seconds = 0.0  # repro: guarded-by[_lock]
        self.n_rejected = 0  # repro: guarded-by[_lock]
        self.n_expired = 0  # repro: guarded-by[_lock]
        self.n_shed = 0  # repro: guarded-by[_lock]
        self.n_model_loads = 0  # repro: guarded-by[_lock]
        self.n_model_evictions = 0  # repro: guarded-by[_lock]
        self.per_model: dict[str, int] = {}  # repro: guarded-by[_lock]
        #: end-to-end latency (admission -> futures resolved), all requests.
        self.latency = LatencyHistogram()  # repro: guarded-by[_lock]
        #: queue wait (admission -> batch formation), keyed by the
        #: scheduling policy that formed the batch.
        self.queue_wait_by_policy: dict[str, LatencyHistogram] = {}  # repro: guarded-by[_lock]
        #: ring buffer of per-request trace records (newest last).
        self.recent_traces: deque[dict] = deque(maxlen=RECENT_TRACES)  # repro: guarded-by[_lock]

    def record_batch(
        self, n_requests: int, n_tokens: int, seconds: float, key: tuple | None = None
    ) -> None:
        with self._lock:
            self.n_requests += n_requests
            self.n_batches += 1
            self.n_tokens += n_tokens
            self.max_batch_size = max(self.max_batch_size, n_requests)
            self.busy_seconds += seconds
            if key is not None:
                label = _model_label(key)
                self.per_model[label] = self.per_model.get(label, 0) + n_requests

    def record_completed(
        self, requests: Sequence["Request"], policy: str | None = None
    ) -> None:
        """Record per-request latency, queue wait and trace records.

        Called by the executor right before the batch's futures are
        resolved, so a trace ID returned to a client is already visible in
        the stats.  ``policy`` names the scheduling policy that formed the
        batch (the per-policy queue-wait breakdown).
        """
        now = time.perf_counter()
        with self._lock:
            wait_hist = None
            for request in requests:
                if request.enqueued_at is None:
                    continue
                latency = now - request.enqueued_at
                self.latency.record(latency)
                wait = None
                if request.dequeued_at is not None:
                    wait = request.dequeued_at - request.enqueued_at
                    if wait_hist is None:
                        wait_hist = self.queue_wait_by_policy.setdefault(
                            policy or "unknown", LatencyHistogram()
                        )
                    wait_hist.record(wait)
                if request.trace_id:
                    self.recent_traces.append(
                        {
                            "trace_id": request.trace_id,
                            "kind": request.kind,
                            "model": (
                                _model_label(request.key)
                                if request.key is not None
                                else None
                            ),
                            "latency_ms": latency * 1e3,
                            "queue_wait_ms": None if wait is None else wait * 1e3,
                        }
                    )

    def record_rejected(self) -> None:
        with self._lock:
            self.n_rejected += 1

    def record_expired(self) -> None:
        with self._lock:
            self.n_expired += 1

    def record_shed(self) -> None:
        with self._lock:
            self.n_shed += 1

    def record_model_load(self) -> None:
        with self._lock:
            self.n_model_loads += 1

    def record_model_eviction(self) -> None:
        with self._lock:
            self.n_model_evictions += 1

    def snapshot(self) -> dict:
        """Point-in-time stats dict (safe to call from any thread)."""
        with self._lock:
            wall = time.perf_counter() - self.started_at
            batches = max(self.n_batches, 1)
            busy = max(self.busy_seconds, 1e-12)
            snapshot = {
                "n_requests": self.n_requests,
                "n_batches": self.n_batches,
                "n_tokens": self.n_tokens,
                "mean_batch_size": self.n_requests / batches,
                "max_batch_size": self.max_batch_size,
                "busy_seconds": self.busy_seconds,
                "wall_seconds": wall,
                "tokens_per_busy_second": self.n_tokens / busy,
                "queue_depth": self._queue_depth() if self._queue_depth else 0,
                "n_rejected": self.n_rejected,
                "n_expired": self.n_expired,
                "n_shed": self.n_shed,
                "n_model_loads": self.n_model_loads,
                "n_model_evictions": self.n_model_evictions,
                "per_model": dict(self.per_model),
                "latency": self.latency.snapshot(),
                "queue_wait_by_policy": {
                    policy: hist.snapshot()
                    for policy, hist in self.queue_wait_by_policy.items()
                },
                "recent_traces": list(self.recent_traces),
            }
            if self._extra is not None:
                snapshot.update(self._extra())
            return snapshot


# ------------------------------------------------------------------ #
# Scheduling policies
# ------------------------------------------------------------------ #
class SchedulingPolicy:
    """Orders pending requests into micro-batches.

    A policy is a pure in-memory container used from the dispatcher thread
    only: the scheduler pushes every drained request into it and asks it
    for the next batch.  Policies never resolve futures, never drop
    requests and never block — admission control (backpressure) and
    deadline expiry stay in the scheduler.
    """

    #: registry name; also the ``ServingConfig.scheduling_policy`` value.
    name: str

    def push(self, request: Request) -> None:
        raise NotImplementedError

    def pop_batch(self, limit: int) -> list[Request]:
        """Remove and return the next batch (at most ``limit`` requests)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FIFOPolicy(SchedulingPolicy):
    """Arrival order, batch after batch — the pre-policy dispatcher behavior."""

    name = "fifo"

    def __init__(self) -> None:
        self._pending: deque[Request] = deque()

    def push(self, request: Request) -> None:
        self._pending.append(request)

    def pop_batch(self, limit: int) -> list[Request]:
        take = min(limit, len(self._pending))
        return [self._pending.popleft() for _ in range(take)]

    def __len__(self) -> int:
        return len(self._pending)


class WeightedFairPolicy(SchedulingPolicy):
    """Deficit round-robin across models: weighted fairness, no starvation.

    Requests are classed by model name (the first element of the routing
    key; single-model services form one class).  Each round every backlogged
    class earns its weight in credits and yields ``floor(credit)`` requests
    (arrival order within the class), so over time class throughput is
    proportional to its weight while every backlogged class is served at
    least once every ``ceil(1 / weight)`` rounds — a flood on one model can
    delay, but never starve, the others.

    Weights come from ``ServingConfig.model_weights`` (missing names
    default to 1.0) and must be positive.
    """

    name = "weighted_fair"

    def __init__(self, weights: Mapping[str, float] | None = None) -> None:
        weights = dict(weights or {})
        for name, weight in weights.items():
            if not weight > 0:
                raise ValidationError(
                    f"model weight for {name!r} must be positive, got {weight}"
                )
        self._weights = weights
        self._queues: OrderedDict[str, deque[Request]] = OrderedDict()
        self._deficits: dict[str, float] = {}
        self._size = 0

    @staticmethod
    def _class_of(request: Request) -> str:
        return request.key[0] if request.key is not None else ""

    def push(self, request: Request) -> None:
        cls = self._class_of(request)
        pending = self._queues.get(cls)
        if pending is None:
            self._queues[cls] = pending = deque()
            # a class re-entering the backlog starts with a clean slate, so
            # idle periods do not bank credit
            self._deficits[cls] = 0.0
        pending.append(request)
        self._size += 1

    def pop_batch(self, limit: int) -> list[Request]:
        batch: list[Request] = []
        while self._size and len(batch) < limit:
            took_any = False
            for cls in list(self._queues):
                pending = self._queues[cls]
                self._deficits[cls] += self._weights.get(cls, 1.0)
                # forced-progress pops can leave a deficit below -1, so the
                # credit term must clamp at zero or "take" would go negative
                take = max(
                    0,
                    min(len(pending), int(self._deficits[cls]), limit - len(batch)),
                )
                for _ in range(take):
                    batch.append(pending.popleft())
                self._size -= take
                self._deficits[cls] -= take
                took_any = took_any or take > 0
                if not pending:
                    del self._queues[cls]
                    del self._deficits[cls]
                if len(batch) >= limit:
                    break
            if not took_any:
                # Every backlogged class has a sub-unit credit (tiny
                # weights): instead of spinning ~1/weight rounds, force one
                # request from the class closest to a full credit.  Its
                # deficit goes negative, which is exactly deficit round
                # robin's memory — long-run shares stay weight-proportional.
                cls = max(self._queues, key=self._deficits.__getitem__)
                batch.append(self._queues[cls].popleft())
                self._size -= 1
                self._deficits[cls] -= 1.0
                if not self._queues[cls]:
                    del self._queues[cls]
                    del self._deficits[cls]
        return batch

    def __len__(self) -> int:
        return self._size


class EDFPolicy(SchedulingPolicy):
    """Earliest deadline first: the most urgent pending requests batch first.

    Requests without a deadline sort last; ties (equal deadlines, and all
    deadline-free requests) break by arrival order, so a deadline-free
    workload degenerates to exact FIFO.
    """

    name = "edf"

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Request]] = []
        self._arrivals = itertools.count()

    def push(self, request: Request) -> None:
        deadline = request.deadline if request.deadline is not None else math.inf
        heapq.heappush(self._heap, (deadline, next(self._arrivals), request))

    def pop_batch(self, limit: int) -> list[Request]:
        take = min(limit, len(self._heap))
        return [heapq.heappop(self._heap)[2] for _ in range(take)]

    def __len__(self) -> int:
        return len(self._heap)


#: policy name -> constructor taking the ServingConfig.
_POLICY_FACTORIES: dict[str, Callable[[ServingConfig], SchedulingPolicy]] = {
    "fifo": lambda config: FIFOPolicy(),
    "weighted_fair": lambda config: WeightedFairPolicy(config.model_weights),
    "edf": lambda config: EDFPolicy(),
}

assert set(_POLICY_FACTORIES) == set(SCHEDULING_POLICIES)


def make_policy(config: ServingConfig) -> SchedulingPolicy:
    """Instantiate the scheduling policy selected by a serving config."""
    try:
        factory = _POLICY_FACTORIES[config.scheduling_policy]
    except KeyError:
        raise ValidationError(
            f"unknown scheduling policy {config.scheduling_policy!r}; "
            f"available: {sorted(_POLICY_FACTORIES)}"
        ) from None
    return factory(config)


# ------------------------------------------------------------------ #
# Scheduler
# ------------------------------------------------------------------ #
class MicroBatchScheduler:
    """Bounded queue + policy + single dispatcher thread, shared by services.

    Subclasses implement :meth:`_execute` (compute one micro-batch of
    *live* requests and resolve their futures) and call :meth:`_start`
    once their own state is ready.  Everything else — thread-safe bounded
    submission, continuous batching, policy-ordered batch formation,
    deadline expiry before compute, drain-on-close — lives here.
    """

    _thread_name = "repro-serving-dispatcher"

    def __init__(self, config: ServingConfig | None = None) -> None:
        self.config = config or get_serving_config()
        self._policy = make_policy(self.config)
        self._queue: queue.Queue = queue.Queue()
        # Guards the closed/capacity-check-then-enqueue in _enqueue against
        # close() and concurrent submitters: without it a request could land
        # behind the shutdown sentinel (its future would never resolve) or
        # two submitters could both pass the capacity check.  Also guards
        # the health/restart-count/drain-deadline lifecycle fields below.
        # Lock order: the stats lock may be taken first (snapshot ->
        # _stats_extra -> this lock); this lock is never held while calling
        # into stats.
        self._lifecycle_lock = make_lock("scheduler.lifecycle")
        #: dispatcher health: HEALTHY, DEGRADED (running on a supervised
        #: restart that has not completed a batch yet) or FAILED (restart
        #: budget exhausted / control-flow exception; nothing drains the
        #: queue anymore).
        self._health = HEALTHY  # repro: guarded-by[_lifecycle_lock]
        #: lifetime count of supervised dispatcher restarts.
        self._restarts = 0  # repro: guarded-by[_lifecycle_lock]
        self.stats = ServiceStats(
            queue_depth=lambda: self.queue_depth, extra=self._stats_extra
        )
        self._closed = False  # repro: guarded-by[_lifecycle_lock]
        #: absolute perf_counter deadline of a drain-mode close; ``None``
        #: means flush everything (the classic close).  Written once under
        #: the lifecycle lock before the shutdown sentinel is enqueued.
        self._drain_deadline: float | None = None  # repro: guarded-by[_lifecycle_lock]
        # Number of accepted-but-undispatched requests: intake queue plus
        # the policy's pending buffer.  Kept as an explicit counter (not
        # qsize()) so the capacity check stays exact while the dispatcher
        # moves requests from the intake queue into the policy.
        self._depth = 0  # repro: guarded-by[_lifecycle_lock]
        #: batch currently being processed; read by _abandon_pending when
        #: the dispatcher dies mid-batch (single-writer: dispatcher thread).
        self._in_flight: list[Request] = []
        self._dispatcher = threading.Thread(
            target=self._run, name=self._thread_name, daemon=True
        )

    def _start(self) -> None:
        self._dispatcher.start()

    def _stats_extra(self) -> dict:
        """Resilience entries merged into ``ServiceStats.snapshot()``.

        Called under the stats lock; takes the lifecycle lock, which is
        safe because stats methods are never invoked while the lifecycle
        lock is held (lock order: stats -> lifecycle, enforced by the
        lock-order tracker).
        """
        with self._lifecycle_lock:
            return {
                "health": self._health,
                "n_dispatcher_restarts": self._restarts,
            }

    @property
    def queue_depth(self) -> int:
        """Instantaneous number of accepted, undispatched requests."""
        with self._lifecycle_lock:
            return self._depth

    @property
    def health(self) -> str:
        """Dispatcher health: ``healthy``, ``degraded`` or ``failed``."""
        with self._lifecycle_lock:
            return self._health

    @property
    def scheduling_policy(self) -> str:
        """Name of the active scheduling policy."""
        return self._policy.name

    # -------------------------------------------------------------- #
    # Submission
    # -------------------------------------------------------------- #
    @staticmethod
    def _absolute_deadline(deadline_ms: float | None) -> float | None:
        if deadline_ms is None:
            return None
        if deadline_ms <= 0:
            raise ValidationError(
                f"deadline_ms must be positive, got {deadline_ms}"
            )
        return time.perf_counter() + deadline_ms / 1000.0

    def _check_sequence(self, kind: str, sequence: np.ndarray) -> None:
        """Submit-time payload validation; overridable per service."""
        if sequence.ndim < 1 or sequence.shape[0] < 1:
            raise ValidationError(
                "requests must be sequences with at least one timestep, got "
                f"shape {sequence.shape}"
            )

    def _enqueue(
        self,
        kind: str,
        sequence: np.ndarray,
        deadline_ms: float | None = None,
        key: tuple[str, int] | None = None,
        payload: Any = None,
        trace_id: str | None = None,
    ) -> Future:
        seq = np.asarray(sequence)
        self._check_sequence(kind, seq)
        request = Request(
            kind=kind,
            sequence=seq,
            future=Future(),
            deadline=self._absolute_deadline(deadline_ms),
            key=key,
            payload=payload,
            trace_id=trace_id or new_trace_id(),
            enqueued_at=time.perf_counter(),
        )
        capacity = self.config.queue_capacity
        with self._lifecycle_lock:
            if self._closed:
                raise ServiceShuttingDownError(
                    f"{type(self).__name__} is closed"
                    + (" (dispatcher failed)" if self._health == FAILED else "")
                )
            # Only submitters (all serialized by this lock) grow the depth,
            # so check-then-put cannot overshoot the capacity: the
            # dispatcher draining concurrently only shrinks it.
            rejected = capacity is not None and self._depth >= capacity
            if not rejected:
                self._depth += 1
                self._queue.put(request)
        if rejected:
            # Recorded after releasing the lifecycle lock: stats methods
            # take the stats lock, and holding lifecycle->stats here would
            # form an ABBA cycle with snapshot's stats->lifecycle order.
            self.stats.record_rejected()
            raise QueueFullError(
                f"serving queue is at capacity ({capacity}); retry later "
                "or raise ServingConfig.queue_capacity"
            )
        return request.future

    # -------------------------------------------------------------- #
    # Dispatcher
    # -------------------------------------------------------------- #
    def _coalesce(self) -> bool:
        """Pull everything queued into the policy's pending buffer.

        Continuous batching: no timer.  The dispatcher takes what arrived
        while it was busy computing the previous batch, so an idle engine
        serves a lone request at once and a loaded one batches exactly the
        backlog it could not serve yet.  The entire backlog is drained —
        not just one batch's worth — so the policy ranks *all* pending
        requests when it forms the next batch.

        Returns True when the shutdown sentinel was consumed.
        """
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return False
            if item is None:
                return True
            self._policy.push(item)

    def _next_batch(self) -> list[Request]:
        """Pop the policy's next micro-batch, keeping the depth gauge exact."""
        batch = self._policy.pop_batch(self.config.max_batch_size)
        if batch:
            popped_at = time.perf_counter()
            for request in batch:
                request.dequeued_at = popped_at
            with self._lifecycle_lock:
                self._depth -= len(batch)
        return batch

    def _drop_expired(self, batch: list[Request]) -> list[Request]:
        """Resolve expired requests with DeadlineExceededError; return the rest.

        Runs immediately before compute, so an expired request never costs
        an engine call.
        """
        now = time.perf_counter()
        live: list[Request] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                self.stats.record_expired()
                if request.future.set_running_or_notify_cancel():
                    request.future.set_exception(
                        DeadlineExceededError(
                            "request deadline expired after "
                            f"{(now - request.deadline) * 1e3:.1f} ms in queue"
                        )
                    )
            else:
                live.append(request)
        return live

    def _dispatch(self, batch: list[Request]) -> None:
        live = self._drop_expired(batch)
        if live:
            self._execute(live)

    def _execute(self, batch: list[Request]) -> None:
        raise NotImplementedError

    def _run(self) -> None:
        try:
            self._serve()
        except Exception as exc:
            # An unexpected exception escaped the compute path and killed
            # this dispatcher thread.  Supervision: fail only the batch
            # that was in flight, keep every queued request, and restart
            # the dispatcher with capped exponential backoff — until the
            # restart budget is spent, at which point the service is
            # `failed` and everything pending is abandoned.
            self._supervise(exc)
        except BaseException as exc:
            # Control-flow exceptions (KeyboardInterrupt, SystemExit) are
            # deliberate stops: never restart.  No thread will ever drain
            # the queue again, so fail every accepted-but-unserved future —
            # a client blocked in an untimed result() must not hang forever
            # — and refuse new submissions, then let the exception
            # terminate the thread.
            self._fail_in_flight(exc)
            self._abandon_pending(exc)
            raise

    def _fail_in_flight(self, cause: BaseException) -> None:
        """Resolve the dying dispatch's in-flight batch with a ServingError."""
        in_flight, self._in_flight = self._in_flight, []
        error = ServingError(
            f"serving dispatcher crashed ({type(cause).__name__}: {cause}) "
            "while this request was in flight"
        )
        for request in in_flight:
            future = request.future
            if future.done():
                continue
            if future.set_running_or_notify_cancel():
                future.set_exception(error)

    def _supervise(self, cause: Exception) -> None:
        """Handle an unexpected dispatcher death: restart or declare failure.

        Runs on the dying dispatcher thread.  The in-flight batch is failed
        immediately (its futures must never hang), then either a fresh
        dispatcher thread is started after a capped exponential backoff —
        queued requests survive untouched and are served by the successor —
        or, with the restart budget exhausted, the service flips to
        ``failed``: pending work is abandoned and intake refused.
        """
        self._fail_in_flight(cause)
        with self._lifecycle_lock:
            if self._restarts >= self.config.max_dispatcher_restarts:
                restart = False
                self._health = FAILED
            else:
                restart = True
                self._restarts += 1
                self._health = DEGRADED
                attempt = self._restarts
        if not restart:
            self._abandon_pending(cause)
            return  # swallow: the failure is fully reported through futures
        backoff_s = (
            min(
                self.config.restart_backoff_ms * 2 ** (attempt - 1),
                self.config.restart_backoff_max_ms,
            )
            / 1000.0
        )
        if backoff_s > 0:
            time.sleep(backoff_s)
        with self._lifecycle_lock:
            successor = threading.Thread(
                target=self._run, name=f"{self._thread_name}-r{attempt}", daemon=True
            )
            # started before being published, so close() never joins an
            # unstarted thread
            successor.start()
            self._dispatcher = successor
            if self._closed:
                # close() raced the crash: its sentinel may have been
                # consumed by the dead dispatcher.  Re-enqueue one so the
                # successor still terminates after flushing (submissions
                # are refused once closed, so a duplicate sentinel is
                # harmless — extra Nones just re-trigger the shutdown
                # flush of an empty backlog).
                self._queue.put(None)

    def _drain_expired(self) -> bool:
        with self._lifecycle_lock:
            deadline = self._drain_deadline
        return deadline is not None and time.perf_counter() > deadline

    def _serve(self) -> None:
        stopping = False
        while not stopping:
            # A drain deadline (set by close()) bounds the backlog too: the
            # batch already dispatched finishes, everything still queued
            # past the deadline is shed, not served.
            if self._drain_expired():
                self._shed_pending()
                return
            if len(self._policy) == 0:
                item = self._queue.get()
                if item is None:
                    break
                self._policy.push(item)
            stopping = self._coalesce()
            self._in_flight = self._next_batch()
            faults.fire(faults.DISPATCHER_LOOP)
            self._dispatch(self._in_flight)
            self._in_flight = []
            with self._lifecycle_lock:
                if self._health == DEGRADED:
                    # a supervised restart served a batch end to end: recovered
                    self._health = HEALTHY
        # Shutdown: serve whatever is still pending, in policy-ordered
        # full batches — until the drain deadline (if any); everything
        # past it is shed with ServiceShuttingDownError.
        for item in self._drain_queue():
            self._policy.push(item)
        while len(self._policy):
            if self._drain_expired():
                self._shed_pending()
                break
            self._in_flight = self._next_batch()
            self._dispatch(self._in_flight)
            self._in_flight = []

    def _shed_pending(self) -> None:
        """Drain-deadline shedding: fail the remaining backlog, keep exact
        depth accounting."""
        error = ServiceShuttingDownError(
            "service drained past its deadline "
            f"({self.config.drain_timeout_s}s); this request was shed — "
            "retry against another instance"
        )
        remainder = self._policy.pop_batch(len(self._policy))
        remainder.extend(self._drain_queue())
        if remainder:
            with self._lifecycle_lock:
                self._depth -= len(remainder)
        for request in remainder:
            self.stats.record_shed()
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(error)

    def _drain_queue(self) -> list[Request]:
        drained: list[Request] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return drained
            if item is not None:
                drained.append(item)

    def _abandon_pending(self, cause: BaseException) -> None:
        """Fail the in-flight batch and every pending future after a fatal
        dispatcher error, so no client waits on a request nobody will serve."""
        with self._lifecycle_lock:
            self._closed = True
        error = ServingError(
            f"serving dispatcher died ({type(cause).__name__}) before this "
            "request was served"
        )
        pending: Iterable[Request] = [
            *self._in_flight,
            *self._policy.pop_batch(len(self._policy)),
            *self._drain_queue(),
        ]
        for request in pending:
            future = request.future
            # Requests resolved before the failure (e.g. expired ones) are
            # kept; only still-pending futures get the abandonment error.
            if future.done():
                continue
            if future.set_running_or_notify_cancel():
                future.set_exception(error)

    # -------------------------------------------------------------- #
    def close(
        self, timeout: float | None = 10.0, drain_timeout_s: float | None = None
    ) -> bool:
        """Stop accepting requests, flush the queue, join the dispatcher.

        ``drain_timeout_s`` (defaulting to ``ServingConfig.drain_timeout_s``)
        turns the flush into a bounded *drain*: queued work keeps being
        served until the deadline, and whatever remains past it is shed
        with :class:`~repro.exceptions.ServiceShuttingDownError`.  ``None``
        in both places keeps the classic unbounded flush.

        Returns ``True`` when the dispatcher finished within ``timeout``,
        ``False`` when it is still running (the flush did not complete —
        accepted futures may still be pending).  Calling ``close`` again
        re-joins and reports the current status.
        """
        if drain_timeout_s is None:
            drain_timeout_s = self.config.drain_timeout_s
        with self._lifecycle_lock:
            if not self._closed:
                self._closed = True
                if drain_timeout_s is not None:
                    self._drain_deadline = time.perf_counter() + drain_timeout_s
                # The sentinel is enqueued under the lock, so it is
                # guaranteed to be the last item — every accepted request
                # gets served (or shed at the drain deadline).
                self._queue.put(None)
        # A supervised restart can swap self._dispatcher while we wait, so
        # re-join whichever thread is current until it stays put or the
        # timeout budget runs out.
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            dispatcher = self._dispatcher
            remaining = (
                None if deadline is None else max(0.0, deadline - time.perf_counter())
            )
            dispatcher.join(timeout=remaining)
            if dispatcher.is_alive() or dispatcher is self._dispatcher:
                break
        return not self._dispatcher.is_alive()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
