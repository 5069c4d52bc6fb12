"""Dispatcher-driven online tagging: concurrent client pushes, batched ticks.

:class:`StreamingService` is the streaming analogue of
:class:`~repro.serving.service.TaggingService`: where
:class:`~repro.serving.streaming.StreamPool` requires one caller to drive
``push_tick`` with everything that advances together, the service runs on
the scheduling core (:class:`~repro.serving.scheduler.MicroBatchScheduler`)
— any number of client threads push observations into their own streams,
a single dispatcher thread collects the queued pushes and advances them as
batched :class:`~repro.hmm.backends.BatchedStreamingSession` ticks (one
vectorized emission-scoring call plus one ``(M, K, K)`` propagation per
tick), and every stream's output stays bit-identical to a dedicated
:class:`~repro.serving.streaming.StreamingDecoder`.

Ordering
--------
A stream's pushes must reach the session in submission order, so streaming
requests are deadline-free and keyed to a single scheduling class: under
every :class:`~repro.serving.scheduler.SchedulingPolicy` they drain in
exact arrival order.  Within one drained micro-batch the dispatcher packs
consecutive pushes of *distinct* streams into one wave and cuts a new wave
whenever a stream re-appears (or an open/finish control request
interleaves), preserving per-stream order while still coalescing
concurrent clients.

Wave submission
---------------
:meth:`ServiceStream.submit_push_many` submits a whole run of tokens as
**one** queue entry (where :meth:`ServiceStream.submit_push` costs one
entry per token): the dispatcher advances all wave fronts in lock step —
token ``t`` of every participating stream forms one vectorized tick — so a
wave of W streams x T tokens costs W queue round-trips and T batched ticks
instead of W*T of each.  This is what makes the streaming service faster
than per-client decoders at realistic concurrency (see
``benchmarks/test_bench_serving.py``).

Failure isolation mirrors the tagging service: a malformed observation
poisoning a shared tick is retried per stream, so only the offending push
fails (its stream stops advancing at the bad token; tokens already applied
stay recorded) and every other stream's step resolves normally.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Any

import numpy as np

from repro.core.config import ServingConfig
from repro.exceptions import ValidationError
from repro.hmm.backends import StreamStep
from repro.serving import faults
from repro.serving.persistence import resolve_hmm
from repro.serving.scheduler import MicroBatchScheduler, Request
from repro.serving.streaming import (
    _UNSET,
    StreamResult,
    _score_observations,
    _StreamState,
)

_OPEN = "open"
_PUSH = "push"
_PUSH_MANY = "push_many"
_FINISH = "finish"

#: placeholder payload array for control (open/finish) requests.
_CONTROL_SEQUENCE = np.zeros(1, dtype=np.int64)


class ServiceStream:
    """Client handle for one stream served by a :class:`StreamingService`.

    Mirrors the :class:`~repro.serving.streaming.StreamingDecoder` surface
    (``push``/``finish``, ``n_tokens``, ``finalized_labels``) with async
    variants (``submit_push``/``submit_finish``) returning futures.  A
    handle belongs to the client that opened it: drive each stream from one
    thread (or otherwise serialize its pushes) so observations reach the
    session in a well-defined order.
    """

    def __init__(self, service: "StreamingService", keep_history: bool) -> None:
        self._service = service
        self._state = _StreamState(keep_history=keep_history)
        #: session slot; assigned by the dispatcher when the open executes.
        self._slot: int | None = None
        self._finished = False
        self._n_pushed = 0

    @property
    def n_tokens(self) -> int:
        """Number of observations consumed so far (completed pushes)."""
        return self._n_pushed

    @property
    def finalized_labels(self) -> list[int]:
        """Labels finalized so far, in token order (prefix of the path)."""
        labels = self._state.labels
        return [labels[t] for t in range(len(labels))]

    def submit_push(self, observation: Any, trace_id: str | None = None) -> Future:
        """Enqueue one observation; resolves to its :class:`StreamStep`."""
        if self._finished:
            raise ValidationError("cannot push to a finished stream")
        return self._service._enqueue(
            _PUSH, np.asarray(observation), payload=self, trace_id=trace_id
        )

    def push(self, observation: Any) -> StreamStep:
        """Synchronous push: submit one observation and wait for its step."""
        return self.submit_push(observation).result()

    def submit_push_many(
        self, observations: Any, trace_id: str | None = None
    ) -> Future:
        """Enqueue a wave of observations as **one** queue entry.

        The future resolves to the ``list[StreamStep]`` of every token, in
        order.  The wave's tokens are applied strictly in order on the
        dispatcher; if one token fails, the stream stops at it (earlier
        tokens stay applied and recorded in the handle's history) and the
        whole future resolves with that token's exception.

        The first axis of ``observations`` indexes tokens: a 1-D int array
        for categorical emissions, an ``(T, n_features)`` array for
        Bernoulli features.
        """
        if self._finished:
            raise ValidationError("cannot push to a finished stream")
        wave = np.asarray(observations)
        if wave.ndim < 1 or wave.shape[0] < 1:
            raise ValidationError(
                "push_many needs at least one observation along the first "
                f"axis, got shape {wave.shape}"
            )
        return self._service._enqueue(
            _PUSH_MANY, wave, payload=self, trace_id=trace_id
        )

    def push_many(self, observations: Any) -> list[StreamStep]:
        """Submit a wave of observations as one entry; wait for all steps.

        One queue round-trip for the whole wave — the high-throughput
        client pattern (compare :meth:`submit_push` per token, which pays
        queue admission per observation).
        """
        return self.submit_push_many(observations).result()

    def submit_finish(self, trace_id: str | None = None) -> Future:
        """Enqueue the finish; resolves to the stream's :class:`StreamResult`.

        The stream refuses further pushes immediately.
        """
        if self._finished:
            raise ValidationError("stream already finished")
        self._finished = True
        return self._service._enqueue(
            _FINISH, _CONTROL_SEQUENCE, payload=self, trace_id=trace_id
        )

    def finish(self) -> StreamResult:
        """Flush the remaining window and assemble the final result."""
        return self.submit_finish().result()


class StreamingService(MicroBatchScheduler):
    """Micro-batching front end over one model's batched streaming session.

    Parameters
    ----------
    model:
        An :class:`~repro.hmm.model.HMM` or a fitted estimator wrapper.
    lag:
        Default fixed lag for streams opened without an explicit one; falls
        back to ``ServingConfig.streaming_lag`` when omitted.
    keep_history:
        Default history retention for opened streams (see
        :class:`~repro.serving.streaming.StreamingDecoder`).
    config:
        Batching and backpressure knobs; defaults to the process-wide
        :func:`~repro.core.config.get_serving_config`.

    Use as a context manager (or call :meth:`close`); queued pushes are
    still served during shutdown.  Streams left unfinished at close simply
    never produce a :class:`StreamResult`.
    """

    _thread_name = "repro-streaming-service"

    def __init__(
        self,
        model: Any,
        lag: int | None | object = _UNSET,
        keep_history: bool = True,
        config: ServingConfig | None = None,
    ) -> None:
        super().__init__(config)
        hmm = resolve_hmm(model)
        if lag is _UNSET:
            lag = self.config.streaming_lag
        self._emissions = hmm.emissions
        self._session = hmm.stream_batch()
        self._default_lag = lag
        self._default_keep_history = keep_history
        self._start()

    # -------------------------------------------------------------- #
    # Client API
    # -------------------------------------------------------------- #
    def open(
        self,
        lag: int | None | object = _UNSET,
        keep_history: bool | None = None,
        timeout: float | None = 30.0,
    ) -> ServiceStream:
        """Open one more client stream; blocks until the dispatcher admits it.

        Slots of finished streams are reused by the underlying session.
        """
        if lag is _UNSET:
            lag = self._default_lag
        if keep_history is None:
            keep_history = self._default_keep_history
        handle = ServiceStream(self, keep_history=keep_history)
        future = self._enqueue(_OPEN, _CONTROL_SEQUENCE, payload=(handle, lag))
        return future.result(timeout=timeout)

    @property
    def n_streams(self) -> int:
        """Number of currently open (unfinished) streams."""
        return self._session.n_streams

    # -------------------------------------------------------------- #
    # Dispatcher side
    # -------------------------------------------------------------- #
    def _check_sequence(self, kind: str, sequence: np.ndarray) -> None:
        # Streaming payloads are single observations: a 0-d int symbol
        # (categorical) or a feature vector (Bernoulli) — the batch
        # services' "at least one timestep" shape check does not apply.
        pass

    def _execute(self, batch: list[Request]) -> None:  # repro: confined[dispatcher]
        # Pack consecutive pushes/waves of distinct streams into one wave
        # group; cut the group when a stream re-appears or a control request
        # interleaves, so per-stream request order is preserved exactly.
        wave: list[Request] = []
        wave_slots: set[int] = set()

        def flush() -> None:
            nonlocal wave, wave_slots
            if wave:
                self._run_wave(wave)
                wave, wave_slots = [], set()

        for request in batch:
            if request.kind in (_PUSH, _PUSH_MANY):
                slot = request.payload._slot
                if slot in wave_slots:
                    flush()
                wave.append(request)
                wave_slots.add(slot)
            else:
                flush()
                self._run_control(request)
        flush()

    def _run_control(self, request: Request) -> None:  # repro: confined[dispatcher]
        future = request.future
        if not future.set_running_or_notify_cancel():
            return
        try:
            if request.kind == _OPEN:
                handle, lag = request.payload
                handle._slot = self._session.add_stream(lag=lag)
                future.set_result(handle)
            else:  # _FINISH
                handle = request.payload
                remaining = self._session.finish(handle._slot)
                future.set_result(handle._state.assemble(remaining))
        except Exception as exc:
            future.set_exception(exc)
        self.stats.record_completed([request], policy=self.scheduling_policy)

    @staticmethod
    def _wave_tokens(request: Request) -> list[np.ndarray]:
        """The token sequence a request contributes to its wave front."""
        if request.kind == _PUSH:
            return [request.sequence]
        return [np.asarray(token) for token in request.sequence]

    def _run_wave(self, wave: list[Request]) -> None:  # repro: confined[dispatcher]
        """Advance a wave of distinct streams in lock-step batched ticks.

        Token ``t`` of every still-active front forms one tick: one
        vectorized emission-scoring call plus one batched session step.
        Single pushes are just fronts of depth one, so mixed traffic
        (pushes interleaved with waves) still coalesces.  On a poisoned
        tick the fallback advances each front on its own; a front whose
        token fails stops there (its earlier tokens stay applied) and its
        request resolves with the exception.
        """
        fronts = [self._wave_tokens(request) for request in wave]
        slots = [request.payload._slot for request in wave]
        steps: list[list[StreamStep]] = [[] for _ in wave]
        failures: dict[int, Exception] = {}
        depth = max(len(front) for front in fronts)
        for t in range(depth):
            active = [
                i
                for i in range(len(wave))
                if t < len(fronts[i]) and i not in failures
            ]
            if not active:
                break
            started = time.perf_counter()
            try:
                # Inside the isolation block on purpose: an injected tick
                # fault behaves like a poisoned shared call — the per-stream
                # fallback must absorb it with every stream's output
                # unchanged.
                faults.fire(faults.STREAM_TICK)
                rows = _score_observations(
                    self._emissions, [fronts[i][t] for i in active]
                )
                tick_steps = self._session.step_many(
                    rows, [slots[i] for i in active]
                )
                for i, step in zip(active, tick_steps):
                    steps[i].append(step)
            except Exception:
                # One malformed observation poisons the shared scoring call
                # (or ragged observations break the stack): advance each
                # stream on its own so only the offending fronts fail.
                # Control-flow exceptions are deliberately not caught — they
                # must stop the dispatcher, not be swallowed into a client
                # future.
                for i in active:
                    try:
                        row = self._emissions.log_likelihoods(
                            fronts[i][t][None, ...]
                        )
                        steps[i].append(self._session.step_many(row, [slots[i]])[0])
                    except Exception as exc:
                        # the front stops here; tokens already applied stay
                        failures[i] = exc
            self.stats.record_batch(
                n_requests=len(active),
                n_tokens=len(active),
                seconds=time.perf_counter() - started,
            )
        self.stats.record_completed(wave, policy=self.scheduling_policy)
        for i, request in enumerate(wave):
            handle = request.payload
            future = request.future
            for step in steps[i]:
                handle._state.record(step)
                handle._n_pushed += 1
            if not future.set_running_or_notify_cancel():
                continue
            error = failures.get(i)
            if error is not None:
                future.set_exception(error)
            elif request.kind == _PUSH:
                future.set_result(steps[i][0])
            else:
                future.set_result(steps[i])
