"""Online (token-at-a-time) tagging on top of the streaming engine session.

Every online stream runs on one kernel,
:class:`~repro.hmm.backends.BatchedStreamingSession`.  :class:`StreamPool`
multiplexes many client streams onto one session, so a tick over M
concurrent streams costs one vectorized emission-scoring call plus one
batched ``(M, K, K)`` propagation instead of M separate steps.
:class:`StreamingDecoder` is the single-stream face: a
:class:`PooledStream` over a private one-slot pool that scores each
arriving raw observation under the model's emission family and surfaces
per-token filtering posteriors and fixed-lag Viterbi labels.  This is the
scenario the batch engine cannot serve — tagging a sequence *while it is
still arriving* — at an ``O(K^2)`` cost per token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence, cast

import numpy as np

from repro.core.config import get_serving_config
from repro.exceptions import ValidationError
from repro.hmm.backends import StreamStep
from repro.serving.persistence import resolve_hmm
from repro.utils.validation import group_by_dtype_kind

#: "Use the ServingConfig default" marker for ``lag`` parameters, distinct
#: from ``None`` (which means *infinite* lag: defer all labels to finish).
_UNSET = object()


def _score_observations(emissions: Any, observations: Sequence[np.ndarray]) -> np.ndarray:
    """Emission log-likelihood rows of single observations, one per input.

    A stack of single timesteps is just a sequence to the emission family,
    so one scoring call covers every observation of one dtype kind.
    Stacking kinds together would cast them to one dtype (a bool to an
    int) before the family's dtype check judged each observation, so a
    mixed tick makes one call per kind.
    """
    groups = group_by_dtype_kind(observations)
    if len(groups) == 1:
        return emissions.log_likelihoods(np.stack(observations))
    parts = [
        (idx, emissions.log_likelihoods(np.stack([observations[i] for i in idx])))
        for idx in groups
    ]
    rows = np.empty((len(observations),) + parts[0][1].shape[1:])
    for idx, part in parts:
        rows[idx] = part
    return rows


@dataclass
class StreamResult:
    """Everything a finished stream produced.

    Attributes
    ----------
    path:
        The complete label sequence (fixed-lag labels for the prefix, exact
        Viterbi labels for the final window).  With ``keep_history=False``
        only the final window's labels (not yet emitted via ``push``).
    filtering:
        ``(T, K)`` per-token filtering posteriors ``p(x_t | y_1..t)``,
        row-aligned with ``path``.  With ``keep_history=False`` nothing is
        retained and this is an empty ``(0, K)`` array — consume the
        posteriors from each ``push(...)`` return value instead.
    log_likelihood:
        Final log marginal likelihood ``log P(y_1..T)``.
    """

    path: np.ndarray
    filtering: np.ndarray
    log_likelihood: float


@dataclass
class _StreamState:
    """Per-stream history shared by pool and service streams."""

    keep_history: bool = True
    steps: list[StreamStep] = field(default_factory=list)
    labels: dict[int, int] = field(default_factory=dict)
    last_step: StreamStep | None = None

    def record_pairs(self, pairs: Iterable[tuple[int, int]]) -> None:
        for position, state in pairs:
            self.labels[position] = state

    def record(self, step: StreamStep) -> None:
        self.last_step = step
        if self.keep_history:
            self.steps.append(step)
            self.record_pairs(step.finalized)

    def assemble(self, remaining: list[tuple[int, int]]) -> StreamResult:
        """Build the :class:`StreamResult` from the session's final flush."""
        if self.last_step is None:
            raise ValidationError("cannot finish a stream with no observations")
        if not self.keep_history:
            n_states = self.last_step.filtering.shape[0]
            return StreamResult(
                path=np.array([state for _, state in remaining], dtype=np.int64),
                filtering=np.empty((0, n_states)),
                log_likelihood=self.last_step.log_likelihood,
            )
        self.record_pairs(remaining)
        path = np.array(
            [self.labels[t] for t in range(len(self.steps))], dtype=np.int64
        )
        return StreamResult(
            path=path,
            filtering=np.stack([s.filtering for s in self.steps]),
            log_likelihood=self.steps[-1].log_likelihood,
        )


class PooledStream:
    """Client handle for one stream multiplexed through a :class:`StreamPool`.

    The underlying recursions run batched with the pool's other streams.
    ``lag`` is the stream's fixed Viterbi lag (``None``: infinite).
    """

    def __init__(
        self, pool: "StreamPool", lag: int | None, keep_history: bool
    ) -> None:
        self._pool = pool
        self._slot = pool._session.add_stream(lag=lag)
        self.lag = lag
        self._state = _StreamState(keep_history=keep_history)
        self._finished = False
        self._n_pushed = 0

    @property
    def n_tokens(self) -> int:
        """Number of observations consumed so far."""
        return self._n_pushed

    @property
    def finalized_labels(self) -> list[int]:
        """Labels finalized so far, in token order (prefix of the path)."""
        labels = self._state.labels
        return [labels[t] for t in range(len(labels))]

    def push(self, observation: Any) -> StreamStep:
        """Consume one observation; returns the per-token stream step.

        The observation is a single timestep in the emission family's
        format: an int symbol (categorical), a float (Gaussian) or a binary
        feature vector (Bernoulli).  It advances as a one-stream tick.
        """
        return self._pool.push_tick([(self, observation)])[0]

    def push_wave(self, observations: Sequence[Any]) -> list[StreamStep]:
        """Consume a wave of observations for *this* stream in one submission.

        Emission scoring for the whole wave happens in a single vectorized
        call (a stack of timesteps is just a sequence to the emission
        family); the per-token propagations then run in arrival order, so
        the returned steps are bit-identical to ``[self.push(o) for o in
        observations]`` at one scoring call instead of ``len(observations)``.
        """
        if self._finished:
            raise ValidationError("cannot push to a finished stream")
        wave = [np.asarray(obs) for obs in observations]
        if not wave:
            raise ValidationError("push_wave requires at least one observation")
        log_rows = _score_observations(self._pool._emissions, wave)
        steps = []
        for row in log_rows:
            step = self._pool._session.step_many(row[None, ...], [self._slot])[0]
            self._state.record(step)
            self._n_pushed += 1
            steps.append(step)
        return steps

    def decode_tail(self) -> np.ndarray:
        """Current best labels of the not-yet-finalized tail, without closing.

        The streaming analogue of the chunked decoder's window flush
        (:func:`repro.hmm.longseq.chunked_viterbi` emits each window's tail
        once the next window's overlap confirms it): the labels
        :meth:`finish` would emit *right now*, backtracked from the current
        best state, with the stream left open.  ``finalized_labels`` +
        ``decode_tail()`` is the full best path so far; the tail labels are
        provisional and may be revised by further :meth:`push` calls.  A
        finished stream has no tail.
        """
        if self._finished:
            return np.array([], dtype=np.int64)
        pairs = self._pool._session.peek_tail(self._slot)
        return np.array([state for _, state in pairs], dtype=np.int64)

    def finish(self) -> StreamResult:
        """Flush the remaining window, free the pool slot, assemble the result.

        With ``keep_history=True`` the result covers the whole stream; with
        ``keep_history=False`` it covers only the final window (everything
        earlier was already handed out via ``push(...).finalized``).  A
        stream finishes once: a second call raises.  A stream with no
        observations frees its slot and is finished before the
        :class:`~repro.exceptions.ValidationError` is raised, as in
        :class:`~repro.serving.StreamingService`.
        """
        if self._finished:
            raise ValidationError("stream already finished")
        remaining = self._pool._finish_slot(self._slot)
        self._finished = True
        return self._state.assemble(remaining)


class StreamPool:
    """Multiplexes many online client streams onto one batched session.

    Parameters
    ----------
    model:
        An :class:`~repro.hmm.model.HMM` or a fitted estimator wrapper.
    lag:
        Default fixed lag for streams opened without an explicit one;
        falls back to ``ServingConfig.streaming_lag`` when omitted.
    keep_history:
        Default history retention for opened streams (see
        :class:`StreamingDecoder`).

    Usage
    -----
    ``open()`` hands out :class:`PooledStream` handles;
    :meth:`push_tick` advances any subset of them together as *one*
    batched tick — one emission-scoring call over the stacked observations
    and one ``(M, K, K)`` propagation — which is where the fanout speedup
    over per-stream :class:`StreamingDecoder` stepping comes from
    (``benchmarks/test_bench_serving.py`` gates it).  ``handle.push`` is
    the single-stream convenience for stragglers.
    """

    def __init__(
        self,
        model: Any,
        lag: int | None | object = _UNSET,
        keep_history: bool = True,
    ) -> None:
        hmm = resolve_hmm(model)
        if lag is _UNSET:
            lag = get_serving_config().streaming_lag
        self._emissions = hmm.emissions
        self._default_lag = cast("int | None", lag)
        self._default_keep_history = keep_history
        self._session = hmm.stream_batch()

    @property
    def n_streams(self) -> int:
        """Number of currently open (unfinished) streams."""
        return self._session.n_streams

    def open(
        self,
        lag: int | None | object = _UNSET,
        keep_history: bool | None = None,
    ) -> PooledStream:
        """Open one more client stream; slots of finished streams are reused."""
        if lag is _UNSET:
            lag = self._default_lag
        if keep_history is None:
            keep_history = self._default_keep_history
        return PooledStream(self, cast("int | None", lag), keep_history)

    def push_tick(
        self, items: Sequence[tuple[PooledStream, Any]]
    ) -> list[StreamStep]:
        """Advance several streams by one observation each, batched.

        ``items`` pairs each advancing stream handle with its newly arrived
        observation; returns the per-stream :class:`StreamStep` results in
        the same order.
        """
        if not items:
            return []
        for stream, _ in items:
            if stream._pool is not self:
                raise ValidationError("stream belongs to a different pool")
            if stream._finished:
                raise ValidationError("cannot push to a finished stream")
        # One emission call scores all M observations at once (one per
        # dtype kind); per-row scoring is identical to scoring one by one.
        log_rows = _score_observations(
            self._emissions, [np.asarray(obs) for _, obs in items]
        )
        steps = self._session.step_many(log_rows, [s._slot for s, _ in items])
        for (stream, _), step in zip(items, steps):
            stream._state.record(step)
            stream._n_pushed += 1
        return steps

    def _finish_slot(self, slot: int) -> list[tuple[int, int]]:  # repro: confined[caller]
        return self._session.finish(slot)


class StreamingDecoder(PooledStream):
    """Incremental tagger over one online observation sequence.

    A :class:`PooledStream` over a private one-slot :class:`StreamPool`:
    every push is a one-stream tick of the shared streaming kernel.

    Parameters
    ----------
    model:
        An :class:`~repro.hmm.model.HMM` or a fitted estimator wrapper
        (``DiversifiedHMM``, ``SupervisedDiversifiedHMM``, the supervised
        classifiers).
    lag:
        Fixed lag of the sliding Viterbi window: the label of token ``t``
        is finalized once token ``t + lag`` has arrived (larger lag = more
        context = closer to full-sequence Viterbi; ``lag >= T`` reproduces
        it exactly).  Defaults to the process-wide
        :class:`~repro.core.config.ServingConfig` value; pass ``None``
        explicitly to defer all labels to :meth:`finish`.
    keep_history:
        When True (default), every step and finalized label is retained so
        :meth:`finish` can assemble the complete :class:`StreamResult`.
        For unbounded streams (the memory would grow ``O(T * K)``) pass
        False: :meth:`push` still returns each step and its finalized
        labels to the caller, only the fixed-lag window is kept, and
        :meth:`finish` reports just the final window's labels.

    Examples
    --------
    >>> decoder = StreamingDecoder(model, lag=8)        # doctest: +SKIP
    >>> for token in incoming_tokens:                   # doctest: +SKIP
    ...     step = decoder.push(token)
    ...     print(step.filtering, step.finalized)
    >>> result = decoder.finish()                       # doctest: +SKIP
    """

    def __init__(
        self,
        model: Any,
        lag: int | None | object = _UNSET,
        keep_history: bool = True,
    ) -> None:
        pool = StreamPool(model, lag=lag)
        super().__init__(pool, pool._default_lag, keep_history)

    def push_many(self, observations: Iterable[Any]) -> list[StreamStep]:
        """Consume several observations; returns one step per token."""
        return [self.push(obs) for obs in observations]


def stream_decode(
    model: Any, sequence: np.ndarray, lag: int | None | object = _UNSET
) -> StreamResult:
    """One-shot helper: stream a whole sequence through a fresh decoder.

    Mostly useful for testing fixed-lag behaviour against batch decoding;
    online callers should drive :class:`StreamingDecoder` directly.  With
    ``lag`` omitted the decoder follows ``ServingConfig.streaming_lag``
    (the sentinel is forwarded as-is, so the default here and on
    :class:`StreamingDecoder` cannot drift apart); pass ``lag=None``
    explicitly for infinite lag.
    """
    decoder = StreamingDecoder(model, lag=lag)
    decoder.push_many(sequence)
    return decoder.finish()
