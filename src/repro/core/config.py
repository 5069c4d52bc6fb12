"""Configuration objects for the diversified HMM models and inference engine."""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Mapping

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class InferenceConfig:
    """Process-wide defaults for the HMM inference engine.

    Attributes
    ----------
    backend:
        Which numerical backend newly built engines use: ``"scaled"`` (the
        batched Rabiner-scaled probability-domain engine, the default) or
        ``"log"`` (the per-sequence log-domain reference recursions).  The
        scaled backend packs every corpus time-major, so it has no batch
        size to tune.
    decode_window:
        Window length ``W`` of the chunked long-sequence decode mode: a
        sequence longer than ``long_threshold`` is split into windows of
        this many tokens (overlapping by ``decode_overlap``), decoded as
        one batched bucket, and stitched back together.  Together with
        ``decode_overlap`` this bounds the peak working memory of decoding
        independent of the sequence length.
    decode_overlap:
        Overlap ``V`` between adjacent decode windows.  Stitching picks an
        agreement point inside the overlap; once the overlap exceeds the
        model's mixing lag the stitched path matches full-sequence Viterbi
        exactly (the same fixed-lag stabilization property the streaming
        sessions rely on).  Must satisfy ``2 * decode_overlap <=
        decode_window`` so adjacent windows keep disjoint "own" regions.
    long_threshold:
        Sequence length above which inference automatically routes through
        the chunked long-sequence engine instead of the packed corpus
        recursion.  Must be at least ``decode_window``.
    """

    backend: str = "scaled"
    decode_window: int = 4096
    decode_overlap: int = 256
    long_threshold: int = 32768

    def __post_init__(self) -> None:
        # Imported lazily: the backend registry lives in the hmm layer, and
        # importing it at module scope would couple core.config's import to
        # the whole hmm package.
        from repro.hmm.backends import available_backends

        if self.backend not in available_backends():
            raise ValidationError(
                f"backend must be one of {available_backends()}, got {self.backend!r}"
            )
        if self.decode_overlap < 1:
            raise ValidationError(
                f"decode_overlap must be at least 1, got {self.decode_overlap}"
            )
        if self.decode_window < 2 * self.decode_overlap:
            raise ValidationError(
                f"decode_window must be at least 2 * decode_overlap "
                f"({2 * self.decode_overlap}), got {self.decode_window}"
            )
        if self.long_threshold < self.decode_window:
            raise ValidationError(
                f"long_threshold must be at least decode_window "
                f"({self.decode_window}), got {self.long_threshold}"
            )


# Created on first use so that importing this module does not pull in the
# hmm package (InferenceConfig validation consults its backend registry).
_inference_config: InferenceConfig | None = None


def get_inference_config() -> InferenceConfig:
    """The current process-wide inference configuration."""
    global _inference_config
    if _inference_config is None:
        _inference_config = InferenceConfig()
    return _inference_config


def set_inference_config(config: InferenceConfig) -> InferenceConfig:
    """Replace the process-wide inference configuration.

    Returns the previous configuration so callers can restore it.
    """
    global _inference_config
    if not isinstance(config, InferenceConfig):
        raise ValidationError(
            f"config must be an InferenceConfig, got {type(config).__name__}"
        )
    previous = get_inference_config()
    _inference_config = config
    return previous


@contextmanager
def inference_backend(backend: str) -> Iterator[InferenceConfig]:
    """Temporarily switch the default inference backend.

    >>> from repro.core.config import inference_backend
    >>> with inference_backend("log"):
    ...     pass  # models built/used here run the log-domain reference
    """
    previous = set_inference_config(replace(get_inference_config(), backend=backend))
    try:
        yield get_inference_config()
    finally:
        set_inference_config(previous)


#: Scheduling policies the serving scheduler understands (the canonical
#: list lives here so config validation does not import the serving layer;
#: :mod:`repro.serving.scheduler` asserts its registry matches).
SCHEDULING_POLICIES = ("fifo", "weighted_fair", "edf")


@dataclass(frozen=True)
class ServingConfig:
    """Process-wide defaults for the serving subsystem (:mod:`repro.serving`).

    The scheduler batches continuously: it dispatches as soon as its
    engine is free, and a batch is whatever queued up while the previous
    one computed.  There is no batching timer to tune; the batch size
    follows the load.

    Attributes
    ----------
    max_batch_size:
        Largest number of queued requests the :class:`~repro.serving.TaggingService`
        coalesces into one engine call.  The engine packs each micro-batch
        time-major, so a batch of any size costs one recursion step per
        position of its longest request.
    queue_capacity:
        Largest number of requests the service queue holds before further
        submissions fast-fail with
        :class:`~repro.exceptions.QueueFullError` (backpressure).  ``None``
        disables the bound (the pre-backpressure behaviour).
    max_loaded_models:
        How many registry models the routed service keeps resident at
        once; the least recently used entry is evicted beyond this.
    streaming_lag:
        Default fixed lag (in tokens) of the sliding-window Viterbi used by
        :class:`~repro.serving.StreamingDecoder`; ``None`` defers all labels
        to the end of the stream (exact full-sequence Viterbi).
    scheduling_policy:
        How the scheduler orders pending requests into micro-batches:
        ``"fifo"`` (arrival order, the default), ``"weighted_fair"``
        (deficit round-robin across models, weighted by ``model_weights``)
        or ``"edf"`` (earliest deadline first; deadline-free requests sort
        last, ties break by arrival).
    model_weights:
        Per-model-name weights for the ``weighted_fair`` policy; missing
        names default to 1.0.  Ignored by the other policies.
    request_timeout_s:
        How long transport front ends (the HTTP server, client helpers)
        wait on a scheduler future before answering 503 with a
        ``Retry-After`` hint.  The HTTP server and the cluster balancer
        also bound by it the reading of one request (line, headers and
        body) and the idle wait between keep-alive requests: a client
        that stalls mid-request gets 408, an idle one is closed.
        ``None`` waits forever.
    max_dispatcher_restarts:
        How many times the scheduler's supervisor restarts a dispatcher
        thread that died on an unexpected exception before declaring the
        service ``failed`` (counted over the service lifetime; control-flow
        exceptions such as ``KeyboardInterrupt`` are never restarted).
    restart_backoff_ms / restart_backoff_max_ms:
        Initial and maximum delay of the capped exponential backoff between
        supervised dispatcher restarts.
    breaker_threshold:
        Consecutive model load/execute failures that open a per-model
        circuit breaker in the router (requests then fast-fail with
        :class:`~repro.exceptions.ModelUnavailableError` instead of re-paying
        the doomed load).
    breaker_cooldown_s:
        How long an open breaker fast-fails before letting one half-open
        probe batch through; a successful probe closes it again.
    drain_timeout_s:
        Graceful-drain budget of ``close(drain=...)`` shutdowns: already
        accepted work is still served for this long, the remainder is shed
        with :class:`~repro.exceptions.ServiceShuttingDownError`.  ``None``
        (the default) flushes everything, however long it takes.
    mmap_artifacts:
        When true, registry loads map schema-v3 artifact arrays read-only
        (``numpy.load(..., mmap_mode="r")``) instead of copying them onto
        the private heap, so N worker processes serving the same model
        share one set of page-cache pages.  Artifacts written before
        schema v3 fall back to a regular private-copy load.
    """

    max_batch_size: int = 64
    queue_capacity: int | None = 1024
    max_loaded_models: int = 4
    streaming_lag: int | None = 32
    scheduling_policy: str = "fifo"
    model_weights: Mapping[str, float] | None = None
    request_timeout_s: float | None = 30.0
    max_dispatcher_restarts: int = 3
    restart_backoff_ms: float = 20.0
    restart_backoff_max_ms: float = 2000.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 5.0
    drain_timeout_s: float | None = None
    mmap_artifacts: bool = False

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValidationError(
                f"max_batch_size must be at least 1, got {self.max_batch_size}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValidationError(
                f"queue_capacity must be at least 1 or None, got {self.queue_capacity}"
            )
        if self.max_loaded_models < 1:
            raise ValidationError(
                f"max_loaded_models must be at least 1, got {self.max_loaded_models}"
            )
        if self.streaming_lag is not None and self.streaming_lag < 1:
            raise ValidationError(
                f"streaming_lag must be at least 1 or None, got {self.streaming_lag}"
            )
        if self.scheduling_policy not in SCHEDULING_POLICIES:
            raise ValidationError(
                f"scheduling_policy must be one of {SCHEDULING_POLICIES}, "
                f"got {self.scheduling_policy!r}"
            )
        if self.model_weights is not None:
            for name, weight in self.model_weights.items():
                if not isinstance(name, str):
                    raise ValidationError(
                        f"model_weights keys must be model names, got {name!r}"
                    )
                if not weight > 0:
                    raise ValidationError(
                        f"model weight for {name!r} must be positive, got {weight}"
                    )
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValidationError(
                f"request_timeout_s must be positive or None, got {self.request_timeout_s}"
            )
        if self.max_dispatcher_restarts < 0:
            raise ValidationError(
                "max_dispatcher_restarts must be non-negative, got "
                f"{self.max_dispatcher_restarts}"
            )
        if self.restart_backoff_ms < 0 or self.restart_backoff_max_ms < 0:
            raise ValidationError("restart backoff delays must be non-negative")
        if self.breaker_threshold < 1:
            raise ValidationError(
                f"breaker_threshold must be at least 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s < 0:
            raise ValidationError(
                f"breaker_cooldown_s must be non-negative, got {self.breaker_cooldown_s}"
            )
        if self.drain_timeout_s is not None and self.drain_timeout_s < 0:
            raise ValidationError(
                f"drain_timeout_s must be non-negative or None, got {self.drain_timeout_s}"
            )
        if not isinstance(self.mmap_artifacts, bool):
            raise ValidationError(
                f"mmap_artifacts must be a bool, got {self.mmap_artifacts!r}"
            )


_serving_config = ServingConfig()


def get_serving_config() -> ServingConfig:
    """The current process-wide serving configuration."""
    return _serving_config


def set_serving_config(config: ServingConfig) -> ServingConfig:
    """Replace the process-wide serving configuration; returns the previous one."""
    global _serving_config
    if not isinstance(config, ServingConfig):
        raise ValidationError(
            f"config must be a ServingConfig, got {type(config).__name__}"
        )
    previous = _serving_config
    _serving_config = config
    return previous


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry budget: exponential backoff, jitter, deadlines.

    Used by ``repro-serve route --retries`` to retry *transient*
    serving failures — queue-full backpressure
    (:class:`~repro.exceptions.QueueFullError`) and open circuit breakers
    (:class:`~repro.exceptions.ModelUnavailableError` / a 503 with
    ``Retry-After``).  Permanent failures are **never** retried:
    :meth:`call` re-raises :class:`~repro.exceptions.ValidationError` and
    :class:`~repro.exceptions.DeadlineExceededError` immediately even if a
    caller lists them as retryable — a malformed request does not become
    well-formed by waiting, and a missed deadline is already final.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first (1 = no retries).
    initial_backoff_ms / backoff_multiplier / max_backoff_ms:
        Exponential backoff schedule: attempt ``k`` (0-based retry index)
        waits ``initial * multiplier**k`` ms, capped at ``max_backoff_ms``.
    jitter:
        Fraction of each backoff randomized uniformly in ``±jitter`` (from
        the seeded RNG passed to :meth:`call`, so tests replay exactly).
    deadline_s:
        Overall wall-clock budget across all attempts; ``None`` = attempts
        bound only.  No retry is started past the deadline.
    """

    max_attempts: int = 4
    initial_backoff_ms: float = 25.0
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 2000.0
    jitter: float = 0.1
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.initial_backoff_ms < 0 or self.max_backoff_ms < 0:
            raise ValidationError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1:
            raise ValidationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0 <= self.jitter <= 1:
            raise ValidationError(f"jitter must lie in [0, 1], got {self.jitter}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValidationError(
                f"deadline_s must be positive or None, got {self.deadline_s}"
            )

    def backoff_s(
        self, retry_index: int, rng: random.Random | None = None
    ) -> float:
        """Backoff before the ``retry_index``-th retry (0-based), in seconds."""
        backoff_ms = min(
            self.initial_backoff_ms * self.backoff_multiplier**retry_index,
            self.max_backoff_ms,
        )
        if rng is not None and self.jitter > 0:
            backoff_ms *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return backoff_ms / 1000.0

    def call(
        self,
        fn: Callable[[], Any],
        *,
        retryable: tuple[type[BaseException], ...] | None = None,
        sleep: Callable[[float], object] | None = None,
        rng: random.Random | None = None,
        min_backoff_s: Callable[[BaseException], float | None] | None = None,
    ) -> Any:
        """Run ``fn()`` under this retry budget; returns its result.

        Parameters
        ----------
        retryable:
            Exception types worth retrying; defaults to
            (:class:`~repro.exceptions.QueueFullError`,
            :class:`~repro.exceptions.ModelUnavailableError`).
        sleep / rng:
            Injectable for tests (``sleep`` defaults to :func:`time.sleep`;
            ``rng`` is an optional seeded :class:`random.Random` for
            jitter — no rng means no jitter).
        min_backoff_s:
            Callback mapping the caught exception to a server-suggested
            minimum wait (e.g. a ``Retry-After`` header); the actual wait
            is the max of it and the schedule's backoff.
        """
        import time as _time

        from repro.exceptions import (
            DeadlineExceededError as _Deadline,
            ModelUnavailableError as _Unavailable,
            QueueFullError as _QueueFull,
            ValidationError as _Invalid,
        )

        if retryable is None:
            retryable = (_QueueFull, _Unavailable)
        if sleep is None:
            sleep = _time.sleep
        deadline = (
            None if self.deadline_s is None else _time.perf_counter() + self.deadline_s
        )
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except (_Invalid, _Deadline):
                raise  # permanent: retrying cannot help
            except retryable as exc:
                if attempt + 1 >= self.max_attempts:
                    raise
                backoff = self.backoff_s(attempt, rng=rng)
                if min_backoff_s is not None:
                    suggested = min_backoff_s(exc)
                    if suggested is not None:
                        backoff = max(backoff, float(suggested))
                if deadline is not None and _time.perf_counter() + backoff > deadline:
                    raise
                sleep(backoff)
        raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class DHMMConfig:
    """Hyper-parameters of the dHMM (both unsupervised and supervised).

    Attributes
    ----------
    alpha:
        Weight of the diversity-encouraging DPP prior (``alpha = 0`` reduces
        the model to the classical HMM).  Paper values: 1 for the toy
        experiment, 100 for PoS tagging, 10 for OCR.
    rho:
        Probability product kernel exponent; the paper fixes ``rho = 0.5``.
    alpha_anchor:
        Supervised-only weight ``alpha_A`` of the proximal term
        ``-alpha_A * ||A - A0||^2`` keeping the refined transition matrix
        near the count estimate (paper: 1e5).
    max_em_iter, em_tol:
        EM stopping criteria (unsupervised setting); ``em_tol`` bounds the
        per-iteration change of the MAP objective (likelihood plus the
        weighted DPP log prior).
    max_inner_iter, inner_tol:
        Stopping criteria of projected gradient ascent, the paper's
        Algorithm 1 (iteration cap and ``delta`` threshold).  It runs the
        supervised refinement (``SupervisedDiversifiedHMM``), the
        unsupervised transition M-step when ``rho != 0.5``, and the
        projection ablation.  The
        unsupervised ``rho = 0.5`` M-step is the converged fixed point /
        Newton ascent of :mod:`repro.core.transition_prior`, whose step
        caps and tolerance are module constants.
    initial_step:
        Initial step size of projected gradient ascent's adaptive step
        controller (same users as ``max_inner_iter``).
    transition_floor:
        Smallest admissible transition probability, keeping the DPP kernel
        and the log-likelihood finite (every transition M-step).
    kernel_jitter:
        Diagonal jitter added to the DPP kernel before inversion (every
        evaluation of the prior).
    """

    alpha: float = 1.0
    rho: float = 0.5
    alpha_anchor: float = 1e5
    max_em_iter: int = 50
    em_tol: float = 1e-4
    max_inner_iter: int = 50
    inner_tol: float = 1e-6
    initial_step: float = 0.05
    transition_floor: float = 1e-8
    kernel_jitter: float = 1e-10

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValidationError(f"alpha must be non-negative, got {self.alpha}")
        if self.rho <= 0:
            raise ValidationError(f"rho must be positive, got {self.rho}")
        if self.alpha_anchor < 0:
            raise ValidationError(f"alpha_anchor must be non-negative, got {self.alpha_anchor}")
        if self.max_em_iter < 1 or self.max_inner_iter < 1:
            raise ValidationError("iteration caps must be at least 1")
        if self.em_tol < 0 or self.inner_tol < 0:
            raise ValidationError("tolerances must be non-negative")
        if self.initial_step <= 0:
            raise ValidationError("initial_step must be positive")
        if not 0 < self.transition_floor < 1:
            raise ValidationError("transition_floor must lie in (0, 1)")
        if self.kernel_jitter < 0:
            raise ValidationError("kernel_jitter must be non-negative")
