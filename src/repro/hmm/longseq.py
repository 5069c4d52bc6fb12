"""Long-sequence inference: chunked Viterbi with overlap stitching, and a
segment-parallel scan for forward-backward and the likelihood.

Every batched inference path in :mod:`repro.hmm.backends` materializes
``O(T * K)`` recursion tensors per sequence.  At sentence scale that is the
point — one packed corpus, one matmul per timestep — but a single
chromosome-scale annotation track (T in the millions) either exhausts
memory or degenerates into one serial ``(1, K) @ (K, K)`` recursion with
Python-loop overhead per timestep.  This module provides the genome-scale
counterparts:

* :func:`chunked_viterbi` — split the sequence into overlapping windows of
  ``decode_window`` tokens, decode a whole *group* of windows batched
  through the backend's fused log-domain Viterbi kernel (turning the
  serial O(T) recursion into B-way data parallelism over windows), then
  stitch adjacent windows' paths at a high-confidence agreement run inside
  the overlap.  Window 0 starts from the true ``log pi``; later windows
  start uniform — exactly the situation of the fixed-lag streaming
  sessions, whose stabilization property (Viterbi decisions become
  independent of the start vector after a bounded lag) is what makes the
  stitch exact once the overlap exceeds the model's mixing lag.  When no
  agreement run exists (adversarial low-self-transition models), the
  overlap's labels fall back to the posterior argmax over a context
  window, and the stitch is counted as a fallback.
* :func:`checkpointed_posteriors` and :func:`streaming_log_likelihood` —
  exact Rabiner-scaled forward-backward and forward recursions run as a
  segment-parallel scan (the temporal parallelization of Särkkä and
  García-Fernández, 2021, over Blelloch's prefix scan).  Each fetched
  block of n rows is split into G segments of S ~ sqrt(n) rows.  One
  batched pass of S steps builds every segment's scaled transfer product
  ``prod_t A diag(obs_t)`` with one ``(G * K, K) @ (K, K)`` matmul per
  step; a serial combine of G steps gives the exact normalized forward
  message entering each segment (and, for the posteriors, the backward
  message leaving it); the posteriors then run one batched in-segment
  forward pass and one backward pass.  Python steps per block fall from
  n to about 3 sqrt(n).  The products cost O(K^3) per token against the
  serial step's O(K^2), so above a measured state count
  (``_SCAN_MAX_STATES``) each block runs as one segment, the serial
  recursion.  The likelihood holds one block; the posteriors keep the
  forward message entering each block and refetch blocks on the backward
  sweep, so their working memory beyond the returned ``(T, K)`` gamma is
  a few blocks, independent of T.  A block whose segment products lose
  the states the forward message is on (left-to-right chains whose data
  contradicts the absorbing state) reruns as the serial recursion; a
  forward message that vanishes in the probability domain, or a posterior
  row that is not finite, is repaired with the log-domain reference.

Each entry point takes the model as a
:class:`~repro.hmm.backends.ModelParams`, which holds ``pi``, ``A``, their
logs and their transposes.  Observations are consumed through a *source*
(:class:`ArraySource` over a precomputed table, or :class:`EmissionSource`
scoring raw observations on demand), so peak memory is bounded by the
window/block size — independent of T — whenever the caller avoids
materializing the full emission table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.exceptions import DimensionMismatchError, ValidationError
from repro.hmm.forward_backward import (
    SequencePosteriors,
    compute_posteriors_from_log,
    log_forward,
)
from repro.utils.maths import logsumexp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hmm.backends import ModelParams

__all__ = [
    "ArraySource",
    "EmissionSource",
    "LongDecodeResult",
    "as_source",
    "chunked_viterbi",
    "checkpointed_posteriors",
    "plan_windows",
    "score_path",
    "streaming_log_likelihood",
]

#: Smallest admissible scaling constant (mirrors the backends' guard).
_TINY = 1e-300


# ------------------------------------------------------------------ #
# Observation sources
# ------------------------------------------------------------------ #
class ArraySource:
    """Block source over a precomputed ``(T, K)`` emission log-likelihood table.

    ``fetch`` returns views, so wrapping an existing table adds no copies;
    peak memory is whatever the caller already holds.
    """

    def __init__(self, log_obs: np.ndarray) -> None:
        table = np.asarray(log_obs, dtype=np.float64)
        if table.ndim != 2:
            raise DimensionMismatchError(
                f"emission table must be 2-D (T, K), got shape {table.shape}"
            )
        if table.shape[0] < 1:
            raise ValidationError("sequences must have at least one timestep")
        self._table = table

    @property
    def length(self) -> int:
        return self._table.shape[0]

    @property
    def n_states(self) -> int:
        return self._table.shape[1]

    def fetch(self, start: int, stop: int) -> np.ndarray:  # repro: hot-path
        """``(stop - start, K)`` float64 view of rows ``start .. stop``."""
        return self._table[start:stop]


class EmissionSource:
    """Block source scoring a raw observation sequence on demand.

    The full ``(T, K)`` emission table never exists: each ``fetch`` scores
    only the requested block through the emission family's vectorized
    scorer, so decoding a genome-scale track peaks at
    ``O(window * K)`` — the bounded-memory path for
    :meth:`repro.hmm.model.HMM.decode_long`.
    """

    def __init__(self, emissions, sequence) -> None:
        self._emissions = emissions
        self._sequence = np.asarray(sequence)
        if self._sequence.shape[0] < 1:
            raise ValidationError("sequences must have at least one timestep")

    @property
    def length(self) -> int:
        return int(self._sequence.shape[0])

    @property
    def n_states(self) -> int:
        return int(self._emissions.n_states)

    def fetch(self, start: int, stop: int) -> np.ndarray:  # repro: hot-path
        """Score rows ``start .. stop`` (one vectorized emission call)."""
        return self._emissions.log_likelihoods(self._sequence[start:stop])


def as_source(source) -> "ArraySource | EmissionSource":
    """Coerce a ``(T, K)`` array into an :class:`ArraySource`; pass sources through."""
    if hasattr(source, "fetch") and hasattr(source, "length"):
        return source
    return ArraySource(source)


# ------------------------------------------------------------------ #
# Window planning
# ------------------------------------------------------------------ #
def plan_windows(length: int, window: int, overlap: int) -> list[tuple[int, int]]:
    """Overlapping window spans covering ``[0, length)``.

    Windows start every ``window - overlap`` tokens; when the stride does
    not divide evenly, one final window is pinned to ``length - window`` so
    every token is covered and all windows (except a short single-window
    sequence) have exactly ``window`` tokens.  Consecutive windows overlap
    by at least ``overlap``.
    """
    if window < 2 * overlap:
        raise ValidationError(
            f"window must be at least 2 * overlap ({2 * overlap}), got {window}"
        )
    if overlap < 1:
        raise ValidationError(f"overlap must be at least 1, got {overlap}")
    if length < 1:
        raise ValidationError(f"length must be at least 1, got {length}")
    if length <= window:
        return [(0, length)]
    stride = window - overlap
    starts = list(range(0, length - window + 1, stride))
    if starts[-1] + window < length:
        starts.append(length - window)
    return [(s, s + window) for s in starts]


# ------------------------------------------------------------------ #
# Stitching
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class LongDecodeResult:
    """Outcome of one chunked long-sequence Viterbi decode.

    Attributes
    ----------
    path:
        ``(T,)`` int64 stitched state path.
    log_joint:
        Exact joint log-probability ``log P(path, Y)`` of the *stitched*
        path, computed by streaming re-scoring, so it is exact for the path
        returned, fallback stitches included.  It equals the full Viterbi
        optimum only when the overlap exceeds the model's mixing lag; an
        agreement stitch alone does not guarantee it.
    n_windows:
        Number of decode windows (1 means the sequence fit one window and
        the decode was the ordinary exact kernel).
    n_agreement_stitches / n_fallback_stitches:
        How many window joins found an agreement run inside the overlap vs
        fell back to the posterior-argmax tiebreak.  Their sum is
        ``n_windows - 1``.
    max_windows_resident:
        Largest number of windows materialized simultaneously (one decode
        group) — the deterministic memory-ceiling introspection the
        long-sequence benchmark gates on.
    window / overlap:
        The effective knobs used for this decode.
    """

    path: np.ndarray
    log_joint: float
    n_windows: int
    n_agreement_stitches: int
    n_fallback_stitches: int
    max_windows_resident: int
    window: int
    overlap: int

    @property
    def exact_stitch(self) -> bool:
        """True when every join stitched at an agreement run (no fallbacks)."""
        return self.n_fallback_stitches == 0


def _find_agreement_cut(prev_seg: np.ndarray, cur_seg: np.ndarray) -> int | None:
    """Index (into the overlap) of the best agreement point, or None.

    Agreement positions are grouped into consecutive runs; the longest run
    wins (ties break toward the overlap's middle, where both windows have
    the most context) and the cut lands at the run's midpoint.
    """
    agree = prev_seg == cur_seg
    idx = np.flatnonzero(agree)
    if idx.size == 0:
        return None
    breaks = np.flatnonzero(np.diff(idx) > 1)
    run_starts = np.concatenate(([0], breaks + 1))
    run_ends = np.concatenate((breaks, [idx.size - 1]))
    run_lengths = run_ends - run_starts + 1
    middles = (idx[run_starts] + idx[run_ends]) / 2.0
    center = (agree.size - 1) / 2.0
    # longest run first; among equals the one whose middle is most central
    order = np.lexsort((np.abs(middles - center), -run_lengths))
    best = order[0]
    return int((idx[run_starts[best]] + idx[run_ends[best]]) // 2)


def _posterior_fallback(
    log_startprob: np.ndarray,
    log_transmat: np.ndarray,
    source,
    ov_start: int,
    ov_stop: int,
) -> np.ndarray:
    """Posterior-argmax labels for an overlap with no agreement run.

    The posteriors are computed over the overlap plus an equal-sized
    context margin on both sides (clipped to the sequence), with the true
    ``log pi`` when the context reaches position 0 and a uniform start
    otherwise — the best bounded-memory estimate available locally.
    """
    context = ov_stop - ov_start
    c0 = max(ov_start - context, 0)
    c1 = min(ov_stop + context, source.length)
    block = source.fetch(c0, c1)
    start = log_startprob if c0 == 0 else np.zeros_like(log_startprob)
    posteriors = compute_posteriors_from_log(start, log_transmat, block)
    return posteriors.gamma[ov_start - c0 : ov_stop - c0].argmax(axis=1)


def score_path(  # repro: hot-path
    log_startprob: np.ndarray,
    log_transmat: np.ndarray,
    source,
    path: np.ndarray,
    block: int = 65536,
) -> float:
    """Exact joint log-probability of a given state path, streamed in blocks.

    ``log pi[x_0] + sum_t log A[x_{t-1}, x_t] + sum_t log b_{x_t}(y_t)``
    evaluated with ``O(block * K)`` peak memory regardless of T.
    """
    length = int(path.shape[0])
    total = float(log_startprob[path[0]])
    for b0 in range(0, length, block):  # repro: loop-ok[streamed block scoring]
        b1 = min(b0 + block, length)
        rows = source.fetch(b0, b1)
        seg = path[b0:b1]
        total += float(rows[np.arange(b1 - b0), seg].sum())
        t0 = max(b0, 1)
        if t0 < b1:
            total += float(log_transmat[path[t0 - 1 : b1 - 1], path[t0:b1]].sum())
    return total


def chunked_viterbi(  # repro: hot-path
    params: ModelParams,
    source,
    *,
    window: int,
    overlap: int,
    group_size: int,
    decode_bucket: Callable[[np.ndarray, np.ndarray, np.ndarray], Iterable],
) -> LongDecodeResult:
    """Chunked long-sequence Viterbi: batched windows, stitched overlaps.

    Parameters
    ----------
    params:
        The model; the decode reads its logs and ``log A^T``.
    source:
        Block source of emission log-likelihood rows (see :func:`as_source`).
    window / overlap:
        Window plan knobs (see :func:`plan_windows`).
    group_size:
        Windows decoded together as one group; the peak working tensor is
        ``(window, group_size, K)`` — the memory ceiling.
    decode_bucket:
        ``decode_bucket(log_startprob, log_transmat_T, windows)`` returning
        one ``(path, log_joint)`` per window of the group — the backend's
        window-group Viterbi decode.  ``windows`` is time-major,
        ``(window, G, K)``, with ``windows[:, g]`` window ``g`` (all
        windows of a group have the same length), and ``log_transmat_T``
        is ``log A^T``, contiguous.  The true ``log pi`` is folded into
        window 0's first emission row, so a zero (uniform) start vector is
        passed for every window; adding 0.0 is exact, keeping the
        single-window case bit-identical to the unchunked kernel.
    """
    if group_size < 1:
        raise ValidationError(f"group_size must be at least 1, got {group_size}")
    source = as_source(source)
    length = source.length
    n_states = source.n_states
    spans = plan_windows(length, window, overlap)
    n_windows = len(spans)

    path = np.empty(length, dtype=np.int64)
    zero_start = np.zeros(n_states)
    log_startprob, log_transmat = params.log_startprob, params.log_transmat
    n_agreement = 0
    n_fallback = 0
    max_resident = 0
    single_log_joint = 0.0
    prev_path: np.ndarray | None = None
    prev_start = 0
    prev_from = 0  # first position whose label window w-1 still owns

    for g0 in range(0, n_windows, group_size):  # repro: loop-ok[sequential window groups bound peak memory]
        g1 = min(g0 + group_size, n_windows)
        span_start = spans[g0][0]
        span_stop = spans[g1 - 1][1]
        block = source.fetch(span_start, span_stop)
        wlen = spans[g0][1] - spans[g0][0]
        # Time-major, so equal-length windows are already in packed order.
        windows = np.empty((wlen, g1 - g0, n_states))
        for g in range(g0, g1):  # repro: loop-ok[window copies into the group]
            s, e = spans[g]
            windows[:, g - g0] = block[s - span_start : e - span_start]
        if g0 == 0:
            windows[0, 0] += log_startprob
        decoded = decode_bucket(zero_start, params.log_transmat_T, windows)
        max_resident = max(max_resident, g1 - g0)

        for g, (window_path, window_lj) in zip(range(g0, g1), decoded):  # repro: loop-ok[stitch bookkeeping per window]
            cur_start, cur_stop = spans[g]
            if n_windows == 1:
                single_log_joint = float(window_lj)
            if prev_path is None:
                prev_path, prev_start, prev_from = window_path, cur_start, 0
                continue
            prev_stop = prev_start + prev_path.shape[0]
            ov_len = prev_stop - cur_start
            prev_seg = prev_path[cur_start - prev_start :]
            cur_seg = window_path[:ov_len]
            cut = _find_agreement_cut(prev_seg, cur_seg)
            if cut is not None:
                abs_cut = cur_start + cut
                path[prev_from : abs_cut + 1] = prev_path[
                    prev_from - prev_start : abs_cut + 1 - prev_start
                ]
                cur_from = abs_cut + 1
                n_agreement += 1
            else:
                labels = _posterior_fallback(
                    log_startprob, log_transmat, source, cur_start, prev_stop
                )
                path[prev_from:cur_start] = prev_path[
                    prev_from - prev_start : cur_start - prev_start
                ]
                path[cur_start:prev_stop] = labels
                cur_from = prev_stop
                n_fallback += 1
            prev_path, prev_start, prev_from = window_path, cur_start, cur_from

    assert prev_path is not None
    path[prev_from:] = prev_path[prev_from - prev_start :]

    if n_windows == 1:
        log_joint = single_log_joint
    else:
        log_joint = score_path(log_startprob, log_transmat, source, path)
    return LongDecodeResult(
        path=path,
        log_joint=log_joint,
        n_windows=n_windows,
        n_agreement_stitches=n_agreement,
        n_fallback_stitches=n_fallback,
        max_windows_resident=max_resident,
        window=window,
        overlap=overlap,
    )


# ------------------------------------------------------------------ #
# Segment-parallel scan: forward-backward and likelihood
# ------------------------------------------------------------------ #
#: Largest state count the segment scan runs at.  A segment's transfer
#: product costs O(K^3) per token where the serial step costs O(K^2) plus a
#: fixed Python overhead per step, so past some K the products cost more
#: than the steps they save; above this constant every block runs as one
#: segment, which is the serial recursion.  Serial time over scan time at
#: T=20K on a 2-core x86 VM (numpy with OpenBLAS on one thread), median of
#: 7 alternating pairs:
#:
#:     K            8     15    26    30    34    36    38    45
#:     likelihood  11.8   6.3   2.1   1.5   1.2   1.0   0.8   0.6
#:     posteriors  13.7   8.2   3.3   2.0   1.8   1.8   1.4   0.9
#:
#: The likelihood breaks even at K = 36; the posteriors near K = 44.
_SCAN_MAX_STATES = 36

#: Smallest combine normalizer the scan accepts.  Every transfer product is
#: rescaled to unit total, so a normalizer this small means the states the
#: message holds its mass on kept only a sliver of a product (entries under
#: 1e-308 of it are lost to underflow); such a block runs serially instead.
_SCAN_TINY = 1e-150

#: Rows per fetched block when the caller names none: the bytes of a
#: (65536, 8) float64 table, so 65 536 rows at K = 8 and proportionally
#: fewer at larger K.
_BLOCK_BYTES = 65536 * 8 * 8


def _segment_length(n_rows: int, n_states: int) -> int:
    """Rows per segment: ``ceil(sqrt(n))``, or all of them above the K crossover."""
    if n_states > _SCAN_MAX_STATES:
        return max(n_rows, 1)
    return max(int(np.ceil(np.sqrt(n_rows))), 1)


def _obs_weights(log_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted observation weights ``exp(log_b - m)`` for one block."""
    # One pass per state column: a row-wise max over K ~ 8 entries costs
    # a few times more per row.
    shift = log_b[:, 0].copy()
    for column in log_b.T[1:]:
        np.maximum(shift, column, out=shift)
    shift[~np.isfinite(shift)] = 0.0
    obs = log_b - shift[:, None]
    np.exp(obs, out=obs)
    return obs, shift


def _forward(  # repro: hot-path
    msgs: np.ndarray,
    transmat: np.ndarray,
    obs: np.ndarray,
    seg: int,
    alpha_hat: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The scaled forward step, shared by the likelihood and the posteriors.

    ``msgs[g]`` is the normalized message entering segment ``g``: rows
    ``g * seg`` up to ``(g + 1) * seg`` of ``obs`` (the last segment may be
    short).  Each step advances every segment by one row with one
    ``(G, K) @ (K, K)`` matmul: ``raw = (alpha @ A) * obs_t``,
    ``c_t = sum(raw)``, ``alpha = raw / c_t``.  A single segment runs as
    the lean serial loop.  ``alpha_hat`` (required for more than one
    segment) receives every row's normalized message.  Returns every row's
    scale ``c_t`` and the message after the last row.
    """
    scales = np.empty(obs.shape[0])
    ones = np.ones(transmat.shape[0])
    if msgs.shape[0] == 1:
        alpha = msgs[0]
        for i, row in enumerate(obs):  # repro: loop-ok[serial recursion: one segment]
            raw = (alpha @ transmat) * row
            scales[i] = total = raw @ ones
            alpha = raw / total
            if alpha_hat is not None:
                alpha_hat[i] = alpha
        return scales, alpha
    assert alpha_hat is not None
    for s in range(seg):  # repro: loop-ok[in-segment time recursion, batched over segments]
        rows = obs[s::seg]
        raw = (msgs[: rows.shape[0]] @ transmat) * rows
        c = raw @ ones
        msgs = raw / c[:, None]
        alpha_hat[s::seg] = msgs
        scales[s::seg] = c
    return scales, alpha_hat[-1]


def _backward(  # repro: hot-path
    ends: np.ndarray,
    transmat_T: np.ndarray,
    obs: np.ndarray,
    scales: np.ndarray,
    seg: int,
    beta: np.ndarray,
) -> None:
    """Rabiner-scaled backward recursion inside every segment, into ``beta``.

    ``ends[g]`` is the backward message at segment ``g``'s last row; each
    step is ``beta_t = (obs_{t+1} * beta_{t+1} / c_{t+1}) @ A.T`` for every
    segment at once (the lean serial loop for a single segment).
    """
    n_rows = obs.shape[0]
    if ends.shape[0] == 1:
        b = beta[n_rows - 1] = ends[0]
        for t in range(n_rows - 1, 0, -1):  # repro: loop-ok[serial recursion: one segment]
            b = beta[t - 1] = (obs[t] * b / scales[t]) @ transmat_T
        return
    cur = ends.copy()
    beta[seg - 1 :: seg] = cur[: beta[seg - 1 :: seg].shape[0]]
    for s in range(seg - 1, 0, -1):  # repro: loop-ok[in-segment backward recursion, batched over segments]
        rows = obs[s::seg]
        n = rows.shape[0]
        cur[:n] = (rows * cur[:n] / scales[s::seg, None]) @ transmat_T
        beta[s - 1 :: seg] = cur[: beta[s - 1 :: seg].shape[0]]


def _transfer(  # repro: hot-path
    transmat: np.ndarray, obs: np.ndarray, seg: int
) -> tuple[np.ndarray, float]:
    """Every segment's transfer product ``prod[g] ~ prod_t A diag(obs_t)``.

    One ``(G * K, K) @ (K, K)`` matmul per step advances all G products.
    Each step divides out the previous step's total in the same multiply
    that applies ``obs_t``, so the products stay at unit scale; the summed
    log of the dropped totals is returned beside them.
    """
    n_states = transmat.shape[0]
    ones = np.ones(n_states * n_states)
    prod = transmat * obs[::seg, None, :]
    total = prod.reshape(prod.shape[0], -1) @ ones
    totals = np.ones((seg, prod.shape[0]))
    totals[0] = total
    done = prod[:0]  # the short last segment, once its rows run out
    for s in range(1, seg):  # repro: loop-ok[segment products, batched over segments]
        rows = obs[s::seg]
        n = rows.shape[0]
        if n < prod.shape[0]:
            done, prod = prod[n:], prod[:n]
        prod = (prod.reshape(n * n_states, n_states) @ transmat).reshape(
            n, n_states, n_states
        )
        prod *= (rows / total[:n, None])[:, None, :]
        total[:n] = totals[s, :n] = prod.reshape(n, -1) @ ones
    if done.shape[0]:
        prod = np.concatenate((prod, done))
    prod /= total[:, None, None]
    return prod, float(np.log(np.maximum(totals, _TINY)).sum())


def _combine(  # repro: hot-path
    msg: np.ndarray, prod: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Serial combine over the segments, one step per segment.

    Returns ``(entering, carry, norms)``: the exact normalized forward
    message entering each segment, the one leaving the last, and each
    step's normalizer (whose logs, with the products' dropped scales, sum
    to the rows' log-likelihood).
    """
    entering = np.empty(prod.shape[:2])
    norms = np.empty(prod.shape[0])
    for g, step in enumerate(prod):  # repro: loop-ok[serial combine, one step per segment]
        entering[g] = msg
        v = msg @ step
        norms[g] = total = v.sum()
        msg = v / total
    return entering, msg, norms


def _combine_back(  # repro: hot-path
    entering: np.ndarray, prod: np.ndarray, beta_last: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backward message at each segment's last row, from the block's last row.

    The same products carry it back one segment per step; each is scaled
    so that ``<alpha, beta> = 1`` against the forward message at that row
    (the next segment's entering message), which is Rabiner's scaling.
    Returns the messages and each step's normalizer.
    """
    ends = np.empty_like(entering)
    ends[-1] = beta = beta_last
    norms = np.ones(prod.shape[0])
    for g in range(prod.shape[0] - 1, 0, -1):  # repro: loop-ok[serial combine, one step per segment]
        v = prod[g] @ beta
        norms[g] = total = entering[g] @ v
        ends[g - 1] = beta = v / total
    return ends, norms


@dataclass(frozen=True)
class _BlockScan:
    """Segment products and combine over one fetched block, kept for smoothing."""

    obs: np.ndarray  # (n, K) weights of the block's transition rows
    seg: int  # rows per segment
    entering: np.ndarray  # (G, K) forward message entering each segment
    prod: np.ndarray | None  # (G, K, K) transfer products; None for one segment
    carry: np.ndarray  # forward message after the block's last row
    log_likelihood: float  # the block's part of the log-likelihood


def _scan_block(  # repro: hot-path
    params: ModelParams,
    msg: np.ndarray | None,
    log_b: np.ndarray,
) -> _BlockScan | None:
    """Segment products and serial combine over one fetched block.

    One segment, or products that lost the message, run the serial
    recursion instead.  ``msg`` is the forward message before the block,
    or None for the block at t = 0, whose first row starts from
    ``pi`` and is left out of the scanned transition rows.  None
    when a forward message vanished (sums to zero in the probability
    domain); the caller then recomputes with the log-domain reference.
    """
    transmat = params.transmat
    obs, shift = _obs_weights(log_b)
    log_likelihood = float(shift.sum())
    if msg is None:
        raw = params.startprob * obs[0]
        total = raw.sum()
        if not total >= _TINY:
            return None
        msg = raw / total
        log_likelihood += float(np.log(np.maximum(total, _TINY)))
        obs = obs[1:]
    seg = _segment_length(obs.shape[0], obs.shape[1])
    if seg < obs.shape[0]:
        prod, log_scale = _transfer(transmat, obs, seg)
        entering, carry, norms = _combine(msg, prod)
        if (norms >= _SCAN_TINY).all():
            log_likelihood += float(np.log(np.maximum(norms, _TINY)).sum()) + log_scale
            return _BlockScan(obs, seg, entering, prod, carry, log_likelihood)
        # A product lost the states the message entering it holds its mass
        # on; the serial recursion rescales every row and may still carry it.
    return _serial_block(msg, transmat, obs, log_likelihood)


def _serial_block(  # repro: hot-path
    msg: np.ndarray, transmat: np.ndarray, obs: np.ndarray, log_likelihood: float
) -> _BlockScan | None:
    """The block as one segment: the serial recursion, or None if it vanished."""
    norms, carry = _forward(msg[None], transmat, obs, obs.shape[0])
    if not (norms >= _TINY).all():
        return None
    log_likelihood += float(np.log(np.maximum(norms, _TINY)).sum())
    return _BlockScan(obs, obs.shape[0], msg[None], None, carry, log_likelihood)


def _smooth_block(  # repro: hot-path
    scan: _BlockScan,
    params: ModelParams,
    beta_last: np.ndarray,
    gamma: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Posteriors of one scanned block's transition rows, written to ``gamma``.

    ``beta_last`` is the backward message at the block's last row.  One
    batched forward pass and one backward pass inside the segments give the
    Rabiner-scaled alpha and beta.  Returns the block's ``xi_sum`` (its
    first pair joins the message entering the block) and the backward
    message at the row before the block, or None when a message vanished
    or a posterior row is not finite (a backward message overflowed).
    """
    obs = scan.obs
    transmat, transmat_T = params.transmat, params.transmat_T
    if obs.shape[0] == 0:
        return np.zeros_like(transmat), beta_last
    if scan.prod is None:
        ends = beta_last[None]
    else:
        ends, norms = _combine_back(scan.entering, scan.prod, beta_last)
        if not (norms >= _SCAN_TINY).all():
            return None
    alpha_hat = np.empty_like(obs)
    beta = np.empty_like(obs)
    scales, _ = _forward(scan.entering, transmat, obs, scan.seg, alpha_hat)
    _backward(ends, transmat_T, obs, scales, scan.seg, beta)
    np.multiply(alpha_hat, beta, out=gamma)
    norm = gamma @ np.ones(obs.shape[1])
    if not (norm.min() >= _TINY and norm.max() < np.inf):
        return None
    gamma /= norm[:, None]
    # xi weight w_t = obs_t * beta_t / c_t, so the pairs sum to
    # A * (alpha_hat[:-1].T @ w[1:]), plus the pair entering the block.
    beta *= obs
    beta /= scales[:, None]
    xi_sum = transmat * (alpha_hat[:-1].T @ beta[1:] + np.outer(scan.entering[0], beta[0]))
    return xi_sum, beta[0] @ transmat_T


def _reference_posteriors(params: ModelParams, source) -> SequencePosteriors:
    """The log-domain reference over the whole sequence (vanished-message repair)."""
    return compute_posteriors_from_log(
        params.log_startprob, params.log_transmat, source.fetch(0, source.length)
    )


def _reference_log_likelihood(params: ModelParams, source, block: int) -> float:
    """The log-domain forward recursion streamed block by block.

    Each block starts from the previous block's last message propagated one
    step, so the sweep equals :func:`log_forward` over the whole sequence
    with one block of memory.
    """
    log_pi, log_A = params.log_startprob, params.log_transmat
    length = source.length
    last = log_pi
    for b0 in range(0, length, block):  # repro: loop-ok[streamed block sweep]
        start = log_pi if b0 == 0 else logsumexp(last[:, None] + log_A, axis=0)
        last = log_forward(start, log_A, source.fetch(b0, min(b0 + block, length)))[-1]
    return float(logsumexp(last))


def _check_block(name: str, block: int | None, n_states: int) -> int:
    if block is None:
        return max(_BLOCK_BYTES // (8 * n_states), 1)
    if block < 1:
        raise ValidationError(f"{name} must be at least 1, got {block}")
    return int(block)


def _forward_sweep(  # repro: hot-path
    params: ModelParams,
    source,
    block: int,
    carries: list[np.ndarray | None] | None = None,
) -> tuple[_BlockScan, float] | None:
    """Scan every block in order, each from the message leaving the last.

    Returns the last block's scan and the log-likelihood, or None when a
    forward message vanished; ``carries`` (when given) receives the message
    entering each block (None for the first).
    """
    length = source.length
    msg: np.ndarray | None = None
    scan: _BlockScan | None = None
    log_likelihood = 0.0
    for b0 in range(0, length, block):  # repro: loop-ok[streamed block sweep]
        if carries is not None:
            carries.append(msg)
        scan = _scan_block(params, msg, source.fetch(b0, min(b0 + block, length)))
        if scan is None:
            return None
        msg = scan.carry
        log_likelihood += scan.log_likelihood
    assert scan is not None  # sources hold at least one row
    return scan, log_likelihood


def checkpointed_posteriors(  # repro: hot-path
    params: ModelParams,
    source,
    checkpoint: int | None = None,
) -> SequencePosteriors:
    """Exact forward-backward by segment scan, in blocks of ``checkpoint`` rows.

    The forward sweep scans each fetched block (default: 65 536 rows at
    K = 8, fewer at larger K) and keeps only the forward message entering
    it; the backward sweep refetches each block, scans it again from its
    message and runs the in-segment forward and backward passes.  Working
    memory is a few blocks of ``(checkpoint, K)`` beyond the returned
    ``(T, K)`` gamma, independent of T.  The recursions are Rabiner's
    scaled ones, so the posteriors match the log-domain reference to
    floating-point reassociation (tested at 1e-8).  When a forward message
    vanishes in the probability domain the whole sequence is recomputed
    with the log-domain reference.
    """
    source = as_source(source)
    length = source.length
    n_states = source.n_states
    checkpoint = _check_block("checkpoint", checkpoint, n_states)
    block_starts = list(range(0, length, checkpoint))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        carries: list[np.ndarray | None] = []
        swept = _forward_sweep(params, source, checkpoint, carries)
        if swept is None:
            return _reference_posteriors(params, source)
        # The backward sweep starts with the last block's scan from the
        # forward sweep, and refetches and rescans every earlier block.
        scan: _BlockScan | None = swept[0]
        gamma = np.empty((length, n_states))
        xi_sum = np.zeros((n_states, n_states))
        beta_last = np.ones(n_states)
        for j in range(len(block_starts) - 1, -1, -1):  # repro: loop-ok[backward block sweep]
            b0 = block_starts[j]
            b1 = min(b0 + checkpoint, length)
            if j < len(block_starts) - 1:
                scan = _scan_block(params, carries[j], source.fetch(b0, b1))
            if scan is None:
                return _reference_posteriors(params, source)
            rows = gamma[b1 - scan.obs.shape[0] : b1]  # row 0 is set last
            smoothed = _smooth_block(scan, params, beta_last, rows)
            if smoothed is None and scan.prod is not None:
                # As in the forward sweep: retry the block serially.
                scan = _serial_block(scan.entering[0], params.transmat, scan.obs, 0.0)
                if scan is not None:
                    smoothed = _smooth_block(scan, params, beta_last, rows)
            if smoothed is None or scan is None:
                return _reference_posteriors(params, source)
            xi_part, beta_last = smoothed
            xi_sum += xi_part
        # Row 0: the start message times the backward message before block 0.
        assert scan is not None
        row0 = scan.entering[0] * beta_last
        total = row0.sum()
        if not total >= _TINY:
            return _reference_posteriors(params, source)
        gamma[0] = row0 / total

    return SequencePosteriors(
        gamma=gamma, xi_sum=xi_sum, log_likelihood=swept[1]
    )


def streaming_log_likelihood(  # repro: hot-path
    params: ModelParams,
    source,
    block: int | None = None,
) -> float:
    """Log marginal likelihood by segment scan, one fetched block at a time.

    The forward half of :func:`checkpointed_posteriors`: each block of
    ``block`` rows (same default) is scanned from the message leaving the
    previous one, so nothing beyond one block and the running message is
    held.  When a forward message vanishes in the probability domain the
    sweep restarts in the log domain (:func:`log_forward`, block by block).
    """
    source = as_source(source)
    block = _check_block("block", block, source.n_states)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        swept = _forward_sweep(params, source, block)
    if swept is None:
        return _reference_log_likelihood(params, source, block)
    return swept[1]
