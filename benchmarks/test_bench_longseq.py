"""Benchmark: genome-scale chunked decode vs serial single-sequence decode.

One T=1M-token sequence (``BENCH_LONGSEQ_T`` overrides the length) decoded
two ways through the same fused log-domain Viterbi step:

* **serial** — the whole sequence as a one-sequence packed corpus
  (``viterbi_corpus`` without a long threshold): one Python-level
  iteration per timestep;
* **chunked** — ``viterbi_long``: overlapping windows decoded
  ``group_size`` at a time as one bucket (B-way data parallelism), paths
  stitched at agreement points inside the overlaps.

The chunked path must be at least ``BENCH_MIN_LONG_DECODE_SPEEDUP`` times
faster, stitch exactly (or >= 99.9% token agreement when a fallback stitch
occurs), and hold a *T-independent* working set: the decode-phase
tracemalloc peak is gated against the windows-resident budget
(``group_size x window x K`` floats) plus the O(T) result path itself,
and the streamed log-likelihood is gated against a flat absolute ceiling.

A second benchmark times the segment-scan likelihood and posteriors
(``streaming_log_likelihood`` / ``checkpointed_posteriors``) against the
per-token loops they replaced, kept below as the timing baseline: at K=8,
T=200K both must be at least ``BENCH_MIN_LONG_SMOOTH_SPEEDUP`` times
faster; at K=45, above the scan's K crossover where each block runs as the
serial recursion, at least 0.8 times as fast; and the posteriors' working
memory beyond the returned gamma stays under the same flat ceiling as the
streamed likelihood at T=200K and T=1M.

Results are merged into ``BENCH_inference.json``.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import merge_results, print_header
from repro.hmm import (
    CompiledCorpus,
    ModelParams,
    ScaledBatchedBackend,
    checkpointed_posteriors,
    streaming_log_likelihood,
)

#: Sequence length for the long-decode gate.  The default reproduces the
#: paper-scale T=1M workload; override to shrink smoke runs.
LONGSEQ_T = int(os.environ.get("BENCH_LONGSEQ_T", "1000000"))

#: Acceptance floor for chunked-vs-serial decode wall time.  The win comes
#: from batching (window-parallel numpy ops amortize the per-timestep
#: Python overhead ~group_size ways), so it holds even single-core
#: (~12-15x observed); the default still relaxes below 4 cores to keep
#: starved CI containers from failing a numerically correct change.
MIN_LONG_DECODE_SPEEDUP = float(
    os.environ.get(
        "BENCH_MIN_LONG_DECODE_SPEEDUP",
        "2.0" if (os.cpu_count() or 1) >= 4 else "1.3",
    )
)

#: Acceptance floor for the segment-scan likelihood and posteriors over the
#: per-token loops at K=8, T=200K (13-24x and 11-16x over ten runs on a
#: 2-core VM).
MIN_LONG_SMOOTH_SPEEDUP = float(os.environ.get("BENCH_MIN_LONG_SMOOTH_SPEEDUP", "5.0"))

#: Floor at K=45, above the scan's K crossover: there each block runs as one
#: segment, the serial recursion, which must cost no more than the old loop.
MIN_LARGE_K_RATIO = 0.8

#: Flat working-memory ceiling of the streamed likelihood and, beyond the
#: returned gamma, of the posteriors.
_STREAM_CEILING_BYTES = 64 * 1024 * 1024

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_inference.json"

_WINDOW = 4096
_OVERLAP = 256
_GROUP = 64
_K = 8


def _sticky_model(rng, n_states):
    pi = rng.dirichlet(np.ones(n_states))
    transmat = 0.8 * np.eye(n_states) + 0.2 * rng.dirichlet(np.ones(n_states), size=n_states)
    transmat /= transmat.sum(axis=1, keepdims=True)
    return pi, transmat


def _build_workload():
    """A sticky K=8 model plus a (T, K) emission log-likelihood table.

    The table is drawn directly at log-likelihood magnitudes rather than
    sampled token-by-token through ``HMM.sample`` (per-step Python would
    dwarf the decode itself at T=1M); the decode kernels only ever see
    emission scores, so the timing is identical.
    """
    rng = np.random.default_rng(7)
    pi, transmat = _sticky_model(rng, _K)
    table = rng.normal(0.0, 2.0, size=(LONGSEQ_T, _K))
    return pi, transmat, table


def _serial_viterbi(backend, params, table):
    """The whole table as one packed sequence: a directly built corpus has
    no long threshold, so nothing routes it through the chunked decoder."""
    corpus = CompiledCorpus([table])
    return backend.viterbi_corpus(params, corpus, table)[0]


_TINY = 1e-300


def _obs_weights(log_b):
    shift = np.max(log_b, axis=1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return np.exp(log_b - shift[:, None]), shift


def _loop_log_likelihood(pi, transmat, table, block=65536):
    """The per-token forward loop the segment scan replaced (timing baseline)."""
    length = table.shape[0]
    alpha = None
    log_likelihood = 0.0
    for b0 in range(0, length, block):
        b1 = min(b0 + block, length)
        obs, shift = _obs_weights(table[b0:b1])
        scales = np.empty(b1 - b0)
        for i in range(b1 - b0):
            raw = pi * obs[0] if b0 + i == 0 else (alpha @ transmat) * obs[i]
            scales[i] = max(float(raw.sum()), _TINY)
            alpha = raw / scales[i]
        log_likelihood += float(np.log(np.maximum(scales, _TINY)).sum() + shift.sum())
    return log_likelihood


def _loop_posteriors(pi, transmat, table):
    """The per-token sqrt-checkpointed forward-backward the scan replaced.

    Returns ``(gamma, xi_sum, log_likelihood)``; timing baseline only.
    """
    length, n_states = table.shape
    checkpoint = max(int(np.ceil(np.sqrt(length))), 1)
    transmat_T = np.ascontiguousarray(transmat.T)
    starts = list(range(0, length, checkpoint))
    carries, alpha, log_likelihood = [], None, 0.0
    for b0 in starts:
        b1 = min(b0 + checkpoint, length)
        carries.append(None if alpha is None else alpha.copy())
        obs, shift = _obs_weights(table[b0:b1])
        scales = np.empty(b1 - b0)
        for i in range(b1 - b0):
            raw = pi * obs[0] if b0 + i == 0 else (alpha @ transmat) * obs[i]
            scales[i] = max(float(raw.sum()), _TINY)
            alpha = raw / scales[i]
        log_likelihood += float(np.log(np.maximum(scales, _TINY)).sum() + shift.sum())
    gamma = np.empty((length, n_states))
    xi_sum = np.zeros((n_states, n_states))
    w_carry = None
    for j in range(len(starts) - 1, -1, -1):
        b0 = starts[j]
        b1 = min(b0 + checkpoint, length)
        n_rows = b1 - b0
        obs, _ = _obs_weights(table[b0:b1])
        alpha_hat = np.empty((n_rows, n_states))
        scales = np.empty(n_rows)
        alpha = carries[j]
        for i in range(n_rows):
            raw = pi * obs[0] if b0 + i == 0 else (alpha @ transmat) * obs[i]
            scales[i] = max(float(raw.sum()), _TINY)
            alpha = raw / scales[i]
            alpha_hat[i] = alpha
        beta_hat = np.empty((n_rows, n_states))
        beta_hat[n_rows - 1] = 1.0 if b1 == length else w_carry @ transmat_T
        for i in range(n_rows - 2, -1, -1):
            beta_hat[i] = (obs[i + 1] * beta_hat[i + 1] / scales[i + 1]) @ transmat_T
        block_gamma = alpha_hat * beta_hat
        block_gamma /= np.maximum(block_gamma.sum(axis=1, keepdims=True), _TINY)
        gamma[b0:b1] = block_gamma
        xi_weight = obs * beta_hat / scales[:, None]
        if n_rows > 1:
            xi_sum += transmat * (alpha_hat[:-1].T @ xi_weight[1:])
        if b0 > 0:
            xi_sum += transmat * np.outer(carries[j], xi_weight[0])
        w_carry = xi_weight[0]
    return gamma, xi_sum, log_likelihood


def test_long_sequence_decode(benchmark):
    pi, transmat, table = _build_workload()
    params = ModelParams(pi, transmat)
    backend = ScaledBatchedBackend()

    # Warm numpy/the kernel on a small prefix so first-call overheads do
    # not pollute the single-shot serial timing below.
    backend.viterbi_long(params, table[:20_000], window=_WINDOW, overlap=_OVERLAP)
    _serial_viterbi(backend, params, table[:20_000])

    start = time.perf_counter()
    serial_path, serial_lj = _serial_viterbi(backend, params, table)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    res = backend.viterbi_long(
        params, table, window=_WINDOW, overlap=_OVERLAP, group_size=_GROUP
    )
    chunked_seconds = time.perf_counter() - start
    speedup = serial_seconds / chunked_seconds

    # Correctness gate: exact whenever every join found an agreement run,
    # >= 99.9% token agreement otherwise (the ISSUE's acceptance bar).
    agreement = float((res.path == serial_path).mean())
    if res.exact_stitch:
        assert np.array_equal(res.path, serial_path)
        # block-wise re-scoring reassociates a ~1e6-term sum; gate on
        # relative error (observed ~8e-12 at T=1M)
        assert res.log_joint == pytest.approx(serial_lj, rel=1e-9)
    assert agreement >= 0.999
    assert res.n_agreement_stitches + res.n_fallback_stitches == res.n_windows - 1

    # Memory gate: decode-phase peak is bounded by the windows-resident
    # budget plus the O(T) result path — never by a (T, K) working tensor.
    assert res.max_windows_resident <= _GROUP
    windows_budget = _GROUP * _WINDOW * _K * 8  # the (B, W, K) float64 bucket
    path_bytes = 8 * LONGSEQ_T
    tracemalloc.start()
    backend.viterbi_long(
        params, table, window=_WINDOW, overlap=_OVERLAP, group_size=_GROUP
    )
    _, decode_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert decode_peak <= 6 * windows_budget + 3 * path_bytes

    # Streamed log-likelihood holds only block-sized buffers: a flat
    # absolute ceiling regardless of T.  The segment scan takes about
    # 3 sqrt(block) Python steps per block, so the gate runs on the whole
    # sequence.
    ll_t = LONGSEQ_T
    tracemalloc.start()
    start = time.perf_counter()
    stream_ll = streaming_log_likelihood(params, table[:ll_t])
    ll_seconds = time.perf_counter() - start
    _, ll_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert ll_peak <= _STREAM_CEILING_BYTES

    results = {
        "long_sequence": {
            "workload": {
                "T": LONGSEQ_T,
                "n_states": _K,
                "window": _WINDOW,
                "overlap": _OVERLAP,
                "group_size": _GROUP,
            },
            "decode_seconds": {"serial": serial_seconds, "chunked": chunked_seconds},
            "decode_speedup": speedup,
            "n_windows": res.n_windows,
            "n_agreement_stitches": res.n_agreement_stitches,
            "n_fallback_stitches": res.n_fallback_stitches,
            "exact_stitch": res.exact_stitch,
            "token_agreement": agreement,
            "max_windows_resident": res.max_windows_resident,
            "decode_peak_bytes": decode_peak,
            "windows_budget_bytes": windows_budget,
            "streaming_ll_T": ll_t,
            "streaming_ll_seconds": ll_seconds,
            "streaming_ll_peak_bytes": ll_peak,
            "streaming_ll": stream_ll,
        }
    }
    merge_results(_RESULT_PATH, results)

    print_header("Long-sequence decode - chunked windows vs serial single sequence")
    print(f"T={LONGSEQ_T:,}  K={_K}  window={_WINDOW} overlap={_OVERLAP} "
          f"group={_GROUP}  ({res.n_windows} windows)")
    print(f"serial : {serial_seconds:7.2f} s")
    print(f"chunked: {chunked_seconds:7.2f} s | {speedup:5.1f}x | "
          f"agreement stitches {res.n_agreement_stitches}/{res.n_windows - 1} | "
          f"token agreement {agreement:.6f}")
    print(f"memory : decode peak {decode_peak / 1e6:6.1f} MB "
          f"(windows budget {windows_budget / 1e6:.1f} MB + path "
          f"{path_bytes / 1e6:.1f} MB) | streamed ll peak {ll_peak / 1e6:.1f} MB")
    print(f"results merged into {_RESULT_PATH.name}")

    benchmark.extra_info.update(
        long_decode_speedup=speedup, token_agreement=agreement
    )
    benchmark.pedantic(
        lambda: backend.viterbi_long(
            params,
            table[:100_000],
            window=_WINDOW,
            overlap=_OVERLAP,
            group_size=_GROUP,
        ),
        rounds=1,
        iterations=1,
    )

    assert speedup >= MIN_LONG_DECODE_SPEEDUP


def _timed(fn):
    """Wall time of one call, and its result."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _paired_seconds(baseline, scan, repeats):
    """Best-of-``repeats`` wall time of each side, the two alternating."""
    pairs = [(_timed(baseline)[0], _timed(scan)[0]) for _ in range(repeats)]
    return min(p[0] for p in pairs), min(p[1] for p in pairs)


def _posterior_peak(params, table):
    """Traced peak of one posteriors call, and its gamma's size."""
    tracemalloc.start()
    post = checkpointed_posteriors(params, table)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, post.gamma.nbytes


def test_long_sequence_smoothing(benchmark):
    rng = np.random.default_rng(11)
    pi, transmat, table = _build_workload()
    params = ModelParams(pi, transmat)
    smooth_t = min(LONGSEQ_T, 200_000)
    head = table[:smooth_t]

    # Warm both sides on a short prefix first.
    _loop_log_likelihood(pi, transmat, head[:8192])
    streaming_log_likelihood(params, head[:8192])
    checkpointed_posteriors(params, head[:8192])

    # One run of each loop: they take seconds, and their results double as
    # a cross-check that the timing compares like with like.
    ll_loop, ll_ref = _timed(lambda: _loop_log_likelihood(pi, transmat, head))
    ll_scan, ll_got = _timed(lambda: streaming_log_likelihood(params, head))
    post_loop, (gamma_ref, xi_ref, post_ll_ref) = _timed(
        lambda: _loop_posteriors(pi, transmat, head)
    )
    post_scan, post = _timed(lambda: checkpointed_posteriors(params, head))
    ll_speedup = ll_loop / ll_scan
    post_speedup = post_loop / post_scan
    assert ll_got == pytest.approx(ll_ref, rel=1e-9)
    assert post.log_likelihood == pytest.approx(post_ll_ref, rel=1e-9)
    assert np.allclose(post.gamma, gamma_ref, atol=1e-8)
    assert np.allclose(post.xi_sum, xi_ref, rtol=1e-8, atol=1e-6)

    # Above the K crossover: one segment per block, the serial recursion.
    k_large, t_large = 45, 10_000
    pi_l, transmat_l = _sticky_model(rng, k_large)
    params_l = ModelParams(pi_l, transmat_l)
    table_l = rng.normal(0.0, 2.0, size=(t_large, k_large))
    large = {}
    for name, loop_fn, scan_fn in (
        ("log_likelihood", _loop_log_likelihood, streaming_log_likelihood),
        ("posteriors", _loop_posteriors, checkpointed_posteriors),
    ):
        loop_s, scan_s = _paired_seconds(
            lambda: loop_fn(pi_l, transmat_l, table_l),
            lambda: scan_fn(params_l, table_l),
            repeats=5,
        )
        large[name] = loop_s / scan_s

    # Working memory beyond the returned gamma is a few blocks, whatever T.
    peaks = {}
    for t in sorted({smooth_t, LONGSEQ_T}):
        peak, gamma_bytes = _posterior_peak(params, table[:t])
        peaks[t] = {"peak_bytes": peak, "gamma_bytes": gamma_bytes}
        assert peak - gamma_bytes <= _STREAM_CEILING_BYTES

    merge_results(
        _RESULT_PATH,
        {
            "long_smoothing": {
                "workload": {"T": smooth_t, "n_states": _K},
                "seconds": {
                    "log_likelihood": {"loop": ll_loop, "scan": ll_scan},
                    "posteriors": {"loop": post_loop, "scan": post_scan},
                },
                "speedup": {"log_likelihood": ll_speedup, "posteriors": post_speedup},
                "large_k": {"n_states": k_large, "T": t_large, "ratio": large},
                "posterior_memory": {str(t): v for t, v in peaks.items()},
            }
        },
    )

    print_header("Long-sequence likelihood and posteriors - segment scan vs per-token loop")
    print(f"T={smooth_t:,}  K={_K}")
    print(f"likelihood : loop {ll_loop:6.2f} s | scan {ll_scan:6.3f} s | {ll_speedup:5.1f}x")
    print(f"posteriors : loop {post_loop:6.2f} s | scan {post_scan:6.3f} s | {post_speedup:5.1f}x")
    print(f"K={k_large}, T={t_large:,} (serial recursion): likelihood "
          f"{large['log_likelihood']:.2f}x | posteriors {large['posteriors']:.2f}x")
    for t, v in peaks.items():
        print(f"posteriors at T={t:,}: peak {v['peak_bytes'] / 1e6:6.1f} MB "
              f"(gamma {v['gamma_bytes'] / 1e6:.1f} MB)")
    print(f"results merged into {_RESULT_PATH.name}")

    benchmark.extra_info.update(
        long_loglik_speedup=ll_speedup, long_posteriors_speedup=post_speedup
    )
    benchmark.pedantic(
        lambda: checkpointed_posteriors(params, head), rounds=1, iterations=1
    )

    assert ll_speedup >= MIN_LONG_SMOOTH_SPEEDUP
    assert post_speedup >= MIN_LONG_SMOOTH_SPEEDUP
    assert large["log_likelihood"] >= MIN_LARGE_K_RATIO
    assert large["posteriors"] >= MIN_LARGE_K_RATIO
