"""Benchmark: genome-scale chunked decode vs serial single-bucket decode.

One T=1M-token sequence (``BENCH_LONGSEQ_T`` overrides the length) decoded
two ways through the same fused log-domain Viterbi kernel:

* **serial** — the whole sequence as a single bucket row ``(1, T, K)``:
  one Python-level iteration per timestep;
* **chunked** — ``viterbi_long``: overlapping windows decoded
  ``group_size`` at a time as one bucket (B-way data parallelism), paths
  stitched at agreement points inside the overlaps.

The chunked path must be at least ``BENCH_MIN_LONG_DECODE_SPEEDUP`` times
faster, stitch exactly (or >= 99.9% token agreement when a fallback stitch
occurs), and hold a *T-independent* working set: the decode-phase
tracemalloc peak is gated against the windows-resident budget
(``group_size x window x K`` floats) plus the O(T) result path itself,
and the streamed log-likelihood is gated against a flat absolute ceiling.
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
from repro.hmm import CompiledCorpus, ScaledBatchedBackend, streaming_log_likelihood

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

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_inference.json"

_WINDOW = 4096
_OVERLAP = 256
_GROUP = 64
_K = 8


def _build_workload():
    """A sticky K=8 model plus a (T, K) emission log-likelihood table.

    The table is drawn directly at log-likelihood magnitudes rather than
    sampled token-by-token through ``HMM.sample`` (per-step Python would
    dwarf the decode itself at T=1M); the decode kernels only ever see
    emission scores, so the timing is identical.
    """
    rng = np.random.default_rng(7)
    pi = rng.dirichlet(np.ones(_K))
    transmat = 0.8 * np.eye(_K) + 0.2 * rng.dirichlet(np.ones(_K), size=_K)
    transmat /= transmat.sum(axis=1, keepdims=True)
    table = rng.normal(0.0, 2.0, size=(LONGSEQ_T, _K))
    return pi, transmat, table


def _serial_viterbi(backend, pi, transmat, table):
    """The whole table as one bucket row: a directly built corpus has no
    long threshold, so nothing routes it through the chunked decoder."""
    corpus = CompiledCorpus([table])
    return backend.viterbi_corpus(pi, transmat, corpus, corpus.extend_scores(table))[0]


def test_long_sequence_decode(benchmark):
    pi, transmat, table = _build_workload()
    backend = ScaledBatchedBackend(bucket_size=_GROUP)

    # Warm numpy/the kernel on a small prefix so first-call overheads do
    # not pollute the single-shot serial timing below.
    backend.viterbi_long(pi, transmat, table[:20_000], window=_WINDOW, overlap=_OVERLAP)
    _serial_viterbi(backend, pi, transmat, table[:20_000])

    start = time.perf_counter()
    serial_path, serial_lj = _serial_viterbi(backend, pi, transmat, table)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    res = backend.viterbi_long(
        pi, transmat, table, window=_WINDOW, overlap=_OVERLAP, group_size=_GROUP
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
        pi, transmat, table, window=_WINDOW, overlap=_OVERLAP, group_size=_GROUP
    )
    _, decode_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert decode_peak <= 6 * windows_budget + 3 * path_bytes

    # Streamed log-likelihood holds only block-sized buffers: a flat
    # absolute ceiling regardless of T.  The forward recursion is
    # inherently one Python step per timestep, so the gate runs on a
    # 200k-token slice — the ceiling is length-independent either way.
    ll_t = min(LONGSEQ_T, 200_000)
    tracemalloc.start()
    start = time.perf_counter()
    stream_ll = streaming_log_likelihood(pi, transmat, table[:ll_t])
    ll_seconds = time.perf_counter() - start
    _, ll_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert ll_peak <= 64 * 1024 * 1024

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

    print_header("Long-sequence decode - chunked windows vs serial single bucket")
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
            pi,
            transmat,
            table[:100_000],
            window=_WINDOW,
            overlap=_OVERLAP,
            group_size=_GROUP,
        ),
        rounds=1,
        iterations=1,
    )

    assert speedup >= MIN_LONG_DECODE_SPEEDUP
