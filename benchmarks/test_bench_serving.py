"""Benchmark: micro-batched TaggingService vs sequential per-request decode,
and batched streaming (B concurrent streams per tick) vs per-stream stepping.

Simulates a tagging API at PoS scale: every sentence of the benchmark
corpus is one client request.  The *sequential* baseline decodes each
request the moment it arrives (one engine call per sequence — what any
caller without the service would do); the *service* run submits the same
requests concurrently and lets the micro-batcher coalesce them into
packed engine batches.  Also reports the fixed-lag streaming decoder's
single-token-latency path for reference.

The idle benchmark sends requests one at a time, each after an idle gap,
and gates what the service adds to the engine's own time: the dispatcher
batches continuously, so a lone request must not wait for a batching timer.

The streaming benchmark drives B=32 concurrent online streams: the
baseline steps 32 one-stream sessions per tick (what 32 dedicated
``StreamingDecoder`` objects run), the batched run advances all 32 through
one ``BatchedStreamingSession.step_many`` tick.  Results merge into
``BENCH_serving.json`` at the repository root.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import merge_results, print_header
from repro.core.config import ServingConfig
from repro.hmm import CategoricalEmission, HMM
from repro.hmm.viterbi import viterbi_decode_from_log
from repro.serving import StreamingDecoder, StreamingService, TaggingService
from repro.utils.maths import safe_log

#: Acceptance floor for StreamingService tick occupancy with B concurrent
#: clients: queued pushes must coalesce into genuinely batched ticks.
MIN_STREAM_SERVICE_OCCUPANCY = float(
    os.environ.get("BENCH_MIN_STREAM_SERVICE_OCCUPANCY", "4.0")
)

#: Acceptance floor for the service-vs-sequential throughput ratio (the
#: ISSUE-2 gate is 3x; an idle machine measures well above that).
MIN_SERVICE_SPEEDUP = float(os.environ.get("BENCH_MIN_SERVICE_SPEEDUP", "3.0"))

#: Acceptance floor for batched streaming vs per-stream stepping at B=32
#: (the ISSUE-3 gate is 3x).
MIN_STREAM_BATCH_SPEEDUP = float(
    os.environ.get("BENCH_MIN_STREAM_BATCH_SPEEDUP", "3.0")
)

#: Acceptance floor for wave-batched StreamingService clients
#: (``submit_push_many``) vs per-client dedicated decoders.  The wave path
#: pays one queue round-trip per client instead of one per token and the
#: dispatcher advances all fronts through vectorized lock-step ticks, so
#: it must at least match the dedicated decoders it replaces.
MIN_STREAM_SERVICE_SPEEDUP = float(
    os.environ.get("BENCH_MIN_STREAM_SERVICE_SPEEDUP", "1.0")
)

#: Ceiling on the median time a request sent to an idle TaggingService
#: spends beyond the engine's own decode of it.  Below the 2 ms batching
#: timer the dispatcher used to wait, so a reintroduced timer fails.
MAX_IDLE_OVERHEAD_MS = float(os.environ.get("BENCH_MAX_IDLE_OVERHEAD_MS", "1.0"))

#: Idle-overhead workload: this many requests, each after this idle gap.
IDLE_REQUESTS = 300
IDLE_GAP_S = 0.002

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"


def _build_model(corpus) -> HMM:
    rng = np.random.default_rng(1)
    emissions = CategoricalEmission.random_init(
        corpus.n_tags, corpus.vocabulary_size, seed=1
    )
    return HMM(
        rng.dirichlet(np.ones(corpus.n_tags)),
        rng.dirichlet(np.ones(corpus.n_tags), size=corpus.n_tags),
        emissions,
    )


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time in seconds (one warm-up call first)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _alternating(baseline, candidate, rounds: int = 9) -> tuple[float, float, float]:
    """Median per-round ``baseline / candidate`` time ratio, then each leg's
    median seconds (one warm-up call of each first).

    The legs alternate within every round, so a slow spell of the host
    lands inside one round's ratio instead of deciding the whole gate.
    """
    baseline()
    candidate()
    seconds = np.empty((rounds, 2))
    for row in seconds:
        for leg, fn in enumerate((baseline, candidate)):
            start = time.perf_counter()
            fn()
            row[leg] = time.perf_counter() - start
    baseline_s, candidate_s = np.median(seconds, axis=0)
    return float(np.median(seconds[:, 0] / seconds[:, 1])), baseline_s, candidate_s


def test_micro_batched_service_speedup(benchmark, pos_corpus):
    model = _build_model(pos_corpus)
    sequences = pos_corpus.words
    n_tokens = sum(len(seq) for seq in sequences)
    # Coalescing many requests per micro-batch lets one packed recursion
    # step cover every request still active at that position.
    config = ServingConfig(max_batch_size=256)

    # Correctness gate: served paths must match direct batch decoding.
    with TaggingService(model, config=config) as service:
        served = service.tag_many(sequences)
    expected = model.predict(sequences)
    mismatched = sum(
        0 if np.array_equal(got, want) else 1 for got, want in zip(served, expected)
    )
    assert mismatched == 0

    def sequential():
        for seq in sequences:
            model.decode(seq)

    sequential_seconds = _time(sequential)

    def micro_batched():
        with TaggingService(model, config=config) as service:
            service.tag_many(sequences)

    service_seconds = _time(micro_batched)

    # Service occupancy stats from one instrumented run.
    with TaggingService(model, config=config) as service:
        service.tag_many(sequences)
        stats = service.stats.snapshot()

    # Reference: the per-token streaming path (latency-optimized, not
    # throughput-optimized) on a subset, scaled to tokens/second.
    stream_subset = sequences[:100]
    start = time.perf_counter()
    for seq in stream_subset:
        decoder = StreamingDecoder(model, lag=8)
        decoder.push_many(seq)
        decoder.finish()
    stream_seconds = time.perf_counter() - start
    stream_tokens = sum(len(s) for s in stream_subset)

    speedup = sequential_seconds / service_seconds
    results = {
        "workload": {
            "n_requests": len(sequences),
            "n_tokens": n_tokens,
            "n_states": pos_corpus.n_tags,
            "vocabulary_size": pos_corpus.vocabulary_size,
        },
        "config": {"max_batch_size": config.max_batch_size},
        "sequential_seconds": sequential_seconds,
        "service_seconds": service_seconds,
        "service_speedup": speedup,
        "sequential_tokens_per_second": n_tokens / sequential_seconds,
        "service_tokens_per_second": n_tokens / service_seconds,
        "streaming_tokens_per_second": stream_tokens / stream_seconds,
        "mean_batch_size": stats["mean_batch_size"],
        "max_batch_size_observed": stats["max_batch_size"],
    }
    merge_results(_RESULT_PATH, results)

    print_header("Serving - micro-batched TaggingService vs sequential decode")
    print(f"sequential : {sequential_seconds * 1e3:8.1f} ms "
          f"({results['sequential_tokens_per_second']:9.0f} tok/s)")
    print(f"service    : {service_seconds * 1e3:8.1f} ms "
          f"({results['service_tokens_per_second']:9.0f} tok/s) | {speedup:5.1f}x")
    print(f"streaming  : {results['streaming_tokens_per_second']:9.0f} tok/s "
          f"(fixed-lag 8, per-token latency path)")
    print(f"mean batch occupancy: {stats['mean_batch_size']:.1f} "
          f"(max {stats['max_batch_size']})")
    print(f"results written to {_RESULT_PATH.name}")

    benchmark.extra_info.update(service_speedup=speedup)
    benchmark.pedantic(micro_batched, rounds=1, iterations=1)

    assert speedup >= MIN_SERVICE_SPEEDUP


def test_idle_request_overhead(benchmark, pos_corpus):
    """A lone request on an idle service vs the engine decoding it directly.

    Requests go out one at a time, each after a 2 ms idle gap, interleaved
    with direct ``model.predict([seq])`` calls after the same gap.  The
    gated overhead is the median of the paired differences.
    """
    model = _build_model(pos_corpus)
    sequences = pos_corpus.words
    picks = np.random.default_rng(5).integers(0, len(sequences), size=IDLE_REQUESTS)

    def measure():
        service_ms, engine_ms = [], []
        with TaggingService(model) as service:
            service.tag(sequences[0])  # warm-up
            for j in picks:
                seq = sequences[j]
                time.sleep(IDLE_GAP_S)
                start = time.perf_counter()
                served = service.tag(seq)
                service_ms.append((time.perf_counter() - start) * 1e3)
                time.sleep(IDLE_GAP_S)
                start = time.perf_counter()
                direct = model.predict([seq])[0]
                engine_ms.append((time.perf_counter() - start) * 1e3)
                # Correctness gate: the served path is the direct decode.
                assert np.array_equal(served, direct)
        return np.asarray(service_ms), np.asarray(engine_ms)

    service_ms, engine_ms = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead_ms = float(np.median(service_ms - engine_ms))
    results = {
        "idle_workload": {
            "n_requests": IDLE_REQUESTS,
            "idle_gap_ms": IDLE_GAP_S * 1e3,
            "n_states": pos_corpus.n_tags,
            "vocabulary_size": pos_corpus.vocabulary_size,
        },
        "idle_p50_ms": float(np.median(service_ms)),
        "idle_engine_p50_ms": float(np.median(engine_ms)),
        "idle_overhead_p50_ms": overhead_ms,
    }
    merge_results(_RESULT_PATH, results)

    print_header("Serving - idle request: TaggingService vs direct decode")
    print(f"service    : p50 {results['idle_p50_ms']:6.3f} ms")
    print(f"engine     : p50 {results['idle_engine_p50_ms']:6.3f} ms")
    print(f"overhead   : p50 {overhead_ms:6.3f} ms "
          f"(gate <= {MAX_IDLE_OVERHEAD_MS} ms)")
    print(f"results merged into {_RESULT_PATH.name}")

    benchmark.extra_info.update(idle_overhead_p50_ms=overhead_ms)

    assert overhead_ms <= MAX_IDLE_OVERHEAD_MS


def test_batched_streaming_speedup(benchmark, pos_corpus):
    """B=32 concurrent streams: one batched tick vs 32 per-stream steps."""
    from repro.hmm.backends import BatchedStreamingSession

    model = _build_model(pos_corpus)
    log_pi, log_A = safe_log(model.startprob), safe_log(model.transmat)
    n_streams, length, lag = 32, 64, 16
    rng = np.random.default_rng(7)
    # one emission log-likelihood table per stream, precomputed so both
    # paths measure pure recursion stepping
    tables = [
        model.emissions.log_likelihoods(
            rng.integers(0, pos_corpus.vocabulary_size, size=length)
        )
        for _ in range(n_streams)
    ]

    def per_stream():
        sessions = [
            BatchedStreamingSession(log_pi, log_A, lags=[lag]) for _ in range(n_streams)
        ]
        for t in range(length):
            for session, table in zip(sessions, tables):
                session.step_many(table[t : t + 1], [0])
        return [session.finish(0) for session in sessions]

    def batched():
        session = BatchedStreamingSession(log_pi, log_A, lags=[lag] * n_streams)
        for t in range(length):
            session.step_many(np.stack([table[t] for table in tables]))
        return [session.finish(i) for i in range(n_streams)]

    # Correctness gate: each path's final window is the tail of the
    # full-sequence Viterbi path.
    tails = [
        list(enumerate(viterbi_decode_from_log(log_pi, log_A, table)[0].tolist()))[
            length - lag :
        ]
        for table in tables
    ]
    assert per_stream() == tails
    assert batched() == tails

    speedup, per_stream_seconds, batched_seconds = _alternating(per_stream, batched)
    n_tokens = n_streams * length
    results = {
        "stream_batch_workload": {
            "n_streams": n_streams,
            "stream_length": length,
            "lag": lag,
            "n_states": pos_corpus.n_tags,
        },
        "per_stream_stepping_seconds": per_stream_seconds,
        "stream_batch_seconds": batched_seconds,
        "stream_batch_speedup": speedup,
        "per_stream_tokens_per_second": n_tokens / per_stream_seconds,
        "stream_batch_tokens_per_second": n_tokens / batched_seconds,
    }
    merge_results(_RESULT_PATH, results)

    print_header(
        "Serving - batched streaming vs per-stream stepping "
        "(B=32, median of 9 alternating rounds)"
    )
    print(f"per-stream : {per_stream_seconds * 1e3:8.1f} ms "
          f"({results['per_stream_tokens_per_second']:9.0f} tok/s)")
    print(f"batched    : {batched_seconds * 1e3:8.1f} ms "
          f"({results['stream_batch_tokens_per_second']:9.0f} tok/s) | {speedup:5.1f}x")
    print(f"results merged into {_RESULT_PATH.name}")

    benchmark.extra_info.update(stream_batch_speedup=speedup)
    benchmark.pedantic(batched, rounds=1, iterations=1)

    assert speedup >= MIN_STREAM_BATCH_SPEEDUP


def test_streaming_service_concurrent_clients(benchmark, pos_corpus):
    """B=32 concurrent online clients through the dispatcher-driven
    StreamingService vs each client stepping its own StreamingDecoder.

    Two service client patterns are measured: per-token ``submit_push``
    (one queue round-trip per observation — the latency path) and
    wave-batched ``submit_push_many`` (one round-trip per client, the
    dispatcher advancing all fronts in vectorized lock-step ticks — the
    throughput path).  The wave path carries the throughput gate."""
    model = _build_model(pos_corpus)
    n_streams, length, lag = 32, 64, 16
    rng = np.random.default_rng(11)
    observations = [
        rng.integers(0, pos_corpus.vocabulary_size, size=length)
        for _ in range(n_streams)
    ]
    # every push is one queued request, so B * length pushes in flight at
    # once need the bound lifted (a real deployment would flow-control).
    # The pre-queued backlog is what drives coalescing here: ticks stay at
    # full B-width.
    config = ServingConfig(max_batch_size=64, queue_capacity=None)

    def per_client_decoders():
        results = []
        for obs in observations:
            decoder = StreamingDecoder(model, lag=lag)
            decoder.push_many(obs)
            results.append(decoder.finish())
        return results

    def push_service_run():
        # the concurrent-client pattern: every stream's next observation is
        # already queued, so the dispatcher packs whole waves into one tick
        with StreamingService(model, lag=lag, config=config) as service:
            streams = [service.open() for _ in observations]
            futures = []
            for t in range(length):
                for stream, obs in zip(streams, observations):
                    futures.append(stream.submit_push(obs[t]))
            finishes = [stream.submit_finish() for stream in streams]
            for future in futures:
                future.result()
            return [future.result() for future in finishes]

    def wave_service_run():
        # the high-throughput pattern: each client ships its whole backlog
        # as ONE queue entry; the dispatcher runs the fronts in lock-step
        with StreamingService(model, lag=lag, config=config) as service:
            streams = [service.open() for _ in observations]
            futures = [
                stream.submit_push_many(obs)
                for stream, obs in zip(streams, observations)
            ]
            finishes = [stream.submit_finish() for stream in streams]
            for future in futures:
                future.result()
            return [future.result() for future in finishes]

    # Correctness gate: both service patterns must reproduce per-client
    # decoding bit-for-bit.
    expected = per_client_decoders()
    for served in (push_service_run(), wave_service_run()):
        assert all(
            np.array_equal(got.path, want.path)
            and got.log_likelihood == want.log_likelihood
            for got, want in zip(served, expected)
        )

    decoder_seconds = _time(per_client_decoders)
    push_seconds = _time(push_service_run)
    wave_seconds = _time(wave_service_run)

    with StreamingService(model, lag=lag, config=config) as service:
        streams = [service.open() for _ in observations]
        futures = [
            stream.submit_push(obs[t])
            for t in range(length)
            for stream, obs in zip(streams, observations)
        ]
        for future in futures:
            future.result()
        stats = service.stats.snapshot()

    n_tokens = n_streams * length
    push_speedup = decoder_seconds / push_seconds
    wave_speedup = decoder_seconds / wave_seconds
    results = {
        "stream_service_workload": {
            "n_streams": n_streams,
            "stream_length": length,
            "lag": lag,
            "n_states": pos_corpus.n_tags,
        },
        "per_client_decoder_seconds": decoder_seconds,
        "stream_service_push_seconds": push_seconds,
        "stream_service_push_speedup": push_speedup,
        "stream_service_wave_seconds": wave_seconds,
        "stream_service_speedup": wave_speedup,
        "per_client_tokens_per_second": n_tokens / decoder_seconds,
        "stream_service_push_tokens_per_second": n_tokens / push_seconds,
        "stream_service_wave_tokens_per_second": n_tokens / wave_seconds,
        "stream_service_mean_tick": stats["mean_batch_size"],
        "stream_service_max_tick": stats["max_batch_size"],
    }
    merge_results(_RESULT_PATH, results)

    print_header("Serving - StreamingService (B=32 clients) vs per-client decoders")
    print(f"decoders   : {decoder_seconds * 1e3:8.1f} ms "
          f"({results['per_client_tokens_per_second']:9.0f} tok/s)")
    print(f"per-push   : {push_seconds * 1e3:8.1f} ms "
          f"({results['stream_service_push_tokens_per_second']:9.0f} tok/s) "
          f"| {push_speedup:5.1f}x")
    print(f"wave-batch : {wave_seconds * 1e3:8.1f} ms "
          f"({results['stream_service_wave_tokens_per_second']:9.0f} tok/s) "
          f"| {wave_speedup:5.1f}x")
    print(f"mean tick occupancy: {stats['mean_batch_size']:.1f} "
          f"(max {stats['max_batch_size']})")
    print(f"results merged into {_RESULT_PATH.name}")

    benchmark.extra_info.update(
        stream_service_push_speedup=push_speedup,
        stream_service_speedup=wave_speedup,
    )
    benchmark.pedantic(wave_service_run, rounds=1, iterations=1)

    # The per-push ratio is hardware/noise-sensitive (every push pays a
    # queue+future round-trip), so its gate is on coalescing: B queued
    # clients must produce genuinely batched ticks.
    assert stats["mean_batch_size"] >= MIN_STREAM_SERVICE_OCCUPANCY
    # The wave path amortizes the round-trips away, so the throughput
    # ratio itself is gated.
    assert wave_speedup >= MIN_STREAM_SERVICE_SPEEDUP
