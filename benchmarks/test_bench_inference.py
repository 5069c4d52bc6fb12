"""Benchmark: batched scaled-domain engine vs. sequential log-domain reference.

Times the EM E-step (corpus scoring plus ``posteriors_corpus`` over the
whole compiled corpus, exactly as ``BaumWelchTrainer.fit`` runs it) and
batched Viterbi decoding on the PoS-scale workload with both inference
backends, checks the posteriors agree to 1e-8 and the decoded paths are
bit-identical, and merges the measurements into ``BENCH_inference.json`` at
the repository root so future PRs can track the performance trajectory.

Two Viterbi timings are recorded: the ad-hoc ``viterbi_batch`` path (tables
in, compiled per call) and the ``viterbi_corpus`` path over a
:class:`~repro.hmm.corpus.CompiledCorpus` (the dataset encoded once, as the
training loop and offline decode workloads use it).  The corpus path is the
gated one.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import merge_results, print_header
from repro.hmm import CategoricalEmission, HMM, InferenceEngine
from repro.hmm.backends import viterbi_backpointer_dtype

#: Acceptance floor for the E-step speedup of the batched engine (~20x on an
#: idle machine).  Overridable so noisy shared CI runners can relax the gate
#: without losing the recorded numbers.
MIN_E_STEP_SPEEDUP = float(os.environ.get("BENCH_MIN_E_STEP_SPEEDUP", "5.0"))

#: Acceptance floor for the fused log-domain Viterbi kernel over the
#: compiled corpus (~4.5x on an idle machine; the pre-fusion kernel sat at
#: ~2.3x).
MIN_VITERBI_SPEEDUP = float(os.environ.get("BENCH_MIN_VITERBI_SPEEDUP", "4.0"))

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_inference.json"


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


def test_batched_engine_speedup(benchmark, pos_corpus):
    model = _build_model(pos_corpus)
    sequences = pos_corpus.words
    scaled = InferenceEngine(backend="scaled")
    reference = InferenceEngine(backend="log")
    corpus = scaled.compile(sequences)

    def e_step(engine):
        """One training E-step: score the corpus, then stacked forward-backward."""
        return engine.posteriors_corpus(
            model.startprob, model.transmat, corpus, corpus.score(model.emissions)
        )

    # Correctness gate: the backends must agree before timing means anything.
    scaled_stats = e_step(scaled)
    reference_stats = e_step(reference)
    np.testing.assert_allclose(
        scaled_stats.xi_sum, reference_stats.xi_sum, atol=1e-8, rtol=0
    )
    np.testing.assert_allclose(
        scaled_stats.gamma_concat, reference_stats.gamma_concat, atol=1e-8, rtol=0
    )
    assert abs(scaled_stats.log_likelihood - reference_stats.log_likelihood) < 1e-6

    e_step_scaled = _time(lambda: e_step(scaled))
    e_step_reference = _time(lambda: e_step(reference))

    tables = [model.emissions.log_likelihoods(seq) for seq in sequences]
    scores_ext = corpus.score(model.emissions)
    viterbi_batch_scaled = _time(
        lambda: scaled.viterbi_batch(model.startprob, model.transmat, tables)
    )
    viterbi_scaled = _time(
        lambda: scaled.viterbi_corpus(
            model.startprob, model.transmat, corpus, scores_ext
        )
    )
    viterbi_reference = _time(
        lambda: reference.viterbi_batch(model.startprob, model.transmat, tables)
    )
    scaled_paths = scaled.viterbi_corpus(
        model.startprob, model.transmat, corpus, scores_ext
    )
    reference_paths = reference.viterbi_batch(model.startprob, model.transmat, tables)
    # The fused kernel runs the same log-domain recursion as the reference,
    # so paths and joint log-probabilities must be bit-identical.
    for (got_path, got_lj), (want_path, want_lj) in zip(scaled_paths, reference_paths):
        np.testing.assert_array_equal(got_path, want_path)
        assert got_lj == want_lj

    # Memory footprint: the kernel's *actual* backpointer allocation (the
    # backend records the dtype and shape of its most recent one) must use
    # the smallest dtype that can index the state space — uint8 here, an
    # 8x saving over int64 — with one row per packed row.
    bp_dtype = scaled.backend.last_backpointer_dtype
    assert bp_dtype is not None
    assert bp_dtype == viterbi_backpointer_dtype(pos_corpus.n_tags)
    assert bp_dtype.itemsize == 1
    plan = corpus.packed
    bp_shape = scaled.backend.last_backpointer_shape
    assert bp_shape == (plan.n_rows, pos_corpus.n_tags)
    n_entries = int(np.prod(bp_shape))
    int64_bytes = n_entries * np.dtype(np.int64).itemsize
    assert n_entries * bp_dtype.itemsize <= int64_bytes // 8

    e_step_speedup = e_step_reference / e_step_scaled
    viterbi_speedup = viterbi_reference / viterbi_scaled
    viterbi_batch_speedup = viterbi_reference / viterbi_batch_scaled

    results = {
        "workload": {
            "n_sentences": pos_corpus.n_sentences,
            "n_tokens": pos_corpus.n_tokens,
            "n_states": pos_corpus.n_tags,
            "vocabulary_size": pos_corpus.vocabulary_size,
        },
        "e_step_seconds": {"scaled": e_step_scaled, "log": e_step_reference},
        "viterbi_seconds": {
            "scaled": viterbi_scaled,
            "scaled_batch": viterbi_batch_scaled,
            "log": viterbi_reference,
        },
        "e_step_speedup": e_step_speedup,
        "viterbi_speedup": viterbi_speedup,
        "viterbi_batch_speedup": viterbi_batch_speedup,
        "viterbi_backpointer_dtype": bp_dtype.name,
    }
    merge_results(_RESULT_PATH, results)

    print_header("Inference engine - batched scaled vs sequential log-domain")
    print(f"E-step          : scaled {e_step_scaled * 1e3:8.1f} ms | "
          f"log {e_step_reference * 1e3:8.1f} ms | {e_step_speedup:5.1f}x")
    print(f"Viterbi (corpus): scaled {viterbi_scaled * 1e3:8.1f} ms | "
          f"log {viterbi_reference * 1e3:8.1f} ms | {viterbi_speedup:5.1f}x")
    print(f"Viterbi (batch) : scaled {viterbi_batch_scaled * 1e3:8.1f} ms | "
          f"log {viterbi_reference * 1e3:8.1f} ms | {viterbi_batch_speedup:5.1f}x")
    print(f"results merged into {_RESULT_PATH.name}")

    benchmark.extra_info.update(
        e_step_speedup=e_step_speedup, viterbi_speedup=viterbi_speedup
    )
    benchmark.pedantic(lambda: e_step(scaled), rounds=1, iterations=1)

    assert e_step_speedup >= MIN_E_STEP_SPEEDUP
    assert viterbi_speedup >= MIN_VITERBI_SPEEDUP
