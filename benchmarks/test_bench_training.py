"""Benchmark: full EM-iteration throughput over a compiled corpus.

The training loop is the workload the paper's experiments hammer: repeated
Baum-Welch fits of HMM/dHMM across the PoS and OCR datasets and whole
ablation grids.  This benchmark times complete EM iterations (E-step *and*
M-step) of ``BaumWelchTrainer.fit`` over a compiled corpus — dataset encoded
once by :class:`~repro.hmm.corpus.CompiledCorpus`, one vectorized
emission-scoring call + bucket gather/scatter per iteration, bincount/matmul
M-steps — on the scaled backend against the same ``fit`` loop on the
log-domain reference backend (per-sequence log-space recursions), and gates
the speedup.

Results merge into ``BENCH_training.json`` at the repository root.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import merge_results, print_header
from repro.hmm import BaumWelchTrainer, CategoricalEmission, HMM, InferenceEngine

#: Acceptance floor for full-EM-iteration throughput of the scaled backend
#: over the per-sequence log-domain reference backend.
#: Overridable so noisy shared CI runners can relax the gate.
MIN_TRAINING_SPEEDUP = float(os.environ.get("BENCH_MIN_TRAINING_SPEEDUP", "5.0"))

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_training.json"

_N_ITER = 3


def _fresh_model(corpus) -> HMM:
    rng = np.random.default_rng(7)
    emissions = CategoricalEmission.random_init(
        corpus.n_tags, corpus.vocabulary_size, seed=7
    )
    return HMM(
        rng.dirichlet(np.ones(corpus.n_tags)),
        rng.dirichlet(np.ones(corpus.n_tags), size=corpus.n_tags),
        emissions,
    )


def _run_em(backend: str, model: HMM, corpus, n_iter: int) -> list[float]:
    """``n_iter`` full EM iterations through ``fit`` on the given backend."""
    trainer = BaumWelchTrainer(
        engine=InferenceEngine(backend=backend), max_iter=n_iter, tol=0.0
    )
    return trainer.fit(model, corpus).history


def test_em_iteration_throughput(benchmark, pos_corpus):
    corpus = InferenceEngine(backend="scaled").compile(pos_corpus.words)

    # Correctness gate: both paths must walk the same EM trajectory.
    reference_history = _run_em("log", _fresh_model(pos_corpus), corpus, _N_ITER)
    compiled_history = _run_em("scaled", _fresh_model(pos_corpus), corpus, _N_ITER)
    np.testing.assert_allclose(
        compiled_history, reference_history, rtol=1e-9, atol=1e-6
    )

    def time_once(fn) -> float:
        fn()  # warm-up
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    compiled_seconds = time_once(
        lambda: _run_em("scaled", _fresh_model(pos_corpus), corpus, _N_ITER)
    )
    reference_seconds = time_once(
        lambda: _run_em("log", _fresh_model(pos_corpus), corpus, _N_ITER)
    )

    speedup = reference_seconds / compiled_seconds
    iteration_ms = compiled_seconds / _N_ITER * 1e3
    tokens_per_second = pos_corpus.n_tokens * _N_ITER / compiled_seconds

    results = {
        "workload": {
            "n_sentences": pos_corpus.n_sentences,
            "n_tokens": pos_corpus.n_tokens,
            "n_states": pos_corpus.n_tags,
            "vocabulary_size": pos_corpus.vocabulary_size,
            "n_iterations": _N_ITER,
        },
        "em_seconds": {
            "compiled": compiled_seconds,
            "log_reference": reference_seconds,
        },
        "em_iteration_ms": iteration_ms,
        "em_tokens_per_second": tokens_per_second,
        "em_speedup": speedup,
    }
    merge_results(_RESULT_PATH, results)

    print_header("Training - compiled-corpus EM, scaled vs log-domain backend")
    print(f"{_N_ITER} EM iterations: compiled {compiled_seconds * 1e3:8.1f} ms | "
          f"log {reference_seconds * 1e3:8.1f} ms | {speedup:5.1f}x")
    print(f"per-iteration {iteration_ms:.1f} ms "
          f"({tokens_per_second / 1e3:.0f}K tokens/s)")
    print(f"results merged into {_RESULT_PATH.name}")

    benchmark.extra_info.update(em_speedup=speedup)
    benchmark.pedantic(
        lambda: _run_em("scaled", _fresh_model(pos_corpus), corpus, 1),
        rounds=1,
        iterations=1,
    )

    assert speedup >= MIN_TRAINING_SPEEDUP
