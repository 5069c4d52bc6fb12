"""Benchmark: full EM-iteration throughput over a compiled corpus.

The training loop is the workload the paper's experiments hammer: repeated
Baum-Welch fits of HMM/dHMM across the PoS and OCR datasets and whole
ablation grids.  This benchmark times complete EM iterations (E-step *and*
M-step) of ``BaumWelchTrainer.fit`` over a compiled corpus — dataset encoded
once by :class:`~repro.hmm.corpus.CompiledCorpus`, one vectorized
emission-scoring call + packed gather/scatter per iteration, bincount/matmul
M-steps — on the scaled backend against the same ``fit`` loop on the
log-domain reference backend (per-sequence log-space recursions), and gates
the speedup.

A second benchmark gates the packed time-major E-step at the paper's PoS
shape (3 828 sentences, V = 10 000, K = 15, drawn like perfbench's
``train_dhmm_pos``) against the padded length-bucket E-step it replaced,
kept below as the timing baseline: corpus scoring plus forward-backward
must be at least ``BENCH_MIN_PACKED_ESTEP_SPEEDUP`` times faster, match the
baseline to 1e-8, and hold its tracemalloc peak within 1.25x of the
baseline's.

A third benchmark gates, at the same shape, what the trainer now runs per
iteration outside the transition M-step: the E-step handed the emission
model (probability-domain weights gathered straight from ``B``, no log
table) and the sparse-product categorical M-step, against the log-table
E-step and the per-state ``bincount`` M-step kept below as the baseline.
It must be at least ``BENCH_MIN_PROB_ESTEP_SPEEDUP`` times faster, match
the baseline to 1e-8, and peak no higher under tracemalloc.

A fourth benchmark gates the DPP transition M-step (the paper's MAP update,
Sec. 3.4.1) on the M-step instances of a dHMM fit at the same shape
(alpha = 100, 20 EM iterations, as perfbench's ``train_dhmm_pos``): the
converged fixed-point / Newton ascent against the 50-step projected
gradient ascent it replaced, kept below as the baseline.  It must be at
least ``BENCH_MIN_DPP_MSTEP_SPEEDUP`` times faster in the median, end every
instance within 1e-3 nats of a reference optimum (L-BFGS-B polishing the
result, computed here), and never below the baseline's result.  Two
prior-dominated instance sets (alpha = 1000 on 600 sentences, and this
file's 400-sentence corpus at alpha = 100) are recorded beside it.

Results merge into ``BENCH_training.json`` at the repository root.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from benchmarks.conftest import merge_results, print_header
from perfbench.inputs import PAPER_SENTENCES, PAPER_VOCABULARY, PosSource
from repro.core import transition_prior
from repro.core.config import DHMMConfig
from repro.core.diversified_hmm import DiversifiedHMM
from repro.core.transition_prior import DiversityTransitionUpdater, DPPTransitionPrior
from repro.hmm import BaumWelchTrainer, CategoricalEmission, HMM, InferenceEngine
from repro.optim.projected_gradient import maximize_rowwise_simplex
from repro.utils.maths import normalize_rows

#: Acceptance floor for full-EM-iteration throughput of the scaled backend
#: over the per-sequence log-domain reference backend.
#: Overridable so noisy shared CI runners can relax the gate.
MIN_TRAINING_SPEEDUP = float(os.environ.get("BENCH_MIN_TRAINING_SPEEDUP", "5.0"))

#: Acceptance floor for scoring + E-step of the packed kernels over the
#: padded length-bucket kernels at the paper's PoS shape.
MIN_PACKED_ESTEP_SPEEDUP = float(os.environ.get("BENCH_MIN_PACKED_ESTEP_SPEEDUP", "1.5"))

#: Ceiling on the packed E-step's tracemalloc peak, relative to the bucket
#: baseline's: the packed layout must not buy its speed with memory.
MAX_PACKED_ESTEP_MEMORY_RATIO = 1.25

#: Acceptance floor for the E-step and emission M-step through the emission
#: model over the log-table E-step with the per-state bincount M-step.
MIN_PROB_ESTEP_SPEEDUP = float(os.environ.get("BENCH_MIN_PROB_ESTEP_SPEEDUP", "1.4"))

#: Acceptance floor for the median DPP transition M-step of the converged
#: ascent over the 50-step projected-gradient update at the PoS shape.
MIN_DPP_MSTEP_SPEEDUP = float(os.environ.get("BENCH_MIN_DPP_MSTEP_SPEEDUP", "4.0"))

#: Largest shortfall (nats) of a PoS-shape M-step below the reference optimum.
MAX_DPP_MSTEP_SHORTFALL = 1e-3

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


# ------------------------------------------------------------------ #
# Packed E-step vs the padded length-bucket E-step it replaced
# ------------------------------------------------------------------ #
_BUCKET_SIZE = 64
_TINY = 1e-300


def _bucket_positions(corpus) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(idx, lengths, positions)`` of each padded length-bucket.

    Sequences sorted by length (stable), chunked by 64; padded positions
    point at the sentinel row ``n_tokens`` of the extended score table.
    Built once, outside the timing, as the old compile did.
    """
    order = np.argsort(corpus.lengths, kind="stable")
    buckets = []
    for lo in range(0, order.size, _BUCKET_SIZE):
        idx = order[lo : lo + _BUCKET_SIZE]
        lengths = corpus.lengths[idx]
        span = np.arange(int(lengths.max()))
        positions = np.where(
            span[None, :] < lengths[:, None],
            corpus.offsets[idx][:, None] + span[None, :],
            corpus.n_tokens,
        )
        buckets.append((idx, lengths, positions))
    return buckets


def _bucket_score(corpus, emissions) -> np.ndarray:
    """The old ``CompiledCorpus.score``: the table plus a zero sentinel row."""
    scores = emissions.log_likelihoods(corpus.concat)
    ext = np.empty((corpus.n_tokens + 1, scores.shape[1]))
    ext[:-1] = scores
    ext[-1] = 0.0
    return ext


def _bucket_fb(startprob, transmat, log_b, lengths):
    """Scaled forward-backward over one padded ``(B, L, K)`` bucket."""
    batch, max_len, n_states = log_b.shape
    shift = np.max(log_b, axis=2)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    obs = np.exp(log_b - shift[:, :, None])
    alpha_hat = np.empty_like(obs)
    scale = np.ones((batch, max_len))
    alpha = startprob[None, :] * obs[:, 0]
    raw = alpha.sum(axis=1)
    underflow = raw < _TINY
    c0 = np.maximum(raw, _TINY)
    alpha = alpha / c0[:, None]
    alpha_hat[:, 0] = alpha
    scale[:, 0] = c0
    for t in range(1, max_len):
        active = t < lengths
        propagated = (alpha @ transmat) * obs[:, t]
        raw = propagated.sum(axis=1)
        underflow |= active & (raw < _TINY)
        c_t = np.where(active, np.maximum(raw, _TINY), 1.0)
        alpha = np.where(active[:, None], propagated / c_t[:, None], alpha)
        alpha_hat[:, t] = alpha
        scale[:, t] = c_t
    # The PoS shape never underflows; the log-domain repair is left out.
    assert not underflow.any()
    mask = np.arange(max_len)[None, :] < lengths[:, None]
    log_likelihoods = (np.log(scale) + np.where(mask, shift, 0.0)).sum(axis=1)

    beta_hat = np.empty_like(obs)
    beta = np.ones((batch, n_states))
    beta_hat[:, max_len - 1] = beta
    for t in range(max_len - 2, -1, -1):
        update = (t + 1) < lengths
        weighted = obs[:, t + 1] * beta
        propagated = (weighted @ transmat.T) / scale[:, t + 1, None]
        beta = np.where(update[:, None], propagated, beta)
        beta_hat[:, t] = beta
    gamma = alpha_hat * beta_hat
    gamma /= np.maximum(gamma.sum(axis=2, keepdims=True), _TINY)
    xi_weight = obs * beta_hat / scale[:, :, None]
    valid = (np.arange(1, max_len)[None, :] < lengths[:, None])[:, :, None]
    a = np.where(valid, alpha_hat[:, :-1, :], 0.0)
    w = np.where(valid, xi_weight[:, 1:, :], 0.0)
    xi_rows = transmat * (a.transpose(0, 2, 1) @ w)
    return gamma, xi_rows, log_likelihoods


def _bucket_posteriors(startprob, transmat, corpus, buckets, scores_ext):
    """The bucket E-step: gather each bucket, run it, scatter its posteriors."""
    n_states = startprob.shape[0]
    gamma_ext = np.empty((corpus.n_tokens + 1, n_states))
    xi_sum = np.zeros((n_states, n_states))
    lls = np.empty(corpus.n_sequences)
    for idx, lengths, positions in buckets:
        gamma, xi_rows, part = _bucket_fb(
            startprob, transmat, scores_ext[positions], lengths
        )
        gamma_ext[positions] = gamma
        xi_sum += xi_rows.sum(axis=0)
        lls[idx] = part
    return gamma_ext[:-1], xi_sum, lls


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_packed_estep_speedup(benchmark):
    source = PosSource.from_seed(3)
    data = source.sample(PAPER_SENTENCES, stream=1)
    startprob, transmat = source.startprob, source.transmat
    emissions = CategoricalEmission(source.emission_probs)
    engine = InferenceEngine(backend="scaled")
    corpus = engine.compile(data.words)
    buckets = _bucket_positions(corpus)

    def packed():
        return engine.posteriors_corpus(
            startprob, transmat, corpus, corpus.score(emissions)
        )

    def bucketed():
        return _bucket_posteriors(
            startprob, transmat, corpus, buckets, _bucket_score(corpus, emissions)
        )

    # Correctness gate: the packed kernels compute the same E-step.
    got = packed()
    gamma, xi_sum, lls = bucketed()
    np.testing.assert_allclose(got.gamma_concat, gamma, atol=1e-8, rtol=0)
    np.testing.assert_allclose(got.xi_sum, xi_sum, atol=1e-8, rtol=1e-12)
    np.testing.assert_allclose(got.log_likelihoods, lls, atol=1e-8, rtol=1e-12)

    # Alternate the two so a slow spell of the host hits both alike.
    packed_s, bucket_s = [], []
    for _ in range(5):
        for fn, times in ((packed, packed_s), (bucketed, bucket_s)):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    packed_seconds, bucket_seconds = min(packed_s), min(bucket_s)
    speedup = bucket_seconds / packed_seconds

    # Working memory of the E-step alone, given the score table.
    scores = corpus.score(emissions)
    scores_ext = _bucket_score(corpus, emissions)
    packed_peak = _peak_mb(
        lambda: engine.posteriors_corpus(startprob, transmat, corpus, scores)
    )
    bucket_peak = _peak_mb(
        lambda: _bucket_posteriors(startprob, transmat, corpus, buckets, scores_ext)
    )
    memory_ratio = packed_peak / bucket_peak

    results = {
        "packed_estep": {
            "workload": {
                "n_sentences": corpus.n_sequences,
                "n_tokens": corpus.n_tokens,
                "n_states": startprob.shape[0],
                "vocabulary_size": emissions.n_symbols,
                "max_length": int(corpus.lengths.max()),
                "source": "perfbench.inputs.PosSource, seed 3, stream 1",
            },
            "score_estep_seconds": {"packed": packed_seconds, "bucketed": bucket_seconds},
            "score_estep_speedup": speedup,
            "packed_tokens_per_second": corpus.n_tokens / packed_seconds,
            "estep_tracemalloc_peak_mb": {"packed": packed_peak, "bucketed": bucket_peak},
            "estep_memory_ratio": memory_ratio,
        }
    }
    merge_results(_RESULT_PATH, results)

    print_header("Training - packed time-major E-step vs padded length-buckets")
    print(f"score + E-step: packed {packed_seconds * 1e3:7.1f} ms | "
          f"buckets {bucket_seconds * 1e3:7.1f} ms | {speedup:4.2f}x")
    print(f"E-step tracemalloc peak: packed {packed_peak:5.1f} MB | "
          f"buckets {bucket_peak:5.1f} MB | {memory_ratio:4.2f}x")
    print(f"results merged into {_RESULT_PATH.name}")

    benchmark.extra_info.update(packed_estep_speedup=speedup)
    benchmark.pedantic(packed, rounds=1, iterations=1)

    assert speedup >= MIN_PACKED_ESTEP_SPEEDUP
    assert memory_ratio <= MAX_PACKED_ESTEP_MEMORY_RATIO


# ------------------------------------------------------------------ #
# E-step and M-step through the emission model vs the log-table path
# ------------------------------------------------------------------ #
def _bincount_m_step(emissions, corpus, gamma) -> None:
    """The categorical M-step before the sparse product: a bincount per state."""
    tokens = np.asarray(corpus.concat, dtype=np.int64)
    counts = np.empty((emissions.n_states, emissions.n_symbols))
    for state in range(emissions.n_states):
        counts[state] = np.bincount(
            tokens, weights=gamma[:, state], minlength=emissions.n_symbols
        )
    emissions.emission_probs = normalize_rows(counts)


def test_probability_estep_speedup(benchmark):
    source = PosSource.from_seed(3)
    data = source.sample(PAPER_SENTENCES, stream=1)
    startprob, transmat = source.startprob, source.transmat
    emissions = CategoricalEmission(source.emission_probs)
    engine = InferenceEngine(backend="scaled")
    corpus = engine.compile(data.words)
    # The M-steps write scratch models, so every timed E-step sees one B.
    updated = {
        "model": CategoricalEmission(source.emission_probs),
        "table": CategoricalEmission(source.emission_probs),
    }

    def through_model():
        stats = engine.posteriors_corpus(startprob, transmat, corpus, emissions)
        updated["model"].m_step_compiled(corpus, stats.gamma_concat)
        return stats

    def through_table():
        stats = engine.posteriors_corpus(
            startprob, transmat, corpus, corpus.score(emissions)
        )
        _bincount_m_step(updated["table"], corpus, stats.gamma_concat)
        return stats

    # Correctness gate: both paths compute the same E-step and M-step.
    got, want = through_model(), through_table()
    np.testing.assert_allclose(got.gamma_concat, want.gamma_concat, atol=1e-8, rtol=0)
    np.testing.assert_allclose(got.xi_sum, want.xi_sum, atol=1e-8, rtol=1e-12)
    np.testing.assert_allclose(
        got.log_likelihoods, want.log_likelihoods, atol=1e-8, rtol=1e-12
    )
    np.testing.assert_allclose(
        updated["model"].emission_probs, updated["table"].emission_probs, atol=1e-8, rtol=0
    )
    del got, want

    # Alternate the two so a slow spell of the host hits both alike; each
    # round takes ~0.1 s, so 15 rounds give both sides a quiet spell.
    model_s, table_s = [], []
    for _ in range(15):
        for fn, times in ((through_model, model_s), (through_table, table_s)):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    model_seconds, table_seconds = min(model_s), min(table_s)
    speedup = table_seconds / model_seconds

    model_peak = _peak_mb(through_model)
    table_peak = _peak_mb(through_table)

    results = {
        "probability_estep": {
            "workload": {
                "n_sentences": corpus.n_sequences,
                "n_tokens": corpus.n_tokens,
                "n_states": startprob.shape[0],
                "vocabulary_size": emissions.n_symbols,
                "source": "perfbench.inputs.PosSource, seed 3, stream 1",
            },
            "estep_mstep_seconds": {"model": model_seconds, "table": table_seconds},
            "estep_mstep_speedup": speedup,
            "model_tokens_per_second": corpus.n_tokens / model_seconds,
            "tracemalloc_peak_mb": {"model": model_peak, "table": table_peak},
        }
    }
    merge_results(_RESULT_PATH, results)

    print_header("Training - E-step + M-step through the model vs the log table")
    print(f"E-step + emission M-step: model {model_seconds * 1e3:7.1f} ms | "
          f"table {table_seconds * 1e3:7.1f} ms | {speedup:4.2f}x")
    print(f"tracemalloc peak: model {model_peak:5.1f} MB | table {table_peak:5.1f} MB")
    print(f"results merged into {_RESULT_PATH.name}")

    benchmark.extra_info.update(probability_estep_speedup=speedup)
    benchmark.pedantic(through_model, rounds=1, iterations=1)

    assert speedup >= MIN_PROB_ESTEP_SPEEDUP
    assert model_peak <= table_peak


# ------------------------------------------------------------------ #
# Converged DPP transition M-step vs 50 projected-gradient steps
# ------------------------------------------------------------------ #
class _RecordingUpdater(DiversityTransitionUpdater):
    """The dHMM's transition updater, keeping each M-step's inputs."""

    def __init__(self, prior: DPPTransitionPrior, config: DHMMConfig) -> None:
        super().__init__(prior, config)
        self.instances: list[tuple[np.ndarray, np.ndarray]] = []

    def update(self, expected_counts: np.ndarray, current: np.ndarray) -> np.ndarray:
        self.instances.append((np.array(expected_counts), np.array(current)))
        return super().update(expected_counts, current)


def _m_step_instances(words, vocabulary_size, alpha, n_iter, seed):
    """The fit's updater and ``(counts, current)`` of each of its M-steps.

    A 15-state dHMM fit records its inputs; the returned updater is a
    fresh one with the same prior and config, so re-running it records
    nothing.  The estimator is built as perfbench's ``train_dhmm_pos``
    builds it, so the PoS-shape instances are the ones that benchmark's
    M-steps solve.
    """
    config = DHMMConfig(alpha=alpha, max_em_iter=n_iter, em_tol=0.0)
    uniform = np.full((15, vocabulary_size), 1.0 / vocabulary_size)
    estimator = DiversifiedHMM(CategoricalEmission(uniform), config=config, seed=seed)
    recorder = _RecordingUpdater(
        DPPTransitionPrior(alpha=alpha, rho=config.rho, jitter=config.kernel_jitter), config
    )
    estimator.build_trainer = lambda: BaumWelchTrainer(  # type: ignore[method-assign]
        transition_updater=recorder, max_iter=n_iter, tol=0.0
    )
    estimator.fit(words)
    return DiversityTransitionUpdater(recorder.prior, config), recorder.instances


def _projected_gradient_update(updater, counts):
    """The transition M-step before the fixed point: Algorithm 1, 50 steps.

    Warm-started from the normalized counts (``current`` is ignored), with
    the config's iteration cap, tolerance and step size.
    """
    cfg = updater.config
    floor = cfg.transition_floor

    def gradient(A):
        safe_A = np.clip(A, floor, None)
        return counts / safe_A + updater.prior.gradient(safe_A)

    return maximize_rowwise_simplex(
        lambda A: updater.objective(counts, A),
        gradient,
        normalize_rows(counts, pseudocount=floor),
        max_iter=cfg.max_inner_iter,
        tol=cfg.inner_tol,
        initial_step=cfg.initial_step,
        min_value=floor,
    ).solution


def _reference_optimum(updater, counts, start) -> float:
    """The objective L-BFGS-B reaches from ``start`` over a floored row softmax.

    ``A = floor + (1 - K floor) softmax(theta)`` keeps every row on the
    M-step's feasible set; the chain rule runs through the exact gradient
    of the objective (:meth:`DPPTransitionPrior.gradient`).  Started from a
    solver's result, it certifies that no ascent is left there.
    """
    from scipy.optimize import minimize

    k = counts.shape[0]
    floor = updater.config.transition_floor
    mass = 1.0 - k * floor

    def unpack(theta):
        z = theta.reshape(k, k)
        z = np.exp(z - z.max(axis=1, keepdims=True))
        probs = z / z.sum(axis=1, keepdims=True)
        return floor + mass * probs, probs

    def negated(theta):
        A, probs = unpack(theta)
        grad = mass * (counts / A + updater.prior.gradient(A))
        grad_theta = probs * (grad - np.sum(probs * grad, axis=1, keepdims=True))
        return -updater.objective(counts, A), -grad_theta.ravel()

    theta = np.log(np.clip((start - floor) / mass, 1e-300, None)).ravel()
    found = minimize(
        negated, theta, jac=True, method="L-BFGS-B",
        options={"maxiter": 3000, "maxcor": 30, "ftol": 1e-15, "gtol": 1e-10},
    )
    return updater.objective(counts, unpack(found.x)[0])


class _StepCounter:
    """Counts the ascent's fixed-point and Newton steps while installed."""

    def __init__(self) -> None:
        self.fixed_point = 0
        self.newton = 0
        ascent = transition_prior._SqrtKernelAscent
        self._originals = (ascent._fixed_point_run, ascent._newton_run)

    def __enter__(self) -> "_StepCounter":
        fixed_point_run, newton_run = self._originals

        def counted_fixed_point(ascent, *args):
            result = fixed_point_run(ascent, *args)
            self.fixed_point += result[3]
            return result

        def counted_newton(ascent, *args):
            result = newton_run(ascent, *args)
            self.newton += result[3]
            return result

        transition_prior._SqrtKernelAscent._fixed_point_run = counted_fixed_point
        transition_prior._SqrtKernelAscent._newton_run = counted_newton
        return self

    def __exit__(self, *exc) -> None:
        ascent = transition_prior._SqrtKernelAscent
        ascent._fixed_point_run, ascent._newton_run = self._originals


def _measure_m_steps(updater, instances, rounds: int) -> dict:
    """Time both updates per instance (alternating, best of ``rounds``) and score them.

    The reference optimum of an instance is the better of the solver's
    result and L-BFGS-B polishing it.  (Started from the counts or the
    current matrix instead, L-BFGS-B takes up to 15 s per instance here.)
    """
    rows = []
    for counts, current in instances:
        new_s, base_s = [], []
        for _ in range(rounds):
            start = time.perf_counter()
            solution = updater.update(counts, current)
            new_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            baseline = _projected_gradient_update(updater, counts)
            base_s.append(time.perf_counter() - start)
        with _StepCounter() as steps:
            updater.update(counts, current)
        value = updater.objective(counts, solution)
        reference = max(value, _reference_optimum(updater, counts, solution))
        rows.append({
            "ms": min(new_s) * 1e3,
            "baseline_ms": min(base_s) * 1e3,
            "fixed_point_steps": steps.fixed_point,
            "newton_steps": steps.newton,
            "shortfall": reference - value,
            "baseline_shortfall": reference - updater.objective(counts, baseline),
            "above_baseline": value - updater.objective(counts, baseline),
        })
    column = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    return {
        "n_m_steps": len(rows),
        "ms": {"median": float(np.median(column["ms"])), "max": float(column["ms"].max())},
        "baseline_ms": {
            "median": float(np.median(column["baseline_ms"])),
            "max": float(column["baseline_ms"].max()),
        },
        "median_speedup": float(np.median(column["baseline_ms"]) / np.median(column["ms"])),
        "fixed_point_steps": {
            "median": float(np.median(column["fixed_point_steps"])),
            "max": int(column["fixed_point_steps"].max()),
        },
        "newton_steps": {
            "median": float(np.median(column["newton_steps"])),
            "max": int(column["newton_steps"].max()),
        },
        "shortfall_nats": {
            "median": float(np.median(column["shortfall"])),
            "max": float(column["shortfall"].max()),
        },
        "baseline_shortfall_nats": {
            "median": float(np.median(column["baseline_shortfall"])),
            "max": float(column["baseline_shortfall"].max()),
        },
        "min_gain_over_baseline_nats": float(column["above_baseline"].min()),
        "per_m_step_shortfall_nats": [float(x) for x in column["shortfall"]],
    }


def test_dpp_mstep_speedup(benchmark, pos_corpus):
    source = PosSource.from_seed(3)
    words = source.sample(PAPER_SENTENCES, stream=1).words
    updater, paper_shape = _m_step_instances(words, PAPER_VOCABULARY, 100.0, 20, seed=3)
    paper = _measure_m_steps(updater, paper_shape, rounds=3)

    dominated = {}
    prior_sets = (
        ("alpha1000_600_sentences", PosSource.from_seed(0).sample(600, stream=1).words,
         PAPER_VOCABULARY, 1000.0, "perfbench.inputs.PosSource, seed 0, stream 1"),
        ("alpha100_bench_corpus", pos_corpus.words, pos_corpus.vocabulary_size, 100.0,
         "benchmarks.conftest.pos_corpus (400 sentences, V = 800)"),
    )
    for name, set_words, vocabulary, alpha, source_name in prior_sets:
        set_updater, instances = _m_step_instances(set_words, vocabulary, alpha, 25, seed=0)
        dominated[name] = {
            "workload": {"source": source_name, "alpha": alpha, "em_iterations": 25,
                         "n_tokens": int(sum(len(w) for w in set_words))},
            **_measure_m_steps(set_updater, instances, rounds=1),
        }

    results = {
        "dpp_mstep": {
            "paper_shape": {
                "workload": {
                    "source": "perfbench.inputs.PosSource, seed 3, stream 1",
                    "n_sentences": PAPER_SENTENCES,
                    "n_states": 15,
                    "vocabulary_size": PAPER_VOCABULARY,
                    "alpha": 100.0,
                    "em_iterations": 20,
                },
                **paper,
            },
            **dominated,
        }
    }
    merge_results(_RESULT_PATH, results)

    print_header("Training - DPP transition M-step: fixed point + Newton vs projected gradient")
    for name, row in (("paper shape", paper), *dominated.items()):
        print(f"{name:>24}: {row['ms']['median']:6.2f} ms (max {row['ms']['max']:7.2f}) | "
              f"baseline {row['baseline_ms']['median']:6.2f} ms | "
              f"short max {row['shortfall_nats']['max']:.2e} nats "
              f"(baseline {row['baseline_shortfall_nats']['median']:.1f})")
    print(f"results merged into {_RESULT_PATH.name}")

    benchmark.extra_info.update(dpp_mstep_speedup=paper["median_speedup"])
    counts, current = paper_shape[-1]
    benchmark.pedantic(lambda: updater.update(counts, current), rounds=1, iterations=1)

    assert paper["median_speedup"] >= MIN_DPP_MSTEP_SPEEDUP
    assert paper["shortfall_nats"]["max"] <= MAX_DPP_MSTEP_SHORTFALL
    for row in (paper, *dominated.values()):
        assert row["min_gain_over_baseline_nats"] >= 0.0
