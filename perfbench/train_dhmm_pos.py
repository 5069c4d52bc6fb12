"""train_dhmm_pos: MAP-EM of the diversified HMM at the paper's PoS shape.

``DiversifiedHMM.fit`` on a compiled WSJ-like corpus (3828 sentences,
V = 10 000, ~85K tokens), K = 15, alpha = 100, exactly 20 EM iterations
(``em_tol = 0``), repeated until the time is up; then ``predict_corpus``
gives the 1-to-1 tagging accuracy.  Forward-backward and the DPP transition
M-step only run here.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from perfbench import checks, record
from perfbench.common import Context, Measurement, Phase
from perfbench.inputs import PAPER_SENTENCES, PAPER_VOCABULARY, PosSource
from perfbench.spans import Tracer
from repro.core import transition_prior
from repro.core.config import DHMMConfig
from repro.core.diversified_hmm import DiversifiedHMM
from repro.core.transition_prior import DiversityTransitionUpdater, DPPTransitionPrior
from repro.hmm.baum_welch import BaumWelchTrainer
from repro.hmm.corpus import CompiledCorpus
from repro.hmm.emissions.categorical import CategoricalEmission
from repro.hmm.engine import InferenceEngine
from repro.hmm.model import HMM
from repro.metrics.accuracy import one_to_one_accuracy

N_STATES = 15
ALPHA = 100.0  # the paper's best PoS alpha
N_ITER = 20
CHECK_SENTENCES = 300  # leading subset checked against the log backend
SETUP_REPEATS = 5

LAYER_METRICS = (
    "hmm.corpus.score_ms",
    "hmm.engine.posteriors_corpus_ms",
    "hmm.emissions.m_step_ms",
    "core.transition_prior.update_ms",
    "optim.projected_gradient.iters",
    "optim.projected_gradient.accept_ratio",
    "dpp.log_det.calls",
    "dpp.log_det_ms",
    "hmm.baum_welch.self_ms",
    "core.map_objective_decreases",
)


class Workload:
    def __init__(self, ctx: Context) -> None:
        self.seed = ctx.seed
        n_sentences = max(int(PAPER_SENTENCES * ctx.scale), 40)
        self.data = PosSource.from_seed(ctx.seed).sample(n_sentences, stream=1)
        self.config = DHMMConfig(alpha=ALPHA, max_em_iter=N_ITER, em_tol=0.0)
        self.corpus: CompiledCorpus | None = None

    def inputs(self) -> dict:
        return {
            "sentences": len(self.data.words),
            "tokens": self.data.n_tokens,
            "sentence_length_quartiles": self.data.length_quartiles(),
            "vocabulary": PAPER_VOCABULARY,
            "states": N_STATES,
            "alpha": ALPHA,
            "em_iterations": N_ITER,
        }

    def _estimator(self) -> DiversifiedHMM:
        # Emissions are re-drawn by fit() from the estimator seed.
        uniform = np.full((N_STATES, PAPER_VOCABULARY), 1.0 / PAPER_VOCABULARY)
        return DiversifiedHMM(CategoricalEmission(uniform), config=self.config, seed=self.seed)

    def _initial_model(self) -> HMM:
        """The model ``fit`` starts from, built through the same public calls."""
        rng = np.random.default_rng(self.seed)
        emissions = self._estimator().emissions.copy()
        emissions.initialize_random(self.data.words, rng)
        return HMM.random_init(emissions, seed=rng)

    # -------------------------------------------------------------- #
    def setup(self) -> list[float]:
        """Compile the corpus and initialize the model (median of repeats)."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            corpus = InferenceEngine().compile(self.data.words)
            model = self._initial_model()
            times.append(time.perf_counter() - start)
        self.corpus = corpus
        self.initial_model = model
        return times

    def startup_checks(self) -> list[dict]:
        """First E-step on a leading subset: scaled engine vs log reference."""
        model = self.initial_model
        subset = self.data.words[:CHECK_SENTENCES]
        engine = InferenceEngine()
        sub = engine.compile(subset)
        fast = engine.posteriors_corpus(
            model.startprob, model.transmat, sub, sub.score(model.emissions)
        )
        ref = InferenceEngine(backend="log").posteriors_batch(
            model.startprob, model.transmat, model.emissions.log_likelihoods_batch(subset)
        )
        return [
            checks.estep_matches_reference(
                fast.log_likelihood,
                fast.xi_sum,
                sum(s.log_likelihood for s in ref),
                sum(s.xi_sum for s in ref),
            )
        ]

    # -------------------------------------------------------------- #
    def _install(self, tracer: Tracer, estep_log: list) -> dict:
        counts = {"pg_iters": 0, "pg_accepted": 0, "pg_calls": 0}

        def on_pg(_args, result) -> None:
            counts["pg_calls"] += 1
            counts["pg_iters"] += result.n_iter
            counts["pg_accepted"] += len(result.history) - 1

        def on_estep(args, result) -> None:
            estep_log.append((result.log_likelihood, np.array(args[2], copy=True)))

        tracer.wrap(CompiledCorpus, "score", "hmm.corpus.score")
        tracer.wrap(InferenceEngine, "posteriors_corpus", "hmm.engine.posteriors_corpus", on_estep)
        tracer.wrap(CategoricalEmission, "m_step_compiled", "hmm.emissions.m_step")
        tracer.wrap(DiversityTransitionUpdater, "update", "core.transition_prior.update")
        tracer.wrap(transition_prior, "maximize_rowwise_simplex", "optim.projected_gradient", on_pg)
        tracer.wrap(transition_prior, "dpp_log_prior", "dpp.log_det")
        tracer.wrap(transition_prior, "dpp_log_prior_gradient", "dpp.log_det")
        tracer.wrap(BaumWelchTrainer, "fit", "hmm.baum_welch.fit")
        return counts

    def measure(self, seconds: float, tracer: Tracer | None) -> Measurement:
        corpus = self.corpus
        n_tokens = corpus.n_tokens
        # E-step start times mark iteration boundaries: one timestamp per
        # iteration, the only hook in an untraced pass.
        clock = Tracer()
        clock.wrap(InferenceEngine, "posteriors_corpus", "estep")
        estep_log: list = []
        counts = self._install(tracer, estep_log) if tracer is not None else None
        phase = Phase()
        fit_rates, fit_times, iteration_s, fit_bounds = [], [], [], []
        first = None
        deadline = time.perf_counter() + seconds
        fit_s = 0.0
        try:
            # Start a fit only if it should end before the deadline.
            while not fit_rates or time.perf_counter() + fit_s < deadline:
                estimator = self._estimator()
                n_marks = len(clock.spans)
                start = time.perf_counter()
                with tracer.request(f"fit-{len(fit_rates)}") if tracer else nullcontext():
                    result = estimator.fit(corpus)
                end = time.perf_counter()
                fit_s = end - start
                marks = [s[2] for s in clock.spans[n_marks:]] + [end]
                iteration_s.extend(np.diff(marks))
                fit_times.append(fit_s)
                fit_rates.append(n_tokens * result.n_iter / fit_s)
                fit_bounds.append(len(estep_log))
                phase.ok(result.n_iter)
                if first is None:
                    first = estimator
        finally:
            if tracer is not None:
                tracer.restore()
            clock.restore()

        predicted = first.predict_corpus(corpus)
        accuracy = one_to_one_accuracy(self.data.tags, predicted, N_STATES)
        e2e = {
            "tokens_per_s": record.summary(
                fit_rates, value=n_tokens * phase.attempted / sum(fit_times)
            ),
            "p50_ms": record.p50_metric(iteration_s),
        }
        lat = record.latency_summary(iteration_s)
        named = {
            "em_tokens_per_s": (e2e["tokens_per_s"]["value"], "tok/s"),
            "tag_accuracy_1to1": (accuracy, "fraction"),
            "em_iteration_p50_ms": (lat["p50_ms"], "ms"),
            "em_iteration_p90_ms": (lat["p90_ms"], "ms"),
        }
        m = Measurement(
            end_to_end=e2e,
            named=named,
            phases={"em": phase},
            checks=[],
            overhead_basis=record.percentile(iteration_s, 0.5),
            detail={"fits": len(fit_rates), "iteration_latency": lat,
                    "history_first_last": [result.history[0], result.history[-1]]},
        )
        if tracer is not None:
            m.layer_raw = self._layers(tracer, counts, estep_log, fit_bounds, phase.attempted)
        return m

    def _layers(self, tracer, counts, estep_log, fit_bounds, n_iter) -> dict:
        dur = tracer.durations()
        self_t = tracer.self_times()

        def per_iter_ms(name):
            return sum(dur.get(name, [])) * 1e3 / n_iter

        prior = DPPTransitionPrior(
            alpha=self.config.alpha, rho=self.config.rho, jitter=self.config.kernel_jitter
        )
        decreases = 0
        lo = 0
        for hi in fit_bounds:
            objective = [ll + prior.log_prior(A) for ll, A in estep_log[lo:hi]]
            decreases += int(np.sum(np.diff(objective) < 0))
            lo = hi
        return {
            "hmm.corpus.score_ms": per_iter_ms("hmm.corpus.score"),
            "hmm.engine.posteriors_corpus_ms": per_iter_ms("hmm.engine.posteriors_corpus"),
            "hmm.emissions.m_step_ms": per_iter_ms("hmm.emissions.m_step"),
            "core.transition_prior.update_ms": per_iter_ms("core.transition_prior.update"),
            "optim.projected_gradient.iters": counts["pg_iters"] / max(counts["pg_calls"], 1),
            "optim.projected_gradient.accept_ratio": (
                counts["pg_accepted"] / max(counts["pg_iters"], 1)
            ),
            "dpp.log_det.calls": len(dur.get("dpp.log_det", [])) / n_iter,
            "dpp.log_det_ms": per_iter_ms("dpp.log_det"),
            "hmm.baum_welch.self_ms": self_t.get("hmm.baum_welch.fit", 0.0) * 1e3 / n_iter,
            "core.map_objective_decreases": decreases / len(fit_bounds),
        }

    def peak_rss_mb(self) -> float:
        return record.peak_rss_mb()

    def close(self) -> None:
        pass
