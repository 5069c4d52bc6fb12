"""Baum-Welch (EM) training for HMMs with a pluggable transition M-step.

The expectation step collects the unary posteriors ``gamma`` and the expected
transition counts ``xi`` via forward-backward.  The maximization step updates
``pi`` and the emissions in closed form and delegates the transition update to
a :class:`~repro.hmm.transition_updaters.TransitionUpdater` — the single
extension point the dHMM needs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import ConvergenceWarning, ValidationError
from repro.hmm.corpus import CompiledCorpus, CorpusPosteriors
from repro.hmm.engine import InferenceEngine
from repro.hmm.model import HMM
from repro.hmm.transition_updaters import (
    MaximumLikelihoodTransitionUpdater,
    TransitionUpdater,
)


@dataclass
class FitResult:
    """Summary of an EM run.

    Attributes
    ----------
    log_likelihood:
        Final total data log-likelihood (without any prior term).
    history:
        Log-likelihood after every EM iteration.
    n_iter:
        Number of EM iterations performed.
    converged:
        Whether the improvement of the MAP objective dropped below the
        tolerance before the iteration cap was reached.
    map_objective:
        MAP objective after every EM iteration: the log-likelihood plus the
        transition updater's log prior of the ``A`` that E-step ran with
        (equal to ``history`` for maximum-likelihood updaters).
    """

    log_likelihood: float
    history: list[float] = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False
    map_objective: list[float] = field(default_factory=list)


class BaumWelchTrainer:
    """Expectation-Maximization trainer for :class:`~repro.hmm.model.HMM`.

    Parameters
    ----------
    transition_updater:
        Strategy used for the transition M-step; defaults to the classical
        normalized-counts update.
    max_iter, tol:
        EM stopping criteria (iteration cap and minimum improvement of the
        MAP objective, log-likelihood plus the updater's log prior).
    warn_on_no_convergence:
        Emit a :class:`~repro.exceptions.ConvergenceWarning` if EM stops
        because the iteration budget ran out.
    engine:
        Optional :class:`~repro.hmm.engine.InferenceEngine` used for the
        E-step; when omitted, the model's own engine (and therefore the
        process-wide backend configuration) is used.
    """

    def __init__(
        self,
        transition_updater: TransitionUpdater | None = None,
        max_iter: int = 50,
        tol: float = 1e-4,
        warn_on_no_convergence: bool = False,
        engine: InferenceEngine | None = None,
    ) -> None:
        if max_iter < 1:
            raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
        if tol < 0:
            raise ValidationError(f"tol must be non-negative, got {tol}")
        self.transition_updater = transition_updater or MaximumLikelihoodTransitionUpdater()
        self.max_iter = max_iter
        self.tol = tol
        self.warn_on_no_convergence = warn_on_no_convergence
        self.engine = engine

    # ------------------------------------------------------------------ #
    def _m_step(self, model: HMM, corpus: CompiledCorpus, stats: CorpusPosteriors) -> None:
        """Update ``pi``, ``A`` and the emissions in place from stacked statistics."""
        total = stats.start_counts.sum()
        if total > 0:
            model.startprob = stats.start_counts / total
        model.transmat = self.transition_updater.update(stats.xi_sum, model.transmat)
        model.emissions.m_step_compiled(corpus, stats.gamma_concat)

    def fit(
        self, model: HMM, sequences: Sequence[np.ndarray] | CompiledCorpus
    ) -> FitResult:
        """Run EM until convergence, mutating ``model`` in place.

        ``sequences`` may be a plain sequence collection or an
        already-compiled :class:`~repro.hmm.corpus.CompiledCorpus` (e.g.
        shared with a subsequent batched decode).  Raw sequences are
        compiled once up front, so every EM iteration reuses the same
        concatenated token arrays and packed time-major plan.  The E-step
        is one :meth:`InferenceEngine.posteriors_corpus` call handed the
        emission model itself: the scaled backend asks it once for the
        observation weights of the packed rows
        (:meth:`~repro.hmm.emissions.base.EmissionModel.scaled_likelihoods`;
        for categorical emissions one gather from ``B``, with no
        ``(n_tokens, K)`` log table), runs one packed recursion and gathers
        the posteriors back.  The M-step consumes the stacked statistics
        directly — no per-sequence Python anywhere in the loop.
        """
        if isinstance(sequences, CompiledCorpus):
            corpus = sequences
        else:
            if len(sequences) == 0:
                raise ValidationError("sequences must be non-empty")
            engine = self.engine if self.engine is not None else model.inference_engine
            corpus = engine.compile(sequences)

        history: list[float] = []
        map_objective: list[float] = []
        converged = False
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            engine = self.engine if self.engine is not None else model.inference_engine
            stats = engine.posteriors_corpus(
                model.startprob, model.transmat, corpus, model.emissions
            )
            history.append(stats.log_likelihood)
            map_objective.append(
                stats.log_likelihood + self.transition_updater.log_prior(model.transmat)
            )
            if len(map_objective) >= 2 and abs(map_objective[-1] - map_objective[-2]) < self.tol:
                converged = True
                break
            self._m_step(model, corpus, stats)
            # Release the posteriors before the next E-step allocates its
            # own, so two corpus-sized gamma arrays are never alive at once.
            del stats

        if not converged and self.warn_on_no_convergence:
            warnings.warn(
                f"EM stopped after {n_iter} iterations without converging",
                ConvergenceWarning,
                stacklevel=2,
            )
        final_ll = history[-1] if history else float("-inf")
        return FitResult(
            log_likelihood=final_ll,
            history=history,
            n_iter=n_iter,
            converged=converged,
            map_objective=map_objective,
        )
