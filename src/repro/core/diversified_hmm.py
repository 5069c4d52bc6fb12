"""Unsupervised diversified HMM (the paper's main model, Section 3.4.1).

``DiversifiedHMM`` exposes a scikit-learn-flavoured estimator API
(``fit`` / ``predict`` / ``score``) over the HMM substrate: the E-step is
classical forward-backward, and the transition M-step maximizes the
expected transition log-likelihood plus the weighted DPP log-determinant
prior to convergence (:class:`~repro.core.transition_prior.DiversityTransitionUpdater`),
never lowering it, so the MAP objective does not fall across EM
iterations.  Setting ``alpha = 0`` recovers the classical Baum-Welch HMM
exactly, which is how the paper's "HMM" baseline is run.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Sequence

import numpy as np

from repro.core.config import DHMMConfig
from repro.core.transition_prior import DiversityTransitionUpdater, DPPTransitionPrior
from repro.exceptions import NotFittedError, ValidationError
from repro.hmm.baum_welch import BaumWelchTrainer, FitResult
from repro.hmm.corpus import CompiledCorpus
from repro.hmm.emissions.base import EmissionModel
from repro.hmm.model import HMM
from repro.utils.rng import SeedLike, as_generator


class DiversifiedHMM:
    """Diversity-regularized HMM trained with MAP-EM.

    Parameters
    ----------
    emissions:
        Emission model (Gaussian, Categorical or Bernoulli) covering the
        ``K`` hidden states; its parameters are re-initialized at ``fit``
        time unless ``reinitialize_emissions`` is False.
    config:
        :class:`~repro.core.config.DHMMConfig` with ``alpha`` and the other
        hyper-parameters.  ``alpha = 0`` gives the plain HMM baseline.
    seed:
        Seed or generator for the random initialization of ``pi`` and ``A``
        (Dirichlet with concentration 3, as in the paper's experiments).
    reinitialize_emissions:
        Whether ``fit`` should randomly re-initialize the emission
        parameters before running EM.

    Examples
    --------
    >>> from repro.datasets import generate_toy_dataset
    >>> from repro.hmm import GaussianEmission
    >>> data = generate_toy_dataset(seed=0)
    >>> model = DiversifiedHMM(
    ...     GaussianEmission.random_init(5, data.observations, seed=1),
    ...     config=DHMMConfig(alpha=1.0, max_em_iter=5),
    ...     seed=1,
    ... )
    >>> result = model.fit(data.observations)
    >>> labels = model.predict(data.observations)
    """

    def __init__(
        self,
        emissions: EmissionModel,
        config: DHMMConfig | None = None,
        seed: SeedLike = None,
        reinitialize_emissions: bool = True,
    ) -> None:
        self.config = config or DHMMConfig()
        self.emissions = emissions
        self.seed = seed
        self.reinitialize_emissions = reinitialize_emissions
        self.model_: HMM | None = None
        self.fit_result_: FitResult | None = None

    # ------------------------------------------------------------------ #
    @property
    def n_states(self) -> int:
        """Number of hidden states ``K``."""
        return self.emissions.n_states

    @property
    def alpha(self) -> float:
        """Diversity prior weight."""
        return self.config.alpha

    def _check_fitted(self) -> HMM:
        if self.model_ is None:
            raise NotFittedError("DiversifiedHMM must be fit before inference")
        return self.model_

    @property
    def startprob_(self) -> np.ndarray:
        """Learned initial distribution ``pi``."""
        return self._check_fitted().startprob

    @property
    def transmat_(self) -> np.ndarray:
        """Learned transition matrix ``A``."""
        return self._check_fitted().transmat

    @property
    def emissions_(self) -> EmissionModel:
        """Learned emission model ``B``."""
        return self._check_fitted().emissions

    # ------------------------------------------------------------------ #
    def build_trainer(self) -> BaumWelchTrainer:
        """The Baum-Welch trainer with the diversity-regularized M-step."""
        prior = DPPTransitionPrior(
            alpha=self.config.alpha, rho=self.config.rho, jitter=self.config.kernel_jitter
        )
        updater = DiversityTransitionUpdater(prior, self.config)
        return BaumWelchTrainer(
            transition_updater=updater,
            max_iter=self.config.max_em_iter,
            tol=self.config.em_tol,
        )

    def fit(self, sequences: "Sequence[np.ndarray] | CompiledCorpus") -> FitResult:
        """Run MAP-EM on the observation sequences.

        ``sequences`` may be a :class:`~repro.hmm.corpus.CompiledCorpus`
        (e.g. shared across an ablation grid), in which case the one-time
        encoding is reused by every EM iteration instead of re-deriving it.

        Returns the :class:`~repro.hmm.baum_welch.FitResult`.  Its
        ``history`` is the log-likelihood trace (likelihood only, so HMM and
        dHMM traces are directly comparable); ``map_objective`` adds the
        weighted DPP log prior of the transition matrix each E-step ran
        with.  EM stops when the MAP objective changes by less than
        ``em_tol``.
        """
        raw_sequences = (
            sequences.sequences if isinstance(sequences, CompiledCorpus) else sequences
        )
        if not raw_sequences:
            raise ValidationError("sequences must be non-empty")
        rng = as_generator(self.seed)
        emissions = self.emissions.copy()
        if self.reinitialize_emissions:
            emissions.initialize_random(raw_sequences, rng)
        model = HMM.random_init(emissions, seed=rng)
        trainer = self.build_trainer()
        result = trainer.fit(model, sequences)
        self.model_ = model
        self.fit_result_ = result
        return result

    # ------------------------------------------------------------------ #
    def predict(self, sequences: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Viterbi-decode the most likely hidden state path of every sequence."""
        model = self._check_fitted()
        return model.predict(sequences)

    def predict_corpus(self, corpus: CompiledCorpus) -> list[np.ndarray]:
        """Viterbi paths for a compiled corpus (shared across models/sweeps)."""
        return self._check_fitted().predict_corpus(corpus)

    def predict_single(self, sequence: np.ndarray) -> np.ndarray:
        """Viterbi path of one sequence."""
        return self._check_fitted().decode(sequence)

    def score(self, sequences: Sequence[np.ndarray]) -> float:
        """Total data log-likelihood under the learned parameters."""
        return self._check_fitted().score(sequences)

    # ------------------------------------------------------------------ #
    def to_state_dict(self) -> dict:
        """Serializable snapshot: training config, emissions, fitted params.

        The EM trace (``fit_result_``) is transient and not persisted; the
        learned ``(pi, A, B)`` round-trip exactly, so a loaded estimator
        predicts and scores identically to the fitted one.  Integer seeds
        round-trip too (so a refit is reproducible); generator objects
        cannot be serialized and degrade to ``None``.
        """
        return {
            "config": asdict(self.config),
            "reinitialize_emissions": self.reinitialize_emissions,
            "seed": int(self.seed) if isinstance(self.seed, (int, np.integer)) else None,
            "emissions": self.emissions.to_state_dict(),
            "model": self.model_.to_state_dict() if self.model_ is not None else None,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "DiversifiedHMM":
        """Rebuild a (possibly fitted) estimator from :meth:`to_state_dict`."""
        from repro.hmm.emissions.base import EmissionModel

        estimator = cls(
            EmissionModel.from_state_dict(state["emissions"]),
            config=DHMMConfig(**state["config"]),
            seed=state.get("seed"),
            reinitialize_emissions=bool(state["reinitialize_emissions"]),
        )
        if state.get("model") is not None:
            estimator.model_ = HMM.from_state_dict(state["model"])
        return estimator

    def log_posterior_objective(self, sequences: Sequence[np.ndarray]) -> float:
        """Likelihood plus the weighted DPP prior (the MAP objective, Eq. 7)."""
        model = self._check_fitted()
        prior = DPPTransitionPrior(
            alpha=self.config.alpha, rho=self.config.rho, jitter=self.config.kernel_jitter
        )
        return model.score(sequences) + prior.log_prior(model.transmat)
