"""Supervised diversified HMM (paper Section 3.4.2 / 3.5.2).

Training data is fully labeled, so the baseline parameters
``lambda_0 = (pi_0, A_0, B_0)`` come from counting.  The dHMM then refines
the transition matrix by projected gradient ascent on

    sum_ij N_ij log A_ij  +  alpha log det(K~_A)  -  alpha_A ||A - A_0||^2

(Eq. 8/18), where ``N_ij`` are the observed transition counts.  Decoding of
unlabeled test sequences uses Viterbi with the refined ``A``.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Sequence

import numpy as np

from repro.core.config import DHMMConfig
from repro.core.transition_prior import DPPTransitionPrior
from repro.exceptions import NotFittedError, ValidationError
from repro.hmm.corpus import CompiledCorpus
from repro.hmm.emissions.bernoulli import BernoulliEmission
from repro.hmm.emissions.base import EmissionModel
from repro.hmm.model import HMM
from repro.hmm.supervised import count_transitions, estimate_supervised_parameters
from repro.optim.projected_gradient import ProjectedGradientResult, maximize_rowwise_simplex
from repro.utils.maths import safe_log


class SupervisedDiversifiedHMM:
    """Count-trained HMM whose transition matrix is diversity-refined.

    Parameters
    ----------
    n_states:
        Size of the hidden state space (26 letters for OCR).
    n_features:
        Dimensionality of the binary observations (used when ``emissions``
        is not supplied and the default Bernoulli family is built).
    config:
        Hyper-parameters; ``alpha`` weights the DPP prior and
        ``alpha_anchor`` the proximal pull towards the count estimate
        ``A0``.  ``alpha = 0`` makes the model identical to the plain
        supervised HMM baseline.
    emissions:
        Optional pre-built emission model; defaults to
        :class:`~repro.hmm.emissions.bernoulli.BernoulliEmission`.
    transition_pseudocount, emission_pseudocount:
        Laplace smoothing of the counting estimates.
    """

    def __init__(
        self,
        n_states: int,
        n_features: int | None = None,
        config: DHMMConfig | None = None,
        emissions: EmissionModel | None = None,
        transition_pseudocount: float = 0.1,
        emission_pseudocount: float = 1.0,
    ) -> None:
        if n_states < 2:
            raise ValidationError(f"n_states must be at least 2, got {n_states}")
        if emissions is None and n_features is None:
            raise ValidationError("either emissions or n_features must be provided")
        self.n_states = n_states
        self.n_features = n_features
        self.config = config or DHMMConfig(alpha=10.0)
        self.emissions = emissions
        self.transition_pseudocount = transition_pseudocount
        self.emission_pseudocount = emission_pseudocount

        self.model_: HMM | None = None
        self.base_transmat_: np.ndarray | None = None
        self.refinement_result_: ProjectedGradientResult | None = None

    # ------------------------------------------------------------------ #
    def _build_emissions(
        self, sequences: Sequence[np.ndarray], labels: Sequence[np.ndarray]
    ) -> EmissionModel:
        if self.emissions is not None:
            emissions = self.emissions.copy()
        else:
            assert self.n_features is not None
            emissions = BernoulliEmission.random_init(self.n_states, self.n_features, seed=0)
        if isinstance(emissions, BernoulliEmission):
            emissions.fit_supervised(sequences, labels, pseudocount=self.emission_pseudocount)
        else:
            # The labels are one-hot posteriors over the flat corpus.
            tags = np.concatenate([np.asarray(lab, dtype=np.int64) for lab in labels])
            emissions.m_step_compiled(CompiledCorpus(sequences), np.eye(self.n_states)[tags])
        return emissions

    def refine_transitions(
        self, transition_counts: np.ndarray, base_transmat: np.ndarray
    ) -> ProjectedGradientResult:
        """Gradient-ascend the supervised objective of Eq. (8) from ``A0``."""
        cfg = self.config
        counts = np.asarray(transition_counts, dtype=np.float64)
        A0 = np.asarray(base_transmat, dtype=np.float64)
        prior = DPPTransitionPrior(alpha=cfg.alpha, rho=cfg.rho, jitter=cfg.kernel_jitter)
        floor = cfg.transition_floor

        def objective(A: np.ndarray) -> float:
            likelihood = float(np.sum(counts * safe_log(A)))
            proximal = cfg.alpha_anchor * float(np.sum((A - A0) ** 2))
            return likelihood + prior.log_prior(A) - proximal

        def gradient(A: np.ndarray) -> np.ndarray:
            safe_A = np.clip(A, floor, None)
            return (
                counts / safe_A
                + prior.gradient(safe_A)
                - 2.0 * cfg.alpha_anchor * (A - A0)
            )

        return maximize_rowwise_simplex(
            objective,
            gradient,
            A0,
            max_iter=cfg.max_inner_iter,
            tol=cfg.inner_tol,
            initial_step=cfg.initial_step,
            min_value=floor,
        )

    # ------------------------------------------------------------------ #
    def fit(
        self, sequences: Sequence[np.ndarray], labels: Sequence[np.ndarray]
    ) -> "SupervisedDiversifiedHMM":
        """Count-estimate all parameters, then diversity-refine the transitions."""
        if len(sequences) != len(labels):
            raise ValidationError("sequences and labels must have the same length")
        startprob, base_transmat = estimate_supervised_parameters(
            labels, self.n_states, pseudocount=self.transition_pseudocount
        )
        # Use the same (smoothed) counts that produced A0, so the likelihood
        # term of Eq. (8) is maximized exactly at A0 and the refinement is
        # driven purely by the diversity prior balanced against the anchor.
        counts = (
            count_transitions(labels, self.n_states).transition_counts
            + self.transition_pseudocount
        )
        emissions = self._build_emissions(sequences, labels)

        if self.config.alpha > 0:
            refinement = self.refine_transitions(counts, base_transmat)
            transmat = refinement.solution
        else:
            refinement = ProjectedGradientResult(
                solution=base_transmat, objective=float(np.sum(counts * safe_log(base_transmat)))
            )
            transmat = base_transmat

        self.base_transmat_ = base_transmat
        self.refinement_result_ = refinement
        self.model_ = HMM(startprob, transmat, emissions)
        return self

    def _check_fitted(self) -> HMM:
        if self.model_ is None:
            raise NotFittedError("SupervisedDiversifiedHMM must be fit before inference")
        return self.model_

    @property
    def transmat_(self) -> np.ndarray:
        """The refined transition matrix ``A``."""
        return self._check_fitted().transmat

    def predict(self, sequences: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Viterbi-decode labels for unlabeled test sequences (batched)."""
        model = self._check_fitted()
        return model.predict([np.asarray(seq) for seq in sequences])

    def score(self, sequences: Sequence[np.ndarray]) -> float:
        """Total marginal log-likelihood of test sequences."""
        return self._check_fitted().score(sequences)

    # ------------------------------------------------------------------ #
    def to_state_dict(self) -> dict:
        """Serializable snapshot: hyper-parameters, fitted model, ``A0``.

        The projected-gradient trace (``refinement_result_``) is transient
        and not persisted.
        """
        return {
            "n_states": self.n_states,
            "n_features": self.n_features,
            "config": asdict(self.config),
            "transition_pseudocount": self.transition_pseudocount,
            "emission_pseudocount": self.emission_pseudocount,
            "emissions_template": (
                self.emissions.to_state_dict() if self.emissions is not None else None
            ),
            "model": self.model_.to_state_dict() if self.model_ is not None else None,
            "base_transmat": (
                self.base_transmat_.copy() if self.base_transmat_ is not None else None
            ),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "SupervisedDiversifiedHMM":
        """Rebuild a (possibly fitted) classifier from :meth:`to_state_dict`."""
        n_features = state["n_features"]
        template = state.get("emissions_template")
        classifier = cls(
            int(state["n_states"]),
            n_features=None if n_features is None else int(n_features),
            config=DHMMConfig(**state["config"]),
            emissions=(
                EmissionModel.from_state_dict(template) if template is not None else None
            ),
            transition_pseudocount=float(state["transition_pseudocount"]),
            emission_pseudocount=float(state["emission_pseudocount"]),
        )
        if state.get("model") is not None:
            classifier.model_ = HMM.from_state_dict(state["model"])
        if state.get("base_transmat") is not None:
            classifier.base_transmat_ = np.asarray(
                state["base_transmat"], dtype=np.float64
            )
        return classifier
