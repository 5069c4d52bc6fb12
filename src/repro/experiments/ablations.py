"""Ablation studies on the dHMM's design choices (not in the paper).

Two ablations called out in DESIGN.md:

* **rho ablation** — the probability product kernel exponent is fixed at 0.5
  in the paper; we sweep it to check the choice matters little as long as the
  kernel stays well-conditioned.
* **projection ablation** — the paper's Algorithm 1 projects gradient
  iterates back onto the simplex (Wang & Carreira-Perpiñán); the cheap
  alternative of clipping to zero and renormalizing is compared.  Both rows
  run gradient ascent from the normalized counts under the config's
  ``max_inner_iter`` / ``inner_tol`` / ``initial_step``, not the converged
  fixed-point solver :class:`DiversityTransitionUpdater` runs by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DHMMConfig
from repro.core.diversified_hmm import DiversifiedHMM
from repro.core.transition_prior import DiversityTransitionUpdater, DPPTransitionPrior
from repro.datasets.toy import generate_toy_dataset
from repro.hmm.emissions.gaussian import GaussianEmission
from repro.hmm.engine import InferenceEngine
from repro.metrics.accuracy import one_to_one_accuracy
from repro.metrics.diversity import average_pairwise_bhattacharyya
from repro.utils.maths import normalize_rows
from repro.utils.rng import SeedLike


@dataclass
class AblationRow:
    """One configuration of an ablation with its accuracy and diversity."""

    name: str
    accuracy: float
    diversity: float


def run_rho_ablation(
    rhos=(0.25, 0.5, 1.0),
    alpha: float = 1.0,
    sigma: float = 1.0,
    n_sequences: int = 150,
    max_em_iter: int = 15,
    seed: SeedLike = 0,
) -> list[AblationRow]:
    """Train the toy dHMM with several kernel exponents and compare."""
    dataset = generate_toy_dataset(n_sequences=n_sequences, sigma=sigma, seed=seed)
    corpus = InferenceEngine().compile(dataset.observations)
    rows: list[AblationRow] = []
    for rho in rhos:
        config = DHMMConfig(alpha=alpha, rho=float(rho), max_em_iter=max_em_iter)
        emissions = GaussianEmission.random_init(5, dataset.observations, seed=seed)
        model = DiversifiedHMM(emissions, config, seed=seed)
        model.fit(corpus)
        predictions = model.predict_corpus(corpus)
        rows.append(
            AblationRow(
                name=f"rho={rho}",
                accuracy=one_to_one_accuracy(dataset.states, predictions, n_states=5),
                diversity=average_pairwise_bhattacharyya(model.transmat_),
            )
        )
    return rows


class _SimplexProjectionUpdater(DiversityTransitionUpdater):
    """Ablation variant: Algorithm 1 (projected gradient with simplex projection)."""

    def update(self, expected_counts: np.ndarray, current: np.ndarray) -> np.ndarray:
        counts = np.asarray(expected_counts, dtype=np.float64)
        if self.prior.alpha == 0:
            return normalize_rows(counts)
        start = normalize_rows(counts, pseudocount=self.config.transition_floor)
        return self._projected_gradient(counts, start)


class _RenormalizingUpdater(DiversityTransitionUpdater):
    """Ablation variant: clip-to-zero + renormalize instead of simplex projection."""

    def update(self, expected_counts: np.ndarray, current: np.ndarray) -> np.ndarray:
        counts = np.asarray(expected_counts, dtype=np.float64)
        if self.prior.alpha == 0:
            return normalize_rows(counts)
        cfg = self.config
        A = normalize_rows(counts, pseudocount=cfg.transition_floor)
        step = cfg.initial_step
        best = self.objective(counts, A)
        for _ in range(cfg.max_inner_iter):
            grad = counts / np.clip(A, cfg.transition_floor, None) + self.prior.gradient(A)
            candidate = normalize_rows(np.clip(A + step * grad, cfg.transition_floor, None))
            value = self.objective(counts, candidate)
            if value > best:
                improvement = value - best
                A, best = candidate, value
                step *= 1.2
                if improvement < cfg.inner_tol:
                    break
            else:
                step *= 0.5
        return A


def run_projection_ablation(
    alpha: float = 1.0,
    sigma: float = 1.0,
    n_sequences: int = 150,
    max_em_iter: int = 15,
    seed: SeedLike = 0,
) -> list[AblationRow]:
    """Compare the simplex-projection M-step against clip-and-renormalize."""
    dataset = generate_toy_dataset(n_sequences=n_sequences, sigma=sigma, seed=seed)
    corpus = InferenceEngine().compile(dataset.observations)
    rows: list[AblationRow] = []

    for name, updater_cls in (
        ("simplex-projection", _SimplexProjectionUpdater),
        ("renormalize", _RenormalizingUpdater),
    ):
        config = DHMMConfig(alpha=alpha, max_em_iter=max_em_iter)
        emissions = GaussianEmission.random_init(5, dataset.observations, seed=seed)
        model = DiversifiedHMM(emissions, config, seed=seed)
        # Swap the transition updater by overriding the trainer builder.
        prior = DPPTransitionPrior(alpha=config.alpha, rho=config.rho, jitter=config.kernel_jitter)
        updater = updater_cls(prior, config)

        def build_trainer(updater=updater, config=config):
            from repro.hmm.baum_welch import BaumWelchTrainer

            return BaumWelchTrainer(
                transition_updater=updater, max_iter=config.max_em_iter, tol=config.em_tol
            )

        model.build_trainer = build_trainer  # type: ignore[method-assign]
        model.fit(corpus)
        predictions = model.predict_corpus(corpus)
        rows.append(
            AblationRow(
                name=name,
                accuracy=one_to_one_accuracy(dataset.states, predictions, n_states=5),
                diversity=average_pairwise_bhattacharyya(model.transmat_),
            )
        )
    return rows
