"""repro — Diversified Hidden Markov Models for sequential labeling.

A from-scratch reproduction of "Diversified Hidden Markov Models for
Sequential Labeling" (Qiao, Bian, Xu & Tao): an HMM whose transition-matrix
rows carry a diversity-encouraging continuous determinantal point process
prior, trained by MAP-EM (unsupervised) or count-plus-refinement
(supervised).

Quickstart
----------
>>> from repro import DiversifiedHMM, DHMMConfig
>>> from repro.datasets import generate_toy_dataset
>>> from repro.hmm import GaussianEmission
>>> data = generate_toy_dataset(seed=0)
>>> model = DiversifiedHMM(
...     GaussianEmission.random_init(5, data.observations, seed=1),
...     DHMMConfig(alpha=1.0, max_em_iter=10),
...     seed=1,
... )
>>> _ = model.fit(data.observations)
>>> labels = model.predict(data.observations)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Resolved on first access, so ``import repro.serving.cli`` loads no
# training code (the DPP prior, scipy, the optimizers).
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core": [
            "DHMMConfig",
            "DiversifiedHMM",
            "SupervisedDiversifiedHMM",
            "DPPTransitionPrior",
            "DiversityTransitionUpdater",
        ],
        "repro.hmm": [
            "HMM",
            "BaumWelchTrainer",
            "GaussianEmission",
            "CategoricalEmission",
            "BernoulliEmission",
        ],
        "repro.serving": [
            "ModelRegistry",
            "TaggingService",
            "StreamingDecoder",
            "save_artifact",
            "load_artifact",
        ],
        "repro.exceptions": [
            "ReproError",
            "ValidationError",
            "NotFittedError",
            "ConvergenceWarning",
        ],
    },
)
__all__ += ["__version__"]
