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

from repro.core import (
    DHMMConfig,
    DiversifiedHMM,
    DiversityTransitionUpdater,
    DPPTransitionPrior,
    SupervisedDiversifiedHMM,
)
from repro.exceptions import (
    ConvergenceWarning,
    NotFittedError,
    ReproError,
    ValidationError,
)
from repro.hmm import (
    HMM,
    BaumWelchTrainer,
    BernoulliEmission,
    CategoricalEmission,
    GaussianEmission,
)
from repro.serving import (
    ModelRegistry,
    StreamingDecoder,
    TaggingService,
    load_artifact,
    save_artifact,
)

__version__ = "1.0.0"

__all__ = [
    "DHMMConfig",
    "DiversifiedHMM",
    "SupervisedDiversifiedHMM",
    "DPPTransitionPrior",
    "DiversityTransitionUpdater",
    "HMM",
    "BaumWelchTrainer",
    "GaussianEmission",
    "CategoricalEmission",
    "BernoulliEmission",
    "ModelRegistry",
    "TaggingService",
    "StreamingDecoder",
    "save_artifact",
    "load_artifact",
    "ReproError",
    "ValidationError",
    "NotFittedError",
    "ConvergenceWarning",
    "__version__",
]
