"""The paper's primary contribution: diversity-regularized HMMs.

Exports import on first access, so a process that only serves (and reads
``repro.core.config``) never loads the estimators or the DPP prior.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.config": [
            "DHMMConfig",
            "InferenceConfig",
            "ServingConfig",
            "get_inference_config",
            "set_inference_config",
            "get_serving_config",
            "set_serving_config",
            "inference_backend",
        ],
        "repro.core.transition_prior": ["DPPTransitionPrior", "DiversityTransitionUpdater"],
        "repro.core.diversified_hmm": ["DiversifiedHMM"],
        "repro.core.supervised": ["SupervisedDiversifiedHMM"],
    },
)
