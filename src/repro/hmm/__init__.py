"""Hidden Markov Model substrate.

Everything the paper's dHMM builds on: emission families, the batched
scaled-domain inference engine (with the log-space recursions kept as a
reference backend), Viterbi decoding, Baum-Welch EM training, supervised
(counting) estimation and sequence sampling.
"""

from repro.hmm.emissions import (
    BernoulliEmission,
    CategoricalEmission,
    EmissionModel,
    GaussianEmission,
)
from repro.hmm.backends import (
    InferenceBackend,
    LogDomainBackend,
    ModelParams,
    ScaledBatchedBackend,
    StreamStep,
    available_backends,
    build_backend,
    viterbi_backpointer_dtype,
)
from repro.hmm.corpus import (
    CompiledCorpus,
    CorpusPosteriors,
    LongSequenceWindows,
    PackedPlan,
)
from repro.hmm.engine import InferenceEngine
from repro.hmm.longseq import (
    ArraySource,
    EmissionSource,
    LongDecodeResult,
    as_source,
    checkpointed_posteriors,
    chunked_viterbi,
    plan_windows,
    streaming_log_likelihood,
)
from repro.hmm.forward_backward import (
    SequencePosteriors,
    log_backward,
    log_forward,
    compute_posteriors,
    compute_posteriors_from_log,
    sequence_log_likelihood,
)
from repro.hmm.viterbi import viterbi_decode, viterbi_decode_from_log
from repro.hmm.model import HMM
from repro.hmm.baum_welch import BaumWelchTrainer, FitResult
from repro.hmm.transition_updaters import (
    MaximumLikelihoodTransitionUpdater,
    TransitionUpdater,
)
from repro.hmm.supervised import estimate_supervised_parameters

__all__ = [
    "EmissionModel",
    "GaussianEmission",
    "CategoricalEmission",
    "BernoulliEmission",
    "InferenceBackend",
    "InferenceEngine",
    "ScaledBatchedBackend",
    "LogDomainBackend",
    "ModelParams",
    "StreamStep",
    "available_backends",
    "build_backend",
    "viterbi_backpointer_dtype",
    "CompiledCorpus",
    "CorpusPosteriors",
    "LongSequenceWindows",
    "PackedPlan",
    "ArraySource",
    "EmissionSource",
    "LongDecodeResult",
    "as_source",
    "checkpointed_posteriors",
    "chunked_viterbi",
    "plan_windows",
    "streaming_log_likelihood",
    "SequencePosteriors",
    "log_forward",
    "log_backward",
    "compute_posteriors",
    "compute_posteriors_from_log",
    "sequence_log_likelihood",
    "viterbi_decode",
    "viterbi_decode_from_log",
    "HMM",
    "BaumWelchTrainer",
    "FitResult",
    "TransitionUpdater",
    "MaximumLikelihoodTransitionUpdater",
    "estimate_supervised_parameters",
]
