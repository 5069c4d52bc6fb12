"""The Hidden Markov Model container class.

``HMM`` bundles the three parameter blocks of the paper's notation,
``lambda = (pi, A, B)``:

* ``startprob`` — the initial state distribution ``pi``;
* ``transmat`` — the row-stochastic transition matrix ``A``;
* ``emissions`` — an :class:`~repro.hmm.emissions.base.EmissionModel`
  holding ``B``.

The class offers inference (scoring, posteriors, Viterbi decoding) and
sampling; training is delegated to :class:`~repro.hmm.baum_welch.BaumWelchTrainer`
(unsupervised) and :func:`~repro.hmm.supervised.estimate_supervised_parameters`
(supervised), both of which work for the plain HMM and the dHMM alike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.hmm.corpus import CompiledCorpus
from repro.hmm.emissions.base import EmissionModel
from repro.hmm.engine import InferenceEngine
from repro.hmm.forward_backward import SequencePosteriors
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_probability_matrix, check_probability_vector


class HMM:
    """First-order Hidden Markov Model with pluggable emissions.

    Parameters
    ----------
    startprob:
        Initial state distribution ``pi`` of length ``K``.
    transmat:
        Row-stochastic ``K x K`` transition matrix ``A``.
    emissions:
        Emission model ``B`` covering the same ``K`` states.
    engine:
        Optional :class:`~repro.hmm.engine.InferenceEngine` running all
        inference for this model.  When omitted, an engine following the
        process-wide :class:`~repro.core.config.InferenceConfig` is built
        lazily (and rebuilt if the configuration changes).
    """

    def __init__(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        emissions: EmissionModel,
        engine: InferenceEngine | None = None,
    ) -> None:
        self.startprob = check_probability_vector(startprob, "startprob")
        self.transmat = check_probability_matrix(transmat, "transmat")
        if self.transmat.shape[0] != self.transmat.shape[1]:
            raise ValidationError("transmat must be square")
        if self.startprob.shape[0] != self.transmat.shape[0]:
            raise ValidationError("startprob and transmat disagree on the number of states")
        if emissions.n_states != self.startprob.shape[0]:
            raise ValidationError("emission model covers a different number of states")
        self.emissions = emissions
        self._engine = engine
        self._auto_engine: InferenceEngine | None = None
        self._auto_engine_config = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def random_init(
        cls,
        emissions: EmissionModel,
        seed: SeedLike = None,
        dirichlet_concentration: float = 3.0,
    ) -> "HMM":
        """Random HMM with Dirichlet-sampled ``pi`` and rows of ``A``.

        The concentration default of 3 matches the paper's toy-experiment
        initialization ``Dir(eta_i = 3)``.
        """
        rng = as_generator(seed)
        k = emissions.n_states
        startprob = rng.dirichlet(np.full(k, dirichlet_concentration))
        transmat = rng.dirichlet(np.full(k, dirichlet_concentration), size=k)
        return cls(startprob, transmat, emissions)

    @property
    def n_states(self) -> int:
        """Number of hidden states ``K``."""
        return self.startprob.shape[0]

    def copy(self) -> "HMM":
        """Deep copy of the model (parameters and emissions).

        An explicitly supplied inference engine is shared with the copy;
        auto-configured engines are rebuilt lazily.
        """
        return HMM(
            self.startprob.copy(),
            self.transmat.copy(),
            self.emissions.copy(),
            engine=self._engine,
        )

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    @property
    def inference_engine(self) -> InferenceEngine:
        """The engine running inference for this model.

        An explicitly supplied engine wins; otherwise one is built from the
        process-wide :class:`~repro.core.config.InferenceConfig` and kept
        until that configuration changes.
        """
        if self._engine is not None:
            return self._engine
        from repro.core.config import get_inference_config

        config = get_inference_config()
        if self._auto_engine is None or self._auto_engine_config != config:
            self._auto_engine = InferenceEngine(backend=config.backend)
            self._auto_engine_config = config
        return self._auto_engine

    def log_likelihood(self, sequence: np.ndarray) -> float:
        """Log marginal likelihood ``log P(Y | lambda)`` of one sequence."""
        return self.score([sequence])

    def score(self, sequences: Sequence[np.ndarray]) -> float:
        """Total log-likelihood of a collection of sequences (batched)."""
        if len(sequences) == 0:
            return 0.0
        return self.score_corpus(self.compile(sequences))

    def posteriors(self, sequence: np.ndarray) -> SequencePosteriors:
        """Forward-backward posteriors for one sequence."""
        return self.posteriors_batch([sequence])[0]

    def posteriors_batch(
        self, sequences: Sequence[np.ndarray]
    ) -> list[SequencePosteriors]:
        """Forward-backward posteriors for a collection of sequences (batched)."""
        if len(sequences) == 0:
            return []
        corpus = self.compile(sequences)
        return self.inference_engine.sequence_posteriors_corpus(
            self.startprob, self.transmat, corpus, corpus.score(self.emissions)
        )

    def decode(self, sequence: np.ndarray) -> np.ndarray:
        """Most likely hidden state path (Viterbi) for one sequence."""
        return self.predict([sequence])[0]

    def predict(self, sequences: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Viterbi paths for a collection of sequences (batched decode)."""
        if len(sequences) == 0:
            return []
        return self.predict_corpus(self.compile(sequences))

    def decode_long(
        self,
        sequence: np.ndarray,
        window: int | None = None,
        overlap: int | None = None,
    ):
        """Chunked Viterbi decode of one arbitrarily long sequence.

        Unlike :meth:`decode`, the ``(T, K)`` emission table is never
        materialized: windows are scored on demand through an
        :class:`~repro.hmm.longseq.EmissionSource`, so peak memory is
        bounded by the window/overlap knobs (defaulting to
        ``InferenceConfig.decode_window`` / ``decode_overlap``) regardless
        of T.  Returns a :class:`~repro.hmm.longseq.LongDecodeResult` with
        the stitched path plus stitch diagnostics.
        """
        from repro.hmm.longseq import EmissionSource

        source = EmissionSource(self.emissions, sequence)
        return self.inference_engine.viterbi_long(
            self.startprob, self.transmat, source, window=window, overlap=overlap
        )

    # ------------------------------------------------------------------ #
    # Compiled-corpus inference
    # ------------------------------------------------------------------ #
    def compile(self, sequences: Sequence[np.ndarray]) -> CompiledCorpus:
        """Compile a dataset once for repeated inference against this model.

        The returned :class:`~repro.hmm.corpus.CompiledCorpus` is parameter-
        agnostic: compile once, then train
        (:meth:`~repro.hmm.baum_welch.BaumWelchTrainer.fit` accepts it
        directly), decode (:meth:`predict_corpus`) and score
        (:meth:`score_corpus`) against it without re-encoding or re-packing.
        """
        return self.inference_engine.compile(sequences)

    def predict_corpus(self, corpus: CompiledCorpus) -> list[np.ndarray]:
        """Viterbi paths for every sequence of a compiled corpus."""
        scores = corpus.score(self.emissions)
        return [
            path
            for path, _ in self.inference_engine.viterbi_corpus(
                self.startprob, self.transmat, corpus, scores
            )
        ]

    def score_corpus(self, corpus: CompiledCorpus) -> float:
        """Total log-likelihood of a compiled corpus."""
        scores = corpus.score(self.emissions)
        return float(
            self.inference_engine.log_likelihood_corpus(
                self.startprob, self.transmat, corpus, scores
            ).sum()
        )

    def stream_batch(self, lags=()):
        """Open a :class:`~repro.hmm.backends.BatchedStreamingSession`.

        The caller feeds emission log-likelihood rows; the session steps
        its online streams together, one vectorized ``(M, K, K)``
        propagation per tick.  For the tokens-in/labels-out interfaces see
        :class:`repro.serving.StreamingDecoder` (one stream) and
        :class:`repro.serving.StreamPool` (many).
        """
        return self.inference_engine.start_stream_batch(
            self.startprob, self.transmat, lags=lags
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_state_dict(self) -> dict:
        """Serializable snapshot of ``(pi, A, B)`` (arrays + JSON scalars)."""
        return {
            "startprob": self.startprob.copy(),
            "transmat": self.transmat.copy(),
            "emissions": self.emissions.to_state_dict(),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "HMM":
        """Rebuild an :class:`HMM` from :meth:`to_state_dict` output."""
        return cls(
            np.asarray(state["startprob"], dtype=np.float64),
            np.asarray(state["transmat"], dtype=np.float64),
            EmissionModel.from_state_dict(state["emissions"]),
        )

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def sample(self, length: int, seed: SeedLike = None) -> tuple[np.ndarray, list]:
        """Draw a state path and observations of the given length.

        Returns
        -------
        (states, observations):
            ``states`` is an integer array of length ``length``;
            ``observations`` is a list of per-step emissions whose type
            depends on the emission family (floats, ints or binary vectors).
        """
        if length < 1:
            raise ValidationError(f"length must be at least 1, got {length}")
        rng = as_generator(seed)
        states = np.zeros(length, dtype=np.int64)
        observations: list = []
        states[0] = int(rng.choice(self.n_states, p=self.startprob))
        observations.append(self.emissions.sample(states[0], rng))
        for t in range(1, length):
            states[t] = int(rng.choice(self.n_states, p=self.transmat[states[t - 1]]))
            observations.append(self.emissions.sample(states[t], rng))
        return states, observations

    def sample_dataset(
        self, n_sequences: int, length: int, seed: SeedLike = None
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Draw ``n_sequences`` i.i.d. sequences of a fixed length.

        Returns parallel lists ``(state_paths, observation_sequences)``;
        observations are stacked into arrays when the emission type allows it.
        """
        rng = as_generator(seed)
        states_list: list[np.ndarray] = []
        obs_list: list[np.ndarray] = []
        for _ in range(n_sequences):
            states, obs = self.sample(length, rng)
            states_list.append(states)
            obs_list.append(np.asarray(obs))
        return states_list, obs_list

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"HMM(n_states={self.n_states}, emissions={self.emissions!r})"
