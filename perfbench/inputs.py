"""Seeded input generators.  Everything here runs before any timing starts.

The same ``seed`` always yields the same inputs.  Sentences are sampled
vectorized from the generating parameters of
:func:`repro.datasets.pos.generate_wsj_like_corpus` (tag chain, Zipfian
emissions, geometric lengths clipped to 2..250, mean 21): the same
distribution that generator draws token by token, ~100x faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.pos import generate_wsj_like_corpus

#: The paper's PoS shape (Sec. 4.2): 3828 sentences, ~10K word types.
PAPER_SENTENCES = 3828
PAPER_VOCABULARY = 10_000


@dataclass
class TaggedSentences:
    words: list[np.ndarray]
    tags: list[np.ndarray]

    @property
    def n_tokens(self) -> int:
        return int(sum(len(w) for w in self.words))

    def length_quartiles(self) -> list[float]:
        lengths = np.array([len(w) for w in self.words])
        return [float(q) for q in np.percentile(lengths, [25, 50, 75])]


@dataclass
class PosSource:
    """Generating parameters of the synthetic WSJ-like corpus."""

    startprob: np.ndarray
    transmat: np.ndarray
    emission_probs: np.ndarray
    seed: int

    @classmethod
    def from_seed(cls, seed: int, vocabulary_size: int = PAPER_VOCABULARY) -> "PosSource":
        params = generate_wsj_like_corpus(
            n_sentences=1, vocabulary_size=vocabulary_size, seed=seed
        )
        return cls(params.startprob, params.transmat, params.emission_probs, seed)

    def sample(self, n_sentences: int, stream: int) -> TaggedSentences:
        """``n_sentences`` tagged sentences from random stream ``stream``."""
        rng = np.random.default_rng([self.seed, stream])
        n_states, vocab = self.emission_probs.shape
        lengths = np.clip(rng.geometric(1.0 / 21.0, size=n_sentences) + 1, 2, 250)
        max_len = int(lengths.max())
        cum_start = np.cumsum(self.startprob)
        cum_trans = np.cumsum(self.transmat, axis=1)
        u = rng.random((n_sentences, max_len))
        tags = np.empty((n_sentences, max_len), dtype=np.int64)
        tags[:, 0] = np.searchsorted(cum_start, u[:, 0], side="right")
        np.minimum(tags[:, 0], n_states - 1, out=tags[:, 0])
        for t in range(1, max_len):
            nxt = (u[:, t, None] > cum_trans[tags[:, t - 1]]).sum(axis=1)
            tags[:, t] = np.minimum(nxt, n_states - 1)
        flat_tags = tags[np.arange(max_len)[None, :] < lengths[:, None]]
        cum_emit = np.cumsum(self.emission_probs, axis=1)
        uw = rng.random(flat_tags.size)
        flat_words = np.empty_like(flat_tags)
        for state in range(n_states):
            idx = flat_tags == state
            flat_words[idx] = np.searchsorted(cum_emit[state], uw[idx], side="right")
        np.minimum(flat_words, vocab - 1, out=flat_words)
        bounds = np.cumsum(lengths)[:-1]
        return TaggedSentences(
            words=np.split(flat_words, bounds), tags=np.split(flat_tags, bounds)
        )


@dataclass
class LongTrack:
    """One long sequence of a sticky K-state chain with drawn emission tables."""

    startprob: np.ndarray
    transmat: np.ndarray
    log_obs: np.ndarray  # (T, K)
    states: np.ndarray  # (T,) the hidden path the rows were drawn from


def long_track(seed: int, length: int, n_states: int = 8, stay: float = 0.9,
               noise: float = 0.75) -> LongTrack:
    """Sticky chain (stay probability ``stay``, uniform switches) with
    Gaussian emission log-likelihood rows: state ``k`` emits ``k + noise * N(0,1)``.

    Switches are uniform over the other states, so the chain is sampled
    without a Python loop: ``x_t = (x_0 + cumsum(offset * switch)) mod K``.
    """
    rng = np.random.default_rng([seed, 7])
    switch = rng.random(length) >= stay
    offsets = rng.integers(1, n_states, size=length) * switch
    offsets[0] = rng.integers(0, n_states)
    states = np.cumsum(offsets) % n_states
    y = states + noise * rng.standard_normal(length)
    means = np.arange(n_states, dtype=np.float64)
    log_obs = -0.5 * ((y[:, None] - means[None, :]) / noise) ** 2 - np.log(
        noise * np.sqrt(2.0 * np.pi)
    )
    transmat = np.full((n_states, n_states), (1.0 - stay) / (n_states - 1))
    np.fill_diagonal(transmat, stay)
    startprob = np.full(n_states, 1.0 / n_states)
    return LongTrack(startprob, transmat, log_obs, states.astype(np.int64))
