"""Shared fixtures: small datasets and models reused across the test suite."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.datasets.ocr import generate_ocr_dataset
from repro.datasets.pos import generate_wsj_like_corpus
from repro.datasets.toy import generate_toy_dataset
from repro.hmm.emissions import BernoulliEmission, CategoricalEmission, GaussianEmission
from repro.hmm.emissions.bernoulli import _PROB_FLOOR
from repro.hmm.emissions.gaussian import _MIN_VARIANCE
from repro.utils.maths import normalize_rows


@pytest.fixture(scope="session", autouse=True)
def _lock_order_gate():
    """Fail the session if an armed lock-order tracker saw a violation.

    Inert by default (the tracker is disarmed and ``make_lock`` hands out
    plain locks); CI's serving/chaos steps export ``REPRO_LOCK_TRACKER=1``
    so every lock the serving tier creates feeds the acquisition-order
    graph, and an ABBA cycle observed anywhere in the run fails here.
    """
    yield
    from repro.analysis.lockorder import get_tracker

    tracker = get_tracker()
    if tracker is not None:
        tracker.assert_clean()


@contextmanager
def _held_dispatcher():
    """Hold the next serving dispatch with its batch in flight.

    Arms the ``DISPATCHER_LOOP`` fault point with a gate: the first batch
    any scheduler dispatches inside the block waits there, and requests
    submitted meanwhile queue up behind it.  Yields the event that is set
    once the dispatcher is held; leaving the block releases it.  This is
    the deterministic way to make requests share one batch, since the
    scheduler dispatches as soon as it is idle.
    """
    from repro.serving import faults

    held, release = threading.Event(), threading.Event()

    def gate(payload):
        held.set()
        assert release.wait(timeout=30), "test never released the dispatcher"
        return payload

    try:
        with faults.inject(faults.DISPATCHER_LOOP, corrupt=gate, n_failures=1):
            yield held
    finally:
        release.set()


@pytest.fixture
def hold_dispatcher():
    """Context-manager factory; see :func:`_held_dispatcher`."""
    return _held_dispatcher


@pytest.fixture(scope="session")
def rng():
    """A deterministic generator for ad-hoc randomness inside tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def toy_data():
    """A small instance of the paper's toy dataset (fast to fit)."""
    return generate_toy_dataset(n_sequences=60, sequence_length=6, sigma=0.025, seed=0)


@pytest.fixture(scope="session")
def flat_toy_data():
    """A toy dataset with flat emissions (sigma = 2.0), the hard regime."""
    return generate_toy_dataset(n_sequences=60, sequence_length=6, sigma=2.0, seed=1)


@pytest.fixture(scope="session")
def tiny_pos_corpus():
    """A miniature WSJ-like corpus: 60 sentences, 300-word vocabulary."""
    return generate_wsj_like_corpus(
        n_sentences=60, vocabulary_size=300, mean_length=8, max_length=30, seed=0
    )


@pytest.fixture(scope="session")
def tiny_ocr_dataset():
    """A miniature OCR dataset: 80 words."""
    return generate_ocr_dataset(n_words=80, seed=0)


@pytest.fixture
def random_transition_matrix(rng):
    """A random 5x5 row-stochastic matrix."""
    return rng.dirichlet(np.ones(5) * 2.0, size=5)


def _list_m_step(emissions, sequences, posteriors):
    """Emission M-step over per-sequence lists, updating ``emissions`` in place.

    The weighted-average updates written one sequence at a time: the
    reference that every family's flat ``m_step_compiled`` must reproduce.
    """
    if isinstance(emissions, CategoricalEmission):
        counts = np.zeros((emissions.n_states, emissions.n_symbols))
        for seq, post in zip(sequences, posteriors):
            np.add.at(counts.T, np.asarray(seq, dtype=np.int64), post)
        emissions.emission_probs = normalize_rows(counts)
    elif isinstance(emissions, GaussianEmission):
        weight_sum = np.zeros(emissions.n_states)
        weighted_obs = np.zeros(emissions.n_states)
        for seq, post in zip(sequences, posteriors):
            weight_sum += post.sum(axis=0)
            weighted_obs += post.T @ np.asarray(seq, dtype=np.float64)
        safe = np.maximum(weight_sum, 1e-12)
        means = weighted_obs / safe
        weighted_sq = np.zeros(emissions.n_states)
        for seq, post in zip(sequences, posteriors):
            diff_sq = (np.asarray(seq, dtype=np.float64)[:, None] - means[None, :]) ** 2
            weighted_sq += np.sum(post * diff_sq, axis=0)
        emissions.means = means
        emissions.variances = np.maximum(weighted_sq / safe, _MIN_VARIANCE)
    elif isinstance(emissions, BernoulliEmission):
        weight_sum = np.zeros(emissions.n_states)
        weighted_pixels = np.zeros((emissions.n_states, emissions.n_features))
        for seq, post in zip(sequences, posteriors):
            weight_sum += post.sum(axis=0)
            weighted_pixels += post.T @ np.asarray(seq, dtype=np.float64)
        safe = np.maximum(weight_sum, 1e-12)[:, None]
        emissions.pixel_probs = np.clip(
            weighted_pixels / safe, _PROB_FLOOR, 1.0 - _PROB_FLOOR
        )
    else:
        raise TypeError(f"no list M-step reference for {type(emissions).__name__}")


@pytest.fixture(scope="session")
def list_m_step():
    """The per-sequence-list emission M-step (see :func:`_list_m_step`)."""
    return _list_m_step
