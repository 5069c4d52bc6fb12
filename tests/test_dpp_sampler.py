"""Unit tests for DPP / k-DPP sampling."""

import numpy as np
import pytest

from repro.dpp.kdpp import KDPP
from repro.dpp.sampler import sample_dpp, sample_kdpp
from repro.exceptions import ValidationError


def near_duplicate_kernel():
    """Items 0 and 1 nearly identical; item 2 orthogonal; item 3 orthogonal."""
    features = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.999, 0.02, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return features @ features.T * 2.0


class TestSampleDpp:
    def test_samples_are_valid_subsets(self):
        L = near_duplicate_kernel()
        for seed in range(10):
            sample = sample_dpp(L, seed=seed)
            assert len(sample) == len(set(sample))
            assert all(0 <= i < 4 for i in sample)

    def test_empty_kernel_of_tiny_eigenvalues_often_returns_empty(self):
        L = np.eye(3) * 1e-9
        samples = [sample_dpp(L, seed=s) for s in range(20)]
        assert any(len(s) == 0 for s in samples)

    def test_rejects_asymmetric_kernel(self):
        with pytest.raises(ValidationError):
            sample_dpp(np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_repulsion_of_near_duplicates(self):
        # Items 0 and 1 are near-duplicates, so they should co-occur far less
        # often than the independent (Bernoulli) baseline would suggest.
        L = near_duplicate_kernel()
        co_occurrences = 0
        n_draws = 300
        for seed in range(n_draws):
            sample = set(sample_dpp(L, seed=seed))
            if {0, 1} <= sample:
                co_occurrences += 1
        assert co_occurrences / n_draws < 0.05


class TestSampleKdpp:
    def test_sample_has_requested_size(self):
        L = near_duplicate_kernel()
        for seed in range(10):
            assert len(sample_kdpp(L, 2, seed=seed)) == 2

    def test_zero_size_sample(self):
        assert sample_kdpp(near_duplicate_kernel(), 0, seed=0) == []

    def test_rejects_too_large_k(self):
        with pytest.raises(ValidationError):
            sample_kdpp(np.eye(3), 5)

    def test_empirical_frequencies_match_kdpp_probabilities(self):
        # With a tiny ground set the empirical subset frequencies should be
        # close to the exact k-DPP probabilities.
        rng = np.random.default_rng(0)
        M = rng.normal(size=(4, 4))
        L = M @ M.T + np.eye(4)
        k = 2
        kdpp = KDPP(L, k)
        counts: dict[tuple[int, ...], int] = {}
        n_draws = 800
        for seed in range(n_draws):
            subset = tuple(sample_kdpp(L, k, seed=seed))
            counts[subset] = counts.get(subset, 0) + 1
        for subset, count in counts.items():
            expected = np.exp(kdpp.log_probability(list(subset)))
            assert abs(count / n_draws - expected) < 0.08

