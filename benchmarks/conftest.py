"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures on a
moderately sized synthetic workload (the full-size settings are exposed by
the example scripts; the benchmark sizes are chosen so the whole suite runs
in a few minutes on a laptop while preserving the qualitative shapes).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.ocr import generate_ocr_dataset
from repro.datasets.pos import generate_wsj_like_corpus

#: Benchmark-scale workload sizes (kept well below the paper's full sizes so
#: the whole suite runs in minutes; the example scripts use the full sizes).
POS_BENCH_SETTINGS = dict(n_sentences=400, vocabulary_size=800, mean_length=12, max_length=60)
OCR_BENCH_SETTINGS = dict(n_words=800, pixel_noise=0.10)


@pytest.fixture(scope="session")
def pos_corpus():
    """WSJ-like corpus at benchmark scale (~5K tokens, 800-word vocabulary)."""
    return generate_wsj_like_corpus(seed=0, **POS_BENCH_SETTINGS)


@pytest.fixture(scope="session")
def ocr_dataset():
    """Synthetic OCR dataset at benchmark scale (800 words)."""
    return generate_ocr_dataset(seed=0, **OCR_BENCH_SETTINGS)


def print_header(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def merge_results(path: Path, update: dict) -> None:
    """Merge one benchmark's keys into a shared ``BENCH_*.json`` record.

    Several benchmarks write sections of the same file, so a clobbering
    ``write_text`` would erase the others' keys depending on execution
    order.
    """
    existing: dict = {}
    if path.is_file():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = {}
    existing.update(update)
    path.write_text(json.dumps(existing, indent=2) + "\n")
