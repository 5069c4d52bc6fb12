"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures on a
moderately sized synthetic workload (the full-size settings are exposed by
the example scripts; the benchmark sizes are chosen so the whole suite runs
in a few minutes on a laptop while preserving the qualitative shapes).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from perfbench.record import fingerprint
from repro.datasets.ocr import generate_ocr_dataset
from repro.datasets.pos import generate_wsj_like_corpus

_ROOT = Path(__file__).resolve().parents[1]

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
    order.  Each section is stamped with the machine it was measured on:
    ``fingerprints[<test id>]`` holds perfbench's fingerprint (cores,
    python/numpy/scipy versions, BLAS vendor and threads, git SHA and
    dirty flag) and the keys that test wrote.
    """
    existing: dict = {}
    if path.is_file():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = {}
    existing.update(update)
    section = os.environ.get("PYTEST_CURRENT_TEST", "").split(" ")[0] or "unknown"
    stamp = {k: v for k, v in fingerprint(_ROOT, seed=0).items() if k != "seed"}
    existing.setdefault("fingerprints", {})[section] = {"keys": sorted(update), **stamp}
    path.write_text(json.dumps(existing, indent=2) + "\n")
