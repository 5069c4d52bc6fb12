"""Reduced-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at a small input scale for a second, untraced and
traced, and checks that the last output line is the result object carrying
every metric of ``BENCHMARK.json`` with its unit.  Then feeds each
correctness check a deliberately corrupted output and expects a rejection.
The repository's own test run does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--scale", "0.05")
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    report = [line.split() for line in out.stdout.splitlines()[:-1]]
    for m in wanted:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], float)
        # the human-readable report names the metric with its unit too
        assert any(words[:1] == [m["name"]] and m["unit"] in words for words in report)
        if trace == "0":
            assert reported["value"] > 0


def test_incomplete_checkout_exits_nonzero_without_result():
    bare = ROOT / "perfbench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = _run(bare, "--workload", "long_decode", "--seed", "0", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# ------------------------------------------------------------------ #
# Each check rejects a corrupted output
# ------------------------------------------------------------------ #
def test_estep_check_rejects_corrupted_statistics():
    xi = np.array([[10.0, 2.0], [3.0, 40.0]])
    assert checks.estep_matches_reference(-100.0, xi, -100.0, xi.copy())["ok"]
    bumped = xi.copy()
    bumped[0, 1] += 1e-5
    assert not checks.estep_matches_reference(-100.0, bumped, -100.0, xi)["ok"]
    assert not checks.estep_matches_reference(-100.0 + 1e-4, xi, -100.0, xi)["ok"]


def test_path_tally_rejects_one_changed_label():
    reference = [np.array([0, 1, 2, 2]), np.array([3, 3])]
    good = checks.PathTally("paths")
    for path in reference:
        good.add(path.copy(), path, gold=path)
    assert good.result()["ok"] and good.accuracy == 1.0

    corrupted = reference[0].copy()
    corrupted[2] = 0
    bad = checks.PathTally("paths")
    bad.add(corrupted, reference[0], gold=reference[0])
    bad.add(reference[1].copy(), reference[1], gold=reference[1])
    assert not bad.result()["ok"]
    assert bad.result()["detail"]["mismatched"] == 1

    truncated = checks.PathTally("paths")
    truncated.add(reference[0][:-1], reference[0])
    assert not truncated.result()["ok"]
    assert not checks.PathTally("paths").result()["ok"]  # nothing compared


def test_relative_checks_reject_drift():
    ll = -305183.4443319935
    assert checks.close_relative("ll", ll * (1 + 1e-12), ll, 1e-9)["ok"]
    assert not checks.close_relative("ll", ll * (1 + 1e-8), ll, 1e-9)["ok"]
    assert checks.no_backlog(0)["ok"]
    assert not checks.no_backlog(3)["ok"]
