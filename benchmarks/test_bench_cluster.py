"""Benchmark: multi-process serving throughput and shared-memory artifacts.

Two acceptance workloads for the cluster tier:

* **Multi-worker throughput** — concurrent HTTP clients tagging through a
  :class:`~repro.serving.cluster.ClusterServer` at 1 worker vs 4 workers.
  The speedup floor scales with the cores actually available to this
  process: the paper-number gate is 2x at >= 4 cores, but a CI container
  pinned to one core physically cannot run four decode processes in
  parallel, so the floor degrades gracefully (and
  ``BENCH_MIN_MULTI_WORKER_SPEEDUP`` overrides it outright).

* **mmap artifact sharing** — a large categorical model loaded by child
  processes with ``mmap=True`` vs a private-copy load, comparing the
  ``Private_Dirty`` delta from ``/proc/self/smaps_rollup``.  Mapped
  parameter pages are file-backed and clean, so per-worker incremental
  memory must be a small fraction of the private-copy cost.

Results merge into ``BENCH_serving.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from benchmarks.conftest import merge_results, print_header
from repro.hmm import CategoricalEmission, HMM
from repro.serving import ClusterServer, ModelRegistry, save_artifact

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

#: fraction of the private-copy Private_Dirty growth a mmap load may incur.
MAX_MMAP_RSS_FRACTION = float(os.environ.get("BENCH_MAX_MMAP_RSS_FRACTION", "0.25"))


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _multi_worker_floor(cores: int) -> float:
    """Core-aware speedup floor for the 4-worker vs 1-worker ratio."""
    override = os.environ.get("BENCH_MIN_MULTI_WORKER_SPEEDUP")
    if override is not None:
        return float(override)
    if cores >= 4:
        return 2.0  # the headline gate: 4 workers must at least double 1
    if cores >= 2:
        return 1.0  # 4 workers on 2 cores: no regression allowed
    return 0.25  # 1 core: parallelism is impossible; only sanity-gate


def _serving_model(seed: int = 0, n_states: int = 16, n_symbols: int = 1000) -> HMM:
    rng = np.random.default_rng(seed)
    rows = rng.random((n_states, n_symbols))
    rows /= rows.sum(axis=1, keepdims=True)
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        CategoricalEmission(rows),
    )


def _drive_cluster(cluster, sequence, n_threads: int, requests_per_thread: int) -> float:
    """Hammer the cluster from concurrent clients; returns wall seconds."""
    url = f"http://{cluster.host}:{cluster.port}/v1/models/m/tag"
    payload = json.dumps({"sequence": sequence}).encode()
    errors: list[BaseException] = []

    def client() -> None:
        for _ in range(requests_per_thread):
            request = urllib.request.Request(
                url,
                data=payload,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    response.read()
            except BaseException as exc:  # surfaced after the join below
                errors.append(exc)
                return

    threads = [threading.Thread(target=client) for _ in range(n_threads)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, f"client requests failed: {errors[:3]}"
    return elapsed


def test_multi_worker_throughput(tmp_path):
    """4 ClusterServer workers vs 1 under concurrent HTTP tagging load."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.save("m", _serving_model())
    rng = np.random.default_rng(3)
    sequence = [int(s) for s in rng.integers(0, 1000, size=96)]
    n_threads, requests_per_thread = 8, 25
    total_requests = n_threads * requests_per_thread

    seconds: dict[int, float] = {}
    for n_workers in (1, 4):
        cluster = ClusterServer(
            registry, port=0, n_workers=n_workers, warm_up=["m"]
        )
        cluster.start()
        try:
            # one warm-up pass so connection setup and code paths are hot
            _drive_cluster(cluster, sequence, n_threads, 2)
            seconds[n_workers] = _drive_cluster(
                cluster, sequence, n_threads, requests_per_thread
            )
        finally:
            cluster.close()

    cores = _available_cores()
    floor = _multi_worker_floor(cores)
    speedup = seconds[1] / seconds[4]
    results = {
        "multi_worker": {
            "workload": {
                "n_client_threads": n_threads,
                "requests_per_thread": requests_per_thread,
                "sequence_length": len(sequence),
            },
            "one_worker_seconds": seconds[1],
            "four_worker_seconds": seconds[4],
            "one_worker_requests_per_second": total_requests / seconds[1],
            "four_worker_requests_per_second": total_requests / seconds[4],
            "speedup": speedup,
            "cores_available": cores,
            "effective_floor": floor,
        }
    }
    merge_results(_RESULT_PATH, results)

    print_header("Serving cluster - 4 workers vs 1 (concurrent HTTP clients)")
    print(f"1 worker : {seconds[1] * 1e3:8.1f} ms "
          f"({results['multi_worker']['one_worker_requests_per_second']:7.0f} req/s)")
    print(f"4 workers: {seconds[4] * 1e3:8.1f} ms "
          f"({results['multi_worker']['four_worker_requests_per_second']:7.0f} req/s) "
          f"| {speedup:5.2f}x")
    print(f"cores available: {cores}  ->  speedup floor {floor:.2f}x")
    print(f"results merged into {_RESULT_PATH.name}")

    assert speedup >= floor


# ------------------------------------------------------------------ #
# mmap artifact sharing
# ------------------------------------------------------------------ #
_RSS_CHILD = """
import json, sys
import numpy as np
from repro.serving import load_artifact

def private_dirty_kb():
    with open("/proc/self/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("Private_Dirty:"):
                return int(line.split()[1])
    raise SystemExit("no Private_Dirty in smaps_rollup")

before = private_dirty_kb()
model = load_artifact(sys.argv[1], mmap=(sys.argv[2] == "mmap"))
# touch every parameter page so lazily-mapped pages are faulted in and the
# measurement reflects a worker that has actually served traffic
checksum = float(model.emissions.emission_probs.sum())
checksum += float(model.transmat.sum()) + float(model.startprob.sum())
after = private_dirty_kb()
print(json.dumps({"delta_kb": after - before, "checksum": checksum}))
"""


def _measure_child(artifact: Path, mode: str) -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(artifact), mode],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_mmap_artifact_sharing_rss(tmp_path):
    """Per-worker incremental dirty memory with mmap vs private copies."""
    if not Path("/proc/self/smaps_rollup").exists():
        pytest.skip("smaps_rollup not available on this kernel")
    # ~37 MB of emission parameters: 24 states x 200k symbols of float64 —
    # large enough that page-table noise is irrelevant to the comparison.
    n_states, n_symbols = 24, 200_000
    rng = np.random.default_rng(0)
    rows = rng.random((n_states, n_symbols))
    rows /= rows.sum(axis=1, keepdims=True)
    model = HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        CategoricalEmission(rows),
    )
    artifact = save_artifact(model, tmp_path / "big")
    payload_kb = sum(
        p.stat().st_size for p in artifact.glob("arrays-*.npy")
    ) / 1024.0

    private = _measure_child(artifact, "private")
    mapped = _measure_child(artifact, "mmap")
    # both children touched identical parameters
    assert mapped["checksum"] == pytest.approx(private["checksum"], rel=1e-12)

    fraction = mapped["delta_kb"] / max(private["delta_kb"], 1)
    results = {
        "mmap_sharing": {
            "payload_kb": payload_kb,
            "private_copy_delta_kb": private["delta_kb"],
            "mmap_delta_kb": mapped["delta_kb"],
            "mmap_fraction_of_private": fraction,
            "max_fraction_allowed": MAX_MMAP_RSS_FRACTION,
        }
    }
    merge_results(_RESULT_PATH, results)

    print_header("Serving cluster - per-worker dirty memory: mmap vs private copy")
    print(f"payload      : {payload_kb:9.0f} kB on disk")
    print(f"private copy : {private['delta_kb']:9d} kB Private_Dirty growth")
    print(f"mmap         : {mapped['delta_kb']:9d} kB Private_Dirty growth "
          f"({fraction * 100:.1f}% of private)")
    print(f"results merged into {_RESULT_PATH.name}")

    # a private load must actually have paid for the payload...
    assert private["delta_kb"] > payload_kb * 0.8
    # ...while the mapped load shares file-backed clean pages
    assert fraction < MAX_MMAP_RSS_FRACTION
