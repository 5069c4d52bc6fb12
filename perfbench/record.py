"""Result records: summaries of samples, machine fingerprint, output files."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def summary(samples, value: float | None = None, scale: float = 1.0) -> dict:
    """Reported ``value`` (default: the median) plus the median, quartiles
    and count of the samples it was computed from, all times ``scale``."""
    values = sorted(float(v) * scale for v in samples)
    if not values:
        raise ValueError("cannot summarise an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "value": median if value is None else value * scale,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def p50_metric(seconds) -> dict:
    """Summary of latency samples in seconds, reported as their p50 in ms."""
    return summary(seconds, percentile(seconds, 0.50), scale=1e3)


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 < q < 1) of the samples."""
    values = sorted(samples)
    if len(values) == 1:
        return float(values[0])
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return float(values[lo] + (values[hi] - values[lo]) * (pos - lo))


def latency_summary(seconds) -> dict:
    """p50/p90/p99 in ms of latency samples, with the sample count."""
    return {
        "p50_ms": percentile(seconds, 0.50) * 1e3,
        "p90_ms": percentile(seconds, 0.90) * 1e3,
        "p99_ms": percentile(seconds, 0.99) * 1e3,
        "n": len(seconds),
    }


def histogram_delta_p50_ms(before: dict | None, after: dict) -> float:
    """p50 (ms) of what a ``LatencyHistogram`` recorded between two of its
    snapshots (``before=None`` means since it started); 0 if nothing was."""
    from repro.serving.observability import LatencyHistogram

    def counts(snap):
        cumulative = [b["count"] for b in snap["buckets"]]
        return [c - p for c, p in zip(cumulative, [0] + cumulative[:-1])]

    new = counts(after)
    old = counts(before) if before else [0] * len(new)
    delta = [a - b for a, b in zip(new, old)]
    hist = LatencyHistogram()
    hist.counts = delta[:-1]
    hist.overflow = delta[-1]
    hist.n = sum(delta)
    p50 = hist.percentile(0.5)
    return 0.0 if p50 is None else p50 * 1e3


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of a live child, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        )
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


def fingerprint(root: Path, seed: int) -> dict:
    """Machine, library and source identity stamped on every record."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
        },
        "git": _git(root),
        "seed": seed,
    }


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=float) + "\n")
