"""End-to-end ``repro-serve`` CLI tests (driven in-process via ``main``)."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro.core.config import ServingConfig, set_serving_config
from repro.serving import ModelRegistry
from repro.serving.cli import main


def _run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def fitted_registry(tmp_path_factory):
    """A registry holding a small supervised PoS model plus a sample file."""
    root = tmp_path_factory.mktemp("cli")
    registry = root / "registry"
    sample = root / "sample.jsonl"
    code = _run(
        [
            "fit", "--dataset", "pos", "--n-sequences", 50, "--max-em-iter", 2,
            "--registry", registry, "--name", "pos-tagger",
            "--sample-out", sample, "--sample-count", 6,
        ]
    )
    assert code == 0
    return registry, sample


class TestFit:
    def test_registry_entry_created(self, fitted_registry):
        registry, _ = fitted_registry
        reg = ModelRegistry(registry)
        assert reg.list_models() == ["pos-tagger"]
        description = reg.describe("pos-tagger")
        assert description["model_type"] == "supervised_diversified_hmm"
        assert description["metadata"]["dataset"] == "pos"

    def test_sample_file_is_json_lines(self, fitted_registry):
        _, sample = fitted_registry
        lines = [l for l in sample.read_text().splitlines() if l.strip()]
        assert len(lines) == 6
        for line in lines:
            seq = json.loads(line)
            assert isinstance(seq, list) and len(seq) >= 1

    def test_fit_to_bare_artifact_and_import(self, tmp_path):
        artifact = tmp_path / "artifact"
        assert _run(
            ["fit", "--dataset", "toy", "--n-sequences", 20, "--max-em-iter", 2,
             "--out", artifact]
        ) == 0
        registry = tmp_path / "registry"
        assert _run(
            ["save", "--artifact", artifact, "--registry", registry, "--name", "toy"]
        ) == 0
        assert ModelRegistry(registry).versions("toy") == [1]

    def test_fit_requires_destination(self, capsys):
        with pytest.raises(SystemExit):
            _run(["fit", "--dataset", "toy"])


class TestTag:
    def test_tag_writes_one_line_per_sequence(self, fitted_registry, tmp_path):
        registry, sample = fitted_registry
        output = tmp_path / "tags.txt"
        assert _run(
            ["tag", "--registry", registry, "--name", "pos-tagger",
             "--input", sample, "--output", output]
        ) == 0
        tag_lines = output.read_text().splitlines()
        input_lines = [l for l in sample.read_text().splitlines() if l.strip()]
        assert len(tag_lines) == len(input_lines)
        for tags, tokens in zip(tag_lines, input_lines):
            assert len(tags.split()) == len(json.loads(tokens))
            assert all(t.isdigit() for t in tags.split())

    def test_streaming_tag_is_deterministic_and_complete(self, fitted_registry, tmp_path):
        registry, sample = fitted_registry
        batch_out = tmp_path / "batch.txt"
        stream_out = tmp_path / "stream.txt"
        stream_again = tmp_path / "stream2.txt"
        _run(["tag", "--registry", registry, "--name", "pos-tagger",
              "--input", sample, "--output", batch_out])
        _run(["tag", "--registry", registry, "--name", "pos-tagger",
              "--input", sample, "--output", stream_out, "--streaming", "--lag", 4])
        _run(["tag", "--registry", registry, "--name", "pos-tagger",
              "--input", sample, "--output", stream_again, "--streaming", "--lag", 4])
        assert stream_out.read_text() == stream_again.read_text()
        # one label per token, same shape as the batch output
        batch_lines = batch_out.read_text().splitlines()
        stream_lines = stream_out.read_text().splitlines()
        assert len(batch_lines) == len(stream_lines)
        for b, s in zip(batch_lines, stream_lines):
            assert len(b.split()) == len(s.split())
        # a lag past every sequence's length streams the exact Viterbi path
        exact_out = tmp_path / "stream-exact.txt"
        _run(["tag", "--registry", registry, "--name", "pos-tagger",
              "--input", sample, "--output", exact_out, "--streaming",
              "--lag", 100000])
        assert exact_out.read_bytes() == batch_out.read_bytes()

    def test_streaming_tag_reports_the_decoder_lag(
        self, fitted_registry, tmp_path, capsys
    ):
        """The streaming mode reports the lag its decoders run with, read
        from the public ``StreamingDecoder.lag`` (the configured default
        when ``--lag`` is omitted)."""
        registry, sample = fitted_registry
        previous = set_serving_config(ServingConfig(streaming_lag=3))
        try:
            assert _run(["tag", "--registry", registry, "--name", "pos-tagger",
                         "--input", sample, "--output", tmp_path / "s.txt",
                         "--streaming"]) == 0
        finally:
            set_serving_config(previous)
        assert "via streaming (lag=3)" in capsys.readouterr().err

    def test_missing_model_fails_cleanly(self, fitted_registry, tmp_path):
        registry, sample = fitted_registry
        assert _run(
            ["tag", "--registry", registry, "--name", "nope", "--input", sample]
        ) == 2

    def test_batch_size_does_not_change_output(self, fitted_registry, tmp_path):
        registry, sample = fitted_registry
        big = tmp_path / "big.txt"
        small = tmp_path / "small.txt"
        _run(["tag", "--registry", registry, "--name", "pos-tagger",
              "--input", sample, "--output", big, "--batch-size", 1000])
        _run(["tag", "--registry", registry, "--name", "pos-tagger",
              "--input", sample, "--output", small, "--batch-size", 2])
        assert big.read_text() == small.read_text()

    def test_batch_size_must_be_positive(self, fitted_registry, tmp_path):
        registry, sample = fitted_registry
        assert _run(
            ["tag", "--registry", registry, "--name", "pos-tagger",
             "--input", sample, "--batch-size", 0]
        ) == 2

    def test_tag_iterates_input_in_bounded_batches(self, fitted_registry, tmp_path):
        """Tagging a large file must not materialize every sequence at once.

        The file below holds ~8 MB of token data; with --batch-size 16 the
        resident working set during tagging must stay far below the file
        size (pre-fix, _read_sequences loaded the whole file up front).
        """
        import tracemalloc

        registry, _ = fitted_registry
        rng = np.random.default_rng(0)
        bulk = tmp_path / "bulk.jsonl"
        with bulk.open("w") as fh:
            for _ in range(400):
                fh.write(json.dumps(rng.integers(0, 10, size=600).tolist()) + "\n")
        file_bytes = bulk.stat().st_size
        output = tmp_path / "bulk-tags.txt"

        tracemalloc.start()
        code = _run(["tag", "--registry", registry, "--name", "pos-tagger",
                     "--input", bulk, "--output", output, "--batch-size", 16])
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert code == 0
        assert len(output.read_text().splitlines()) == 400
        # bounded: a handful of batches worth of arrays, not the whole file
        assert peak < max(file_bytes // 2, 4_000_000)


class TestRoute:
    @pytest.fixture()
    def two_model_registry(self, tmp_path):
        """A registry with two small categorical HMMs plus their vocab size."""
        from repro.hmm import HMM, CategoricalEmission

        registry_root = tmp_path / "registry"
        registry = ModelRegistry(registry_root)
        for name, seed in (("red", 0), ("blue", 9)):
            rng = np.random.default_rng(seed)
            model = HMM(
                rng.dirichlet(np.ones(4)),
                rng.dirichlet(np.ones(4), size=4),
                CategoricalEmission(rng.dirichlet(np.ones(8), size=4)),
            )
            registry.save(name, model)
        return registry_root

    def test_routes_requests_across_models(self, two_model_registry, tmp_path):
        requests = tmp_path / "requests.jsonl"
        output = tmp_path / "routed.jsonl"
        rng = np.random.default_rng(3)
        with requests.open("w") as fh:
            for i in range(10):
                record = {
                    "model": "red" if i % 2 == 0 else "blue",
                    "sequence": [int(s) for s in rng.integers(0, 8, size=6)],
                }
                if i == 0:
                    record["kind"] = "score"
                fh.write(json.dumps(record) + "\n")
        assert _run(
            ["route", "--registry", two_model_registry,
             "--input", requests, "--output", output]
        ) == 0
        results = [json.loads(l) for l in output.read_text().splitlines()]
        assert len(results) == 10
        assert "score" in results[0] and results[0]["model"] == "red"
        for i, record in enumerate(results[1:], start=1):
            assert record["model"] == ("red" if i % 2 == 0 else "blue")
            assert len(record["tags"]) == 6
            assert all(0 <= t < 4 for t in record["tags"])

    def test_unknown_model_reported_per_request(self, two_model_registry, tmp_path):
        requests = tmp_path / "requests.jsonl"
        output = tmp_path / "routed.jsonl"
        with requests.open("w") as fh:
            fh.write(json.dumps({"model": "red", "sequence": [0, 1, 2]}) + "\n")
            fh.write(json.dumps({"model": "ghost", "sequence": [0, 1]}) + "\n")
        assert _run(
            ["route", "--registry", two_model_registry,
             "--input", requests, "--output", output]
        ) == 0
        results = [json.loads(l) for l in output.read_text().splitlines()]
        assert "tags" in results[0]
        assert "error" in results[1] and "ghost" in results[1]["error"]

    def test_input_larger_than_queue_capacity_is_not_shed(
        self, two_model_registry, tmp_path, capsys
    ):
        """Regression: the route CLI is its own only client, so a bounded
        queue must throttle submission (flow control), not drop the CLI's
        own requests as QueueFullError records — and the pacing must not
        count phantom rejections in the router stats."""
        requests = tmp_path / "requests.jsonl"
        output = tmp_path / "routed.jsonl"
        rng = np.random.default_rng(0)
        n_requests = 60
        with requests.open("w") as fh:
            for i in range(n_requests):
                record = {
                    "model": "red" if i % 2 == 0 else "blue",
                    "sequence": [int(s) for s in rng.integers(0, 8, size=5)],
                }
                fh.write(json.dumps(record) + "\n")
        assert _run(
            ["route", "--registry", two_model_registry, "--input", requests,
             "--output", output, "--queue-capacity", 4]
        ) == 0
        results = [json.loads(l) for l in output.read_text().splitlines()]
        assert len(results) == n_requests
        assert all("tags" in r for r in results), [
            r for r in results if "tags" not in r
        ]
        assert "0 shed" in capsys.readouterr().err

    def test_non_repro_failures_reported_per_request(
        self, two_model_registry, tmp_path
    ):
        """A corrupt artifact (FileNotFoundError, not a ReproError) and a
        malformed version value must become per-request error records, not
        crash the whole route run."""
        (two_model_registry / "blue" / "v0001" / "arrays-0000.npy").unlink()
        requests = tmp_path / "requests.jsonl"
        output = tmp_path / "routed.jsonl"
        with requests.open("w") as fh:
            fh.write(json.dumps({"model": "red", "sequence": [0, 1, 2]}) + "\n")
            fh.write(json.dumps({"model": "blue", "sequence": [0, 1]}) + "\n")
            fh.write(
                json.dumps({"model": "red", "sequence": [0], "version": "one"}) + "\n"
            )
        assert _run(
            ["route", "--registry", two_model_registry,
             "--input", requests, "--output", output]
        ) == 0
        results = [json.loads(l) for l in output.read_text().splitlines()]
        assert len(results) == 3
        assert "tags" in results[0]
        assert "error" in results[1]
        assert "error" in results[2]

    def test_malformed_request_line_fails_cleanly(self, two_model_registry, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"sequence": [1, 2]}) + "\n")
        assert _run(
            ["route", "--registry", two_model_registry, "--input", requests]
        ) == 2


class TestRouteStats:
    def test_stats_flag_prints_snapshot_json(self, tmp_path, capsys):
        from repro.hmm import HMM, CategoricalEmission

        registry_root = tmp_path / "registry"
        registry = ModelRegistry(registry_root)
        rng = np.random.default_rng(0)
        registry.save(
            "red",
            HMM(
                rng.dirichlet(np.ones(4)),
                rng.dirichlet(np.ones(4), size=4),
                CategoricalEmission(rng.dirichlet(np.ones(8), size=4)),
            ),
        )
        requests = tmp_path / "requests.jsonl"
        with requests.open("w") as fh:
            for _ in range(6):
                record = {
                    "model": "red",
                    "sequence": [int(s) for s in rng.integers(0, 8, size=5)],
                }
                fh.write(json.dumps(record) + "\n")
        output = tmp_path / "routed.jsonl"
        assert _run(
            ["route", "--registry", registry_root, "--input", requests,
             "--output", output, "--stats", "--scheduling-policy", "weighted_fair"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_requests"] == 6
        assert stats["per_model"] == {"red:v0001": 6}
        for key in ("queue_depth", "n_rejected", "n_expired", "mean_batch_size"):
            assert key in stats


class TestServe:
    def test_serve_subprocess_end_to_end(self, fitted_registry, tmp_path):
        """Start ``repro-serve serve`` as a real subprocess, drive it over
        HTTP, and check it shuts down cleanly on SIGINT."""
        registry, sample = fitted_registry
        # grab a free ephemeral port; the tiny close-to-rebind window is the
        # best a subprocess-spawning test can do
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            server_port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else "src"
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serving.cli", "serve",
                "--registry", str(registry), "--port", str(server_port),
                "--warm-up", "pos-tagger",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        base = f"http://127.0.0.1:{server_port}"
        try:
            deadline = time.time() + 30
            last_error = None
            while time.time() < deadline:
                if process.poll() is not None:
                    raise AssertionError(
                        f"server exited early: {process.stderr.read().decode()}"
                    )
                try:
                    with urllib.request.urlopen(f"{base}/healthz", timeout=2) as r:
                        assert json.loads(r.read())["status"] == "ok"
                    break
                except OSError as exc:
                    last_error = exc
                    time.sleep(0.1)
            else:
                raise AssertionError(f"server never came up: {last_error}")

            sequence = json.loads(sample.read_text().splitlines()[0])
            request = urllib.request.Request(
                f"{base}/v1/models/pos-tagger/tag",
                data=json.dumps({"sequence": sequence}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as r:
                tags = json.loads(r.read())["tags"]
            assert len(tags) == len(sequence)

            with urllib.request.urlopen(f"{base}/stats", timeout=10) as r:
                stats = json.loads(r.read())
            assert stats["router"]["n_requests"] >= 1
            # warm-up preloaded the model before the first request
            assert stats["router"]["n_model_loads"] == 1

            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


class TestBench:
    def test_bench_reports_speedup(self, fitted_registry, tmp_path, capsys):
        registry, _ = fitted_registry
        out = tmp_path / "bench.json"
        assert _run(
            ["bench", "--registry", registry, "--name", "pos-tagger",
             "--requests", 30, "--length", 8, "--out", out]
        ) == 0
        report = json.loads(out.read_text())
        assert report["requests"] == 30
        assert report["speedup"] > 0
        assert report["path_mismatches"] == 0
        assert report["mean_batch_size"] > 1


class TestLatencyReporting:
    """route/bench percentile output matches the /metrics histogram machinery."""

    def test_route_stats_include_latency_percentiles(self, tmp_path, capsys):
        from repro.hmm import HMM, CategoricalEmission

        registry_root = tmp_path / "registry"
        registry = ModelRegistry(registry_root)
        rng = np.random.default_rng(0)
        registry.save(
            "red",
            HMM(
                rng.dirichlet(np.ones(4)),
                rng.dirichlet(np.ones(4), size=4),
                CategoricalEmission(rng.dirichlet(np.ones(8), size=4)),
            ),
        )
        requests = tmp_path / "requests.jsonl"
        with requests.open("w") as fh:
            for _ in range(8):
                record = {
                    "model": "red",
                    "sequence": [int(s) for s in rng.integers(0, 8, size=5)],
                }
                fh.write(json.dumps(record) + "\n")
        output = tmp_path / "routed.jsonl"
        assert _run(
            ["route", "--registry", registry_root, "--input", requests,
             "--output", output, "--stats"]
        ) == 0
        captured = capsys.readouterr()
        stats = json.loads(captured.out)
        latency = stats["latency"]
        assert latency["count"] == 8
        assert latency["p50_ms"] is not None
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert "fifo" in stats["queue_wait_by_policy"]
        assert stats["queue_wait_by_policy"]["fifo"]["count"] == 8
        # the human-readable summary line quotes the same percentiles
        assert "latency p50=" in captured.err
        assert "over 8 requests" in captured.err

    def test_bench_report_includes_latency_percentiles(
        self, fitted_registry, tmp_path, capsys
    ):
        registry, _ = fitted_registry
        out = tmp_path / "bench.json"
        assert _run(
            ["bench", "--registry", registry, "--name", "pos-tagger",
             "--requests", 20, "--length", 8, "--out", out]
        ) == 0
        report = json.loads(out.read_text())
        latency = report["latency_ms"]
        assert set(latency) == {"p50", "p95", "p99", "max"}
        assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
        assert "latency p50=" in capsys.readouterr().err
