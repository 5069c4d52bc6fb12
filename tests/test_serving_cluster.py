"""Multi-process serving: worker fan-out, balancer failover, sticky streams."""

import json
import os
import signal
import socket
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.hmm import HMM, CategoricalEmission
from repro.serving import (
    ClusterServer,
    ModelRegistry,
    StreamingDecoder,
    reuse_port_supported,
)
from repro.serving.cluster import _Balancer


def _random_hmm(seed, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


def _wait_until(predicate, timeout=45.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def _url(cluster, path):
    return f"http://{cluster.host}:{cluster.port}{path}"


def _get(cluster, path):
    with urllib.request.urlopen(_url(cluster, path), timeout=15) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


def _post(cluster, path, payload=None, headers=None):
    request = urllib.request.Request(
        _url(cluster, path),
        data=json.dumps(payload or {}).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=15) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


@pytest.fixture(scope="module")
def models():
    return {"alpha": _random_hmm(0)}


@pytest.fixture(scope="module")
def cluster(tmp_path_factory, models):
    """A two-worker cluster in balancer mode (deterministic routing)."""
    root = tmp_path_factory.mktemp("cluster") / "registry"
    registry = ModelRegistry(root)
    for name, model in models.items():
        registry.save(name, model)
    server = ClusterServer(
        registry, port=0, n_workers=2, reuse_port=False, warm_up=["alpha"]
    )
    server.start()
    yield server
    server.close()


class TestClusterServing:
    def test_two_workers_come_up(self, cluster):
        assert len(cluster.worker_pids) == 2
        status, payload, _ = _get(cluster, "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_tag_through_the_cluster(self, cluster, models):
        sequence = [0, 3, 1, 2, 4, 1]
        status, payload, headers = _post(
            cluster, "/v1/models/alpha/tag", {"sequence": sequence}
        )
        assert status == 200
        want = models["alpha"].decode(np.asarray(sequence))
        assert payload["tags"] == [int(s) for s in want]
        assert headers.get("X-Trace-Id")

    def test_inbound_trace_id_survives_the_balancer_hop(self, cluster):
        _, _, headers = _post(
            cluster,
            "/v1/models/alpha/tag",
            {"sequence": [0, 1, 2]},
            headers={"X-Trace-Id": "relay-check-123"},
        )
        assert headers["X-Trace-Id"] == "relay-check-123"

    def test_round_robin_spreads_traffic_across_workers(self, cluster):
        for _ in range(8):
            _post(cluster, "/v1/models/alpha/tag", {"sequence": [0, 1, 2]})
        # stats are per worker; two consecutive scrapes land on the two
        # round-robin backends, and both must have served something
        scrapes = [_get(cluster, "/metrics")[1] for _ in range(2)]
        counts = [scrape["router"]["n_requests"] for scrape in scrapes]
        assert all(count >= 1 for count in counts)
        assert sum(counts) >= 8

    def test_metrics_report_percentiles_per_worker(self, cluster):
        for _ in range(4):
            _post(cluster, "/v1/models/alpha/tag", {"sequence": [0, 1, 2, 3]})
        _, payload, _ = _get(cluster, "/metrics")
        latency = payload["router"]["latency"]
        assert latency["count"] >= 1
        assert latency["p50_ms"] is not None and latency["p99_ms"] is not None

    def test_stream_session_is_sticky_across_pushes(self, cluster, models):
        """Every push of one stream must reach the worker that owns the
        session — a misrouted push would 404 on the other worker."""
        observations = [0, 3, 1, 2, 4, 1, 5, 2]
        _, opened, _ = _post(cluster, "/v1/streams", {"model": "alpha", "lag": 3})
        stream_id = opened["stream_id"]
        finalized = []
        for obs in observations:
            status, step, _ = _post(
                cluster, f"/v1/streams/{stream_id}/push", {"observation": obs}
            )
            assert status == 200
            finalized.extend(step["finalized"])
        _, final, _ = _post(cluster, f"/v1/streams/{stream_id}/finish")
        decoder = StreamingDecoder(models["alpha"], lag=3)
        decoder.push_many(np.asarray(observations))
        want = decoder.finish()
        assert final["path"] == [int(s) for s in want.path]
        # the sticky entry is dropped on finish: further pushes are 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(cluster, f"/v1/streams/{stream_id}/push", {"observation": 0})
        assert excinfo.value.code == 404

    def test_killed_worker_is_respawned_and_traffic_continues(self, cluster):
        """SIGKILL one worker mid-flight: the balancer fails requests over
        to the survivor and the monitor respawns the dead worker."""
        pids_before = cluster.worker_pids
        assert len(pids_before) == 2
        victim = pids_before[0]
        os.kill(victim, signal.SIGKILL)
        # traffic keeps flowing while one worker is down
        for _ in range(5):
            status, _, _ = _post(
                cluster, "/v1/models/alpha/tag", {"sequence": [0, 1, 2]}
            )
            assert status == 200
        assert _wait_until(lambda: cluster.n_restarts >= 1)
        assert _wait_until(lambda: len(cluster.worker_pids) == 2)
        assert victim not in cluster.worker_pids
        # the respawned worker eventually takes traffic again
        status, _, _ = _post(cluster, "/v1/models/alpha/tag", {"sequence": [1, 2]})
        assert status == 200


class TestClusterLifecycle:
    def test_balancer_times_out_a_stalled_client(self):
        """Regression: the balancer's request reader had no bound, so a
        client that sent half a request line held its socket forever."""
        balancer = _Balancer("127.0.0.1", 0, backends=[], request_timeout_s=0.5)
        balancer.start()
        try:
            address = ("127.0.0.1", balancer.port)
            with socket.create_connection(address, timeout=3) as sock:
                started = time.monotonic()
                sock.sendall(b"GET /heal")
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
            assert time.monotonic() - started < 2.0
            assert reply.startswith(b"HTTP/1.1 408 ")
        finally:
            balancer.close()

    def test_n_workers_validated(self, tmp_path):
        with pytest.raises(ValidationError, match="n_workers"):
            ClusterServer(tmp_path / "registry", n_workers=0)

    def test_reuse_port_detection_is_a_bool(self):
        assert reuse_port_supported() in (True, False)


@pytest.mark.skipif(
    not reuse_port_supported(), reason="platform lacks SO_REUSEPORT"
)
class TestReusePortMode:
    def test_kernel_balanced_workers_share_one_port(self, tmp_path, models):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("alpha", models["alpha"])
        cluster = ClusterServer(
            registry, port=0, n_workers=2, reuse_port=True, warm_up=["alpha"]
        )
        cluster.start()
        try:
            assert cluster.reuse_port is True
            assert len(cluster.worker_pids) == 2
            sequence = [0, 1, 2, 3]
            want = [int(s) for s in models["alpha"].decode(np.asarray(sequence))]
            for _ in range(4):
                status, payload, headers = _post(
                    cluster, "/v1/models/alpha/tag", {"sequence": sequence}
                )
                assert status == 200
                assert payload["tags"] == want
                assert headers.get("X-Trace-Id")
            status, payload, _ = _get(cluster, "/healthz")
            assert status == 200 and payload["status"] == "ok"
        finally:
            cluster.close()
            cluster.close()  # idempotent
        with pytest.raises(urllib.error.URLError):
            _get(cluster, "/healthz")
