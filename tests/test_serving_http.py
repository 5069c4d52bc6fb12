"""HTTP front end: endpoints, error mapping, streaming sessions, CLI flags."""

import gc
import http.client
import json
import logging
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import ServingConfig
from repro.exceptions import ValidationError
from repro.hmm import HMM, CategoricalEmission
from repro.serving import HTTPServingServer, ModelRegistry, StreamingDecoder


def _random_hmm(seed, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


@pytest.fixture(scope="module")
def models():
    return {"alpha": _random_hmm(0), "beta": _random_hmm(99)}


@pytest.fixture(scope="module")
def server(tmp_path_factory, models):
    root = tmp_path_factory.mktemp("http") / "registry"
    registry = ModelRegistry(root)
    for name, model in models.items():
        registry.save(name, model)
    registry.save("beta", _random_hmm(100))  # beta has two versions
    with HTTPServingServer(registry, port=0) as server:
        yield server


def _url(server, path):
    return f"http://{server.host}:{server.port}{path}"


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload=None):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload or {}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _error_status(fn):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        fn()
    with excinfo.value as error:
        body = json.loads(error.read())
    return error.code, body


def _post_in_thread(server, path, payload, results, key):
    """POST from a client thread; ``results[key]`` = (status, body)."""

    def run():
        try:
            results[key] = _post(server, path, payload)
        except urllib.error.HTTPError as error:
            with error:
                results[key] = (error.code, json.loads(error.read()))

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _read_until_closed(sock):
    """Everything the server sends before closing (raises on a timeout)."""
    chunks = []
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class TestCoreEndpoints:
    def test_health(self, server):
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["scheduling_policy"] == "fifo"

    def test_list_models(self, server):
        _, payload = _get(server, "/v1/models")
        by_name = {m["name"]: m for m in payload["models"]}
        assert by_name["alpha"]["versions"] == [1]
        assert by_name["beta"]["latest"] == 2

    def test_tag_matches_direct_decode(self, server, models):
        sequence = [0, 3, 1, 2, 4, 1]
        status, payload = _post(
            server, "/v1/models/alpha/tag", {"sequence": sequence}
        )
        assert status == 200
        want = models["alpha"].decode(np.asarray(sequence))
        assert payload["tags"] == [int(s) for s in want]

    def test_score_matches_direct_likelihood(self, server, models):
        sequence = [1, 2, 0, 5]
        _, payload = _post(server, "/v1/models/alpha/score", {"sequence": sequence})
        want = models["alpha"].log_likelihood(np.asarray(sequence))
        assert payload["score"] == pytest.approx(want, abs=1e-9)

    def test_version_pinning(self, server, models):
        sequence = [0, 1, 2, 3]
        _, pinned = _post(
            server, "/v1/models/beta/tag", {"sequence": sequence, "version": 1}
        )
        want = models["beta"].decode(np.asarray(sequence))
        assert pinned["tags"] == [int(s) for s in want]

    def test_stats_counts_served_requests(self, server):
        _post(server, "/v1/models/alpha/tag", {"sequence": [0, 1, 2]})
        _, payload = _get(server, "/stats")
        assert payload["router"]["n_requests"] >= 1
        assert "alpha:v0001" in payload["router"]["per_model"]
        assert payload["scheduling_policy"] == "fifo"

    def test_concurrent_clients(self, server, models):
        rng = np.random.default_rng(5)
        sequences = [[int(x) for x in rng.integers(0, 8, size=6)] for _ in range(12)]
        results: dict[int, list] = {}

        def client(i):
            _, payload = _post(
                server, "/v1/models/alpha/tag", {"sequence": sequences[i]}
            )
            results[i] = payload["tags"]

        threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, seq in enumerate(sequences):
            assert results[i] == [int(s) for s in models["alpha"].decode(np.asarray(seq))]


class TestErrorMapping:
    def test_unknown_route_is_404(self, server):
        status, body = _error_status(lambda: _get(server, "/nope"))
        assert status == 404 and "error" in body

    def test_unknown_model_is_400(self, server):
        status, body = _error_status(
            lambda: _post(server, "/v1/models/ghost/tag", {"sequence": [0, 1]})
        )
        assert status == 400
        assert "no versions" in body["error"]

    def test_missing_sequence_is_400(self, server):
        status, body = _error_status(
            lambda: _post(server, "/v1/models/alpha/tag", {})
        )
        assert status == 400
        assert "sequence" in body["error"]

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            _url(server, "/v1/models/alpha/tag"),
            data=b"this is not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_stream_is_404(self, server):
        status, _ = _error_status(
            lambda: _post(server, "/v1/streams/deadbeef/push", {"observation": 0})
        )
        assert status == 404


class TestNonIntegerSymbols:
    """A categorical model takes integer symbols only; anything else is a
    validation error (HTTP 400), never a raw numpy error (HTTP 500)."""

    SEQUENCES = [[1.5, 2], [1.0, 2.0], ["a"], [True, False]]

    @pytest.mark.parametrize("sequence", SEQUENCES, ids=repr)
    def test_predict_raises_validation_error(self, models, sequence):
        with pytest.raises(ValidationError, match="integer"):
            models["alpha"].predict([np.asarray(sequence)])

    @pytest.mark.parametrize("sequence", SEQUENCES, ids=repr)
    def test_tag_is_400(self, server, sequence):
        status, body = _error_status(
            lambda: _post(server, "/v1/models/alpha/tag", {"sequence": sequence})
        )
        assert status == 400
        assert "integer" in body["error"]

    @pytest.mark.parametrize("observation", [1.5, True, "a"], ids=repr)
    def test_stream_push_is_400(self, server, observation):
        _, opened = _post(server, "/v1/streams", {"model": "alpha"})
        push = f"/v1/streams/{opened['stream_id']}/push"
        status, body = _error_status(
            lambda: _post(server, push, {"observation": observation})
        )
        assert status == 400
        assert "integer" in body["error"]
        # the rejected token left the stream usable
        status, step = _post(server, push, {"observation": 1})
        assert status == 200 and len(step["filtering"]) == 4


    def test_bool_sequence_batched_with_integers_is_400(
        self, tmp_path, models, hold_dispatcher
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("alpha", models["alpha"])
        results: dict = {}
        with HTTPServingServer(registry, port=0) as server:
            tag = "/v1/models/alpha/tag"
            with hold_dispatcher() as held:
                threads = [
                    _post_in_thread(server, tag, {"sequence": [0, 1]}, results, "held")
                ]
                assert held.wait(timeout=10)
                threads += [
                    _post_in_thread(server, tag, {"sequence": [1, 2, 3]}, results, "ints"),
                    _post_in_thread(
                        server, tag, {"sequence": [True, False]}, results, "bools"
                    ),
                ]
                # both requests queue behind the held one: they form one batch
                _wait_until(lambda: server.router.queue_depth == 2)
            for thread in threads:
                thread.join(timeout=10)
        status, body = results["bools"]
        assert status == 400 and "integer" in body["error"]
        status, body = results["ints"]
        assert status == 200
        assert body["tags"] == [
            int(s) for s in models["alpha"].decode(np.asarray([1, 2, 3]))
        ]

    def test_bool_push_in_an_integer_tick_is_400(
        self, tmp_path, models, hold_dispatcher
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("alpha", models["alpha"])
        results: dict = {}
        with HTTPServingServer(registry, port=0) as server:
            pushes = []
            for _ in range(3):
                _, opened = _post(server, "/v1/streams", {"model": "alpha", "lag": 4})
                pushes.append(f"/v1/streams/{opened['stream_id']}/push")
            service = server._stream_services[("alpha", 1)]
            with hold_dispatcher() as held:
                threads = [
                    _post_in_thread(server, pushes[0], {"observation": 0}, results, "held")
                ]
                assert held.wait(timeout=10)
                threads += [
                    _post_in_thread(server, pushes[1], {"observation": 1}, results, "int"),
                    _post_in_thread(
                        server, pushes[2], {"observation": True}, results, "bool"
                    ),
                ]
                # both pushes queue behind the held one: they form one tick
                _wait_until(lambda: service.queue_depth == 2)
            for thread in threads:
                thread.join(timeout=10)
        status, body = results["bool"]
        assert status == 400 and "integer" in body["error"]
        status, step = results["int"]
        want = StreamingDecoder(models["alpha"], lag=4).push(1)
        assert status == 200
        assert step["filtering"] == [float(p) for p in want.filtering]
        assert step["log_likelihood"] == float(want.log_likelihood)


class TestStreaming:
    def test_stream_session_matches_decoder(self, server, models):
        observations = [0, 3, 1, 2, 4, 1, 5, 2]
        _, opened = _post(server, "/v1/streams", {"model": "alpha", "lag": 3})
        stream_id = opened["stream_id"]
        assert opened["version"] == 1
        finalized = []
        for obs in observations:
            _, step = _post(
                server, f"/v1/streams/{stream_id}/push", {"observation": obs}
            )
            assert len(step["filtering"]) == 4
            finalized.extend(step["finalized"])
        _, final = _post(server, f"/v1/streams/{stream_id}/finish")
        decoder = StreamingDecoder(models["alpha"], lag=3)
        decoder.push_many(np.asarray(observations))
        want = decoder.finish()
        assert final["path"] == [int(s) for s in want.path]
        assert final["log_likelihood"] == pytest.approx(want.log_likelihood, abs=1e-12)
        # stream is gone after finish
        status, _ = _error_status(
            lambda: _post(server, f"/v1/streams/{stream_id}/push", {"observation": 0})
        )
        assert status == 404

    def test_stream_stats_exposed(self, server):
        _, opened = _post(server, "/v1/streams", {"model": "alpha"})
        _post(
            server, f"/v1/streams/{opened['stream_id']}/push", {"observation": 1}
        )
        _, stats = _get(server, "/stats")
        assert "alpha:v0001" in stats["streams"]
        assert stats["streams"]["alpha:v0001"]["n_requests"] >= 1
        assert stats["n_open_streams"] >= 1

    def test_open_unknown_model_is_400(self, server):
        status, _ = _error_status(
            lambda: _post(server, "/v1/streams", {"model": "ghost"})
        )
        assert status == 400


class TestLifecycle:
    def test_close_is_idempotent_and_frees_services(self, tmp_path, models):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("alpha", models["alpha"])
        server = HTTPServingServer(registry, port=0).start()
        _, opened = _post(server, "/v1/streams", {"model": "alpha"})
        _post(server, f"/v1/streams/{opened['stream_id']}/push", {"observation": 0})
        server.close()
        server.close()
        with pytest.raises(urllib.error.URLError):
            _get(server, "/healthz")

    def test_close_with_an_open_keep_alive_connection_is_clean(
        self, tmp_path, models, caplog, monkeypatch
    ):
        # Regression: close() stopped the loop while the connection's
        # handler still waited for its next request, so the handler task
        # was destroyed pending and its writer.close() hit a closed loop.
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("alpha", models["alpha"])
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        server = HTTPServingServer(registry, port=0).start()
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/models/alpha/tag",
                body=json.dumps({"sequence": [0, 1, 2]}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                server.close()
                gc.collect()
        finally:
            connection.close()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
        assert [str(u.exc_value) for u in unraisable] == []

    def test_stalled_client_times_out_while_others_are_served(
        self, tmp_path, models, caplog, monkeypatch
    ):
        """Regression: reads had no bound, so a client that sent half a
        request line (or nothing) held its handler and socket forever."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("alpha", models["alpha"])
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        config = ServingConfig(request_timeout_s=0.5)
        server = HTTPServingServer(registry, config=config, port=0).start()
        address = (server.host, server.port)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            # the client timeouts turn a missing server timeout into a
            # failure instead of a hang
            with socket.create_connection(address, timeout=3) as stalled, \
                    socket.create_connection(address, timeout=3) as idle:
                started = time.monotonic()
                stalled.sendall(b"POST /v1/models/al")
                # a concurrent keep-alive client is served meanwhile
                client = http.client.HTTPConnection(*address, timeout=3)
                client.request(
                    "POST", "/v1/models/alpha/tag",
                    body=json.dumps({"sequence": [0, 1, 2]}),
                    headers={"Content-Type": "application/json"},
                )
                response = client.getresponse()
                assert response.status == 200
                assert len(json.loads(response.read())["tags"]) == 3
                reply = _read_until_closed(stalled)
                assert time.monotonic() - started < 2.0
                assert reply.startswith(b"HTTP/1.1 408 ")
                # a connection that never sends is closed without a reply,
                # and so is a keep-alive one idle after its request
                assert _read_until_closed(idle) == b""
                assert _read_until_closed(client.sock) == b""
                assert time.monotonic() - started < 2.0
                client.close()
            server.close()
            gc.collect()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
        assert [str(u.exc_value) for u in unraisable] == []

    def test_scheduling_policy_flows_through_config(self, tmp_path, models):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("alpha", models["alpha"])
        config = ServingConfig(scheduling_policy="edf")
        with HTTPServingServer(registry, config=config, port=0) as server:
            _, payload = _get(server, "/healthz")
            assert payload["scheduling_policy"] == "edf"
            _, tagged = _post(
                server,
                "/v1/models/alpha/tag",
                {"sequence": [0, 1, 2], "deadline_ms": 30_000.0},
            )
            assert tagged["tags"] == [
                int(s) for s in models["alpha"].decode(np.asarray([0, 1, 2]))
            ]
