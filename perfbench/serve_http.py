"""serve_http: the HTTP front end, driven from a client process.

``python -m repro.serving.cli serve --port 0 --warm-up pos`` runs as a child
process (one worker, default config) over a registry holding the K = 15,
V = 10 000 PoS model.  This process holds two keep-alive connections in a
closed loop:

* connection A posts ``/v1/models/pos/tag`` back to back;
* connection B runs stream sessions: open, push one token at a time, finish.

Latency runs from send to parsed response.  Server-side figures come from
``GET /stats`` scraped before and after the measured phase.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from perfbench import checks, record
from perfbench.common import Context, Measurement, Phase
from perfbench.inputs import PosSource
from perfbench.spans import Tracer
from repro.core.config import ServingConfig
from repro.hmm.emissions.categorical import CategoricalEmission
from repro.hmm.model import HMM
from repro.serving.registry import ModelRegistry
from repro.serving.streaming import StreamingDecoder

MODEL = "pos"
POOL_SENTENCES = 1024
LAG = ServingConfig().streaming_lag
SETUP_REPEATS = 3
START_TIMEOUT_S = 60.0
_LISTENING = re.compile(r"on http://([0-9.]+):(\d+)")

LAYER_METRICS = (
    "serving.router.latency_p50_ms",
    "serving.router.queue_wait_p50_ms",
    "serving.http.tag_overhead_p50_ms",
    "serving.streaming_service.queue_wait_p50_ms",
    "serving.streaming_service.mean_tick",
)

_CONNECTION_ERRORS = (OSError, http.client.HTTPException)


class _Server:
    """One ``repro-serve serve`` child process."""

    def __init__(self, root: Path, registry_dir: str, log_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log_path = log_path
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serving.cli", "serve", "--registry",
                 registry_dir, "--port", "0", "--warm-up", MODEL],
                cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=log,
            )
        self.port = None

    def wait_ready(self) -> None:
        """Block until the child logs its port and ``/healthz`` answers 200."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.port is None:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                self.port = int(match.group(2))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {self.log_path.read_text()}")
            else:
                time.sleep(0.002)
        while True:
            conn = self.connect()
            try:
                if _request(conn, "GET", "/healthz")[0] == 200:
                    return
            except _CONNECTION_ERRORS:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.002)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)


def _request(conn, method: str, path: str, payload=None, trace_id: str | None = None):
    headers = {"Content-Type": "application/json"}
    if trace_id:
        headers["X-Trace-Id"] = trace_id
    body = None if payload is None else json.dumps(payload)
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, json.loads(data) if data else None


class Workload:
    def __init__(self, ctx: Context) -> None:
        self.root = ctx.root
        source = PosSource.from_seed(ctx.seed)
        self.pool = source.sample(max(int(POOL_SENTENCES * ctx.scale), 32), stream=4)
        ctx.out_dir.mkdir(parents=True, exist_ok=True)
        self.registry_dir = tempfile.mkdtemp(prefix="registry-", dir=ctx.out_dir)
        registry = ModelRegistry(self.registry_dir)
        registry.save(
            MODEL,
            HMM(source.startprob, source.transmat, CategoricalEmission(source.emission_probs)),
        )
        self.model = registry.load(MODEL)
        self.reference = self.model.predict(self.pool.words)
        self.rng = np.random.default_rng([ctx.seed, 5])
        self.server: _Server | None = None

    def inputs(self) -> dict:
        return {
            "pool_sentences": len(self.pool.words),
            "pool_tokens": self.pool.n_tokens,
            "sentence_length_quartiles": self.pool.length_quartiles(),
            "states": self.model.n_states,
            "vocabulary": self.model.emissions.n_symbols,
            "stream_lag": LAG,
            "connections": 2,
        }

    def setup(self) -> list[float]:
        """Spawn the server until ``/healthz`` is 200 (median of repeats)."""
        times = []
        for i in range(SETUP_REPEATS):
            if self.server is not None:
                self.server.stop()
            start = time.perf_counter()
            log = Path(self.registry_dir) / f"server-{i}.log"
            self.server = _Server(self.root, self.registry_dir, log)
            self.server.wait_ready()
            times.append(time.perf_counter() - start)
        return times

    def startup_checks(self) -> list[dict]:
        return []

    # -------------------------------------------------------------- #
    def _tagger(self, deadline, picks, phase, out, tracer) -> None:
        conn = self.server.connect()
        words = self.pool.words
        k = 0
        while time.perf_counter() < deadline:
            j = int(picks[k % len(picks)])
            k += 1
            rid = f"tag-{k}"
            start = time.perf_counter()
            try:
                with tracer.span("client.tag", rid) if tracer else nullcontext():
                    status, body = _request(
                        conn, "POST", f"/v1/models/{MODEL}/tag",
                        {"sequence": words[j].tolist()}, trace_id=rid if tracer else None,
                    )
            except _CONNECTION_ERRORS as exc:
                phase.fail(type(exc).__name__)
                conn.close()
                conn = self.server.connect()
                continue
            elapsed = time.perf_counter() - start
            if status != 200:
                phase.fail(f"http_{status}")
                continue
            phase.ok()
            out["latency"].append(elapsed)
            out["tokens"] += len(words[j])
            out["served"].append((j, np.asarray(body["tags"], dtype=np.int64)))
        conn.close()

    def _streamer(self, deadline, picks, phase, out, tracer) -> None:
        conn = self.server.connect()
        words = self.pool.words
        k = 0
        while time.perf_counter() < deadline:
            j = int(picks[k % len(picks)])
            k += 1
            try:
                status, body = _request(conn, "POST", "/v1/streams", {"model": MODEL, "lag": LAG})
                if status != 200:
                    phase.fail(f"http_{status}")
                    continue
                phase.ok()
                stream = f"/v1/streams/{body['stream_id']}"
                pushed = 0
                for token in words[j]:
                    if time.perf_counter() >= deadline and pushed:
                        break
                    rid = f"push-{k}-{pushed}"
                    start = time.perf_counter()
                    with tracer.span("client.push", rid) if tracer else nullcontext():
                        status, _ = _request(
                            conn, "POST", f"{stream}/push", {"observation": int(token)},
                            trace_id=rid if tracer else None,
                        )
                    elapsed = time.perf_counter() - start
                    if status != 200:
                        phase.fail(f"http_{status}")
                        break
                    phase.ok()
                    pushed += 1
                    out["latency"].append(elapsed)
                    out["tokens"] += 1
                status, body = _request(conn, "POST", f"{stream}/finish")
            except _CONNECTION_ERRORS as exc:
                phase.fail(type(exc).__name__)
                conn.close()
                conn = self.server.connect()
                continue
            if status != 200:
                phase.fail(f"http_{status}")
                continue
            phase.ok()
            out["streams"].append((j, pushed, np.asarray(body["path"], dtype=np.int64)))
        conn.close()

    def _stats(self) -> dict:
        conn = self.server.connect()
        try:
            status, body = _request(conn, "GET", "/stats")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return body

    def measure(self, seconds: float, tracer: Tracer | None) -> Measurement:
        n = len(self.pool.words)
        tag_phase, stream_phase = Phase(), Phase()
        tags = {"latency": [], "tokens": 0, "served": []}
        streams = {"latency": [], "tokens": 0, "streams": []}
        before = self._stats()
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=self._tagger, args=(
                deadline, self.rng.permutation(n), tag_phase, tags, tracer)),
            threading.Thread(target=self._streamer, args=(
                deadline, self.rng.permutation(n), stream_phase, streams, tracer)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        after = self._stats()

        gold = self.pool.tags
        tag_tally = checks.PathTally("http_tags_equal_hmm_predict")
        for j, path in tags["served"]:
            tag_tally.add(path, self.reference[j], gold[j])
        stream_tally = checks.PathTally("stream_finish_equals_streaming_decoder")
        for j, pushed, path in streams["streams"]:
            decoder = StreamingDecoder(self.model, lag=LAG)
            decoder.push_many(self.pool.words[j][:pushed])
            stream_tally.add(path, decoder.finish().path, gold[j][:pushed])

        pooled = tags["latency"] + streams["latency"]
        tag_lat = record.latency_summary(tags["latency"])
        push_lat = record.latency_summary(streams["latency"])
        e2e = {
            "tokens_per_s": record.summary(
                [(tags["tokens"] + streams["tokens"]) / wall]
            ),
            "p50_ms": record.p50_metric(pooled),
        }
        named = {
            "tag_p50_ms": (tag_lat["p50_ms"], "ms"),
            "tag_p90_ms": (tag_lat["p90_ms"], "ms"),
            "push_p50_ms": (push_lat["p50_ms"], "ms"),
            "push_p90_ms": (push_lat["p90_ms"], "ms"),
            "tag_tokens_per_s": (tags["tokens"] / wall, "tok/s"),
            "tag_accuracy": (
                (tag_tally.correct_tokens + stream_tally.correct_tokens)
                / max(tag_tally.tokens + stream_tally.tokens, 1),
                "fraction",
            ),
        }
        m = Measurement(
            end_to_end=e2e,
            named=named,
            phases={"tag": tag_phase, "stream": stream_phase},
            checks=[tag_tally.result(), stream_tally.result()],
            overhead_basis=e2e["p50_ms"]["value"],
            detail={"tag_latency": tag_lat, "push_latency": push_lat,
                    "streams": len(streams["streams"])},
        )
        if tracer is not None:
            m.layer_raw = self._layers(before, after, tag_lat)
        return m

    @staticmethod
    def _layers(before, after, tag_lat) -> dict:
        router_before, router_after = before["router"], after["router"]
        router_p50 = record.histogram_delta_p50_ms(
            router_before["latency"], router_after["latency"]
        )
        label = next(iter(after["streams"]))
        s_after = after["streams"][label]
        s_before = before["streams"].get(label, {
            "queue_wait_by_policy": {}, "n_batches": 0, "n_requests": 0,
        })
        ticks = s_after["n_batches"] - s_before["n_batches"]
        stepped = s_after["n_requests"] - s_before["n_requests"]
        return {
            "serving.router.latency_p50_ms": router_p50,
            "serving.router.queue_wait_p50_ms": record.histogram_delta_p50_ms(
                router_before["queue_wait_by_policy"].get("fifo"),
                router_after["queue_wait_by_policy"]["fifo"],
            ),
            "serving.http.tag_overhead_p50_ms": tag_lat["p50_ms"] - router_p50,
            "serving.streaming_service.queue_wait_p50_ms": record.histogram_delta_p50_ms(
                s_before["queue_wait_by_policy"].get("fifo"),
                s_after["queue_wait_by_policy"]["fifo"],
            ),
            "serving.streaming_service.mean_tick": stepped / max(ticks, 1),
        }

    def peak_rss_mb(self) -> float:
        return record.child_peak_rss_mb(self.server.proc.pid)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.registry_dir, ignore_errors=True)
