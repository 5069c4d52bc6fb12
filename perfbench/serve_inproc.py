"""serve_inproc: the routed tagging service used in-process, two ways.

A :class:`~repro.serving.router.Router` over a fresh registry holding one
K = 15, V = 10 000 PoS model (the corpus generator's own parameters), with
the default ``ServingConfig``.

* **idle**: open loop, seeded Poisson arrivals at 200 req/s of PoS-length
  sentences from one generator thread; latency runs from each request's due
  time to its result.  The 2 ms coalescing wait dominates here.
* **burst**: repeated bursts of 1000 requests (under the 1024 queue cap),
  each submitted at once and gathered; batching dominates here.

Each half of the measured time goes to one phase.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import nullcontext

import numpy as np

from perfbench import checks, record
from perfbench.common import Context, Measurement, Phase
from perfbench.inputs import PosSource
from perfbench.spans import Tracer
from repro.exceptions import QueueFullError
from repro.hmm.emissions.categorical import CategoricalEmission
from repro.hmm.engine import InferenceEngine
from repro.hmm.model import HMM
from repro.serving.registry import ModelRegistry
from repro.serving.router import Router

MODEL = "pos"
POOL_SENTENCES = 2048
IDLE_RATE = 200.0  # requests per second
BURST = 1000
BACKLOG_GRACE_S = 0.05
SETUP_REPEATS = 5

LAYER_METRICS = (
    "serving.scheduler.queue_wait_p50_ms",
    "serving.scheduler.mean_batch_size",
    "serving.scheduler.n_batches",
    "serving.executor.busy_ms_per_batch",
    "hmm.emissions.log_likelihoods_batch_ms",
    "hmm.engine.viterbi_batch_ms",
    "serving.scheduler.rejected",
    "serving.scheduler.expired",
    "serving.scheduler.shed",
    "loadgen.late_p99_ms",
)


class Workload:
    def __init__(self, ctx: Context) -> None:
        source = PosSource.from_seed(ctx.seed)
        self.pool = source.sample(max(int(POOL_SENTENCES * ctx.scale), 64), stream=2)
        self.model = HMM(
            source.startprob, source.transmat, CategoricalEmission(source.emission_probs)
        )
        self.reference = self.model.predict(self.pool.words)
        self.rng = np.random.default_rng([ctx.seed, 3])
        ctx.out_dir.mkdir(parents=True, exist_ok=True)
        self.registry_dir = tempfile.mkdtemp(prefix="registry-", dir=ctx.out_dir)
        ModelRegistry(self.registry_dir).save(MODEL, self.model)
        self.router: Router | None = None

    def inputs(self) -> dict:
        return {
            "pool_sentences": len(self.pool.words),
            "pool_tokens": self.pool.n_tokens,
            "sentence_length_quartiles": self.pool.length_quartiles(),
            "states": self.model.n_states,
            "vocabulary": self.model.emissions.n_symbols,
            "idle_rate_per_s": IDLE_RATE,
            "burst_requests": BURST,
        }

    def setup(self) -> list[float]:
        """Open the registry and warm the model up (median of repeats)."""
        times = []
        for _ in range(SETUP_REPEATS):
            if self.router is not None:
                self.router.close()
                self.router = None
            start = time.perf_counter()
            router = Router(ModelRegistry(self.registry_dir))
            report = router.warm_up([MODEL])
            times.append(time.perf_counter() - start)
            self.router = router
            if not report.ok:
                raise RuntimeError(f"warm-up failed: {report.errors}")
        return times

    def startup_checks(self) -> list[dict]:
        return []

    # -------------------------------------------------------------- #
    def _idle(self, seconds: float, phase: Phase, tally, tracer) -> dict:
        router = self.router
        words = self.pool.words
        n_max = int(IDLE_RATE * seconds * 2) + 16
        gaps = self.rng.exponential(1.0 / IDLE_RATE, size=n_max)
        picks = self.rng.integers(0, len(words), size=n_max)
        offsets = np.cumsum(gaps)
        n = int(np.searchsorted(offsets, seconds))
        done_at = np.zeros(n)
        late = np.zeros(n)
        pending = []
        start = time.perf_counter()
        due = start + offsets[:n]
        for i in range(n):
            wait = due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late[i] = time.perf_counter() - due[i]
            try:
                with tracer.request(f"idle-{i}") if tracer else nullcontext():
                    future = router.submit_tag(MODEL, words[picks[i]])
            except QueueFullError as exc:
                phase.fail(type(exc).__name__)
                continue

            def stamp(_future, i=i):  # runs on the dispatcher thread
                done_at[i] = time.perf_counter()

            future.add_done_callback(stamp)
            pending.append((i, future))
        # A sustained rate leaves nothing queued a few service times after
        # the last arrival; a growing backlog would still be there.
        time.sleep(BACKLOG_GRACE_S)
        queue_depth = router.queue_depth
        latencies = []
        for i, future in pending:
            try:
                path = future.result(timeout=30)
            except Exception as exc:  # counted by kind, e.g. DeadlineExceededError
                phase.fail(type(exc).__name__)
                continue
            phase.ok()
            latencies.append(done_at[i] - due[i])
            j = picks[i]
            tally.add(path, self.reference[j], self.pool.tags[j])
        return {"latencies": latencies, "late": late, "queue_depth": queue_depth}

    def _burst(self, seconds: float, phase: Phase, tally, tracer) -> dict:
        router = self.router
        words = self.pool.words
        rates = []
        tokens = elapsed = 0.0
        deadline = time.perf_counter() + seconds
        while not rates or time.perf_counter() < deadline:
            picks = self.rng.integers(0, len(words), size=BURST)
            batch = [words[j] for j in picks]
            n_tokens = sum(len(w) for w in batch)
            start = time.perf_counter()
            futures = []
            for j, seq in zip(picks, batch):
                try:
                    with (
                        tracer.request(f"burst-{len(rates)}-{len(futures)}")
                        if tracer else nullcontext()
                    ):
                        futures.append((j, router.submit_tag(MODEL, seq)))
                except QueueFullError as exc:
                    phase.fail(type(exc).__name__)
            results = []
            for j, future in futures:
                try:
                    results.append((j, future.result(timeout=30)))
                except Exception as exc:
                    phase.fail(type(exc).__name__)
            burst_s = time.perf_counter() - start
            rates.append(n_tokens / burst_s)
            tokens += n_tokens
            elapsed += burst_s
            phase.ok(len(results))
            for j, path in results:
                tally.add(path, self.reference[j], self.pool.tags[j])
        return {"rates": rates, "tokens_per_s": tokens / elapsed}

    def measure(self, seconds: float, tracer: Tracer | None) -> Measurement:
        stats = self.router.stats
        if tracer is not None:
            tracer.wrap(Router, "submit_tag", "serving.router.submit_tag")
            tracer.wrap(
                CategoricalEmission, "log_likelihoods_batch",
                "hmm.emissions.log_likelihoods_batch",
            )
            tracer.wrap(InferenceEngine, "viterbi_batch", "hmm.engine.viterbi_batch")
        idle_phase, burst_phase = Phase(), Phase()
        tally = checks.PathTally("served_tags_equal_hmm_predict")
        try:
            snap0 = stats.snapshot()
            idle = self._idle(seconds / 2, idle_phase, tally, tracer)
            snap1 = stats.snapshot()
            burst = self._burst(seconds / 2, burst_phase, tally, tracer)
            snap2 = stats.snapshot()
        finally:
            if tracer is not None:
                tracer.restore()

        idle_lat = record.latency_summary(idle["latencies"])
        e2e = {
            "tokens_per_s": record.summary(burst["rates"], value=burst["tokens_per_s"]),
            "p50_ms": record.p50_metric(idle["latencies"]),
        }
        named = {
            "idle_p50_ms": (idle_lat["p50_ms"], "ms"),
            "idle_p90_ms": (idle_lat["p90_ms"], "ms"),
            "idle_p99_ms": (idle_lat["p99_ms"], "ms"),
            "burst_tokens_per_s": (e2e["tokens_per_s"]["value"], "tok/s"),
            "tag_accuracy": (tally.accuracy, "fraction"),
        }
        m = Measurement(
            end_to_end=e2e,
            named=named,
            phases={"idle": idle_phase, "burst": burst_phase},
            checks=[tally.result(), checks.no_backlog(idle["queue_depth"])],
            overhead_basis=1.0 / e2e["tokens_per_s"]["value"],
            detail={
                "idle_latency": idle_lat,
                "loadgen_late_ms": record.latency_summary(idle["late"]),
                "bursts": len(burst["rates"]),
            },
        )
        if tracer is not None:
            m.layer_raw = self._layers(tracer, idle, burst, snap0, snap1, snap2)
        return m

    def _layers(self, tracer, idle, burst, snap0, snap1, snap2) -> dict:
        dur = tracer.durations()

        def per_call_ms(name):
            calls = dur.get(name, [])
            return sum(calls) * 1e3 / len(calls) if calls else 0.0

        wait_p50 = record.histogram_delta_p50_ms(
            snap0["queue_wait_by_policy"].get("fifo"), snap1["queue_wait_by_policy"]["fifo"]
        )
        batches = snap2["n_batches"] - snap1["n_batches"]
        requests = snap2["n_requests"] - snap1["n_requests"]
        busy = snap2["busy_seconds"] - snap1["busy_seconds"]
        return {
            "serving.scheduler.queue_wait_p50_ms": wait_p50,
            "serving.scheduler.mean_batch_size": requests / max(batches, 1),
            "serving.scheduler.n_batches": batches / len(burst["rates"]),
            "serving.executor.busy_ms_per_batch": busy * 1e3 / max(batches, 1),
            "hmm.emissions.log_likelihoods_batch_ms": per_call_ms(
                "hmm.emissions.log_likelihoods_batch"
            ),
            "hmm.engine.viterbi_batch_ms": per_call_ms("hmm.engine.viterbi_batch"),
            "serving.scheduler.rejected": snap2["n_rejected"] - snap0["n_rejected"],
            "serving.scheduler.expired": snap2["n_expired"] - snap0["n_expired"],
            "serving.scheduler.shed": snap2["n_shed"] - snap0["n_shed"],
            "loadgen.late_p99_ms": record.percentile(idle["late"], 0.99) * 1e3,
        }

    def peak_rss_mb(self) -> float:
        return record.peak_rss_mb()

    def close(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None
        shutil.rmtree(self.registry_dir, ignore_errors=True)
