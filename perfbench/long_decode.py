"""long_decode: one long sequence through the chunked decode engine.

A K = 8 sticky chain with emission log-likelihood tables drawn directly
(:func:`perfbench.inputs.long_track`).  ``InferenceEngine.viterbi_long`` at
T = 1M with the default window/overlap, ``log_likelihood_long`` and
``posteriors_long`` at T = 50K, called round robin until the time is up.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from perfbench import checks, record
from perfbench.common import Context, Measurement, Phase
from perfbench.inputs import long_track
from perfbench.spans import Tracer
from repro.hmm import longseq
from repro.hmm.backends import ScaledBatchedBackend
from repro.hmm.engine import InferenceEngine

VITERBI_T = 1_000_000
SMOOTH_T = 50_000  # likelihood and posteriors
CHECK_T = 16_384  # leading slice decoded by the log-domain reference
WARM_T = 8_192
SETUP_REPEATS = 5

LAYER_METRICS = (
    "hmm.longseq.fetch_ms",
    "hmm.longseq.rescore_ms",
    "hmm.backends.viterbi_bucket_ms",
    "hmm.longseq.decode_stitch_ms",
    "hmm.longseq.windows",
    "hmm.longseq.agreement_stitch_ratio",
    "hmm.longseq.fallback_stitches",
    "hmm.longseq.loglik_ms",
    "hmm.longseq.posteriors_ms",
)


class Workload:
    def __init__(self, ctx: Context) -> None:
        self.viterbi_t = max(int(VITERBI_T * ctx.scale), 3 * WARM_T)
        self.smooth_t = max(int(SMOOTH_T * ctx.scale), WARM_T)
        self.track = long_track(ctx.seed, self.viterbi_t)
        self.engine: InferenceEngine | None = None

    def inputs(self) -> dict:
        return {
            "states": self.track.transmat.shape[0],
            "viterbi_T": self.viterbi_t,
            "loglik_T": self.smooth_t,
            "posteriors_T": self.smooth_t,
            "stay_probability": float(self.track.transmat[0, 0]),
        }

    def setup(self) -> list[float]:
        """Build the engine and warm each kernel on a short prefix (median of repeats)."""
        t = self.track
        warm = t.log_obs[:WARM_T]
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            engine = InferenceEngine()
            engine.viterbi_long(t.startprob, t.transmat, warm)
            engine.log_likelihood_long(t.startprob, t.transmat, warm)
            engine.posteriors_long(t.startprob, t.transmat, warm)
            times.append(time.perf_counter() - start)
        self.engine = engine
        return times

    def startup_checks(self) -> list[dict]:
        """Stitched decode of a leading slice vs the log-domain reference."""
        t = self.track
        head = t.log_obs[:CHECK_T]
        stitched = self.engine.viterbi_long(t.startprob, t.transmat, head)
        _, reference = InferenceEngine(backend="log").viterbi(t.startprob, t.transmat, head)
        return [
            checks.close_relative(
                "viterbi_long_log_joint_vs_log_viterbi", stitched.log_joint, reference, 1e-9
            )
        ]

    # -------------------------------------------------------------- #
    def measure(self, seconds: float, tracer: Tracer | None) -> Measurement:
        t = self.track
        engine = self.engine
        smooth = t.log_obs[: self.smooth_t]
        calls = {
            "viterbi": lambda: engine.viterbi_long(t.startprob, t.transmat, t.log_obs),
            "loglik": lambda: engine.log_likelihood_long(t.startprob, t.transmat, smooth),
            "posteriors": lambda: engine.posteriors_long(t.startprob, t.transmat, smooth),
        }
        if tracer is not None:
            tracer.wrap(InferenceEngine, "viterbi_long", "hmm.longseq.viterbi_long")
            tracer.wrap(InferenceEngine, "log_likelihood_long", "hmm.longseq.loglik")
            tracer.wrap(InferenceEngine, "posteriors_long", "hmm.longseq.posteriors")
            tracer.wrap(longseq.ArraySource, "fetch", "hmm.longseq.fetch")
            tracer.wrap(longseq, "score_path", "hmm.longseq.rescore")
            tracer.wrap(ScaledBatchedBackend, "_viterbi_bucket", "hmm.backends.viterbi_bucket")
        phase = Phase()
        times: dict[str, list[float]] = {op: [] for op in calls}
        results: dict[str, list] = {op: [] for op in calls}
        first = None
        deadline = time.perf_counter() + seconds
        round_s = 0.0
        try:
            # Round robin, so a slow spell of the machine hits every call
            # alike; a round starts only if it should end before the deadline.
            while first is None or time.perf_counter() + round_s < deadline:
                round_start = time.perf_counter()
                for op, call in calls.items():
                    with tracer.request(f"{op}-{len(times[op])}") if tracer else nullcontext():
                        start = time.perf_counter()
                        result = call()
                        times[op].append(time.perf_counter() - start)
                    phase.ok()
                    # Keep only what the checks and layer figures need, not
                    # every path or (T, K) posterior table.
                    if op == "viterbi":
                        if first is None:
                            first = result
                        result = (result.n_windows, result.n_agreement_stitches,
                                  result.n_fallback_stitches)
                    elif op == "posteriors":
                        result = result.log_likelihood
                    results[op].append(result)
                round_s = time.perf_counter() - round_start
        finally:
            if tracer is not None:
                tracer.restore()

        sizes = {"viterbi": self.viterbi_t, "loglik": self.smooth_t, "posteriors": self.smooth_t}
        medians = {op: float(np.median(v)) for op, v in times.items()}
        accuracy = float(np.mean(first.path == t.states))
        # Likelihood and posteriors tokens over their time, one of each per round.
        smooth_s = [a + b for a, b in zip(times["loglik"], times["posteriors"])]
        e2e = {
            "tokens_per_s": record.summary(
                [2 * self.smooth_t / s for s in smooth_s],
                value=2 * self.smooth_t * len(smooth_s) / sum(smooth_s),
            ),
            "p50_ms": record.p50_metric(times["viterbi"]),
        }
        named = {f"{op}_tokens_per_s": (sizes[op] / medians[op], "tok/s") for op in calls}
        named["viterbi_call_p50_ms"] = (medians["viterbi"] * 1e3, "ms")
        named["viterbi_call_p90_ms"] = (record.percentile(times["viterbi"], 0.9) * 1e3, "ms")
        named["viterbi_accuracy"] = (accuracy, "fraction")
        m = Measurement(
            end_to_end=e2e,
            named=named,
            phases={"long": phase},
            checks=[
                checks.close_relative(
                    "posteriors_long_ll_vs_log_likelihood_long",
                    results["posteriors"][0], results["loglik"][0], 1e-9,
                )
            ],
            overhead_basis=medians["viterbi"],
            detail={
                "calls": {op: len(v) for op, v in times.items()},
                "call_s": {op: record.summary(v) for op, v in times.items()},
                "stitches": {
                    "windows": first.n_windows,
                    "agreement": first.n_agreement_stitches,
                    "fallback": first.n_fallback_stitches,
                },
            },
        )
        if tracer is not None:
            m.layer_raw = self._layers(tracer, results["viterbi"], times)
        return m

    @staticmethod
    def _layers(tracer: Tracer, decodes, times) -> dict:
        dur = tracer.durations()
        self_t = tracer.self_times()
        n_v = len(times["viterbi"])
        n_calls = sum(len(v) for v in times.values())

        def total_ms(name):
            return sum(dur.get(name, [])) * 1e3

        windows, agreement, fallback = (np.sum(decodes, axis=0) / len(decodes)).tolist()
        return {
            "hmm.longseq.fetch_ms": total_ms("hmm.longseq.fetch") / n_calls,
            "hmm.longseq.rescore_ms": total_ms("hmm.longseq.rescore") / n_v,
            "hmm.backends.viterbi_bucket_ms": total_ms("hmm.backends.viterbi_bucket") / n_v,
            "hmm.longseq.decode_stitch_ms": (
                self_t.get("hmm.longseq.viterbi_long", 0.0) * 1e3 / n_v
            ),
            "hmm.longseq.windows": windows,
            "hmm.longseq.agreement_stitch_ratio": agreement / max(windows - 1, 1),
            "hmm.longseq.fallback_stitches": fallback,
            "hmm.longseq.loglik_ms": total_ms("hmm.longseq.loglik") / len(times["loglik"]),
            "hmm.longseq.posteriors_ms": (
                total_ms("hmm.longseq.posteriors") / len(times["posteriors"])
            ),
        }

    def peak_rss_mb(self) -> float:
        return record.peak_rss_mb()

    def close(self) -> None:
        pass
