"""``repro-serve`` — fit, persist, and serve dHMM taggers from the shell.

Subcommands
-----------
``fit``
    Train a model on one of the bundled synthetic datasets (``toy``/``pos``/
    ``ocr``) and store it, either into a registry (``--registry``/``--name``)
    or as a bare artifact directory (``--out``).  ``--alpha 0`` trains the
    plain-HMM baseline, positive values the diversity-regularized dHMM.
``save``
    Import an existing artifact directory into a registry as a new version.
``tag``
    Load a registered model and tag sequences read from a JSON-lines file
    (one JSON array per line).  By default the whole file is compiled once
    (:class:`~repro.hmm.corpus.CompiledCorpus`) and decoded through the
    batched corpus path; ``--streaming`` decodes token by token with the
    fixed-lag decoder.
``route``
    Serve requests against *several* registry models through one routed
    queue: each JSON-lines request names its model (and optionally a
    version, a kind and a deadline), the :class:`~repro.serving.Router`
    coalesces per-model micro-batches, loads models lazily (LRU-capped)
    and applies backpressure/deadline shedding.  ``--scheduling-policy``
    selects the batch-ordering policy and ``--stats`` prints the final
    :meth:`ServiceStats.snapshot` as JSON.
``serve``
    Run the asyncio HTTP front end
    (:class:`~repro.serving.HTTPServingServer`) over a registry:
    tag/score/stream/stats/health/metrics endpoints until interrupted.
    ``--workers N`` (N > 1) scales out to a
    :class:`~repro.serving.cluster.ClusterServer` of N independent worker
    processes sharing the port via ``SO_REUSEPORT`` (or the built-in
    balancer with ``--no-reuse-port``); ``--mmap-artifacts`` memory-maps
    schema-v3 model parameters so the workers share pages.
``bench``
    Measure micro-batched service throughput against sequential per-request
    decoding on model-sampled sequences.

Examples
--------
::

    repro-serve fit --dataset pos --registry ./registry --name pos-tagger \
        --sample-out ./sample.jsonl
    repro-serve tag --registry ./registry --name pos-tagger --input ./sample.jsonl
    repro-serve route --registry ./registry --input ./routed.jsonl --stats
    repro-serve serve --registry ./registry --port 8765 --warm-up pos-tagger
    repro-serve bench --registry ./registry --name pos-tagger --requests 200
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import (
    SCHEDULING_POLICIES,
    DHMMConfig,
    RetryPolicy,
    ServingConfig,
)
from repro.exceptions import ModelUnavailableError, QueueFullError, ReproError
from repro.hmm.emissions.categorical import CategoricalEmission
from repro.hmm.emissions.gaussian import GaussianEmission
from repro.serving.persistence import load_artifact, resolve_hmm, save_artifact
from repro.serving.registry import ModelRegistry
from repro.serving.service import TaggingService
from repro.serving.streaming import StreamingDecoder


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ------------------------------------------------------------------ #
# fit
# ------------------------------------------------------------------ #
def _fit_model(args: argparse.Namespace):
    """Train the canonical model for the chosen dataset; returns (model, sequences, metadata)."""
    # Only ``fit`` trains: the other commands never load the estimators,
    # the DPP prior or the dataset generators.
    from repro.core.diversified_hmm import DiversifiedHMM
    from repro.core.supervised import SupervisedDiversifiedHMM
    from repro.datasets.ocr import N_PIXELS, generate_ocr_dataset
    from repro.datasets.pos import generate_wsj_like_corpus
    from repro.datasets.toy import generate_toy_dataset

    config = DHMMConfig(alpha=args.alpha, max_em_iter=args.max_em_iter)
    if args.dataset == "toy":
        data = generate_toy_dataset(
            n_sequences=args.n_sequences, sequence_length=6, seed=args.seed
        )
        model = DiversifiedHMM(
            GaussianEmission.random_init(5, data.observations, seed=args.seed),
            config=config,
            seed=args.seed,
        )
        model.fit(data.observations)
        sequences = data.observations
    elif args.dataset == "pos":
        corpus = generate_wsj_like_corpus(
            n_sentences=args.n_sequences,
            vocabulary_size=args.vocabulary_size,
            mean_length=8,
            max_length=30,
            seed=args.seed,
        )
        model = SupervisedDiversifiedHMM(
            n_states=corpus.n_tags,
            config=config,
            emissions=CategoricalEmission.random_init(
                corpus.n_tags, corpus.vocabulary_size, seed=0
            ),
        )
        model.fit(corpus.words, corpus.tags)
        sequences = corpus.words
    else:  # ocr
        data = generate_ocr_dataset(n_words=args.n_sequences, seed=args.seed)
        model = SupervisedDiversifiedHMM(
            n_states=26, n_features=N_PIXELS, config=config
        )
        model.fit(data.images, data.labels)
        sequences = data.images
    metadata = {
        "dataset": args.dataset,
        "alpha": args.alpha,
        "n_sequences": args.n_sequences,
        "seed": args.seed,
    }
    return model, sequences, metadata


def _cmd_fit(args: argparse.Namespace) -> int:
    model, sequences, metadata = _fit_model(args)
    if args.registry:
        registry = ModelRegistry(args.registry)
        version = registry.save(args.name, model, metadata=metadata)
        _log(f"saved {args.name} v{version} to registry {args.registry}")
    if args.out:
        save_artifact(model, args.out, metadata=metadata)
        _log(f"saved artifact to {args.out}")
    if args.sample_out:
        count = min(args.sample_count, len(sequences))
        with Path(args.sample_out).open("w") as fh:
            for seq in sequences[:count]:
                fh.write(json.dumps(np.asarray(seq).tolist()) + "\n")
        _log(f"wrote {count} sample sequences to {args.sample_out}")
    return 0


# ------------------------------------------------------------------ #
# save / model loading
# ------------------------------------------------------------------ #
def _cmd_save(args: argparse.Namespace) -> int:
    model = load_artifact(args.artifact)
    version = ModelRegistry(args.registry).save(args.name, model)
    _log(f"imported {args.artifact} as {args.name} v{version} in {args.registry}")
    return 0


def _load_registered(args: argparse.Namespace):
    registry = ModelRegistry(args.registry)
    return registry.load(args.name, version=args.version)


# ------------------------------------------------------------------ #
# tag
# ------------------------------------------------------------------ #
def _iter_jsonl(path: str):
    """Yield ``(line_no, parsed_value)`` per non-blank JSON-lines entry."""
    source = sys.stdin if path == "-" else Path(path).open()
    try:
        for line_no, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield line_no, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(f"{path}:{line_no}: invalid JSON: {exc}") from None
    finally:
        if source is not sys.stdin:
            source.close()


def _iter_sequence_batches(path: str, family: str, batch_size: int):
    """Yield lists of at most ``batch_size`` sequences, reading lazily.

    Only one batch of parsed sequences is resident at a time, so tagging an
    arbitrarily large file is memory-bounded by the batch size (and, for
    sequences above ``InferenceConfig.long_threshold``, by the chunked
    decode windows) — never by the file size.
    """
    dtype = np.int64 if family == "categorical" else np.float64
    batch: list[np.ndarray] = []
    for _, values in _iter_jsonl(path):
        batch.append(np.asarray(values, dtype=dtype))
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def _cmd_tag(args: argparse.Namespace) -> int:
    if args.batch_size < 1:
        _log(f"--batch-size must be positive, got {args.batch_size}")
        return 2
    model = _load_registered(args)
    hmm = resolve_hmm(model)
    batches = _iter_sequence_batches(args.input, hmm.emissions.family, args.batch_size)

    started = time.perf_counter()
    n_sequences = 0
    n_tokens = 0
    n_batches = 0
    out = sys.stdout if args.output is None else Path(args.output).open("w")
    try:

        def emit(paths) -> None:
            for path in paths:
                out.write(" ".join(str(int(s)) for s in path) + "\n")

        if args.streaming:
            lag = None
            for batch in batches:
                for seq in batch:
                    # No --lag -> ServingConfig.streaming_lag default.
                    # keep_history=False keeps per-stream state O(lag):
                    # finalized labels are harvested from each step, the
                    # tail comes from the final window flush.
                    decoder = (
                        StreamingDecoder(hmm, keep_history=False)
                        if args.lag is None
                        else StreamingDecoder(hmm, lag=args.lag, keep_history=False)
                    )
                    lag = decoder.lag
                    labels: list[int] = []
                    for obs in seq:
                        step = decoder.push(obs)
                        labels.extend(state for _, state in step.finalized)
                    labels.extend(int(s) for s in decoder.finish().path)
                    emit([labels])
                    n_sequences += 1
                    n_tokens += len(seq)
                n_batches += 1
            mode = f"streaming (lag={lag})"
        else:
            # Offline default: compile one bounded batch at a time and
            # decode it through the corpus path (sequences above the long
            # threshold route through the chunked long-sequence decoder),
            # so neither the file size nor any single sequence's length
            # dictates peak memory.
            for batch in batches:
                corpus = hmm.compile(batch)
                emit(hmm.predict_corpus(corpus))
                n_sequences += len(batch)
                n_tokens += sum(len(seq) for seq in batch)
                n_batches += 1
            mode = f"compiled corpus ({n_batches} batches <= {args.batch_size} seqs)"
    finally:
        if out is not sys.stdout:
            out.close()
    elapsed = time.perf_counter() - started

    if n_sequences == 0:
        _log("no input sequences")
        return 1
    _log(
        f"tagged {n_sequences} sequences / {n_tokens} tokens in "
        f"{elapsed * 1e3:.1f} ms via {mode}"
    )
    return 0


def _latency_summary(latency: dict) -> str:
    """One log line of request-latency percentiles from a histogram snapshot.

    The percentiles come from the same :class:`LatencyHistogram` machinery
    the HTTP ``/metrics`` endpoint serves, so the CLI and the server report
    the same numbers for the same traffic — not a mean that hides the tail.
    """
    if not latency["count"]:
        return "latency: no completed requests"
    return (
        f"latency p50={latency['p50_ms']:.2f} ms "
        f"p95={latency['p95_ms']:.2f} ms p99={latency['p99_ms']:.2f} ms "
        f"max={latency['max_ms']:.2f} ms over {latency['count']} requests"
    )


# ------------------------------------------------------------------ #
# route
# ------------------------------------------------------------------ #
def _read_routed_requests(path: str) -> list[dict]:
    """Parse a JSON-lines file of routed requests.

    Each line is an object: ``{"model": <name>, "sequence": [...]}`` plus
    optional ``"version"`` (int), ``"kind"`` (``"tag"``/``"score"``) and
    ``"deadline_ms"`` (float).
    """
    requests = []
    for line_no, obj in _iter_jsonl(path):
        if not isinstance(obj, dict) or "model" not in obj or "sequence" not in obj:
            raise ReproError(
                f"{path}:{line_no}: routed requests are objects with "
                "'model' and 'sequence' keys"
            )
        if obj.get("kind", "tag") not in ("tag", "score"):
            raise ReproError(f"{path}:{line_no}: kind must be 'tag' or 'score'")
        requests.append(obj)
    return requests


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.serving.router import Router

    requests = _read_routed_requests(args.input)
    if not requests:
        _log("no input requests")
        return 1

    config = ServingConfig(
        max_batch_size=args.max_batch_size,
        queue_capacity=args.queue_capacity,
        max_loaded_models=args.max_loaded_models,
        scheduling_policy=args.scheduling_policy,
    )
    started = time.perf_counter()
    with Router(args.registry, config=config) as router:
        futures: list = []
        oldest_in_flight = 0

        def wait_for_queue_room() -> None:
            # The CLI is the router's only client, so the bounded queue is
            # full of its *own* earlier requests: apply flow control (wait
            # for the oldest in-flight one) instead of bouncing submissions
            # off QueueFullError — which would shed our own work and count
            # phantom rejections in the router stats.  Only this thread
            # enqueues, so depth-below-capacity guarantees the next submit
            # is admitted.
            nonlocal oldest_in_flight
            capacity = config.queue_capacity
            while capacity is not None and router.queue_depth >= capacity:
                while oldest_in_flight < len(futures) and (
                    isinstance(futures[oldest_in_flight], Exception)
                    or futures[oldest_in_flight].done()
                ):
                    oldest_in_flight += 1
                if oldest_in_flight >= len(futures):
                    return  # queue is mid-drain; nothing left to wait on
                try:
                    futures[oldest_in_flight].result()
                except Exception:
                    pass  # reported when results are gathered below

        for request in requests:
            deadline_ms = request.get("deadline_ms", args.deadline_ms)
            submit = (
                router.submit_score if request.get("kind") == "score" else router.submit_tag
            )
            while True:
                wait_for_queue_room()
                # Any per-request failure — Repro validation errors but
                # also e.g. a TypeError from a malformed "version" value —
                # becomes a per-request error record, never a crash of the
                # whole run.
                try:
                    futures.append(
                        submit(
                            request["model"],
                            np.asarray(request["sequence"]),
                            version=request.get("version"),
                            deadline_ms=deadline_ms,
                        )
                    )
                except QueueFullError:
                    continue  # raced the gauge; wait for room again
                except Exception as exc:
                    futures.append(exc)
                break
        retry_policy = (
            RetryPolicy(
                max_attempts=args.retries,
                initial_backoff_ms=args.retry_backoff_ms,
            )
            if args.retries > 0
            else None
        )
        n_retried = 0

        def retry_request(request: dict, cause: Exception):
            # Transient failures (queue-full backpressure, an open circuit
            # breaker) are worth re-submitting under the retry budget.
            # Permanent ones (validation, expired deadlines) never reach
            # here — RetryPolicy.call re-raises them unconditionally.
            nonlocal n_retried
            n_retried += 1
            suggested = getattr(cause, "retry_after_s", None)
            if suggested:
                time.sleep(min(float(suggested), 30.0))
            submit = (
                router.submit_score
                if request.get("kind") == "score"
                else router.submit_tag
            )
            return retry_policy.call(
                lambda: submit(
                    request["model"],
                    np.asarray(request["sequence"]),
                    version=request.get("version"),
                    deadline_ms=request.get("deadline_ms", args.deadline_ms),
                ).result(),
                min_backoff_s=lambda exc: getattr(exc, "retry_after_s", None),
            )

        outcomes = []
        for request, future in zip(requests, futures):
            record = {"model": request["model"]}
            if request.get("version") is not None:
                record["version"] = request["version"]
            # The dispatcher resolves futures with whatever exception the
            # failure produced (a corrupt artifact surfaces as
            # FileNotFoundError, a bad observation as a numpy error) —
            # report them all per-request.
            try:
                if isinstance(future, Exception):
                    raise future
                value = future.result()
            except (QueueFullError, ModelUnavailableError) as exc:
                if retry_policy is None:
                    record["error"] = str(exc)
                else:
                    try:
                        value = retry_request(request, exc)
                    except Exception as retry_exc:
                        record["error"] = str(retry_exc)
            except Exception as exc:
                record["error"] = str(exc)
            if "error" not in record:
                if request.get("kind") == "score":
                    record["score"] = float(value)
                else:
                    record["tags"] = [int(s) for s in value]
            outcomes.append(record)
        stats = router.stats.snapshot()
    elapsed = time.perf_counter() - started

    out = sys.stdout if args.output is None else Path(args.output).open("w")
    try:
        for record in outcomes:
            out.write(json.dumps(record) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    n_errors = sum(1 for record in outcomes if "error" in record)
    per_model = ", ".join(f"{k}={v}" for k, v in sorted(stats["per_model"].items()))
    _log(
        f"routed {len(requests)} requests ({per_model}) in {elapsed * 1e3:.1f} ms; "
        f"{n_errors} errors, {n_retried} retried, {stats['n_expired']} expired, "
        f"{stats['n_rejected']} shed, {stats['n_model_loads']} model loads"
    )
    _log(_latency_summary(stats["latency"]))
    if args.stats:
        # The full ServiceStats snapshot (shed/expiry counters, queue depth,
        # per-model counts, occupancy) as one JSON object — the
        # machine-readable companion of the summary line above.  When the
        # per-request results already own stdout (no --output), the stats
        # go to stderr so the JSONL stream stays parseable.
        stats_text = json.dumps(stats, indent=2)
        if args.output is None:
            _log(stats_text)
        else:
            print(stats_text)
    return 0


# ------------------------------------------------------------------ #
# serve
# ------------------------------------------------------------------ #
def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serving.http import HTTPServingServer

    config = ServingConfig(
        max_batch_size=args.max_batch_size,
        queue_capacity=args.queue_capacity,
        max_loaded_models=args.max_loaded_models,
        scheduling_policy=args.scheduling_policy,
        request_timeout_s=args.request_timeout_s,
        drain_timeout_s=args.drain_timeout_s,
        mmap_artifacts=args.mmap_artifacts,
    )
    if args.workers > 1:
        from repro.serving.cluster import ClusterServer

        warm_up = [name for name in (args.warm_up or "").split(",") if name]
        cluster = ClusterServer(
            args.registry,
            config=config,
            host=args.host,
            port=args.port,
            n_workers=args.workers,
            reuse_port=False if args.no_reuse_port else None,
            warm_up=warm_up,
        )
        cluster.start()
        mode = "SO_REUSEPORT" if cluster.reuse_port else "balancer"
        _log(
            f"serving registry {args.registry} with {args.workers} workers "
            f"({mode}) on http://{cluster.host}:{cluster.port} "
            f"(policy={config.scheduling_policy}); Ctrl-C to stop"
        )
        cluster.serve_forever()
        _log("cluster stopped")
        return 0
    server = HTTPServingServer(
        args.registry, config=config, host=args.host, port=args.port
    )
    server.start()
    try:
        if args.warm_up:
            names = [name for name in args.warm_up.split(",") if name]
            report = server.router.warm_up(names)
            if report.loaded:
                _log(
                    "warmed up "
                    + ", ".join(f"{n} v{v}" for n, v in report.loaded)
                )
            for name, exc in report.errors.items():
                # a broken model is logged, not fatal: the healthy fleet
                # still serves
                _log(f"warm-up failed for {name}: {type(exc).__name__}: {exc}")
    except Exception:
        server.close()
        raise
    _log(
        f"serving registry {args.registry} on http://{server.host}:{server.port} "
        f"(policy={config.scheduling_policy}); Ctrl-C to stop"
    )

    # SIGTERM (the polite supervisor kill) should drain and exit 0 just
    # like Ctrl-C: with --drain-timeout-s the server refuses new work,
    # serves out in-flight requests and open streams, and sheds whatever
    # outlives the deadline.
    def _interrupt(*_):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    server.serve_forever(drain_timeout_s=args.drain_timeout_s)
    _log("server stopped")
    return 0


# ------------------------------------------------------------------ #
# bench
# ------------------------------------------------------------------ #
def _cmd_bench(args: argparse.Namespace) -> int:
    model = _load_registered(args)
    hmm = resolve_hmm(model)
    _, sequences = hmm.sample_dataset(args.requests, args.length, seed=args.seed)

    started = time.perf_counter()
    sequential = [hmm.decode(seq) for seq in sequences]
    sequential_seconds = time.perf_counter() - started

    config = ServingConfig(max_batch_size=args.max_batch_size)
    with TaggingService(hmm, config=config) as service:
        started = time.perf_counter()
        batched = service.tag_many(sequences)
        batched_seconds = time.perf_counter() - started
        stats = service.stats.snapshot()

    mismatches = sum(
        0 if np.array_equal(a, b) else 1 for a, b in zip(sequential, batched)
    )
    n_tokens = sum(len(seq) for seq in sequences)
    latency = stats["latency"]
    report = {
        "requests": args.requests,
        "tokens": n_tokens,
        "sequential_seconds": sequential_seconds,
        "service_seconds": batched_seconds,
        "speedup": sequential_seconds / max(batched_seconds, 1e-12),
        "sequential_tokens_per_second": n_tokens / max(sequential_seconds, 1e-12),
        "service_tokens_per_second": n_tokens / max(batched_seconds, 1e-12),
        "mean_batch_size": stats["mean_batch_size"],
        "max_batch_size": stats["max_batch_size"],
        "path_mismatches": mismatches,
        # per-request percentiles from the service's latency histogram —
        # the same machinery (and numbers) as the HTTP /metrics endpoint
        "latency_ms": {
            "p50": latency["p50_ms"],
            "p95": latency["p95_ms"],
            "p99": latency["p99_ms"],
            "max": latency["max_ms"],
        },
    }
    _log(_latency_summary(latency))
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        _log(f"wrote benchmark report to {args.out}")
    print(text)
    return 0


# ------------------------------------------------------------------ #
# Argument parsing
# ------------------------------------------------------------------ #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Fit, persist and serve diversified-HMM taggers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    serving_defaults = ServingConfig()

    fit = sub.add_parser("fit", help="train a model on a bundled synthetic dataset")
    fit.add_argument("--dataset", choices=("toy", "pos", "ocr"), required=True)
    fit.add_argument("--alpha", type=float, default=0.0, help="diversity prior weight (0 = plain HMM)")
    fit.add_argument("--n-sequences", type=int, default=120)
    fit.add_argument("--vocabulary-size", type=int, default=300, help="pos dataset only")
    fit.add_argument("--max-em-iter", type=int, default=10)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--registry", help="registry root to save into")
    fit.add_argument("--name", help="model name inside the registry")
    fit.add_argument("--out", help="bare artifact directory to save into")
    fit.add_argument("--sample-out", help="write sample input sequences (JSON lines) here")
    fit.add_argument("--sample-count", type=int, default=8)
    fit.set_defaults(func=_cmd_fit)

    save = sub.add_parser("save", help="import an artifact directory into a registry")
    save.add_argument("--artifact", required=True)
    save.add_argument("--registry", required=True)
    save.add_argument("--name", required=True)
    save.set_defaults(func=_cmd_save)

    tag = sub.add_parser("tag", help="tag JSON-lines sequences with a registered model")
    tag.add_argument("--registry", required=True)
    tag.add_argument("--name", required=True)
    tag.add_argument("--version", type=int, default=None)
    tag.add_argument("--input", required=True, help="JSON-lines file of sequences ('-' = stdin)")
    tag.add_argument("--output", help="write tag lines here instead of stdout")
    tag.add_argument("--streaming", action="store_true", help="decode token-by-token")
    tag.add_argument("--lag", type=int, default=None, help="fixed lag for --streaming")
    tag.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="sequences read + decoded per batch; bounds peak memory on "
        "large input files (the file is consumed lazily, one batch at a time)",
    )
    tag.set_defaults(func=_cmd_tag)

    route = sub.add_parser(
        "route", help="serve multi-model JSON-lines requests through one routed queue"
    )
    route.add_argument("--registry", required=True)
    route.add_argument(
        "--input",
        required=True,
        help="JSON-lines file of {'model':..,'sequence':..} requests ('-' = stdin)",
    )
    route.add_argument("--output", help="write JSON-lines results here instead of stdout")
    route.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (requests may override)",
    )
    route.add_argument(
        "--queue-capacity", type=int, default=serving_defaults.queue_capacity
    )
    route.add_argument(
        "--max-loaded-models", type=int, default=serving_defaults.max_loaded_models
    )
    route.add_argument("--max-batch-size", type=int, default=serving_defaults.max_batch_size)
    route.add_argument(
        "--scheduling-policy",
        choices=SCHEDULING_POLICIES,
        default=serving_defaults.scheduling_policy,
        help="how pending requests are ordered into micro-batches",
    )
    route.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per request for transient failures (queue-full "
        "backpressure, open circuit breakers); 0 disables retries",
    )
    route.add_argument(
        "--retry-backoff-ms",
        type=float,
        default=25.0,
        help="initial exponential backoff between retries",
    )
    route.add_argument(
        "--stats",
        action="store_true",
        help="print the final ServiceStats snapshot as JSON (on stdout when "
        "results go to --output, on stderr when results own stdout)",
    )
    route.set_defaults(func=_cmd_route)

    serve = sub.add_parser(
        "serve", help="HTTP front end (tag/score/stream/stats/health) over a registry"
    )
    serve.add_argument("--registry", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765, help="0 picks an ephemeral port")
    serve.add_argument(
        "--warm-up",
        help="comma-separated model names to preload before serving traffic",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=serving_defaults.queue_capacity
    )
    serve.add_argument(
        "--max-loaded-models", type=int, default=serving_defaults.max_loaded_models
    )
    serve.add_argument("--max-batch-size", type=int, default=serving_defaults.max_batch_size)
    serve.add_argument(
        "--scheduling-policy",
        choices=SCHEDULING_POLICIES,
        default=serving_defaults.scheduling_policy,
        help="how pending requests are ordered into micro-batches",
    )
    serve.add_argument(
        "--request-timeout-s",
        type=float,
        default=serving_defaults.request_timeout_s,
        help="per-request HTTP bridge timeout (503 + Retry-After on expiry)",
    )
    serve.add_argument(
        "--drain-timeout-s",
        type=float,
        default=None,
        help="graceful-drain budget on SIGTERM/Ctrl-C: refuse new work, "
        "serve accepted requests up to this many seconds, shed the rest "
        "(default: hard shutdown after the classic flush)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; >1 runs a multi-process cluster sharing "
        "the port (SO_REUSEPORT where supported, else a built-in balancer)",
    )
    serve.add_argument(
        "--no-reuse-port",
        action="store_true",
        help="force the balancer fallback even where SO_REUSEPORT works "
        "(enables sticky stream routing across plain connections)",
    )
    serve.add_argument(
        "--mmap-artifacts",
        action="store_true",
        help="memory-map schema-v3 model parameters read-only so worker "
        "processes share page-cache pages instead of private copies",
    )
    serve.set_defaults(func=_cmd_serve)

    bench = sub.add_parser("bench", help="micro-batched service vs sequential decode")
    bench.add_argument("--registry", required=True)
    bench.add_argument("--name", required=True)
    bench.add_argument("--version", type=int, default=None)
    bench.add_argument("--requests", type=int, default=200)
    bench.add_argument("--length", type=int, default=12)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--max-batch-size", type=int, default=serving_defaults.max_batch_size)
    bench.add_argument("--out", help="also write the JSON report to this path")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fit" and not (args.registry or args.out):
        parser.error("fit requires --registry/--name or --out")
    if args.command == "fit" and args.registry and not args.name:
        parser.error("--registry requires --name")
    try:
        return args.func(args)
    except ReproError as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
