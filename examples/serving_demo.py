"""Serving subsystem tour: persist, register, stream, and micro-batch serve.

Trains a small supervised PoS tagger, stores it in an on-disk registry,
then serves it two ways:

* **online** — a :class:`~repro.serving.StreamingDecoder` tags tokens as
  they "arrive", printing the filtering posterior's top state per token and
  the fixed-lag finalized labels;
* **offline/concurrent** — a :class:`~repro.serving.TaggingService`
  micro-batches a burst of requests through the batched engine and reports
  throughput and batch-occupancy statistics;
* **routed** — a :class:`~repro.serving.Router` serves two registry
  models (warmed up ahead of traffic, with per-request deadlines) behind
  one bounded queue under a weighted-fair scheduling policy;
* **high-fanout online** — a :class:`~repro.serving.StreamPool` steps many
  concurrent streams per tick through one batched session, and a
  :class:`~repro.serving.StreamingService` does the same for pushes
  arriving from independent client threads;
* **over HTTP** — an :class:`~repro.serving.HTTPServingServer` exposes the
  whole stack (tag/score/stream/stats/health) to ``urllib``;
* **housekeeping** — registry retention (:meth:`ModelRegistry.gc`) sweeps
  old versions while "latest" and router-resident versions survive.

Run with ``PYTHONPATH=src python examples/serving_demo.py``.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.config import DHMMConfig, ServingConfig
from repro.core.supervised import SupervisedDiversifiedHMM
from repro.datasets.pos import generate_wsj_like_corpus
from repro.hmm.emissions.categorical import CategoricalEmission
from repro.serving import (
    HTTPServingServer,
    ModelRegistry,
    Router,
    StreamingDecoder,
    StreamingService,
    StreamPool,
    TaggingService,
    resolve_hmm,
)


def main() -> None:
    print("=== 1. Train a supervised PoS dHMM on the synthetic WSJ-like corpus")
    corpus = generate_wsj_like_corpus(
        n_sentences=300, vocabulary_size=500, mean_length=10, max_length=40, seed=0
    )
    model = SupervisedDiversifiedHMM(
        n_states=corpus.n_tags,
        config=DHMMConfig(alpha=100.0, max_inner_iter=25),
        emissions=CategoricalEmission.random_init(
            corpus.n_tags, corpus.vocabulary_size, seed=0
        ),
    )
    model.fit(corpus.words, corpus.tags)
    print(f"    trained on {corpus.n_sentences} sentences / {corpus.n_tokens} tokens")

    with tempfile.TemporaryDirectory() as tmp:
        print("\n=== 2. Save it to a versioned registry and load it back")
        registry = ModelRegistry(Path(tmp) / "registry")
        version = registry.save(
            "pos-tagger", model, metadata={"dataset": "wsj-like", "alpha": 100.0}
        )
        print(f"    saved as pos-tagger v{version}: {registry.describe('pos-tagger')}")
        served_model = registry.load("pos-tagger")

        print("\n=== 3. Stream one sentence token-by-token (fixed lag 4)")
        sentence, gold = corpus.words[0], corpus.tags[0]
        decoder = StreamingDecoder(served_model, lag=4)
        for t, token in enumerate(sentence):
            step = decoder.push(token)
            top = int(np.argmax(step.filtering))
            finalized = ", ".join(
                f"token {pos} -> {corpus.tag_names[state]}" for pos, state in step.finalized
            )
            print(
                f"    t={t:2d} token={token:4d}  filter->{corpus.tag_names[top]:<12}"
                f"  {('finalized: ' + finalized) if finalized else ''}"
            )
        result = decoder.finish()
        accuracy = float(np.mean(result.path == gold))
        print(f"    full path accuracy vs gold tags: {accuracy:.2f}")

        print("\n=== 4. Serve a burst of concurrent requests through the micro-batcher")
        config = ServingConfig(max_batch_size=256)
        start = time.perf_counter()
        with TaggingService(served_model, config=config) as service:
            paths = service.tag_many(corpus.words)
            stats = service.stats.snapshot()
        elapsed = time.perf_counter() - start
        correct = sum(
            int(np.sum(path == gold)) for path, gold in zip(paths, corpus.tags)
        )
        print(f"    tagged {stats['n_requests']} requests / {stats['n_tokens']} tokens "
              f"in {elapsed * 1e3:.1f} ms")
        print(f"    mean batch occupancy {stats['mean_batch_size']:.1f} "
              f"(max {stats['max_batch_size']}), "
              f"{stats['n_tokens'] / elapsed:,.0f} tokens/s")
        print(f"    tagging accuracy: {correct / stats['n_tokens']:.2f}")

        print("\n=== 5. Compare with sequential per-request decoding")
        hmm = resolve_hmm(served_model)
        start = time.perf_counter()
        for sentence in corpus.words:
            hmm.decode(sentence)
        sequential = time.perf_counter() - start
        print(f"    sequential: {sequential * 1e3:.1f} ms "
              f"-> micro-batching speedup {sequential / elapsed:.1f}x")

        print("\n=== 6. Route traffic for two models through one queue")
        baseline = SupervisedDiversifiedHMM(
            n_states=corpus.n_tags,
            config=DHMMConfig(alpha=0.0),
            emissions=CategoricalEmission.random_init(
                corpus.n_tags, corpus.vocabulary_size, seed=1
            ),
        )
        baseline.fit(corpus.words, corpus.tags)
        registry.save("pos-baseline", baseline, metadata={"alpha": 0.0})
        routed_config = ServingConfig(
            max_batch_size=256, queue_capacity=4096,
            max_loaded_models=2, scheduling_policy="weighted_fair",
            model_weights={"pos-tagger": 2.0, "pos-baseline": 1.0},
        )
        with Router(registry, config=routed_config) as router:
            warmed = router.warm_up(["pos-tagger", "pos-baseline"])
            print(f"    warmed up before traffic: {warmed}")
            futures = [
                router.submit_tag(
                    "pos-tagger" if i % 2 == 0 else "pos-baseline",
                    sentence,
                    deadline_ms=5000.0,
                )
                for i, sentence in enumerate(corpus.words[:200])
            ]
            for future in futures:
                future.result()
            stats = router.stats.snapshot()
        print(f"    routed {stats['n_requests']} requests: {stats['per_model']}")
        print(f"    resident models: {stats['n_model_loads']} loads, "
              f"{stats['n_expired']} expired, {stats['n_rejected']} shed")

        print("\n=== 7. Step 16 concurrent online streams as batched ticks")
        pool = StreamPool(served_model, lag=4)
        streams = [pool.open() for _ in range(16)]
        sentences = [corpus.words[i] for i in range(16)]
        length = min(len(s) for s in sentences)
        start = time.perf_counter()
        for t in range(length):
            pool.push_tick([(s, sent[t]) for s, sent in zip(streams, sentences)])
        results = [stream.finish() for stream in streams]
        pooled = time.perf_counter() - start
        match = np.mean([
            np.mean(r.path == np.asarray(g[: len(r.path)]))
            for r, g in zip(results, [corpus.tags[i] for i in range(16)])
        ])
        print(f"    {16 * length} tokens over 16 streams in {pooled * 1e3:.1f} ms "
              f"({16 * length / pooled:,.0f} tokens/s), accuracy {match:.2f}")

        print("\n=== 8. StreamingService: the same fanout from independent clients")
        with StreamingService(served_model, lag=4) as stream_service:
            handles = [stream_service.open() for _ in range(8)]
            futures = [
                handle.submit_push(sent[t])
                for t in range(length)
                for handle, sent in zip(handles, sentences)
            ]
            for future in futures:
                future.result()
            results = [handle.finish() for handle in handles]
            sstats = stream_service.stats.snapshot()
        print(f"    {sstats['n_requests']} queued pushes coalesced into "
              f"{sstats['n_batches']} ticks "
              f"(mean occupancy {sstats['mean_batch_size']:.1f})")

        print("\n=== 9. The same stack over HTTP (tag/score/stream/stats/health)")
        import json as _json
        import urllib.request

        with HTTPServingServer(registry, port=0) as server:
            base = f"http://{server.host}:{server.port}"
            request = urllib.request.Request(
                f"{base}/v1/models/pos-tagger/tag",
                data=_json.dumps({"sequence": [int(t) for t in sentence]}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                tags = _json.loads(response.read())["tags"]
            with urllib.request.urlopen(f"{base}/stats", timeout=10) as response:
                http_stats = _json.loads(response.read())
            print(f"    POST /v1/models/pos-tagger/tag -> {tags[:8]}...")
            print(f"    GET /stats -> router served "
                  f"{http_stats['router']['n_requests']} request(s)")

        print("\n=== 10. Registry retention: GC old versions, keep what serves")
        registry.save("pos-tagger", model, metadata={"note": "retrained"})
        removed = registry.gc(keep_last_n=1)
        print(f"    collected {removed}; surviving versions: "
              f"{ {name: registry.versions(name) for name in registry.list_models()} }")


if __name__ == "__main__":
    main()
