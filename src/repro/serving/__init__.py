"""Serving subsystem: a four-layer stack from artifacts to HTTP.

Turns a trained (d)HMM into something deployable.  The stack is layered —
scheduling / transport / storage / execution — so policies, protocols and
persistence evolve independently:

**Scheduling core**

* :mod:`repro.serving.scheduler` — the bounded queue, dispatcher thread,
  deadline expiry and the pluggable :class:`SchedulingPolicy` (FIFO /
  weighted-fair / EDF, via ``ServingConfig.scheduling_policy``) every
  service runs on.

**Execution services** (subclasses of :class:`MicroBatchScheduler`)

* :mod:`repro.serving.service` — :class:`TaggingService`, coalescing
  concurrent tag/score requests into packed engine batches;
* :mod:`repro.serving.router` — :class:`Router`, serving every registry
  model behind one queue with LRU lazy loading and warm-up;
* :mod:`repro.serving.streaming_service` — :class:`StreamingService`,
  collecting concurrent clients' online pushes into batched session ticks;
* :mod:`repro.serving.streaming` — the caller-driven online primitives
  (:class:`StreamingDecoder`, :class:`StreamPool`).

**Storage**

* :mod:`repro.serving.persistence` — versioned, checksummed save/load of
  models as artifact directories (schema v3: raw mmap-able ``.npy``
  payloads; earlier compressed ``.npz`` schemas stay readable);
* :mod:`repro.serving.registry` — a named, versioned on-disk
  :class:`ModelRegistry` with retention/GC over those artifacts.

**Transport**

* :mod:`repro.serving.http` — a stdlib-only asyncio HTTP front end over
  the router and streaming service, with per-request ``X-Trace-Id``
  propagation and a ``/metrics`` endpoint (JSON or Prometheus text);
* :mod:`repro.serving.cluster` — :class:`ClusterServer`, N worker
  processes behind one port (``SO_REUSEPORT`` or a built-in balancer with
  health probing and sticky stream routing);
* :mod:`repro.serving.cli` — the ``repro-serve`` console entry point.

**Observability**

* :mod:`repro.serving.observability` — trace IDs and the fixed-bucket
  :class:`LatencyHistogram` behind :class:`ServiceStats` percentiles,
  ``/metrics`` and the CLI latency reports.

**Resilience** (spanning all layers)

* :mod:`repro.serving.faults` — deterministic fault injection behind the
  named points the chaos suite drives;
* supervised dispatcher restarts with a ``healthy``/``degraded``/
  ``failed`` state machine (scheduler), per-model circuit breakers
  (router), graceful drain (``close(drain_timeout_s=...)`` everywhere,
  SIGTERM on the HTTP server) and typed unavailability errors
  (:class:`~repro.exceptions.ModelUnavailableError`,
  :class:`~repro.exceptions.ServiceShuttingDownError`,
  :class:`~repro.exceptions.ArtifactCorruptError`).
"""

from repro._lazy import lazy_exports

# Each name imports its module on first access: a process pays only for
# the layers it uses (a tagger loads no HTTP or cluster code).
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.serving": ["faults"],
        "repro.serving.cluster": ["ClusterServer", "reuse_port_supported"],
        "repro.serving.http": ["HTTPServingServer"],
        "repro.serving.observability": [
            "LatencyHistogram",
            "clean_trace_id",
            "new_trace_id",
            "render_prometheus",
        ],
        "repro.serving.persistence": [
            "MODEL_TYPES",
            "SCHEMA_VERSION",
            "load_artifact",
            "read_manifest",
            "resolve_hmm",
            "save_artifact",
            "verify_checksums",
        ],
        "repro.serving.registry": ["ModelRegistry"],
        "repro.serving.router": ["Router", "WarmUpReport"],
        "repro.serving.scheduler": [
            "EDFPolicy",
            "FIFOPolicy",
            "MicroBatchScheduler",
            "SchedulingPolicy",
            "ServiceStats",
            "WeightedFairPolicy",
        ],
        "repro.serving.service": ["TaggingService"],
        "repro.serving.streaming": [
            "PooledStream",
            "StreamingDecoder",
            "StreamPool",
            "StreamResult",
            "stream_decode",
        ],
        "repro.serving.streaming_service": ["ServiceStream", "StreamingService"],
    },
)
