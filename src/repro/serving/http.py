"""Asyncio HTTP front end over the routed serving stack (stdlib only).

:class:`HTTPServingServer` exposes a :class:`~repro.serving.router.Router`
(and per-model :class:`~repro.serving.streaming_service.StreamingService`
sessions) over HTTP/1.1 without any third-party dependency: a hand-rolled
request loop on :func:`asyncio.start_server` parses requests, and the
thread-based dispatcher futures are bridged onto the event loop —
blocking calls (submit-time registry scans, stream opens, model loads) run
via ``loop.run_in_executor`` and the resulting
:class:`concurrent.futures.Future` handles are awaited through
:func:`asyncio.wrap_future` — so one asyncio thread multiplexes any number
of slow clients while the scheduler threads do the compute.

Endpoints (all request/response bodies are JSON):

=======  ==============================  =====================================
method   path                            body -> response
=======  ==============================  =====================================
GET      ``/healthz``                    -> ``{"status": "ok", ...}``
GET      ``/stats``                      -> scheduler + stream-service stats
GET      ``/metrics``                    -> latency histograms + per-policy
                                         queue waits (``?format=prometheus``
                                         for text exposition)
GET      ``/v1/models``                  -> registered names and versions
POST     ``/v1/models/<name>/tag``       ``{"sequence": [...], "version"?,
                                         "deadline_ms"?}`` -> ``{"tags"}``
POST     ``/v1/models/<name>/score``     same -> ``{"score"}``
POST     ``/v1/streams``                 ``{"model":.., "version"?, "lag"?}``
                                         -> ``{"stream_id"}``
POST     ``/v1/streams/<id>/push``       ``{"observation": ..}`` -> one step
POST     ``/v1/streams/<id>/finish``     -> final path + log-likelihood
=======  ==============================  =====================================

Error mapping: validation failures are ``400``, unknown routes/streams
``404``, queue-full backpressure ``429`` (+ ``Retry-After``), an open
circuit breaker / a draining or failed server / a request that outlived
``ServingConfig.request_timeout_s`` all ``503`` (+ ``Retry-After``),
expired deadlines ``504``, anything else ``500`` — always as
``{"error": <message>}``.  ``request_timeout_s`` also bounds the
transport: a client that stalls mid-request gets ``408``, and a
connection idle that long between requests is closed.  ``/healthz``
reports the dispatcher health state machine: ``ok``/``degraded`` are
200, ``failed``/``draining`` 503.

Every response carries an ``X-Trace-Id`` header: a well-formed inbound
``X-Trace-Id`` is adopted, anything else replaced by a fresh ID.  The same
ID rides the scheduler request through to the executor, so it shows up in
``/metrics`` ``recent_traces`` once the request completes.

``repro-serve serve`` is the CLI entry point; tests drive the server
in-process via :meth:`HTTPServingServer.start` on an ephemeral port.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
import time
import uuid
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.lockorder import make_lock
from repro.core.config import ServingConfig
from repro.exceptions import (
    DeadlineExceededError,
    ModelUnavailableError,
    QueueFullError,
    ServiceShuttingDownError,
    ServingError,
    ValidationError,
)
from repro.serving.observability import clean_trace_id, new_trace_id, render_prometheus
from repro.serving.registry import ModelRegistry
from repro.serving.router import Router
from repro.serving.scheduler import FAILED, _model_label
from repro.serving.streaming import _UNSET
from repro.serving.streaming_service import ServiceStream, StreamingService

_MAX_BODY_BYTES = 16 << 20  # 16 MiB: far beyond any sane request

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _query_param(query: str, name: str) -> str | None:
    """First value of ``name`` in a raw query string (no unquoting needed)."""
    for pair in query.split("&"):
        key, _, value = pair.partition("=")
        if key == name:
            return value
    return None


def _retry_after_header(seconds: float | None) -> dict[str, str]:
    """``Retry-After`` header dict from a backoff hint (>= 1 whole second)."""
    if seconds is None or seconds <= 0:
        seconds = 1.0
    return {"Retry-After": str(max(1, int(math.ceil(seconds))))}


class _HTTPError(ServingError):
    """A request failure that already knows its HTTP status code.

    ``trace_id`` is the request's well-formed inbound ``X-Trace-Id``, when
    one was read before the failure.
    """

    def __init__(self, status: int, message: str, trace_id: str | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.trace_id = trace_id


async def _read_request(
    first: bytes, reader: asyncio.StreamReader
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Read the rest of one request whose first byte has arrived.

    Returns ``(method, target, headers, body)`` with lower-cased header
    names, or ``None`` for a blank line (the client ends the connection).
    A malformed request line or ``Content-Length`` raises
    :class:`_HTTPError` (400, or 413 past ``_MAX_BODY_BYTES``).
    """
    request_line = first if first == b"\n" else first + await reader.readline()
    if request_line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, _version = (
            request_line.decode("latin1").rstrip("\r\n").split(" ", 2)
        )
    except ValueError:
        raise _HTTPError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or 0)
    except ValueError:
        length = -1
    trace_id = clean_trace_id(headers.get("x-trace-id"))
    if length < 0:
        raise _HTTPError(400, "malformed Content-Length header", trace_id)
    if length > _MAX_BODY_BYTES:
        raise _HTTPError(413, "request body too large", trace_id)
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


class _RequestReader:
    """Reads the requests of one keep-alive connection within a time bound.

    ``timeout`` (``ServingConfig.request_timeout_s``; ``None`` waits
    forever) bounds the idle wait for a request's first byte and, from
    that byte on, the reading of the whole request (line, headers, body);
    without it a slowloris client would hold its handler and socket
    forever.  One timer, re-armed for each phase, enforces both instead of
    a task per read.  On expiry it writes ``stalled()`` (the 408 response)
    if part of a request arrived, and closes the transport either way,
    which ends the pending read with EOF.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        timeout: float | None,
        stalled: Callable[[], bytes],
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._timeout = timeout
        self._stalled = stalled
        self._timer: asyncio.TimerHandle | None = None
        self._expired = False

    async def next(self) -> tuple[str, str, dict[str, str], bytes] | None:
        """The next request, or ``None`` once the connection is done.

        A malformed request raises :class:`_HTTPError`.
        """
        try:
            self._arm(partial=False)
            first = await self._reader.read(1)
            if not first:
                return None
            self._arm(partial=True)
            request = await _read_request(first, self._reader)
        except (asyncio.IncompleteReadError, _HTTPError):
            if self._expired:
                return None  # cut short by the timer, which answered
            raise
        finally:
            if self._timer is not None:
                self._timer.cancel()
        return None if self._expired else request

    def _arm(self, partial: bool) -> None:
        if self._timer is not None:
            self._timer.cancel()
        if self._timeout is not None:
            self._timer = asyncio.get_running_loop().call_later(
                self._timeout, self._expire, partial
            )

    def _expire(self, partial: bool) -> None:
        self._expired = True
        if partial and not self._writer.is_closing():
            self._writer.write(self._stalled())
        self._writer.close()


def _render_response(
    status: int,
    payload: dict | str,
    keep_alive: bool = False,
    headers: dict[str, str] | None = None,
) -> bytes:
    if isinstance(payload, str):
        # Prometheus text exposition (the only non-JSON payload).
        data = payload.encode()
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        data = json.dumps(payload).encode()
        content_type = "application/json"
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"{extra}"
        f"Connection: {connection}\r\n\r\n"
    )
    return head.encode("latin1") + data


class HTTPServingServer:
    """HTTP transport over one registry's router and streaming services.

    Parameters
    ----------
    registry:
        A :class:`~repro.serving.registry.ModelRegistry` or its root path.
    config:
        Scheduling/backpressure knobs shared by the router and every
        per-model streaming service; defaults to the process-wide config.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read ``.port``
        after :meth:`start`).
    reuse_port:
        Bind with ``SO_REUSEPORT`` so several fully independent server
        processes can listen on the same port and let the kernel spread
        connections across them (see :mod:`repro.serving.cluster`).

    The server owns its :class:`Router` (and lazily, one
    :class:`StreamingService` per ``(name, version)`` that receives stream
    traffic); :meth:`close` shuts them all down.  Use :meth:`start` /
    :meth:`close` (or the context manager) from tests, and
    :meth:`serve_forever` from the CLI.
    """

    def __init__(
        self,
        registry: ModelRegistry | str | Path,
        config: ServingConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 8765,
        reuse_port: bool = False,
    ) -> None:
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.router = Router(registry, config=config)
        self.config = self.router.config
        self.host = host
        self.port = port
        self.reuse_port = bool(reuse_port)
        self._state_lock = make_lock("http.state")
        self._streams: dict[str, tuple[ServiceStream, tuple[str, int]]] = (
            {}
        )  # repro: guarded-by[_state_lock]
        self._stream_services: dict[tuple[str, int], StreamingService] = (
            {}
        )  # repro: guarded-by[_state_lock]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._closed = False
        #: drain mode: new work is refused (503) but accepted requests and
        #: open streams keep being served until the drain deadline.
        self._draining = False
        #: requests currently inside _dispatch; touched only on the event
        #: loop thread, read (a plain int) by the draining thread.
        self._inflight = 0

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def start(self) -> "HTTPServingServer":
        """Bind and begin serving on a background event-loop thread.

        Returns once the socket is listening; ``.port`` holds the actual
        (possibly ephemeral) port.
        """
        if self._loop is not None:
            raise ValidationError("server already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serving-http", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._bind(), self._loop)
        future.result(timeout=30)
        return self

    async def _bind(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            reuse_port=self.reuse_port or None,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def close(
        self,
        timeout: float | None = 10.0,
        drain: bool = False,
        drain_timeout_s: float | None = None,
    ) -> None:
        """Stop listening, stop the loop, and close every service.

        ``drain=True`` makes the shutdown graceful: new work is refused
        immediately (503 + ``Retry-After``) while in-flight requests and
        open streams keep being served, up to ``drain_timeout_s``
        (defaulting to ``ServingConfig.drain_timeout_s``, else 30s);
        whatever the scheduler still holds past the deadline is shed with
        :class:`~repro.exceptions.ServiceShuttingDownError`.
        """
        if self._closed:
            return
        drain_budget: float | None = None
        if drain:
            effective = (
                drain_timeout_s
                if drain_timeout_s is not None
                else (
                    self.config.drain_timeout_s
                    if self.config.drain_timeout_s is not None
                    else 30.0
                )
            )
            deadline = time.monotonic() + effective
            self._draining = True
            # Serve out the accepted work: in-flight requests and open
            # streams.  The event loop is still running, so clients keep
            # getting real responses during this window.
            while time.monotonic() < deadline:
                with self._state_lock:
                    n_streams = len(self._streams)
                if self._inflight == 0 and n_streams == 0:
                    break
                time.sleep(0.02)
            drain_budget = max(0.0, deadline - time.monotonic())
        self._closed = True
        loop = self._loop
        if loop is not None:

            async def _shutdown() -> None:
                if self._server is not None:
                    self._server.close()
                # Keep-alive connection handlers sit in reader.readline():
                # cancel and await them on the running loop, as asyncio.run
                # does, so none is left pending when the loop closes.
                handlers = asyncio.all_tasks() - {asyncio.current_task()}
                for task in handlers:
                    task.cancel()
                await asyncio.gather(*handlers, return_exceptions=True)
                loop.stop()

            asyncio.run_coroutine_threadsafe(_shutdown(), loop)
            if self._thread is not None:
                self._thread.join(timeout=timeout)
            loop.close()
        with self._state_lock:
            services = list(self._stream_services.values())
            self._stream_services.clear()
            self._streams.clear()
        for service in services:
            service.close(timeout=timeout, drain_timeout_s=drain_budget)
        self.router.close(timeout=timeout, drain_timeout_s=drain_budget)

    def serve_forever(self, drain_timeout_s: float | None = None) -> None:
        """CLI mode: serve until interrupted, then shut down cleanly.

        Starts the server if :meth:`start` was not already called — the CLI
        starts it first so warm-up runs between binding and blocking.  A
        ``drain_timeout_s`` (or ``ServingConfig.drain_timeout_s``) turns
        the interrupt-triggered shutdown into a graceful drain.
        """
        if self._loop is None:
            self.start()
        wants_drain = (
            drain_timeout_s is not None or self.config.drain_timeout_s is not None
        )
        stop = threading.Event()
        previous_handler = None
        installed = False
        try:
            # SIGTERM (the orchestrator's stop signal) takes the same clean
            # shutdown path as Ctrl-C — with a drain timeout configured,
            # that path is a graceful drain.
            previous_handler = signal.signal(
                signal.SIGTERM, lambda _signum, _frame: stop.set()
            )
            installed = True
        except ValueError:
            pass  # not the main thread: SIGINT-only mode
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            if installed:
                signal.signal(signal.SIGTERM, previous_handler)
            self.close(drain=wants_drain, drain_timeout_s=drain_timeout_s)

    def __enter__(self) -> "HTTPServingServer":
        return self.start() if self._loop is None else self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- #
    # Connection handling
    # -------------------------------------------------------------- #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        timeout = self.config.request_timeout_s
        requests = _RequestReader(
            reader, writer, timeout,
            stalled=lambda: _render_response(
                408, {"error": f"request not received within {timeout}s"},
                headers={"X-Trace-Id": new_trace_id()},
            ),
        )
        try:
            while True:
                try:
                    request = await requests.next()
                except _HTTPError as exc:
                    await self._respond(
                        writer, exc.status, {"error": str(exc)},
                        headers={"X-Trace-Id": exc.trace_id or new_trace_id()},
                    )
                    break
                if request is None:
                    break
                method, target, headers, body = request
                # Adopt a well-formed inbound trace ID (client/balancer
                # correlation); anything malformed gets a fresh one.
                trace_id = clean_trace_id(headers.get("x-trace-id")) or new_trace_id()
                status, payload, extra_headers = await self._dispatch(
                    method, target, body, trace_id
                )
                response_headers = {"X-Trace-Id": trace_id}
                response_headers.update(extra_headers or {})
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(
                    writer, status, payload,
                    keep_alive=keep_alive, headers=response_headers,
                )
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # close() cancels every open connection.  The handler still
            # returns normally: Python 3.11's start_server callback logs
            # a cancelled handler task as an error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | str,
        keep_alive: bool = False,
        headers: dict[str, str] | None = None,
    ) -> None:
        writer.write(_render_response(status, payload, keep_alive, headers))
        await writer.drain()

    # -------------------------------------------------------------- #
    # Routing
    # -------------------------------------------------------------- #
    async def _dispatch(
        self, method: str, target: str, body: bytes, trace_id: str
    ) -> tuple[int, dict | str, dict[str, str] | None]:
        self._inflight += 1
        path, _, query = target.partition("?")
        try:
            result = await self._route(method, path, query, body, trace_id)
            if isinstance(result, tuple):  # (status, payload) — healthz
                status, payload = result
                return status, payload, None
            return 200, result, None
        except _HTTPError as exc:
            return exc.status, {"error": str(exc)}, None
        except QueueFullError as exc:
            return 429, {"error": str(exc)}, _retry_after_header(1.0)
        except ModelUnavailableError as exc:
            # breaker open: tell the client when the cooldown lets a retry in
            return 503, {"error": str(exc)}, _retry_after_header(exc.retry_after_s)
        except ServiceShuttingDownError as exc:
            return 503, {"error": str(exc)}, _retry_after_header(1.0)
        except (TimeoutError, asyncio.TimeoutError) as exc:
            # the scheduler future outlived request_timeout_s: the server is
            # overloaded, not broken — 503 + Retry-After, never a raw 500
            return (
                503,
                {
                    "error": "request timed out after "
                    f"{self.config.request_timeout_s}s in the serving queue"
                },
                _retry_after_header(1.0),
            )
        except DeadlineExceededError as exc:
            return 504, {"error": str(exc)}, None
        except ValidationError as exc:
            return 400, {"error": str(exc)}, None
        except Exception as exc:  # a corrupt artifact, a numpy error, ...
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, None
        finally:
            self._inflight -= 1

    async def _route(
        self, method: str, path: str, query: str, body: bytes, trace_id: str
    ) -> dict | str | tuple[int, dict]:
        parts = [part for part in path.split("/") if part]
        if method == "GET":
            # Health and stats take cross-thread locks (stats, lifecycle,
            # stream state): keep them off the event loop like any other
            # blocking work.
            if parts in (["healthz"], ["health"]):
                return await self._run_blocking(self._healthz)
            if parts == ["stats"]:
                return await self._run_blocking(self._stats_payload)
            if parts == ["metrics"]:
                if _query_param(query, "format") == "prometheus":
                    return await self._run_blocking(self._metrics_prometheus)
                return await self._run_blocking(self._metrics_payload)
            if parts == ["v1", "models"]:
                return await self._run_blocking(self._list_models)
            raise _HTTPError(404, f"no such resource: GET {path}")
        if method != "POST":
            raise _HTTPError(405, f"unsupported method {method}")
        if self._draining and not (
            len(parts) == 4 and parts[:2] == ["v1", "streams"]
        ):
            # Pushes/finishes on already-open streams stay allowed so the
            # drain can complete them; everything else is new work.
            raise ServiceShuttingDownError(
                "server is draining; retry against another instance"
            )
        payload = self._parse_body(body)
        if len(parts) == 4 and parts[:2] == ["v1", "models"]:
            name, action = parts[2], parts[3]
            if action not in ("tag", "score"):
                raise _HTTPError(404, f"no such model action: {action}")
            return await self._tag_or_score(name, action, payload, trace_id)
        if parts == ["v1", "streams"]:
            return await self._open_stream(payload)
        if len(parts) == 4 and parts[:2] == ["v1", "streams"]:
            stream_id, action = parts[2], parts[3]
            if action == "push":
                return await self._push_stream(stream_id, payload, trace_id)
            if action == "finish":
                return await self._finish_stream(stream_id, trace_id)
            raise _HTTPError(404, f"no such stream action: {action}")
        raise _HTTPError(404, f"no such resource: POST {path}")

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return payload

    async def _run_blocking(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, fn, *args)

    async def _await_scheduler(self, future):
        """Await a scheduler future, bounded by ``request_timeout_s``.

        The timeout comes from config (no more hardcoded bridge timeouts);
        ``None`` waits forever.  On expiry the scheduler-side request keeps
        its queue slot (its future simply loses its HTTP waiter) and the
        client sees 503 + ``Retry-After`` via the dispatch error mapping.
        """
        wrapped = asyncio.wrap_future(future)
        timeout = self.config.request_timeout_s
        if timeout is None:
            return await wrapped
        return await asyncio.wait_for(wrapped, timeout=timeout)

    # -------------------------------------------------------------- #
    # Handlers
    # -------------------------------------------------------------- #
    def _healthz(self) -> tuple[int, dict]:
        """Health state machine -> HTTP status: ok/degraded 200, else 503."""
        health = self.router.health
        if self._draining:
            status, state = 503, "draining"
        elif health == FAILED:
            status, state = 503, "failed"
        else:
            status, state = 200, "ok" if health == "healthy" else health
        return status, {
            "status": state,
            "health": health,
            "n_dispatcher_restarts": self.router.stats.snapshot()[
                "n_dispatcher_restarts"
            ],
            "scheduling_policy": self.router.scheduling_policy,
            "queue_depth": self.router.queue_depth,
        }

    def _stats_payload(self) -> dict:
        with self._state_lock:
            stream_services = dict(self._stream_services)
            n_open = len(self._streams)
        return {
            "scheduling_policy": self.router.scheduling_policy,
            "router": self.router.stats.snapshot(),
            "streams": {
                _model_label(key): service.stats.snapshot()
                for key, service in stream_services.items()
            },
            "n_open_streams": n_open,
        }

    def _metrics_payload(self) -> dict:
        """Request-level metrics: latency histograms, queue waits, traces."""
        with self._state_lock:
            stream_services = dict(self._stream_services)
        router = self.router.stats.snapshot()
        streams = {}
        for key, service in stream_services.items():
            snap = service.stats.snapshot()
            streams[_model_label(key)] = {
                "n_requests": snap["n_requests"],
                "latency": snap["latency"],
                "queue_wait_by_policy": snap["queue_wait_by_policy"],
                "recent_traces": snap["recent_traces"],
            }
        return {
            "router": {
                "n_requests": router["n_requests"],
                "latency": router["latency"],
                "queue_wait_by_policy": router["queue_wait_by_policy"],
                "recent_traces": router["recent_traces"],
            },
            "streams": streams,
        }

    def _metrics_prometheus(self) -> str:
        """The same metrics in Prometheus text exposition format."""
        metrics = self._metrics_payload()
        histograms: list[tuple[str, dict[str, str], dict]] = []
        counters: list[tuple[str, dict[str, str], float]] = []

        def emit(labels: dict[str, str], section: dict) -> None:
            histograms.append(
                ("repro_request_latency_seconds", labels, section["latency"])
            )
            for policy, snap in section["queue_wait_by_policy"].items():
                histograms.append(
                    ("repro_queue_wait_seconds", {**labels, "policy": policy}, snap)
                )
            counters.append(
                ("repro_requests_total", labels, float(section["n_requests"]))
            )

        emit({"component": "router"}, metrics["router"])
        for label, section in metrics["streams"].items():
            emit({"component": "stream", "model": label}, section)
        return render_prometheus(histograms, counters)

    def _list_models(self) -> dict:
        models = []
        for name in self.registry.list_models():
            versions = self.registry.versions(name)
            models.append(
                {"name": name, "versions": versions, "latest": versions[-1]}
            )
        return {"models": models}

    async def _tag_or_score(
        self, name: str, action: str, payload: dict, trace_id: str
    ) -> dict:
        if "sequence" not in payload:
            raise _HTTPError(400, "request body needs a 'sequence' field")
        sequence = np.asarray(payload["sequence"])
        version = payload.get("version")
        deadline_ms = payload.get("deadline_ms")
        submit = self.router.submit_tag if action == "tag" else self.router.submit_score
        # Submission touches the registry (latest-version scans) and the
        # queue lock: keep it off the event loop, then await the scheduler
        # future without blocking anything.
        future = await self._run_blocking(
            lambda: submit(
                name,
                sequence,
                version=version,
                deadline_ms=deadline_ms,
                trace_id=trace_id,
            )
        )
        result = await self._await_scheduler(future)
        if action == "tag":
            return {"model": name, "tags": [int(s) for s in result]}
        return {"model": name, "score": float(result)}

    def _stream_service_for(self, name: str, version: int | None) -> tuple:
        key = (name, int(version) if version is not None else self.registry.latest_version(name))
        with self._state_lock:
            service = self._stream_services.get(key)
        if service is None:
            model = self.registry.load(*key)
            with self._state_lock:
                # another request may have won the creation race
                service = self._stream_services.get(key)
                if service is None:
                    service = StreamingService(model, config=self.config)
                    self._stream_services[key] = service
        return key, service

    async def _open_stream(self, payload: dict) -> dict:
        if "model" not in payload:
            raise _HTTPError(400, "request body needs a 'model' field")
        lag = payload.get("lag", _UNSET)

        def blocking_open():
            key, service = self._stream_service_for(
                payload["model"], payload.get("version")
            )
            handle = service.open(lag=lag)
            stream_id = uuid.uuid4().hex
            with self._state_lock:
                self._streams[stream_id] = (handle, key)
            return stream_id, key

        stream_id, key = await self._run_blocking(blocking_open)
        return {
            "stream_id": stream_id,
            "model": key[0],
            "version": key[1],
        }

    async def _push_stream(
        self, stream_id: str, payload: dict, trace_id: str
    ) -> dict:
        if "observation" not in payload:
            raise _HTTPError(400, "request body needs an 'observation' field")
        observation = np.asarray(payload["observation"])
        # Lookup and submission happen under one lock: a ServiceStream
        # expects its pushes serialized, but HTTP exposes the stream id to
        # arbitrary concurrent connections — without the lock a push racing
        # a finish could slip past the finished check and, after the
        # session slot is reused, advance another client's stream.  The
        # critical section runs in the executor (the lock and scheduler
        # submission both block), never on the event loop.
        def blocking_push():
            with self._state_lock:
                entry = self._streams.get(stream_id)
                if entry is None:
                    raise _HTTPError(404, f"no such stream: {stream_id}")
                handle, _key = entry
                return handle.submit_push(observation, trace_id=trace_id)

        future = await self._run_blocking(blocking_push)
        step = await self._await_scheduler(future)
        return {
            "filtering": [float(p) for p in step.filtering],
            "finalized": [[int(t), int(s)] for t, s in step.finalized],
            "log_likelihood": float(step.log_likelihood),
        }

    async def _finish_stream(self, stream_id: str, trace_id: str) -> dict:
        def blocking_finish():
            with self._state_lock:
                entry = self._streams.get(stream_id)
                if entry is None:
                    raise _HTTPError(404, f"no such stream: {stream_id}")
                handle, _key = entry
                # submit_finish flips the handle to finished before we
                # release the lock, so a concurrent push observes it and
                # fails with 400 instead of landing behind the finish in
                # the queue.
                future = handle.submit_finish(trace_id=trace_id)
                del self._streams[stream_id]
                return future

        future = await self._run_blocking(blocking_finish)
        result = await self._await_scheduler(future)
        return {
            "path": [int(s) for s in result.path],
            "log_likelihood": float(result.log_likelihood),
            "n_tokens": int(result.path.shape[0]),
        }
