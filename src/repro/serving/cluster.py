"""Multi-process serving: N fully isolated HTTP workers behind one port.

:class:`ClusterServer` forks ``n_workers`` OS processes (``spawn`` context,
so no inherited locks or event loops), each running a complete
:class:`~repro.serving.http.HTTPServingServer` — its own router, supervised
dispatcher, circuit breakers and drain logic.  Two ways to share the port:

``SO_REUSEPORT`` (default where the platform supports it)
    Every worker binds the *same* ``(host, port)`` with ``SO_REUSEPORT``
    and the kernel spreads incoming connections across the listening
    sockets.  Zero extra hops and no parent-side bottleneck.  Caveat: the
    kernel balances *connections*, not requests — a client that opens a
    stream must keep using the same connection (HTTP keep-alive) or its
    ``stream_id`` may land on a worker that never opened it.

Balancer fallback (``reuse_port=False`` or unsupported platform)
    Workers bind ephemeral loopback ports and the parent runs
    :class:`_Balancer`, a stdlib-asyncio HTTP-aware relay on the public
    port: round-robin over healthy backends, a ``/healthz`` probe loop
    that ejects (and re-admits) workers, per-request failover for
    idempotent work, and sticky routing for streams — ``POST /v1/streams``
    responses are inspected for their ``stream_id`` and subsequent
    ``push``/``finish`` calls pin to the worker that owns the session.
    It reads requests with the workers' own reader, so
    ``ServingConfig.request_timeout_s`` bounds them the same way: a
    client stalling mid-request gets 408, an idle one is closed.

The parent supervises its children: a worker that dies unexpectedly is
respawned (up to ``max_restarts`` across the cluster's lifetime) and, in
balancer mode, its backend address is swapped in once the replacement
reports ready.  ``close()`` SIGTERMs every worker — each takes its own
graceful-drain path when ``ServingConfig.drain_timeout_s`` is set — then
joins and finally SIGKILLs stragglers.

Model memory: give the workers ``ServingConfig(mmap_artifacts=True)`` and
every process maps the same schema-v3 parameter arrays read-only, so the
big tables live once in the page cache instead of once per worker (see
:mod:`repro.serving.persistence`).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import queue as queue_module
import socket
import threading
import time
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.lockorder import make_lock
from repro.core.config import ServingConfig, get_serving_config
from repro.exceptions import ServingError, ValidationError
from repro.serving.http import (
    _STATUS_PHRASES,
    HTTPServingServer,
    _HTTPError,
    _RequestReader,
)
from repro.serving.observability import new_trace_id
from repro.serving.registry import ModelRegistry

__all__ = ["ClusterServer", "reuse_port_supported"]

#: worker start -> ready budget: registry scans + model warm-up included.
_STARTUP_TIMEOUT_S = 60.0


def reuse_port_supported() -> bool:
    """Whether this platform accepts ``SO_REUSEPORT`` on TCP sockets."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False


def _reserve_port(host: str) -> int:
    """Pick a free port that reuse-port workers will be able to share."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


def _worker_entry(
    registry_root: str,
    config: ServingConfig | None,
    host: str,
    port: int,
    reuse_port: bool,
    warm_up: Sequence[str],
    worker_index: int,
    ready_queue,
) -> None:
    """Child-process main: build, warm, announce, serve until SIGTERM."""
    server = HTTPServingServer(
        registry_root, config=config, host=host, port=port, reuse_port=reuse_port
    )
    try:
        server.start()
        if warm_up:
            server.router.warm_up(list(warm_up))
    except Exception as exc:
        ready_queue.put(("error", worker_index, f"{type(exc).__name__}: {exc}"))
        server.close()
        raise SystemExit(1) from exc
    ready_queue.put(("ready", worker_index, server.port))
    # serve_forever installs the SIGTERM handler; with drain_timeout_s
    # configured the parent's SIGTERM becomes a graceful drain.
    server.serve_forever()


class ClusterServer:
    """N worker processes serving one registry behind one port.

    Parameters
    ----------
    registry:
        Registry root path (or a :class:`ModelRegistry`; only its root is
        shipped to the workers).
    config:
        :class:`ServingConfig` applied in every worker.  Must be picklable
        (it is a plain dataclass).  ``mmap_artifacts=True`` makes the
        workers share model parameter pages.
    host, port:
        Public bind address.  ``port=0`` picks a free port (reserved by
        the parent in reuse-port mode so every worker binds the same one).
    n_workers:
        Number of worker processes.
    reuse_port:
        ``True`` = kernel-balanced ``SO_REUSEPORT`` workers, ``False`` =
        parent-side balancer; ``None`` (default) auto-detects.
    warm_up:
        Model names each worker preloads before reporting ready.
    max_restarts:
        Total respawn budget for unexpectedly dead workers.
    """

    def __init__(
        self,
        registry: ModelRegistry | str | Path,
        config: ServingConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 8765,
        n_workers: int = 2,
        reuse_port: bool | None = None,
        warm_up: Iterable[str] = (),
        max_restarts: int = 3,
    ) -> None:
        if n_workers < 1:
            raise ValidationError(f"n_workers must be at least 1, got {n_workers}")
        root = registry.root if isinstance(registry, ModelRegistry) else registry
        self.registry_root = str(root)
        self.config = config
        self.host = host
        self.port = port
        self.n_workers = int(n_workers)
        self.reuse_port = (
            reuse_port_supported() if reuse_port is None else bool(reuse_port)
        )
        self.warm_up = tuple(warm_up)
        self.max_restarts = int(max_restarts)
        # Workers are spawned, not forked: a fork would duplicate the
        # parent's threads/locks mid-flight (exactly what repro-lint's
        # lock discipline exists to prevent).
        self._ctx = multiprocessing.get_context("spawn")
        self._worker_host = self.host if self.reuse_port else "127.0.0.1"
        self._lock = make_lock("cluster.state")
        self._workers: list = []  # repro: guarded-by[_lock]
        self._worker_ports: list[int] = []  # repro: guarded-by[_lock]
        self._n_restarts = 0  # repro: guarded-by[_lock]
        self._started = False  # repro: guarded-by[_lock]
        self._closed = False  # repro: guarded-by[_lock]
        self._ready_queue: multiprocessing.queues.Queue | None = None
        self._balancer: _Balancer | None = None
        self._monitor: threading.Thread | None = None
        self._stop_monitor = threading.Event()

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def start(self) -> "ClusterServer":
        """Spawn the workers, wait for readiness, expose the public port."""
        with self._lock:
            if self._started:
                raise ValidationError("cluster already started")
            self._started = True
        self._ready_queue = self._ctx.Queue()
        if self.reuse_port and self.port == 0:
            self.port = _reserve_port(self.host)
        workers = [self._spawn_worker(index) for index in range(self.n_workers)]
        with self._lock:
            self._workers = workers
            self._worker_ports = [0] * self.n_workers
        ports: dict[int, int] = {}
        try:
            for _ in range(self.n_workers):
                kind, index, value = self._next_ready()
                if kind != "ready":
                    raise ServingError(f"worker {index} failed to start: {value}")
                ports[index] = int(value)
        except ServingError:
            self.close()
            raise
        with self._lock:
            for index, worker_port in ports.items():
                self._worker_ports[index] = worker_port
        if not self.reuse_port:
            backends = [
                ("127.0.0.1", ports[index]) for index in range(self.n_workers)
            ]
            self._balancer = _Balancer(
                self.host, self.port, backends,
                request_timeout_s=(self.config or get_serving_config()).request_timeout_s,
            )
            self._balancer.start()
            self.port = self._balancer.port
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn_worker(self, index: int):
        target_port = self.port if self.reuse_port else 0
        process = self._ctx.Process(
            target=_worker_entry,
            args=(
                self.registry_root,
                self.config,
                self._worker_host,
                target_port,
                self.reuse_port,
                self.warm_up,
                index,
                self._ready_queue,
            ),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        return process

    def _next_ready(self) -> tuple:
        ready_queue = self._ready_queue
        if ready_queue is None:
            raise ServingError("cluster not started")
        try:
            return ready_queue.get(timeout=_STARTUP_TIMEOUT_S)
        except queue_module.Empty:
            raise ServingError(
                f"worker did not report ready within {_STARTUP_TIMEOUT_S}s"
            ) from None

    def _monitor_loop(self) -> None:
        """Respawn unexpectedly dead workers while the restart budget lasts."""
        while not self._stop_monitor.wait(0.2):
            with self._lock:
                if self._closed:
                    return
                snapshot = list(enumerate(self._workers))
            for index, process in snapshot:
                if process.is_alive():
                    continue
                with self._lock:
                    if self._closed:
                        return
                    if self._n_restarts >= self.max_restarts:
                        continue
                    self._n_restarts += 1
                replacement = self._spawn_worker(index)
                with self._lock:
                    self._workers[index] = replacement
                try:
                    kind, ready_index, value = self._next_ready()
                except ServingError:
                    continue  # budget already charged; next sweep retries
                if kind != "ready":
                    continue
                with self._lock:
                    self._worker_ports[ready_index] = int(value)
                if self._balancer is not None:
                    self._balancer.set_backend(ready_index, ("127.0.0.1", int(value)))

    # -------------------------------------------------------------- #
    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the currently live worker processes."""
        with self._lock:
            return [
                process.pid
                for process in self._workers
                if process.pid is not None and process.is_alive()
            ]

    @property
    def n_restarts(self) -> int:
        """How many workers have been respawned so far."""
        with self._lock:
            return self._n_restarts

    def close(self, timeout: float = 15.0) -> None:
        """SIGTERM every worker, join, SIGKILL stragglers, stop the balancer."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        self._stop_monitor.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        if self._balancer is not None:
            self._balancer.close()
        for process in workers:
            if process.is_alive():
                process.terminate()  # SIGTERM: each worker drains + exits 0
        deadline = time.monotonic() + timeout
        for process in workers:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
        for process in workers:
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        if self._ready_queue is not None:
            self._ready_queue.close()

    def serve_forever(self) -> None:
        """Block until SIGTERM/Ctrl-C, then shut the whole cluster down."""
        import signal as signal_module

        stop = threading.Event()
        previous = signal_module.signal(
            signal_module.SIGTERM, lambda _signum, _frame: stop.set()
        )
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            signal_module.signal(signal_module.SIGTERM, previous)
            self.close()

    def __enter__(self) -> "ClusterServer":
        with self._lock:
            started = self._started
        return self if started else self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


# ------------------------------------------------------------------ #
# Balancer fallback
# ------------------------------------------------------------------ #
class _Balancer:
    """HTTP-aware pass-through load balancer (stdlib asyncio, own thread).

    All routing state (``_backends``, ``_healthy``, ``_rr``, ``_sticky``)
    is confined to the balancer's event-loop thread; the only cross-thread
    entry points (:meth:`set_backend`, :meth:`close`) hop onto the loop
    with ``call_soon_threadsafe``.  No locks anywhere near the loop.
    """

    def __init__(
        self,
        host: str,
        port: int,
        backends: Sequence[tuple[str, int]],
        request_timeout_s: float | None,
        probe_interval_s: float = 0.25,
        relay_timeout_s: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        #: bound on a client's idle keep-alive wait and on reading one
        #: request (``ServingConfig.request_timeout_s``).
        self._request_timeout_s = request_timeout_s
        self._backends: dict[int, tuple[str, int]] = dict(enumerate(backends))
        # Workers reported ready before the balancer starts, so begin with
        # everyone admitted; the probe loop takes over from there.
        self._healthy: set[int] = set(self._backends)
        self._rr = 0
        self._sticky: dict[str, int] = {}  # stream_id -> backend index
        self._probe_interval_s = probe_interval_s
        self._relay_timeout_s = relay_timeout_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._probe_task: asyncio.Task | None = None

    def start(self) -> "_Balancer":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-cluster-balancer", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._bind(), self._loop)
        future.result(timeout=30)
        return self

    async def _bind(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._probe_task = asyncio.get_running_loop().create_task(self._probe_loop())

    def set_backend(self, index: int, address: tuple[str, int]) -> None:
        """Swap in a respawned worker's address (from the monitor thread)."""
        loop = self._loop
        if loop is None:
            return

        def _update() -> None:
            self._backends[index] = address
            # quarantined until the probe loop sees a 200 from it
            self._healthy.discard(index)

        loop.call_soon_threadsafe(_update)

    def close(self, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop is None:
            return
        self._loop = None

        def _shutdown() -> None:
            if self._probe_task is not None:
                self._probe_task.cancel()
            if self._server is not None:
                self._server.close()
            # stop in a follow-up callback so the probe task gets one more
            # scheduling slot to observe its cancellation
            loop.call_soon(loop.stop)

        loop.call_soon_threadsafe(_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        loop.close()

    # -------------------------------------------------------------- #
    async def _probe_loop(self) -> None:
        while True:
            for index, address in list(self._backends.items()):
                if await self._probe(address):
                    self._healthy.add(index)
                else:
                    self._healthy.discard(index)
            await asyncio.sleep(self._probe_interval_s)

    async def _probe(self, address: tuple[str, int]) -> bool:
        try:
            status, _headers, _body = await asyncio.wait_for(
                self._forward_once(address, "GET", "/healthz", {}, b""),
                timeout=2.0,
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            return False
        # 503 means draining/failed: stop steering *new* work at it
        # (sticky streams still go direct so drains can complete them).
        return status == 200

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        timeout = self._request_timeout_s
        requests = _RequestReader(
            reader, writer, timeout,
            stalled=lambda: _render_relayed(
                *_balancer_error(408, f"request not received within {timeout}s"),
                keep_alive=False,
            ),
        )
        try:
            while True:
                try:
                    request = await requests.next()
                except _HTTPError as exc:
                    status, head, body = _balancer_error(exc.status, str(exc))
                    await self._send(writer, status, head, body, keep_alive=False)
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                status, head, payload = await self._relay(
                    method, target, headers, body
                )
                await self._send(writer, status, head, payload, keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _relay(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        path = target.partition("?")[0]
        parts = [part for part in path.split("/") if part]
        if len(parts) == 4 and parts[:2] == ["v1", "streams"]:
            return await self._relay_sticky(parts, method, target, headers, body)
        record_sticky = method == "POST" and parts == ["v1", "streams"]
        for index in self._pick_order():
            response = await self._forward(index, method, target, headers, body)
            if response is None:
                self._healthy.discard(index)
                continue
            status, head, payload = response
            if record_sticky and status == 200:
                stream_id = _extract_stream_id(payload)
                if stream_id is not None:
                    self._sticky[stream_id] = index
            return status, head, payload
        return _balancer_error(503, "no healthy backend", retry_after=True)

    async def _relay_sticky(
        self,
        parts: list[str],
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        """Pin push/finish to the worker that owns the stream session."""
        stream_id = parts[2]
        index = self._sticky.get(stream_id)
        if index is None:
            return _balancer_error(404, f"no such stream: {stream_id}")
        response = await self._forward(index, method, target, headers, body)
        if response is None:
            # The owning worker is gone; its in-memory session went with it.
            self._sticky.pop(stream_id, None)
            return _balancer_error(503, "stream backend unavailable", retry_after=True)
        status, head, payload = response
        if parts[3] == "finish" and status == 200:
            self._sticky.pop(stream_id, None)
        return status, head, payload

    def _pick_order(self) -> list[int]:
        healthy = sorted(self._healthy)
        if not healthy:
            # every backend ejected: try them all rather than fail blind
            healthy = sorted(self._backends)
        if not healthy:
            return []
        self._rr += 1
        start = self._rr % len(healthy)
        return healthy[start:] + healthy[:start]

    async def _forward(
        self,
        index: int,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> tuple[int, list[tuple[str, str]], bytes] | None:
        address = self._backends.get(index)
        if address is None:
            return None
        try:
            return await asyncio.wait_for(
                self._forward_once(address, method, target, headers, body),
                timeout=self._relay_timeout_s,
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
            return None

    async def _forward_once(
        self,
        address: tuple[str, int],
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        host, port = address
        reader, writer = await asyncio.open_connection(host, port)
        try:
            passed = "".join(
                f"{name}: {value}\r\n"
                for name, value in headers.items()
                if name not in ("connection", "content-length", "host")
            )
            head = (
                f"{method} {target} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                f"{passed}\r\n"
            )
            writer.write(head.encode("latin1") + body)
            await writer.drain()
            status_line = await reader.readline()
            status = int(status_line.decode("latin1").split(" ", 2)[1])
            response_headers: list[tuple[str, str]] = []
            content_length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin1").partition(":")
                name, value = name.strip(), value.strip()
                lower = name.lower()
                if lower == "content-length":
                    content_length = int(value)
                elif lower != "connection":
                    response_headers.append((name, value))
            payload = (
                await reader.readexactly(content_length) if content_length else b""
            )
            return status, response_headers, payload
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter,
        status: int,
        headers: list[tuple[str, str]],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        writer.write(_render_relayed(status, headers, body, keep_alive))
        await writer.drain()


def _render_relayed(
    status: int, headers: list[tuple[str, str]], body: bytes, keep_alive: bool
) -> bytes:
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    extra = "".join(f"{name}: {value}\r\n" for name, value in headers)
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"{extra}"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    return head.encode("latin1") + body


def _extract_stream_id(payload: bytes) -> str | None:
    try:
        parsed = json.loads(payload.decode())
    except (ValueError, UnicodeDecodeError):
        return None
    stream_id = parsed.get("stream_id") if isinstance(parsed, dict) else None
    return str(stream_id) if stream_id else None


def _balancer_error(
    status: int, message: str, retry_after: bool = False
) -> tuple[int, list[tuple[str, str]], bytes]:
    """A balancer-origin error response (trace ID minted here)."""
    headers = [
        ("Content-Type", "application/json"),
        ("X-Trace-Id", new_trace_id()),
    ]
    if retry_after:
        headers.append(("Retry-After", "1"))
    return status, headers, json.dumps({"error": message}).encode()
