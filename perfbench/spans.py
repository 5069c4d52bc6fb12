"""In-memory span recorder with wrappers installed from outside the program.

A traced run patches the public entry point of each layer (a class method
or a module-level function) with a wrapper that records one span: name,
start, end, parent span and request id.  Spans stay in memory until the run
ends and are then written to a JSON-lines file.  Nothing inside ``src/``
knows about tracing; :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans from wrapped entry points on any thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, rid)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, rid: str):
        """Tag every span opened on this thread with request id ``rid``."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    @contextmanager
    def span(self, name: str, rid: str | None = None):
        """Record one span; ``rid`` overrides the thread's request id."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, rid or getattr(self._local, "rid", None))
            )

    def wrap(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(args, result)`` may read counts off the call's
        positional arguments and returned value (e.g. projected-gradient
        iterations); it runs outside the span.
        """
        # A class must define the method itself, so a renamed or moved
        # entry point fails loudly instead of going untraced.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute (latest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- #
    def durations(self) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by name."""
        out: dict[str, list[float]] = defaultdict(list)
        for _, name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            out[name] += (end - start) - child_time[span_id]
        return dict(out)

    def write(self, path: Path) -> None:
        """Dump spans as JSON lines (times in seconds from the first span)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, name, start, end, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "request_id": rid,
                        }
                    )
                    + "\n"
                )
