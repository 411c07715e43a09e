"""In-memory span recorder for traced benchmark runs.

Spans are made here, in the benchmark, around calls into the program's
public functions: either around the benchmark's own calls, or by
temporarily rebinding a public function at the module attribute its
caller looks it up from (see :meth:`Tracer.patched`).  Nothing inside
the program records anything for the benchmark.

Every span carries a name, start, end (``time.perf_counter`` seconds),
the id of the span that was open on the same thread when it started,
and the run id.  Spans stay in memory and are written as JSON lines
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator


class Tracer:
    """Collects spans of one run; ``enabled=False`` makes every call free."""

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        """Record one span around the body (nested under the open span)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._append(span_id, name, start, end, parent, attrs)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        **attrs: object,
    ) -> int:
        """Add a span measured elsewhere (e.g. read off a job snapshot)."""
        span_id = self._new_id()
        if self.enabled:
            self._append(span_id, name, start, end, parent, attrs)
        return span_id

    def _append(self, span_id, name, start, end, parent, attrs) -> None:
        entry = {
            "id": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "run_id": self.run_id,
        }
        if attrs:
            entry["attrs"] = attrs
        with self._lock:
            self.spans.append(entry)

    def adopt(self, spans: list[dict]) -> None:
        """Merge spans another process recorded, renumbering their ids.

        ``time.perf_counter`` reads one system-wide monotonic clock, so
        the child's start and end times line up with this process's.
        """
        with self._lock:
            base = self._next_id
            self._next_id += max((entry["id"] for entry in spans), default=0)
            for entry in spans:
                parent = entry["parent"]
                self.spans.append(dict(
                    entry, id=entry["id"] + base,
                    parent=None if parent is None else parent + base,
                ))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def iterate(self, name: str, iterable: Iterable) -> Iterator:
        """Re-yield ``iterable``, recording each ``next()`` as a span.

        Chained generators nest: a downstream stage's ``next()`` pulls
        its upstream inside its own span, so self times separate them.
        """
        iterator = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    @contextlib.contextmanager
    def patched(self, targets: Iterable[tuple[object, str, str]]):
        """Rebind ``owner.attr`` to a span-recording wrapper for the body.

        ``targets`` holds ``(owner, attribute, span name)``.  A missing
        attribute raises ``AttributeError``, so a renamed stage function
        fails the traced run instead of silently reading zero.  Class
        attributes keep their descriptor kind (a classmethod is rebound
        as the bound method).
        """
        if not self.enabled:
            yield
            return
        saved = []
        try:
            for owner, attr, name in targets:
                if not hasattr(owner, attr):
                    raise AttributeError(
                        f"cannot trace {name}: {owner!r} has no {attr!r}"
                    )
                original = inspect.getattr_static(owner, attr)
                wrapper = self.wrap(name, getattr(owner, attr))
                if inspect.isclass(owner):
                    wrapper = staticmethod(wrapper)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_seconds(self, since: int = 0) -> dict[str, float]:
        """Total self time per span name: duration minus child coverage.

        ``since`` restricts the sum to spans recorded after the first
        ``since``; a span ends after its children, so a call's whole
        subtree lies past the span count taken before the call.
        """
        with self._lock:
            spans = self.spans[since:]
        child_time: dict[int, float] = {}
        for entry in spans:
            parent = entry["parent"]
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (
                    entry["end"] - entry["start"]
                )
        totals: dict[str, float] = {}
        for entry in spans:
            own = entry["end"] - entry["start"] - child_time.get(entry["id"], 0.0)
            totals[entry["name"]] = totals.get(entry["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock, path.open("w") as handle:
            for entry in self.spans:
                handle.write(json.dumps(entry) + "\n")
