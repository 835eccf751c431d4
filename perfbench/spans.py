"""In-memory span tracer for the benchmark's traced runs.

A :class:`Tracer` wraps functions of the program under test (module
functions or class methods) with spans.  Each span records its name, start,
end and the index of its parent span on the same thread.  Spans stay in
memory and are summarised or written out when the run ends.

A span opened while a span of the same name is already open on the thread
is not recorded: a wrapped function that calls another wrapped function of
the same layer (``LSQQuantizer.forward`` calling ``quantize_int``) counts
once.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    """Record spans around calls; ``enabled=False`` makes calls no-ops."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []      # [name, start, end, parent, child_s]
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span named ``name``."""
        return _Span(self, name)

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``name``."""
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0.0) + value

    def wrap(self, owner, attr: str, name,
             on_call: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper (see :meth:`unwrap`).

        ``name`` is the span name, or a function of the call's positional
        arguments that returns it.  ``on_call(tracer, args, kwargs, result)``
        runs after each call, to record counts taken from the call.
        """
        if not self.enabled:
            return
        original = getattr(owner, attr)
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with _Span(self, name_of(args)):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every function :meth:`wrap` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def mark(self) -> int:
        """Index of the next span; pass to :meth:`summary` to window it."""
        return len(self.spans)

    def summary(self, start: int = 0, stop: Optional[int] = None) -> dict:
        """Per-name ``{"calls", "total_s", "self_s", "durations"}``."""
        out: Dict[str, dict] = {}
        for name, t0, t1, _parent, child_s in self.spans[start:stop]:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - child_s
            entry["durations"].append(t1 - t0)
        return out

    def totals(self) -> dict:
        """:meth:`summary` of every span without the per-call durations."""
        return {name: {k: v for k, v in entry.items() if k != "durations"}
                for name, entry in self.summary().items()}

    def dump(self, path: str) -> None:
        """Write every span and counter to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [{"name": s[0], "start": s[1], "end": s[2],
                                  "parent": s[3]} for s in self.spans],
                       "counts": self.counts}, handle)


class _Span:
    __slots__ = ("tracer", "name", "index", "start", "skip")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.skip = not tracer.enabled
        if self.skip:
            return self
        stack = tracer._stack()
        self.skip = any(tracer.spans[i][0] == self.name for i in stack)
        if self.skip:
            return self
        parent = stack[-1] if stack else -1
        with tracer._lock:
            self.index = len(tracer.spans)
            tracer.spans.append([self.name, 0.0, 0.0, parent, 0.0])
        stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.skip:
            return False
        end = time.perf_counter()
        tracer = self.tracer
        record = tracer.spans[self.index]
        record[1], record[2] = self.start, end
        tracer._stack().pop()
        if record[3] >= 0:
            tracer.spans[record[3]][4] += end - self.start
        return False
