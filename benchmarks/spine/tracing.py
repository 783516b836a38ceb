"""In-memory span recorder for the traced pass of the spine benchmark.

The program's own ``repro.obs`` tracer stays disabled in both passes;
every layer is measured from outside, by the harness timing its calls
into public functions.  A span is ``(name, start, end, parent, tick,
req)``; *self* time is the span's duration minus the part of that
interval its child spans cover, so the per-layer rows of one tick sum to
the tick's wall time (minus the root span's own glue).

:class:`NullRecorder` is what the timed pass runs with: the same loop,
no recording, no wrapped objects.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

#: Index of each field in a span record (a plain list, for speed).
NAME, START, END, PARENT, TICK, REQ, SELF = range(7)


class _Span:
    """Context manager for one open span; closes into its recorder."""

    __slots__ = ("rec", "index", "child")

    def __init__(self, rec: "SpanRecorder", index: int):
        self.rec = rec
        self.index = index
        self.child = 0.0

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *_exc: Any) -> None:
        rec = self.rec
        record = rec.spans[self.index]
        end = rec.clock()
        record[END] = end
        duration = end - record[START]
        own = duration - self.child
        record[SELF] = own
        name = record[NAME]
        rec.self_s[name] = rec.self_s.get(name, 0.0) + own
        rec.count[name] = rec.count.get(name, 0) + 1
        stack = rec._stack
        stack.pop()
        if stack:
            stack[-1].child += duration


class SpanRecorder:
    """Records nested spans in memory; written out once, at the end."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.self_s: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.probe_s: dict[str, float] = {}
        #: Ambient tick id and request id (``client:seq``) stamped on
        #: every span opened while they are set, so the ingress, commit,
        #: publish and client-receive spans of one input share an id.
        self.tick = -1
        self.req: str | None = None
        self._stack: list[_Span] = []

    def span(self, name: str) -> _Span:
        """Open a span under the currently open one (if any)."""
        stack = self._stack
        parent = stack[-1].index if stack else -1
        index = len(self.spans)
        self.spans.append(
            [name, self.clock(), 0.0, parent, self.tick, self.req, 0.0]
        )
        opened = _Span(self, index)
        stack.append(opened)
        return opened

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` (a public bound method) with a span proxy.

        Only instances the harness built are wrapped, and only in the
        traced pass; the class and the module stay untouched.
        """
        inner = getattr(obj, attr)

        def proxy(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, proxy)

    def probe(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a timed counter that is *not* a span.

        For hot leaves (one SQL statement, one WAL append) whose time
        must stay inside the enclosing layer's self time: the call is
        counted and timed under ``name`` but opens no span, so it takes
        nothing away from its caller and is not part of the coverage sum.
        """
        inner = getattr(obj, attr)
        clock = self.clock
        total = self.probe_s
        count = self.count

        def proxy(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                total[name] = total.get(name, 0.0) + clock() - start
                count[name] = count.get(name, 0) + 1

        setattr(obj, attr, proxy)

    def reset_totals(self) -> None:
        """Forget the running totals (spans stay); called after warm-up."""
        self.self_s.clear()
        self.probe_s.clear()
        self.count.clear()

    def self_by_tick(self, name: str) -> dict[int, float]:
        """Self time of one span name, summed per tick id."""
        out: dict[int, float] = {}
        for record in self.spans:
            if record[NAME] == name:
                out[record[TICK]] = out.get(record[TICK], 0.0) + record[SELF]
        return out

    def chrome_trace(self, layer_of: Callable[[str], str]) -> dict[str, Any]:
        """The spans as a Chrome ``trace_event`` document (``ph: X``)."""
        origin = self.spans[0][START] if self.spans else 0.0
        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "spine"}},
        ]
        for index, record in enumerate(self.spans):
            args: dict[str, Any] = {
                "id": index, "parent": record[PARENT], "tick": record[TICK],
                "self_us": record[SELF] * 1e6,
            }
            if record[REQ] is not None:
                args["req"] = record[REQ]
            events.append({
                "name": record[NAME],
                "cat": layer_of(record[NAME]),
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (record[START] - origin) * 1e6,
                "dur": max(0.0, (record[END] - record[START]) * 1e6),
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(
        self, path: str, layer_of: Callable[[str], str]
    ) -> int:
        """Write the trace to ``path``; returns the event count."""
        doc = self.chrome_trace(layer_of)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return len(doc["traceEvents"])


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The timed pass's recorder: same call sites, nothing recorded."""

    enabled = False
    tick = -1
    req: str | None = None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        return None

    probe = wrap
