"""Nestable, thread-, task- and process-safe tracing spans.

The paper's headline output is *attribution* — Figure 1 only exists
because time could be charged to codec stages.  This module provides the
raw material for that attribution: lightweight spans recording wall time,
nesting and user attributes into the one telemetry stream of
:mod:`repro.telemetry.events`.

Telemetry is **off by default**.  When disabled, :func:`span` returns a
shared no-op context manager without allocating anything, so the
instrumented seams cost one flag check::

    from repro.telemetry import enable, span

    enable()
    with span("mpeg2.encode", backend="simd") as sp:
        with span("mpeg2.encode.picture", frame_type="I"):
            ...
        sp.set(frames=9)

A span that exits through an exception still closes and records the
exception class under the ``error`` attribute (the exception propagates).

A span takes its id from the stream's ``seq`` counter when it opens and,
when it closes, appends one record (name, attrs, id, parent id, start,
end and the correlation scope active at open) to the same buffer
:func:`repro.telemetry.events.emit` uses.  The innermost open span lives
in the stream's context variable, next to the correlation scope, so
parent links follow the context: never across threads, and never across
``asyncio`` tasks interleaving on one thread (a task inherits the span
open when it was created).  Each process keeps its own buffer; worker
processes ship their data back explicitly (see
:meth:`repro.telemetry.metrics.MetricsRegistry.merge`).

Tracing and the event log keep separate switches (:func:`enable` here,
:func:`repro.telemetry.events.enable` there), so a run can record spans
without events or events without spans.

Export formats (:class:`Trace`, the span view of the buffer):

* :meth:`Trace.to_dict` / :meth:`Trace.to_json` — the library's own
  schema (``{"schema": "repro.telemetry.trace/1", "spans": [...]}``);
* :meth:`Trace.to_chrome` — Chrome trace-event JSON, loadable in
  ``chrome://tracing`` / Perfetto (complete ``"ph": "X"`` events).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.telemetry import events as _events
from repro.telemetry.events import Event, EventLog, jsonable, reset

__all__ = [
    "NOOP_SPAN",
    "Span",
    "Trace",
    "TelemetryState",
    "current_trace",
    "disable",
    "enable",
    "enabled",
    "open_spans",
    "reset",
    "span",
    "state",
]

#: Schema identifier stamped into the library's own JSON export.
TRACE_SCHEMA = "repro.telemetry.trace/1"


class Trace:
    """The span records of one stream buffer, with the trace exports."""

    def __init__(self, log: EventLog) -> None:
        self.log = log

    @property
    def dropped(self) -> int:
        """Records (spans or events) the buffer cap dropped."""
        return self.log.dropped

    def spans(self, name: Optional[str] = None) -> List[Event]:
        """Closed spans in closing order (optionally only ``name``)."""
        return [record for record in self.log.records(name)
                if record.start is not None]

    def __len__(self) -> int:
        return len(self.spans())

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The library's own JSON-serialisable schema."""
        return {
            "schema": TRACE_SCHEMA,
            "epoch": self.log.epoch,
            "dropped": self.dropped,
            "spans": [{
                "id": record.seq,
                "parent": record.parent_id,
                "name": record.name,
                "start": record.start,
                "end": record.end,
                "duration": record.duration,
                "pid": record.pid,
                "tid": record.tid,
                "attrs": record.fields,
            } for record in self.spans()],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_chrome(self, metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Chrome trace-event format (``chrome://tracing`` loadable).

        Spans become complete events (``"ph": "X"``); timestamps are
        microseconds relative to the trace origin.
        """
        events: List[Dict[str, Any]] = []
        names_seen = set()
        for record in self.spans():
            if record.pid not in names_seen:
                names_seen.add(record.pid)
                events.append({
                    "name": "process_name",
                    "ph": "M",
                    "pid": record.pid,
                    "tid": record.tid,
                    "args": {"name": f"repro pid {record.pid}"},
                })
            events.append({
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ph": "X",
                "ts": (record.start - self.log.origin) * 1e6,
                "dur": record.duration * 1e6,
                "pid": record.pid,
                "tid": record.tid,
                "args": {key: jsonable(value)
                         for key, value in record.fields.items()},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}, schema=TRACE_SCHEMA,
                              epoch=self.log.epoch, dropped=self.dropped),
        }

    def to_chrome_json(self, indent: Optional[int] = None,
                       metadata: Optional[Dict[str, Any]] = None) -> str:
        return json.dumps(self.to_chrome(metadata), indent=indent, default=str)


class TelemetryState:
    """Process-global tracing switch."""

    def __init__(self) -> None:
        self.enabled = False


#: The process-global state.  Hot seams read ``state.enabled`` directly.
state = TelemetryState()


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """A live span; use via ``with span(...)``."""

    __slots__ = ("name", "attrs", "span_id", "_outer", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach or update user attributes on the live span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.span_id = _events.state.log.allocate_seq()
        # (correlation scope, enclosing span) as this span opened.
        self._outer = outer = _events._scope_var.get()
        _events._scope_var.set((outer[0], self))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        scope, parent = outer = self._outer
        # Restore the outer value rather than reset a token, which
        # raises if the span exits in another context (a generator
        # resumed elsewhere).
        _events._scope_var.set(outer)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        _events.state.log.record(Event(
            seq=self.span_id,
            name=self.name,
            wall=None,
            pid=os.getpid(),
            tid=threading.get_ident(),
            correlation=dict(scope),
            fields=self.attrs,
            parent_id=None if parent is None else parent.span_id,
            start=self._start,
            end=end,
        ))
        return False


def span(name: str, **attrs: Any):
    """Open a span named ``name``; no-op when telemetry is disabled."""
    if not state.enabled:
        return NOOP_SPAN
    return Span(name, attrs)


def open_spans() -> List[Dict[str, Any]]:
    """The spans open in the current context, outermost first."""
    chain: List[Dict[str, Any]] = []
    current = _events._scope_var.get()[1]
    while current is not None:
        scope, outer = current._outer
        chain.append({
            "id": current.span_id,
            "name": current.name,
            "attrs": {key: jsonable(value)
                      for key, value in sorted(current.attrs.items())},
            "correlation": dict(scope),
        })
        current = outer
    chain.reverse()
    return chain


def enable(max_records: Optional[int] = None) -> None:
    """Turn tracing on (spans, metrics and instrumented seams);
    ``max_records`` sets the one stream cap."""
    if max_records is not None:
        _events.state.log.max_records = max_records
    state.enabled = True


def disable() -> None:
    """Turn telemetry off; buffered data is kept until :func:`reset`."""
    state.enabled = False


def enabled() -> bool:
    return state.enabled


def current_trace() -> Trace:
    """The span view of the process-global stream buffer."""
    return Trace(_events.state.log)
