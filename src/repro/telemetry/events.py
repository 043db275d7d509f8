"""The telemetry stream and its correlated event log (``repro.telemetry.event/1``).

Where :mod:`repro.telemetry.trace` answers *where did the time go*, this
module answers *what happened, in what order, to which session*.  Events
are discrete, schema-versioned records emitted at state transitions —
a session degrading a rung, a cell failing, a chunk falling back to the
serial path — and every event carries the **correlation ids** of the
scope it happened in::

    from repro.telemetry.events import correlation_scope, emit, enable

    enable()
    with correlation_scope(session_id="s0042"):
        emit("session.state", state="streaming")

Events and trace spans are one stream.  A closed span lands as one
record in the same bounded, lock-protected :class:`EventLog` that
:func:`emit` appends to, its span id drawn from the same ``seq``
counter, carrying the correlation scope that was active when it opened.
One :mod:`contextvars` variable holds both the correlation scope and the
innermost open span, so scopes and span parents propagate through
``asyncio`` task creation and ``with`` blocks alike.

Like tracing, the event log is **off by default**: :func:`emit` costs a
single flag check when disabled (no allocation, no contextvar read), so
instrumented seams stay inside the telemetry overhead gate.  When
enabled, events are buffered process-globally (thread-safe, bounded) and
also kept in the per-correlation flight-recorder rings that
:mod:`repro.telemetry.flightrec` dumps.

Determinism: the canonical export (:meth:`Event.canonical_dict`,
:meth:`EventLog.to_jsonl`) deliberately excludes wall-clock time, pid,
tid and span timings, so a seeded run produces a **bit-identical** event
log; virtual time from the deterministic origin loop travels as an
ordinary ``t`` field supplied by the emitter.

Event names come from the frozen :data:`EVENT_NAMES` registry (enforced
here at runtime and by lint rule HDVB210 statically); span names are
free-form.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (Any, Deque, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

__all__ = [
    "EVENT_NAMES",
    "EVENT_SCHEMA",
    "Event",
    "EventLog",
    "correlation_id",
    "correlation_scope",
    "current_correlation",
    "current_log",
    "disable",
    "emit",
    "enable",
    "enabled",
    "most_specific_id",
    "reset",
]

#: Schema identifier stamped on every exported record.
EVENT_SCHEMA = "repro.telemetry.event/1"

#: Default cap on buffered records (events and spans together); beyond
#: it records are counted and dropped, but events still reach the
#: flight-recorder rings.
DEFAULT_MAX_RECORDS = 250_000

#: Events retained per correlation scope (and in the global ring).
DEFAULT_RING_EVENTS = 256

#: Ring key for events emitted outside any correlation scope.
GLOBAL_RING = ""

#: The frozen event-name registry.  ``emit()`` rejects names outside it
#: and lint rule HDVB210 enforces the same set statically, so the
#: timeline vocabulary cannot drift per call site.
EVENT_NAMES: Tuple[str, ...] = (
    # origin session lifecycle
    "session.state",
    "session.epoch",
    "session.retry",
    "session.degrade",
    "session.abort",
    "session.chaos",
    "session.corrupt",
    "session.deadline_miss",
    # origin server / admission
    "origin.admit",
    "origin.reject",
    "origin.escape",
    # segment cache
    "cache.hit",
    "cache.wait",
    "cache.encode",
    # orchestrate cells
    "cell.start",
    "cell.done",
    "cell.fail",
    # parallel encode chunks
    "chunk.retry",
    "chunk.fallback",
    # chaos / flight recorder
    "crash.injected",
    "flight.dump",
)

_EVENT_NAME_SET = frozenset(EVENT_NAMES)

#: Correlation-id keys ordered most-specific first; see
#: :func:`most_specific_id`.
_ID_PRECEDENCE = ("session_id", "cell_id", "run_id")


class Event:
    """One record of the stream: an emitted event or a closed span.

    A span record has ``start``/``end`` (``perf_counter`` seconds) and a
    ``parent_id``; its ``seq`` is the span id and its ``fields`` are the
    span attributes (also readable as ``span_id`` and ``attrs``).
    """

    __slots__ = ("seq", "name", "wall", "pid", "tid", "correlation",
                 "fields", "parent_id", "start", "end")

    def __init__(self, seq: int, name: str, wall: Optional[float], pid: int,
                 tid: int, correlation: Dict[str, str],
                 fields: Dict[str, Any], parent_id: Optional[int] = None,
                 start: Optional[float] = None,
                 end: Optional[float] = None) -> None:
        self.seq = seq
        self.name = name
        self.wall = wall
        self.pid = pid
        self.tid = tid
        self.correlation = correlation
        self.fields = fields
        self.parent_id = parent_id
        self.start = start
        self.end = end

    @property
    def span_id(self) -> int:
        return self.seq

    @property
    def attrs(self) -> Dict[str, Any]:
        return self.fields

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """Full record, including the non-reproducible pid/tid and the
        wall clock (events) or ``perf_counter`` timings (spans)."""
        data = self.canonical_dict()
        if self.start is None:
            data["wall"] = self.wall
        else:
            data.update(start=self.start, end=self.end,
                        duration=self.duration)
        data["pid"] = self.pid
        data["tid"] = self.tid
        return data

    def canonical_dict(self) -> Dict[str, Any]:
        """The deterministic export: no wall clock, pid, tid or timings,
        fields in sorted key order — bit-identical across seeded runs.
        Span records add their ``parent`` id."""
        data = {
            "schema": EVENT_SCHEMA,
            "seq": self.seq,
            "name": self.name,
            "correlation": {key: self.correlation[key]
                            for key in sorted(self.correlation)},
            "fields": {key: jsonable(self.fields[key])
                       for key in sorted(self.fields)},
        }
        if self.start is not None:
            data["parent"] = self.parent_id
        return data

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event({self.seq}, {self.name!r}, "
                f"correlation={self.correlation}, fields={self.fields})")


def jsonable(value: Any) -> Any:
    """``value`` as plain JSON data: containers recurse, others ``str()``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return str(value)


def most_specific_id(correlation: Mapping[str, str]) -> Optional[str]:
    """The most specific id of a correlation mapping (session > cell >
    run, else the first key in sorted order); ``None`` when empty."""
    for key in _ID_PRECEDENCE:
        value = correlation.get(key)
        if value is not None:
            return value
    for key in sorted(correlation):
        return correlation[key]
    return None


class EventLog:
    """The one bounded, thread-safe buffer of events and closed spans.

    Every event also lands in the flight-recorder ring of its most
    specific correlation id and in the global ring; the rings keep the
    last ``ring_events`` events each, even after the cap starts dropping
    records from the buffer.
    """

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS,
                 ring_events: int = DEFAULT_RING_EVENTS) -> None:
        self._lock = threading.Lock()
        self._records: List[Event] = []
        self._rings: Dict[str, Deque[Event]] = {}
        self._next_seq = 1
        self.max_records = max_records
        self.ring_events = ring_events
        self.dropped = 0
        #: wall-clock (``time.time``) and monotonic (``perf_counter``)
        #: origins, used to place spans on an absolute timeline.
        self.epoch = time.time()
        self.origin = time.perf_counter()

    def allocate_seq(self) -> int:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    def record(self, record: Event) -> None:
        ring_key = (None if record.start is not None
                    else most_specific_id(record.correlation) or GLOBAL_RING)
        with self._lock:
            if len(self._records) < self.max_records:
                self._records.append(record)
            else:
                self.dropped += 1
            if ring_key is None:
                return
            self._ring(ring_key).append(record)
            if ring_key != GLOBAL_RING:
                self._ring(GLOBAL_RING).append(record)

    def _ring(self, key: str) -> Deque[Event]:
        ring = self._rings.get(key)
        if ring is None:
            ring = self._rings[key] = deque(maxlen=self.ring_events)
        return ring

    def ring(self, key: str) -> List[Event]:
        """The flight-recorder ring of correlation id ``key``."""
        with self._lock:
            return list(self._rings.get(key, ()))

    def records(self, name: Optional[str] = None) -> List[Event]:
        """Buffered records in arrival order (optionally only ``name``)."""
        with self._lock:
            records = list(self._records)
        if name is None:
            return records
        return [record for record in records if record.name == name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def to_jsonl(self, canonical: bool = True) -> str:
        """One canonical JSON document per line (the reproducible export)."""
        if canonical:
            lines = [record.canonical_json() for record in self.records()]
        else:
            lines = [json.dumps(record.to_dict(), sort_keys=True,
                                separators=(",", ":"), default=str)
                     for record in self.records()]
        return "".join(line + "\n" for line in lines)


class EventState:
    """Process-global event switch plus the one stream buffer."""

    def __init__(self) -> None:
        self.enabled = False
        self.log = EventLog()


#: The process-global state.  Hot seams read ``state.enabled`` directly.
state = EventState()

#: The one telemetry context variable: the active correlation ids (an
#: immutable sorted tuple of pairs, so nested scopes copy cheaply and
#: compare deterministically) and the innermost open span (``None``
#: outside any span; :mod:`repro.telemetry.trace` sets it).
_scope_var: ContextVar[Tuple[Tuple[Tuple[str, str], ...], Any]] = ContextVar(
    "hdvb_telemetry_scope", default=((), None))


@contextmanager
def correlation_scope(**ids: Any) -> Iterator[Dict[str, str]]:
    """Bind correlation ids for the dynamic extent of the ``with`` block.

    Scopes nest and merge — an inner ``correlation_scope(cell_id=...)``
    inherits the outer ``run_id`` and overrides any clashing key.  The
    binding lives in a :class:`~contextvars.ContextVar`, so tasks created
    inside the scope inherit it (``asyncio`` copies the context at
    ``create_task`` time).
    """
    scope, open_span = _scope_var.get()
    merged = dict(scope)
    for key, value in ids.items():
        if value is None:
            continue
        merged[key] = str(value)
    token = _scope_var.set((tuple(sorted(merged.items())), open_span))
    try:
        yield merged
    finally:
        _scope_var.reset(token)


def current_correlation() -> Dict[str, str]:
    """The active correlation ids (empty outside any scope)."""
    return dict(_scope_var.get()[0])


def correlation_id() -> Optional[str]:
    """The most specific active id (session > cell > run), else any."""
    return most_specific_id(current_correlation())


def emit(name: str, **fields: Any) -> Optional[Event]:
    """Record event ``name``; a single flag check when disabled."""
    if not state.enabled:
        return None
    return _emit(name, fields)


def _emit(name: str, fields: Dict[str, Any]) -> Event:
    if name not in _EVENT_NAME_SET:
        # Lazy import: telemetry stays dependency-free on the fast path
        # and repro.errors itself lazily reads the correlation scope.
        from repro.errors import ConfigError
        raise ConfigError(
            f"unregistered event name {name!r}; add it to "
            f"repro.telemetry.events.EVENT_NAMES (HDVB210)")
    log = state.log
    event = Event(
        seq=log.allocate_seq(),
        name=name,
        wall=time.time(),
        pid=os.getpid(),
        tid=threading.get_ident(),
        correlation=current_correlation(),
        fields=fields,
    )
    log.record(event)
    return event


def enable(max_records: Optional[int] = None) -> None:
    """Turn the event log on; ``max_records`` sets the one stream cap."""
    if max_records is not None:
        state.log.max_records = max_records
    state.enabled = True


def disable() -> None:
    """Turn the event log off; buffered events kept until :func:`reset`."""
    state.enabled = False


def enabled() -> bool:
    return state.enabled


def current_log() -> EventLog:
    """The process-global stream buffer (events and spans)."""
    return state.log


def reset() -> None:
    """Discard every buffered record, restart ``seq`` and the timeline
    origin, and clear the flight-recorder rings and dump ledger.  The
    cap and ring depth carry over."""
    state.log = EventLog(state.log.max_records, state.log.ring_events)
    from repro.telemetry import flightrec
    flightrec.reset()
