"""Always-on flight recorder (``repro.telemetry.flightdump/1``).

A bounded in-memory ring of the last N events per correlation scope,
plus the trace spans open at the dump site.  The rings are part of the
one telemetry stream (:class:`repro.telemetry.events.EventLog`): every
event :func:`repro.telemetry.events.emit` records also lands in its
scope's ring, so at steady state the cost is O(ring) and the recorder is
exactly as enabled as the event log itself — no separate switch to
forget.

When something dies — a ``SessionAborted``, a ``CrashInjected`` chaos
point, an unhandled supervisor escape, a failed observe gate — the
recorder dumps the relevant ring **atomically** (via
:func:`repro.durable.replace`) into ``.hdvb-bench-history/flightrec/``
so the post-mortem is a file, not a memory.  Dumps carry the trigger,
the error's :meth:`~repro.errors.ReproError.to_context_dict`, the ring
events in canonical (bit-reproducible) form, and the spans still open
in the dumping context at the time of death.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional

from repro import durable
from repro.chaos.fsops import FileOps
from repro.telemetry import events as _events
from repro.telemetry import trace as _trace
from repro.telemetry.events import GLOBAL_RING, jsonable

__all__ = [
    "DEFAULT_DUMP_DIR",
    "FLIGHTDUMP_SCHEMA",
    "FlightRecorder",
    "dump_flight",
    "recorder",
    "reset",
]

#: Schema identifier stamped on every dump file.
FLIGHTDUMP_SCHEMA = "repro.telemetry.flightdump/1"

#: Where dumps land unless the recorder is configured elsewhere; kept in
#: the same hidden directory as the observe history store.
DEFAULT_DUMP_DIR = os.path.join(".hdvb-bench-history", "flightrec")


class FlightRecorder:
    """Dumps of the stream's per-correlation rings, plus the dump ledger."""

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self.dump_dir = dump_dir or DEFAULT_DUMP_DIR
        self._lock = threading.Lock()
        self._dump_seq = 0
        #: paths written this process, in dump order (tests and the
        #: timeline CLI read this to find the latest post-mortem).
        self.dumps: List[str] = []

    @property
    def ring_events(self) -> int:
        """Events kept per ring (a setting of the stream buffer)."""
        return _events.current_log().ring_events

    def configure(self, *, dump_dir: Optional[str] = None,
                  ring_events: Optional[int] = None) -> None:
        if dump_dir is not None:
            self.dump_dir = dump_dir
        if ring_events is not None:
            _events.current_log().ring_events = ring_events

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def ring(self, correlation_id: Optional[str] = None) -> List[_events.Event]:
        key = GLOBAL_RING if correlation_id is None else correlation_id
        return _events.current_log().ring(key)

    def open_spans(self) -> List[Dict[str, Any]]:
        return _trace.open_spans()

    def clear(self) -> None:
        with self._lock:
            self._dump_seq = 0
            self.dumps = []

    # ------------------------------------------------------------------
    # dumps
    # ------------------------------------------------------------------

    def dump(self, trigger: str, *, correlation_id: Optional[str] = None,
             error: Optional[BaseException] = None,
             extra: Optional[Dict[str, Any]] = None,
             directory: Optional[str] = None) -> Optional[str]:
        """Atomically write the relevant ring to a post-mortem file.

        A no-op (returns ``None``) while the event log is disabled: with
        nothing feeding the rings there is nothing worth persisting, and
        the disabled path must stay free of filesystem traffic.
        """
        if not _events.state.enabled:
            return None
        if correlation_id is None:
            correlation_id = _events.correlation_id()
        events = self.ring(correlation_id)
        if correlation_id is not None and not events:
            events = self.ring(None)
        document = {
            "schema": FLIGHTDUMP_SCHEMA,
            "trigger": trigger,
            "correlation_id": correlation_id,
            "correlation": _events.current_correlation(),
            "error": _error_context(error),
            "extra": {key: jsonable(value)
                      for key, value in sorted((extra or {}).items())},
            "events": [event.canonical_dict() for event in events],
            "open_spans": self.open_spans(),
        }
        with self._lock:
            self._dump_seq += 1
            seq = self._dump_seq
        target_dir = directory or self.dump_dir
        name = "{0}-{1}-{2:04d}.json".format(
            _safe(correlation_id or "global"), _safe(trigger), seq)
        path = os.path.join(target_dir, name)
        os.makedirs(target_dir, exist_ok=True)
        payload = json.dumps(document, sort_keys=True, indent=2, default=str)
        # Passthrough ops, never the chaos seam: a dump taken inside
        # ChaosFS.maybe_crash must neither draw from the seeded fault
        # stream (shifting every later fault) nor be faulted itself.
        durable.replace(path, payload.encode("utf-8"), ops=FileOps())
        with self._lock:
            self.dumps.append(path)
        return path


def _error_context(error: Optional[BaseException]) -> Optional[Dict[str, Any]]:
    if error is None:
        return None
    to_context = getattr(error, "to_context_dict", None)
    if callable(to_context):
        return {key: jsonable(value)
                for key, value in to_context().items()}
    return {"error": type(error).__name__, "message": str(error)}


def _safe(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "-"
                   for ch in text) or "global"


#: The process-global recorder.
recorder = FlightRecorder()


def dump_flight(trigger: str, **kwargs: Any) -> Optional[str]:
    """Module-level convenience over :meth:`FlightRecorder.dump`."""
    return recorder.dump(trigger, **kwargs)


def reset() -> None:
    """Drop the dump ledger (the rings reset with the stream buffer)."""
    recorder.clear()
