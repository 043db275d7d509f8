"""Causal timeline reconstruction for one correlation id.

``hdvb-observe timeline <correlation-id>`` answers the question a
post-mortem always starts with: *what happened to this session/cell, in
order*?  It filters one record stream down to that id:

* the **telemetry stream** (a canonical JSONL file written by
  ``hdvb-bench serve --events``, or any ``repro.telemetry.event/1``
  stream), whose records are events and, when tracing was on, closed
  spans carrying the correlation scope they opened in;
* **flight-record dumps** (``repro.telemetry.flightdump/1`` files from
  ``.hdvb-bench-history/flightrec/``), whose ring events fill holes the
  bounded main log may have dropped and whose trigger/error context
  annotate the death itself.

Records are matched when any of their correlation-id values equals the
requested id, de-duplicated by ``seq`` across sources, and ordered by
``seq`` (the emission order, which under the virtual-time origin loop
is deterministic per seed); span records (those with a ``parent`` key)
are listed apart from events.  The rendered output contains no
wall-clock times, pids or file paths, so two identical seeded runs
reconstruct **identical** timelines — that property is asserted in CI.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Sequence

from repro.errors import ObserveError
from repro.telemetry.events import EVENT_SCHEMA
from repro.telemetry.flightrec import FLIGHTDUMP_SCHEMA

#: Schema of the JSON timeline document this module renders.
TIMELINE_SCHEMA = "repro.observe.timeline/1"


def load_events_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a canonical event-log JSONL file (tolerant of blank lines)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ObserveError(
            f"cannot read event log {path}: {error}") from None
    events: List[Dict[str, Any]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError as error:
            raise ObserveError(
                f"{path}:{number}: malformed event line: {error}") from None
        if not isinstance(document, dict):
            raise ObserveError(
                f"{path}:{number}: event line must be a JSON object")
        if document.get("schema") != EVENT_SCHEMA:
            raise ObserveError(
                f"{path}:{number}: schema {document.get('schema')!r}, "
                f"expected {EVENT_SCHEMA!r}")
        events.append(document)
    return events


def load_flight_dumps(directory: str) -> List[Dict[str, Any]]:
    """Every well-formed flight dump under ``directory``, sorted by name."""
    if not os.path.isdir(directory):
        return []
    dumps: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ObserveError(
                f"malformed flight dump {path}: {error}") from None
        if (isinstance(document, dict)
                and document.get("schema") == FLIGHTDUMP_SCHEMA):
            document["_file"] = name
            dumps.append(document)
    return dumps


def _matches(correlation: Dict[str, Any], wanted: str) -> bool:
    return any(str(value) == wanted for value in correlation.values())


def build_timeline(
    correlation_id: str,
    events: Sequence[Dict[str, Any]] = (),
    dumps: Sequence[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    """Filter the stream into one ``repro.observe.timeline/1`` document.

    Records of ``events`` and of matching dumps are unioned and
    de-duplicated by ``seq``; dump triggers become entries of their own
    so the death itself appears on the timeline.
    """
    merged: Dict[int, Dict[str, Any]] = {}
    for record in events:
        if _matches(record.get("correlation") or {}, correlation_id):
            merged[int(record["seq"])] = record
    triggers: List[Dict[str, Any]] = []
    open_spans: List[Dict[str, Any]] = []
    for dump in dumps:
        dump_id = dump.get("correlation_id")
        dump_scope = dump.get("correlation") or {}
        if (str(dump_id) != correlation_id
                and not _matches(dump_scope, correlation_id)):
            continue
        for record in dump.get("events", ()):
            if _matches(record.get("correlation") or {}, correlation_id):
                merged.setdefault(int(record["seq"]), record)
        triggers.append({
            "trigger": dump.get("trigger"),
            "error": dump.get("error"),
            "extra": dump.get("extra") or {},
        })
        for span in dump.get("open_spans", ()):
            open_spans.append({"name": span.get("name"),
                               "attrs": span.get("attrs") or {}})
    ordered = [merged[seq] for seq in sorted(merged)]
    return {
        "schema": TIMELINE_SCHEMA,
        "correlation_id": correlation_id,
        "events": [record for record in ordered if "parent" not in record],
        "triggers": triggers,
        "open_spans": open_spans,
        "spans": [record for record in ordered if "parent" in record],
    }


def _fields_text(fields: Dict[str, Any]) -> str:
    return " ".join(f"{key}={fields[key]}" for key in sorted(fields))


def render_timeline(timeline: Dict[str, Any]) -> str:
    """The human view: one line per event, then triggers and spans."""
    lines = [f"timeline for {timeline['correlation_id']}"]
    events: Sequence[Dict[str, Any]] = timeline.get("events", ())
    if not events:
        lines.append("  (no events)")
    for event in events:
        fields = event.get("fields") or {}
        t = fields.get("t")
        stamp = f"t={t:>8.4f}" if isinstance(t, (int, float)) else " " * 10
        extra = _fields_text({key: value for key, value in fields.items()
                              if key != "t"})
        lines.append(
            f"  #{event['seq']:>5} {stamp} {event['name']}"
            + (f"  {extra}" if extra else ""))
    for trigger in timeline.get("triggers", ()):
        error = trigger.get("error") or {}
        detail = (f" [{error.get('error')}: {error.get('message')}]"
                  if error else "")
        lines.append(f"  ! flight dump: {trigger['trigger']}{detail}")
    open_spans = timeline.get("open_spans", ())
    if open_spans:
        lines.append("  open spans at death:")
        for span in open_spans:
            lines.append(f"    - {span['name']}")
    spans = timeline.get("spans", ())
    if spans:
        lines.append("  trace spans:")
        for span in spans:
            duration = span.get("duration")
            took = (f" ({duration * 1e3:.2f} ms)"
                    if isinstance(duration, (int, float)) else "")
            lines.append(f"    - #{span['seq']} {span['name']}{took}")
    return "\n".join(lines) + "\n"


__all__ = [
    "TIMELINE_SCHEMA",
    "build_timeline",
    "load_events_jsonl",
    "load_flight_dumps",
    "render_timeline",
]
