"""``repro.telemetry`` — tracing, metrics and profiling for the codec stack.

A zero-dependency observability subsystem, **off by default**, built on
one telemetry stream: events and closed trace spans are records in the
same bounded buffer, share one ``seq`` id space and one context variable
for correlation scope and span parentage.

* :mod:`repro.telemetry.events` — the stream buffer, correlation scopes
  and the schema-versioned event log (``repro.telemetry.event/1``);
* :mod:`repro.telemetry.trace` — nestable, thread-, task- and
  process-safe spans recorded into that stream, with JSON and Chrome
  ``chrome://tracing`` export of the span records;
* :mod:`repro.telemetry.flightrec` — post-mortem dumps of the stream's
  per-correlation event rings;
* :mod:`repro.telemetry.metrics` — counters, gauges and fixed-bucket
  histograms in a process-global registry with snapshot/merge for
  multiprocess aggregation;
* :mod:`repro.telemetry.profile` — per-stage time tables (the
  Figure-1-style "where did the time go" report);
* :mod:`repro.telemetry.instrument` — the decorators/wrappers the codec
  seams use (encode/decode loops, kernel dispatch, motion search,
  parallel chunks).

Spans and events keep separate switches: :func:`enable` records spans
and arms the instrumented seams, :func:`repro.telemetry.events.enable`
records events.

Quickstart::

    import repro.telemetry as telemetry

    telemetry.enable()
    encoder = get_encoder("mpeg2", width=96, height=80)   # seams arm now
    encoder.encode_sequence(video)

    print(telemetry.render_stage_table(
        telemetry.stage_table(telemetry.current_trace())))
    bits = telemetry.registry().value("encode.mpeg2.bits")
    open("out.json", "w").write(telemetry.current_trace().to_chrome_json())

Front ends: ``hdvb-bench performance --trace out.json`` and
``hdvb-player FILE --stats``.  See ``docs/TELEMETRY.md``.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    registry,
    reset_registry,
)
from repro.telemetry.profile import (
    StageRow,
    coverage,
    render_stage_table,
    stage_table,
)
from repro.telemetry.trace import (
    NOOP_SPAN,
    Span,
    Trace,
    current_trace,
    disable,
    enable,
    enabled,
    span,
    state,
)
from repro.telemetry.trace import reset as _reset_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NOOP_SPAN",
    "Span",
    "StageRow",
    "Trace",
    "coverage",
    "current_trace",
    "disable",
    "enable",
    "enabled",
    "registry",
    "render_stage_table",
    "reset",
    "reset_registry",
    "span",
    "stage_table",
    "state",
]


def reset() -> None:
    """Clear the stream buffer *and* the process-global metrics registry."""
    _reset_trace()
    reset_registry()
