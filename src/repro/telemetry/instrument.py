"""Decorators and wrappers wiring telemetry into the hot seams.

The codec stack opts in at a handful of places it already owns:

* :func:`traced` — generic function decorator (span per call);
* :func:`traced_encode` / :func:`traced_picture` — applied automatically
  to every :class:`~repro.codecs.base.VideoEncoder` subclass via
  ``__init_subclass__``, giving each codec a sequence-level span, a
  per-picture span and the standard encode counters (pictures, bits,
  macroblocks) without the codecs changing a line;
* :class:`InstrumentedKernels` — per-kernel, per-backend call counters
  around a kernel backend (installed by
  :func:`repro.kernels.get_kernels` while telemetry is enabled);
* :func:`counting_cost` — wraps a motion-cost model so
  :func:`repro.me.search.run_search` can report search calls and points
  evaluated.

Every wrapper starts with ``if not state.enabled: return fn(...)`` — the
disabled path is one attribute check, so leaving the instrumentation in
place costs effectively nothing (gated by
``benchmarks/test_telemetry_overhead.py``).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional

from repro.telemetry.metrics import registry
from repro.telemetry.trace import span, state

__all__ = [
    "InstrumentedKernels",
    "counting_cost",
    "traced",
    "traced_encode",
    "traced_picture",
]


def traced(name: Optional[str] = None, **static_attrs: Any) -> Callable:
    """Decorator: run the function inside a span when telemetry is on."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not state.enabled:
                return fn(*args, **kwargs)
            with span(span_name, **static_attrs):
                return fn(*args, **kwargs)

        wrapper.__wrapped_by_telemetry__ = True
        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# encoder seams (installed by VideoEncoder.__init_subclass__)
# ---------------------------------------------------------------------------

def traced_encode(fn: Callable) -> Callable:
    """Wrap a codec's ``encode_sequence`` with a span plus encode counters."""

    @functools.wraps(fn)
    def wrapper(self, video):
        if not state.enabled:
            return fn(self, video)
        config = self.config
        with span(
            f"{self.codec_name}.encode",
            codec=self.codec_name,
            backend=getattr(config, "backend", "?"),
            width=config.width,
            height=config.height,
            frames=len(video),
        ):
            stream = fn(self, video)
        reg = registry()
        reg.counter(f"encode.{self.codec_name}.pictures").inc(stream.frame_count)
        reg.counter(f"encode.{self.codec_name}.bits").inc(8 * stream.total_bytes)
        stats = self.stats
        reg.counter("encode.macroblocks.intra").inc(stats.intra_macroblocks)
        reg.counter("encode.macroblocks.inter").inc(stats.inter_macroblocks)
        reg.counter("encode.macroblocks.skipped").inc(stats.skipped_macroblocks)
        histogram = reg.histogram(
            "encode.picture_bytes",
            buckets=(64, 256, 1024, 4096, 16384, 65536, 262144, 1048576),
        )
        for picture in stream.pictures:
            histogram.observe(len(picture.payload))
        return stream

    wrapper.__wrapped_by_telemetry__ = True
    return wrapper


def traced_picture(fn: Callable) -> Callable:
    """Wrap a codec's per-picture encode method (``_encode_picture`` or
    ``_encode_frame``) with a per-picture span."""

    @functools.wraps(fn)
    def wrapper(self, entry, *args, **kwargs):
        if not state.enabled:
            return fn(self, entry, *args, **kwargs)
        frame_type = getattr(entry, "frame_type", None)
        display = getattr(entry, "display_index", None)
        attrs = {"codec": self.codec_name}
        if frame_type is not None:
            attrs["frame_type"] = frame_type.name
        if display is not None:
            attrs["display_index"] = display
        with span(f"{self.codec_name}.encode.picture", **attrs):
            return fn(self, entry, *args, **kwargs)

    wrapper.__wrapped_by_telemetry__ = True
    return wrapper


# ---------------------------------------------------------------------------
# kernel dispatch
# ---------------------------------------------------------------------------

class InstrumentedKernels:
    """Kernel backend proxy counting calls per kernel, per backend.

    Transparent: forwards every kernel bit-exactly, satisfies
    :func:`repro.kernels.api.implements_kernel_api`, and exposes the
    wrapped backend as ``inner``.
    """

    def __init__(self, inner: object, backend: str) -> None:
        from repro.kernels.api import KERNEL_NAMES

        self.inner = inner
        self.backend = backend
        self.name = f"instrumented({backend})"
        reg = registry()
        for kernel_name in KERNEL_NAMES:
            setattr(self, kernel_name,
                    self._wrap(kernel_name, reg, backend))

    def _wrap(self, kernel_name: str, reg, backend: str):
        inner_fn = getattr(self.inner, kernel_name)
        counter = reg.counter(f"kernels.{backend}.{kernel_name}.calls")

        @functools.wraps(inner_fn)
        def counted(*args, **kwargs):
            counter.inc()
            return inner_fn(*args, **kwargs)

        return counted

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


# ---------------------------------------------------------------------------
# motion estimation
# ---------------------------------------------------------------------------

class _CountingCost:
    """Motion-cost proxy counting candidate evaluations."""

    __slots__ = ("_cost", "points")

    def __init__(self, cost: object) -> None:
        self._cost = cost
        self.points = 0

    def evaluate(self, mv):
        self.points += 1
        return self._cost.evaluate(mv)

    def evaluate_many(self, mvs):
        self.points += len(mvs)
        return self._cost.evaluate_many(mvs)

    def __getattr__(self, name: str):
        return getattr(self._cost, name)


def counting_cost(cost: object) -> _CountingCost:
    """Wrap ``cost`` so each candidate it scores is tallied in ``.points``.

    ``evaluate`` counts one point and ``evaluate_many`` one per candidate,
    so a search reports the same points whichever of the two it uses.
    """
    return _CountingCost(cost)
