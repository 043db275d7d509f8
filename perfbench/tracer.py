"""Per-layer self-time tracer that wraps the program's public seams.

The tracer replaces a function or method at the name its callers
resolve (a module attribute such as ``repro.codecs.h264.encoder.
run_search``, or a class attribute such as ``SimdKernels.sad``) with a
wrapper that times the call and charges it to a named layer.  A layer's
self time is the duration of its spans minus the time of the spans
nested inside them, so the self times of all layers add up to the traced
wall time that lies inside any span.

Entropy entries additionally count bits: at the outermost entropy call
the wrapper reads ``bit_position`` of the reader/writer argument before
and after the call.  No per-bit method is wrapped.

Nothing is installed at import; :meth:`Tracer.install` patches and
:meth:`Tracer.restore` puts every original back, also when the traced
code raised.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Layer:
    """Accumulators of one layer."""

    __slots__ = ("name", "self_s", "calls", "bits", "nested")

    def __init__(self, name: str) -> None:
        self.name = name
        self.self_s = 0.0
        self.calls = 0
        self.bits = 0
        #: kernel-group calls made while a span of this layer was open.
        self.nested = 0


class Seam:
    """One patch point: ``owner.attr`` charged to ``layer``.

    ``bit_arg`` is the positional index of the BitReader/BitWriter
    argument of an entropy entry (``None`` elsewhere).  ``nested_group``
    names a layer whose calls made inside this seam are counted on this
    layer's ``nested`` field (for example kernel cost calls per search).
    ``counter`` names an extra layer that only counts calls and bits,
    without taking self time (used for the CAVLC share of entropy).
    """

    __slots__ = ("owner", "attr", "layer", "bit_arg", "nested_group", "counter")

    def __init__(self, owner: Any, attr: str, layer: str,
                 bit_arg: Optional[int] = None,
                 nested_group: Optional[str] = None,
                 counter: Optional[str] = None) -> None:
        self.owner = owner
        self.attr = attr
        self.layer = layer
        self.bit_arg = bit_arg
        self.nested_group = nested_group
        self.counter = counter


class Tracer:
    """Installs timing wrappers on seams and accumulates per-layer totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: Dict[str, Layer] = {}
        # One [child_seconds] cell per open span, innermost last.
        self._stack: List[List[float]] = []
        self._entropy_depth = [0]
        self._patched: List[Tuple[Any, str, Callable]] = []

    def layer(self, name: str) -> Layer:
        found = self.layers.get(name)
        if found is None:
            found = self.layers[name] = Layer(name)
        return found

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def wrap(self, fn: Callable, seam: Seam) -> Callable:
        """The timing wrapper for ``fn`` at ``seam``.

        The span bookkeeping is written out in each wrapper rather than
        shared through a helper: wrappers run on every kernel call, and a
        further Python call per span would add to the tracing overhead.
        """
        layer = self.layer(seam.layer)
        stack = self._stack
        clock = self.clock
        if seam.bit_arg is not None:
            return self._wrap_entropy(fn, seam, layer)
        if seam.nested_group is not None:
            group = self.layer(seam.nested_group)

            def nested_wrapper(*args, **kwargs):
                cell = [0.0]
                stack.append(cell)
                before = group.calls
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    layer.self_s += elapsed - cell[0]
                    layer.calls += 1
                    layer.nested += group.calls - before
                    if stack:
                        stack[-1][0] += elapsed

            return nested_wrapper

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                layer.self_s += elapsed - cell[0]
                layer.calls += 1
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _wrap_entropy(self, fn: Callable, seam: Seam, layer: Layer) -> Callable:
        stack = self._stack
        clock = self.clock
        depth = self._entropy_depth
        bit_arg = seam.bit_arg
        counter = self.layer(seam.counter) if seam.counter else None

        def entropy_wrapper(*args, **kwargs):
            outermost = depth[0] == 0
            stream = args[bit_arg] if outermost else None
            first_bit = stream.bit_position if outermost else 0
            depth[0] += 1
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[0] -= 1
                layer.self_s += elapsed - cell[0]
                layer.calls += 1
                if stack:
                    stack[-1][0] += elapsed
                if outermost:
                    bits = stream.bit_position - first_bit
                    layer.bits += bits
                    if counter is not None:
                        counter.bits += bits
                if counter is not None:
                    counter.calls += 1

        return entropy_wrapper

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of benchmark work out of the open span's self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    @contextlib.contextmanager
    def span(self, layer_name: str) -> Iterator[None]:
        """A ``with`` block timed as one span of ``layer_name``."""
        layer = self.layer(layer_name)
        cell = [0.0]
        self._stack.append(cell)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            layer.self_s += elapsed - cell[0]
            layer.calls += 1
            if self._stack:
                self._stack[-1][0] += elapsed

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def install(self, seams: Sequence[Seam]) -> None:
        """Patch every seam; on a bad seam nothing stays patched.

        A seam must name the module or class that defines the attribute,
        so that restoring is a plain ``setattr`` of the original.
        """
        try:
            for seam in seams:
                original = vars(seam.owner)[seam.attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{seam.owner!r}.{seam.attr} is not a plain function")
                setattr(seam.owner, seam.attr, self.wrap(original, seam))
                self._patched.append((seam.owner, seam.attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def attributed_s(self) -> float:
        """Sum of self time over all layers."""
        return sum(layer.self_s for layer in self.layers.values())

