"""The four workloads: set-up, one pass of measured work, and checks.

A workload object is built for one seed.  ``setup()`` makes its inputs,
``run_pass()`` performs one fixed unit of work (the same work every time
it is called with the same pass index) and records timings and checks,
and ``figures()`` turns the timings into the named end-to-end figures.
All work runs in this process on one thread: no pools, cell
``workers=1`` and ``scheduler_workers=1``.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import inputs

clock = time.perf_counter

#: Nominal duration of one reference slice, in seconds.
REFERENCE_SLICE_S = 0.002
#: Seconds between reference slices.
SAMPLE_INTERVAL_S = 0.05
#: Items with fewer slices inside them use this many of the latest ones.
MIN_SAMPLES = 5
_A = np.arange(64, dtype=np.int32).reshape(8, 8)
_B = _A[::-1].copy()


def reference_slice() -> float:
    """Seconds one fixed slice of benchmark-owned work takes right now.

    The slice mixes small NumPy block operations with integer Python
    loops, like the codecs' inner loops; it tracked the host's speed
    better than either kind of work alone.  It lives in the benchmark, so
    no change to the program can alter it.
    """
    start = clock()
    acc = 0
    table = {}
    for i in range(300):
        acc += int(np.abs(_A + (i & 15) - _B).sum())
        for _ in range(8):
            acc ^= (acc << 1) & 0xFFFF
        table[i & 63] = acc
    return clock() - start


class Timer:
    """Times work items in wall seconds and in calibrated seconds.

    The host this runs on is shared, and its speed drifts by tens of
    percent, within seconds and over minutes.  While the timer is entered,
    a ``SIGALRM`` every ``SAMPLE_INTERVAL_S`` runs one reference slice in
    the main thread, between two bytecodes of whatever runs.  An item's
    wall time excludes the slices that ran inside it; its calibrated time
    is that wall time scaled by ``REFERENCE_SLICE_S`` over the mean slice
    inside it (or over the latest ``MIN_SAMPLES`` for a short item): what
    the item would have taken while a slice took ``REFERENCE_SLICE_S``.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Calibrated seconds of every item timed so far.
        self.calibrated_s = 0.0
        #: Called with each slice's duration (the tracer excludes it).
        self.on_sample: Optional[Callable[[float], None]] = None

    def __enter__(self) -> "Timer":
        self.samples.extend(reference_slice() for _ in range(MIN_SAMPLES))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum: int, frame: Any) -> None:
        seconds = reference_slice()
        self.samples.append(seconds)
        if self.on_sample is not None:
            self.on_sample(seconds)

    def time(self, fn: Callable[..., Any], *args, **kwargs) -> Tuple[Any, float, float]:
        """``(result, wall_s, calibrated_s)`` of ``fn(*args, **kwargs)``."""
        first = len(self.samples)
        start = clock()
        result = fn(*args, **kwargs)
        elapsed = clock() - start
        inside = self.samples[first:]
        wall = elapsed - sum(inside)
        speed = inside if len(inside) >= MIN_SAMPLES else self.samples[-MIN_SAMPLES:]
        calibrated = wall * REFERENCE_SLICE_S / statistics.fmean(speed)
        self.calibrated_s += calibrated
        return result, wall, calibrated


class Checks:
    """Attempted/failed tallies that feed ``error_rate``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Rate:
    """A count over time, kept in wall and in calibrated seconds."""

    __slots__ = ("count", "wall", "calibrated")

    def __init__(self) -> None:
        self.count = 0.0
        self.wall = 0.0
        self.calibrated = 0.0

    def add(self, count: float, wall: float, calibrated: float) -> None:
        self.count += count
        self.wall += wall
        self.calibrated += calibrated

    def value(self, calibrated: bool = True) -> float:
        seconds = self.calibrated if calibrated else self.wall
        return self.count / seconds if seconds > 0 else 0.0


def pooled(rates: List[Rate]) -> Rate:
    total = Rate()
    for rate in rates:
        total.add(rate.count, rate.wall, rate.calibrated)
    return total


class Workload:
    """Base class; subclasses define the four workloads."""

    name = ""
    #: Set-ups timed per run (median reported); 1 where one set-up is long.
    setup_reps = 3
    #: Passes a run makes at least, whatever ``--seconds`` says.
    min_passes = 1
    #: Layer of the span ``root()`` opens around the workload's entry call.
    root_layer = ""

    def __init__(self, seed: int, checks: Checks,
                 baseline: Optional[Dict[str, Dict[str, str]]], timer: Timer) -> None:
        self.seed = seed
        self.checks = checks
        #: Recorded digests; ``None`` records instead of checking.
        self.baseline = baseline
        self.digests: Dict[str, str] = {}
        self.timer = timer
        #: Wall and calibrated seconds of every timed pass item.
        self.wall_s = 0.0
        self.calibrated_s = 0.0
        #: Set on a traced run.
        self.tracer = None

    def timed(self, fn: Callable[..., Any], *args, **kwargs) -> Tuple[Any, float, float]:
        result, wall, calibrated = self.timer.time(fn, *args, **kwargs)
        self.wall_s += wall
        self.calibrated_s += calibrated
        return result, wall, calibrated

    def root(self):
        """Span around the workload's entry call on a traced run."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(self.root_layer)

    def check_digest(self, key: str, value: str) -> None:
        """Compare with the digest recorded in ``baseline.json``."""
        self.digests[key] = value
        if self.baseline is None:
            return
        recorded = self.baseline.get(self.name, {})
        self.checks.check(recorded.get(key) == value,
                          f"{key}: digest {value[:12]} != recorded "
                          f"{str(recorded.get(key))[:12]}")

    def setup(self) -> None:
        """Build the inputs, timing the work through ``self.timer``."""
        raise NotImplementedError

    def run_pass(self, index: int) -> None:
        raise NotImplementedError

    def throughputs(self) -> Tuple[Rate, Rate]:
        """The (primary, secondary) rates of the end-to-end metrics."""
        raise NotImplementedError

    def figures(self) -> Dict[str, Tuple[Any, str]]:
        """Named figures for the human-readable table: a Rate or a number."""
        raise NotImplementedError

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer counts the program reports itself (trace run only)."""
        return {}

    def close(self) -> None:
        """Remove anything the workload wrote."""


class _Fig1(Workload):
    """Shared bookkeeping of the two Figure 1 workloads."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.rates: Dict[str, Rate] = {}

    def tally(self, key: str, frames: int, wall: float, calibrated: float) -> None:
        self.rates.setdefault(key, Rate()).add(frames, wall, calibrated)

    def pooled(self, keys) -> Rate:
        return pooled([self.rates[key] for key in keys])


class Fig1Encode(_Fig1):
    """Figure 1(d): SIMD encode of every clip with the three codecs."""

    name = "fig1-encode"

    def setup(self) -> None:
        self.jobs, _, _ = self.timer.time(inputs.fig1_jobs, self.seed, inputs.ENCODE_TIER,
                                          inputs.ENCODE_FRAMES)
        self.fields = {codec: inputs.encoder_fields(codec, inputs.ENCODE_TIER)
                       for codec in inputs.FIG1_CODECS}

    def run_pass(self, index: int) -> None:
        from repro.codecs import get_encoder

        for name, codec, clip in self.jobs:
            encoder = get_encoder(codec, **self.fields[codec])
            stream, wall, calibrated = self.timed(encoder.encode_sequence, clip)
            self.tally(codec, len(clip), wall, calibrated)
            self.check_digest(f"{name}/{codec}", inputs.stream_digest(stream))

    def throughputs(self) -> Tuple[Rate, Rate]:
        return self.pooled(inputs.FIG1_CODECS), self.pooled(("mpeg2", "mpeg4"))

    def figures(self) -> Dict[str, Tuple[Any, str]]:
        return {f"fps.{codec}": (self.rates[codec], "1/s")
                for codec in inputs.FIG1_CODECS}


class Fig1Decode(_Fig1):
    """Figure 1(b) SIMD decode, then Figure 1(a) scalar decode."""

    name = "fig1-decode"
    setup_reps = 1

    def setup(self) -> None:
        from repro.codecs import get_encoder

        self.streams = []
        jobs, _, _ = self.timer.time(inputs.fig1_jobs, self.seed, inputs.DECODE_TIER,
                                     inputs.DECODE_FRAMES)
        for name, codec, clip in jobs:
            encoder = get_encoder(codec, **inputs.encoder_fields(codec, inputs.DECODE_TIER))
            stream, _, _ = self.timer.time(encoder.encode_sequence, clip)
            self.check_digest(f"{name}/{codec}/stream", inputs.stream_digest(stream))
            self.streams.append((name, codec, stream))

    def run_pass(self, index: int) -> None:
        from repro.codecs import get_decoder

        for name, codec, stream in self.streams:
            decoded = {}
            for backend in ("simd", "scalar"):
                decoder = get_decoder(codec, backend=backend)
                frames, wall, calibrated = self.timed(decoder.decode, stream)
                key = codec if backend == "simd" else f"scalar.{codec}"
                self.tally(key, len(frames), wall, calibrated)
                decoded[backend] = inputs.frames_digest(frames)
            self.check_digest(f"{name}/{codec}/frames", decoded["simd"])
            self.checks.check(decoded["simd"] == decoded["scalar"],
                              f"{name}/{codec}: scalar and SIMD decodes differ")

    def throughputs(self) -> Tuple[Rate, Rate]:
        return (self.pooled(inputs.FIG1_CODECS),
                self.pooled([f"scalar.{codec}" for codec in inputs.FIG1_CODECS]))

    def figures(self) -> Dict[str, Tuple[Any, str]]:
        out: Dict[str, Tuple[Any, str]] = {
            f"fps.{codec}": (self.rates[codec], "1/s") for codec in inputs.FIG1_CODECS}
        out["scalar_fps"] = (self.throughputs()[1], "1/s")
        return out


class Serve(Workload):
    """``run_serve``: 60 h264 clients per traffic seed, default chaos/loss."""

    name = "serve"
    #: Each distinct traffic seed once, then the first again, so every
    #: run repeats one seed and compares the fingerprints.
    min_passes = inputs.SERVE_SEEDS + 1
    root_layer = "origin.loop"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sessions = Rate()
        self.frames = Rate()
        self.fingerprints: Dict[int, str] = {}
        self.miss_rates: Dict[int, float] = {}
        self.encodes = 0
        self.lookups = 0
        self.hits = 0

    def setup(self) -> None:
        # run_serve generates each population from its traffic seed itself,
        # so the set-up beyond the program import is choosing the seeds.
        self.seeds, _, _ = self.timer.time(inputs.traffic_seeds, self.seed)

    def _serve(self, traffic_seed: int):
        from repro.origin.bench import run_serve

        with self.root():
            return run_serve(clients=inputs.SERVE_CLIENTS, seeds=(traffic_seed,),
                             codecs=inputs.SERVE_CODECS)[0]

    def run_pass(self, index: int) -> None:
        traffic_seed = self.seeds[index % len(self.seeds)]
        report, wall, calibrated = self.timed(self._serve, traffic_seed)
        self.sessions.add(report.completed, wall, calibrated)
        self.frames.add(report.frames_delivered, wall, calibrated)
        self.encodes += report.encodes
        self.hits += report.cache_hits + report.cache_flight_waits
        self.lookups += report.encodes + report.cache_hits + report.cache_flight_waits
        seen = self.fingerprints.setdefault(traffic_seed, report.fingerprint)
        self.checks.check(seen == report.fingerprint,
                          f"traffic seed {traffic_seed}: fingerprint changed "
                          "between repetitions")
        self.checks.check(report.graceful_rate == 1.0,
                          f"traffic seed {traffic_seed}: graceful rate "
                          f"{report.graceful_rate}")
        self.checks.check(report.unhandled_escapes == 0,
                          f"traffic seed {traffic_seed}: "
                          f"{report.unhandled_escapes} unhandled escapes")
        self.miss_rates[traffic_seed] = report.deadline_miss_rate

    def throughputs(self) -> Tuple[Rate, Rate]:
        return self.sessions, self.frames

    def figures(self) -> Dict[str, Tuple[Any, str]]:
        return {
            "sessions_per_s": (self.sessions, "1/s"),
            "deadline_miss_rate": (statistics.fmean(self.miss_rates.values()), "ratio"),
        }

    def layer_counts(self) -> Dict[str, float]:
        return {"origin.cache.encodes": float(self.encodes),
                "origin.cache.hit_rate": self.hits / self.lookups if self.lookups else 0.0}


class Campaign(Workload):
    """``run_cells`` over ``campaign.json``: a cold pass, then warm passes."""

    name = "campaign"
    #: Warm passes after each cold pass, so every pass does equal work.
    warm_passes = 3
    root_layer = "orchestrate.scheduler"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.workdir = inputs.HERE.parent / ".perfbench-work" / f"campaign-{os.getpid()}"
        self.cold = Rate()
        self.warm: List[Rate] = []
        self.cache_hits = 0
        self.cache_lookups = 0

    def setup(self) -> None:
        from repro.orchestrate.spec import expand_cells

        self.spec, _, _ = self.timer.time(inputs.campaign_spec, self.seed)
        self.cells, _, _ = self.timer.time(expand_cells, self.spec)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def run_pass(self, index: int) -> None:
        from repro.observe.record import RunInfo
        from repro.observe.store import HistoryStore
        from repro.orchestrate.artifacts import ArtifactCache
        from repro.orchestrate.scheduler import run_cells

        root = self.workdir / f"pass-{index}"
        store = HistoryStore(root / "store")
        cache = ArtifactCache(str(root / "cache"))

        def run(run_id: str):
            with self.root():
                return run_cells(self.spec, store, RunInfo(run_id=run_id),
                                 cache=cache, scheduler_workers=1)

        cold, wall, calibrated = self.timed(run, f"cold-{index}")
        self.cold.add(len(cold.results), wall, calibrated)
        self.checks.check(len(cold.results) == len(self.cells) and not cold.failures,
                          f"cold pass {index}: {len(cold.failures)} failed cells")
        cold_metrics = {r.cell_id: r.metrics for r in cold.results}
        for warm_index in range(self.warm_passes):
            where = f"warm pass {index}.{warm_index}"
            warm, wall, calibrated = self.timed(run, f"warm-{index}-{warm_index}")
            rate = Rate()
            rate.add(len(warm.results), wall, calibrated)
            self.warm.append(rate)
            self.checks.check(len(warm.results) == len(self.cells) and not warm.failures,
                              f"{where}: {len(warm.failures)} failed cells")
            self.checks.check(warm.cache_hits == len(warm.results),
                              f"{where}: hit rate {warm.cache_hits}/{len(warm.results)}")
            self.checks.check({r.cell_id: r.metrics for r in warm.results} == cold_metrics,
                              f"{where}: record metrics differ from the cold pass")
        self.cache_hits += cache.hits
        self.cache_lookups += cache.hits + cache.misses
        shutil.rmtree(root)

    def warm_median(self) -> Rate:
        """The warm pass with the median calibrated rate."""
        ordered = sorted(self.warm, key=Rate.value)
        return ordered[len(ordered) // 2]

    def throughputs(self) -> Tuple[Rate, Rate]:
        return self.cold, self.warm_median()

    def figures(self) -> Dict[str, Tuple[Any, str]]:
        return {"cells_per_s.cold": (self.cold, "1/s"),
                "cells_per_s.warm": (self.warm_median(), "1/s")}

    def layer_counts(self) -> Dict[str, float]:
        lookups = self.cache_lookups
        return {"orchestrate.artifacts.hit_rate": self.cache_hits / lookups if lookups else 0.0}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()


WORKLOADS = {cls.name: cls for cls in (Fig1Encode, Fig1Decode, Serve, Campaign)}
