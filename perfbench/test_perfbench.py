"""Tests of the benchmark's tracer and seed handling.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
from tracer import Seam, Tracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def _synthetic_module(clock: FakeClock) -> types.ModuleType:
    module = types.ModuleType("synthetic")

    def inner():
        clock.now += 5

    def outer():
        clock.now += 1
        module.inner()
        clock.now += 2
        module.inner()
        clock.now += 3

    module.inner, module.outer = inner, outer
    return module


def test_self_time_is_exact_on_nested_calls():
    clock = FakeClock()
    module = _synthetic_module(clock)
    tracer = Tracer(clock=clock)
    tracer.install([Seam(module, "outer", "outer", nested_group="inner"),
                    Seam(module, "inner", "inner")])
    with tracer.span("root"):
        clock.now += 7
        module.outer()
    tracer.restore()
    layer = tracer.layers
    assert (layer["inner"].self_s, layer["inner"].calls) == (10, 2)
    assert (layer["outer"].self_s, layer["outer"].calls) == (6, 1)
    assert layer["outer"].nested == 2
    assert layer["root"].self_s == 7
    assert tracer.attributed_s() == clock.now == 23


def test_entropy_bits_count_once_at_the_outermost_entry():
    clock = FakeClock()
    stream = types.SimpleNamespace(bit_position=0)
    module = types.ModuleType("entropy")

    def read_symbol(reader):
        reader.bit_position += 3

    def read_block(reader):
        module.read_symbol(reader)
        module.read_symbol(reader)
        reader.bit_position += 1

    module.read_symbol, module.read_block = read_symbol, read_block
    tracer = Tracer(clock=clock)
    tracer.install([Seam(module, "read_block", "entropy", bit_arg=0, counter="block"),
                    Seam(module, "read_symbol", "entropy", bit_arg=0)])
    module.read_block(stream)
    module.read_symbol(stream)
    tracer.restore()
    assert tracer.layers["entropy"].bits == 10
    assert tracer.layers["entropy"].calls == 4
    assert (tracer.layers["block"].bits, tracer.layers["block"].calls) == (7, 1)


def test_restore_puts_every_original_back_also_after_an_error():
    seams = layers.seams()
    originals = [vars(seam.owner)[seam.attr] for seam in seams]
    tracer = Tracer()
    tracer.install(seams)
    assert all(vars(seam.owner)[seam.attr] is not original
               for seam, original in zip(seams, originals))
    with pytest.raises(ZeroDivisionError):
        try:
            1 / 0
        finally:
            tracer.restore()
    assert all(vars(seam.owner)[seam.attr] is original
               for seam, original in zip(seams, originals))


def test_a_bad_seam_leaves_nothing_patched():
    module = types.ModuleType("partial")
    module.ok = lambda: None
    module.constant = 3
    original = module.ok
    tracer = Tracer()
    with pytest.raises(TypeError):
        tracer.install([Seam(module, "ok", "a"), Seam(module, "constant", "b")])
    assert module.ok is original


def test_seams_are_unique():
    keys = [(id(seam.owner), seam.attr) for seam in layers.seams()]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("workload", ["fig1-encode", "fig1-decode", "serve", "campaign"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert inputs.input_digest(workload, 3) == inputs.input_digest(workload, 3)
    assert inputs.input_digest(workload, 3) != inputs.input_digest(workload, 4)


def test_every_seed_runs_the_paper_clips():
    from repro.sequences import SEQUENCE_NAMES, generate_sequence

    jobs = inputs.fig1_jobs(5, inputs.ENCODE_TIER, 2)
    assert sorted((name, codec) for name, codec, _ in jobs) == sorted(
        (name, codec) for name in SEQUENCE_NAMES for codec in inputs.FIG1_CODECS)
    for name, _, clip in jobs:
        paper = generate_sequence(name, inputs.ENCODE_TIER, frames=2,
                                  scale=inputs.FIG1_SCALE)
        assert inputs.frames_digest(clip) == inputs.frames_digest(paper)


def test_every_figure1_digest_is_recorded():
    baseline = inputs.load_baseline()
    assert len(baseline["fig1-encode"]) == 12     # streams
    assert len(baseline["fig1-decode"]) == 24     # streams + decoded frames


def test_timer_samples_inside_items_and_restores_the_alarm():
    import signal

    from workloads import MIN_SAMPLES, Timer, clock

    def busy(seconds):
        end = clock() + seconds
        while clock() < end:
            pass

    previous = signal.getsignal(signal.SIGALRM)
    with Timer() as timer:
        _, wall, calibrated = timer.time(busy, 0.5)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = timer.samples[MIN_SAMPLES:]
    assert len(inside) >= 5
    assert wall == pytest.approx(0.5 - sum(inside), abs=0.01)
    assert calibrated > 0
