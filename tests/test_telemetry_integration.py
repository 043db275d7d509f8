"""Integration tests: telemetry wired through the codec stack.

Covers the instrumented seams (encoder/decoder base classes, the decode
engine, kernel dispatch, motion search, parallel chunks) and the two
front ends (``hdvb-bench performance --trace``, ``hdvb-player --stats``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.codecs import get_decoder, get_encoder
from repro.codecs.frames import WorkingFrame
from repro.kernels import get_kernels
from repro.mc.pad import pad_plane
from repro.me.cost import MotionCost
from repro.me.search import epzs_search, full_search, hexagon_search
from repro.me.types import MotionVector, ZERO_MV
from repro.parallel import parallel_encode
from repro.robustness import FaultInjector
from repro.telemetry.instrument import InstrumentedKernels, counting_cost
from tests.conftest import make_moving_sequence
from tests.test_telemetry import load_check_trace


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture(scope="module")
def video():
    return make_moving_sequence(width=48, height=32, frames=6, dx=1, dy=0, seed=3)


def encode(codec, video, **extra):
    fields = dict(width=video.width, height=video.height, search_range=4)
    fields.update(extra)
    encoder = get_encoder(codec, **fields)
    return encoder.encode_sequence(video)


# ---------------------------------------------------------------------------
# codec seams
# ---------------------------------------------------------------------------

class TestCodecSeams:
    def test_disabled_leaves_no_trace_or_metrics(self, video):
        stream = encode("mpeg2", video, qscale=5)
        get_decoder("mpeg2").decode(stream)
        assert len(telemetry.current_trace()) == 0
        assert len(telemetry.registry()) == 0

    def test_encode_records_spans_and_counters(self, video):
        telemetry.enable()
        stream = encode("mpeg2", video, qscale=5)
        telemetry.disable()
        trace = telemetry.current_trace()
        (sequence_span,) = trace.spans("mpeg2.encode")
        assert sequence_span.attrs["frames"] == len(video)
        picture_spans = trace.spans("mpeg2.encode.picture")
        assert len(picture_spans) == len(video)
        assert all(s.parent_id == sequence_span.span_id for s in picture_spans)
        frame_types = {s.attrs["frame_type"] for s in picture_spans}
        assert "I" in frame_types
        reg = telemetry.registry()
        assert reg.value("encode.mpeg2.pictures") == len(video)
        assert reg.value("encode.mpeg2.bits") == 8 * stream.total_bytes
        assert reg.value("me.search.calls") > 0
        assert reg.value("me.search.points") >= reg.value("me.search.calls")
        assert reg.value("kernels.simd.fdct8.calls") > 0

    def test_picture_spans_account_for_most_of_encode_wall(self, video):
        """The acceptance gate: the stage table explains the encode time."""
        telemetry.enable()
        start = time.perf_counter()
        encode("mpeg2", video, qscale=5)
        wall = time.perf_counter() - start
        telemetry.disable()
        assert telemetry.coverage(telemetry.current_trace(), wall) >= 0.90

    def test_decode_records_spans_and_counters(self, video):
        stream = encode("h264", video, qp=26)
        telemetry.enable()
        get_decoder("h264").decode(stream)
        telemetry.disable()
        trace = telemetry.current_trace()
        assert len(trace.spans("h264.decode")) == 1
        picture_spans = trace.spans("h264.decode.picture")
        assert len(picture_spans) == stream.frame_count
        displays = sorted(s.attrs["display_index"] for s in picture_spans)
        assert displays == list(range(len(video)))
        assert telemetry.registry().value("decode.h264.pictures") == stream.frame_count

    def test_every_codec_emits_picture_spans(self, video):
        for codec, extra in (("mpeg2", {"qscale": 5}), ("mpeg4", {"qscale": 5}),
                             ("h264", {"qp": 26}), ("mjpeg", {"quality": 80}),
                             ("vc1", {"qscale": 5})):
            telemetry.reset()
            telemetry.enable()
            encode(codec, video, **extra)
            telemetry.disable()
            assert len(telemetry.current_trace().spans(f"{codec}.encode")) == 1, codec
            assert len(telemetry.current_trace().spans(f"{codec}.encode.picture")) > 0, codec

    def test_concealment_events_are_counted_and_tagged(self, video):
        stream = encode("mpeg2", video, qscale=5)
        corrupted, fault = FaultInjector(seed=7).inject(stream, model="truncate")
        telemetry.enable()
        get_decoder("mpeg2").decode(corrupted, conceal="copy-last")
        telemetry.disable()
        reg = telemetry.registry()
        assert reg.value("decode.concealments") >= 1
        assert reg.value("decode.mpeg2.concealments") == reg.value("decode.concealments")
        concealed = [s for s in telemetry.current_trace().spans("mpeg2.decode.picture")
                     if "concealed" in s.attrs]
        assert concealed and all(s.attrs["concealed"] == "copy-last" for s in concealed)
        assert all("error" in s.attrs for s in concealed)

    def test_strict_decode_failure_closes_span_with_error(self, video):
        stream = encode("mpeg2", video, qscale=5)
        corrupted, _ = FaultInjector(seed=7).inject(stream, model="truncate")
        telemetry.enable()
        with pytest.raises(Exception):
            get_decoder("mpeg2").decode(corrupted)
        telemetry.disable()
        spans = telemetry.current_trace().spans("mpeg2.decode.picture")
        assert spans, "failed picture span must still be recorded"
        assert any("error" in s.attrs for s in spans)


# ---------------------------------------------------------------------------
# kernel dispatch
# ---------------------------------------------------------------------------

class TestKernelDispatch:
    def test_disabled_returns_shared_raw_backend(self):
        assert get_kernels("simd") is get_kernels("simd")
        assert not isinstance(get_kernels("simd"), InstrumentedKernels)

    def test_enabled_wraps_and_counts_per_backend(self):
        import numpy as np

        telemetry.enable()
        kernels = get_kernels("scalar")
        telemetry.disable()
        assert isinstance(kernels, InstrumentedKernels)
        a = np.arange(16, dtype=np.int64).reshape(4, 4)
        assert kernels.sad(a, a) == 0
        assert telemetry.registry().value("kernels.scalar.sad.calls") == 1
        from repro.kernels.api import implements_kernel_api

        assert implements_kernel_api(kernels)

    def test_instrumented_backend_is_bit_exact(self, video):
        stream_plain = encode("mpeg2", video, qscale=5)
        telemetry.enable()
        stream_traced = encode("mpeg2", video, qscale=5)
        telemetry.disable()
        assert [p.payload for p in stream_plain.pictures] == \
               [p.payload for p in stream_traced.pictures]


    def test_h264_builds_halfpel_planes_once_per_reference(self, video, monkeypatch):
        # A plane reader that fell back to per-candidate six-tap filtering
        # under the instrumented backend would make ~17 calls per search.
        plain = encode("h264", video)
        luma_planes = []
        padded = WorkingFrame.padded

        def recording(frame, name, search_range):
            plane = padded(frame, name, search_range)
            if name == "y" and all(plane is not seen for seen in luma_planes):
                luma_planes.append(plane)
            return plane

        monkeypatch.setattr(WorkingFrame, "padded", recording)
        telemetry.enable()
        traced = encode("h264", video)
        telemetry.disable()
        assert [p.payload for p in traced.pictures] == [p.payload for p in plain.pictures]
        calls = telemetry.registry().value("kernels.simd.mc_qpel_h264.calls")
        assert luma_planes
        assert 0 < calls <= 3 * len(luma_planes)


# ---------------------------------------------------------------------------
# motion-search counters
# ---------------------------------------------------------------------------

class _PerCandidate:
    """Cost proxy that scores a batch as one ``evaluate`` call per candidate."""

    def __init__(self, cost) -> None:
        self._cost = cost

    def evaluate_many(self, mvs):
        return [self._cost.evaluate(mv) for mv in mvs]

    def __getattr__(self, name):
        return getattr(self._cost, name)


class TestSearchPointCounts:
    @staticmethod
    def _cost():
        rng = np.random.default_rng(5)
        reference = rng.integers(0, 256, (48, 48)).astype(np.int64)
        return MotionCost(
            kernels=get_kernels("simd"),
            current=reference[18:34, 21:37],
            reference=pad_plane(reference, 8),
            x=16, y=16, width=16, height=16,
            predictor=MotionVector(1, 0),
            lagrangian=4,
            search_range=8,
        )

    @pytest.mark.parametrize("search", [
        full_search,
        hexagon_search,
        lambda cost: epzs_search(cost, [MotionVector(2, 2), MotionVector(-3, 1)]),
    ])
    def test_points_equal_through_evaluate_or_evaluate_many(self, search):
        batched = counting_cost(self._cost())
        per_candidate = counting_cost(self._cost())
        result_batched = search(batched)
        result_single = search(_PerCandidate(per_candidate))
        assert result_batched == result_single
        assert batched.points == per_candidate.points > 0
        assert batched.evaluations == per_candidate.evaluations

    def test_evaluate_many_counts_every_candidate(self):
        counted = counting_cost(self._cost())
        counted.evaluate_many([ZERO_MV, ZERO_MV, MotionVector(1, 1)])
        counted.evaluate(ZERO_MV)
        assert counted.points == 4
        assert counted.evaluations == 2


# ---------------------------------------------------------------------------
# parallel encode
# ---------------------------------------------------------------------------

class BrokenExecutorFactory:
    """An executor factory that always fails to build a pool."""

    def __init__(self):
        self.calls = 0

    def __call__(self, max_workers):
        self.calls += 1
        raise OSError("no processes for you")


class TestParallelTelemetry:
    def fields(self, video):
        return dict(width=video.width, height=video.height,
                    qscale=5, search_range=4)

    def test_stats_dict_carries_chunk_wall_times(self, video):
        stream, stats = parallel_encode("mpeg2", video, workers=1, chunks=2,
                                        return_stats=True, **self.fields(video))
        assert stats["mode"] == "serial"
        assert stats["retries"] == 0 and stats["fallback"] is False
        assert len(stats["chunks"]) == 2
        for chunk in stats["chunks"]:
            assert chunk["seconds"] > 0
            assert chunk["frames"] == chunk["span"][1] - chunk["span"][0]
            assert chunk["pictures"] == chunk["frames"]
        assert stats["encode_seconds"] == pytest.approx(
            sum(c["seconds"] for c in stats["chunks"]))
        total_bytes = sum(c["bytes"] for c in stats["chunks"])
        assert total_bytes == stream.total_bytes

    def test_default_return_shape_unchanged(self, video):
        stream = parallel_encode("mpeg2", video, workers=1, chunks=2,
                                 **self.fields(video))
        assert hasattr(stream, "pictures")

    def test_workers_ship_registry_snapshots_to_parent(self, video):
        telemetry.enable()
        stream, stats = parallel_encode("mpeg2", video, workers=2, chunks=2,
                                        return_stats=True, **self.fields(video))
        telemetry.disable()
        reg = telemetry.registry()
        # Worker-side counters crossed the process boundary and merged.
        assert reg.value("encode.mpeg2.pictures") == len(video)
        assert reg.value("me.search.calls") > 0
        assert reg.value("parallel.chunks") == 2
        assert reg.get("parallel.chunk_seconds").count == 2
        assert len(telemetry.current_trace().spans("parallel.encode")) == 1

    def test_serial_fallback_keeps_timing_and_counts_events(self, video):
        factory = BrokenExecutorFactory()
        telemetry.enable()
        with pytest.warns(RuntimeWarning):
            stream, stats = parallel_encode(
                "mpeg2", video, workers=2, chunks=2, return_stats=True,
                executor_factory=factory, **self.fields(video))
        telemetry.disable()
        assert factory.calls == 2
        assert stats["mode"] == "pool-fallback-serial"
        assert stats["fallback"] is True
        assert stats["retries"] == 2
        assert len(stats["failures"]) == 2
        # The fallback path still times every chunk.
        assert all(chunk["seconds"] > 0 for chunk in stats["chunks"])
        reg = telemetry.registry()
        assert reg.value("parallel.retries") == 2
        assert reg.value("parallel.fallbacks") == 1
        assert reg.value("encode.mpeg2.pictures") == len(video)


# ---------------------------------------------------------------------------
# front ends
# ---------------------------------------------------------------------------

class TestFrontEnds:
    BENCH_ARGS = ["--codecs", "mpeg2", "--sequences", "blue_sky",
                  "--tiers", "576p25", "--scale", "1/16", "--frames", "3",
                  "--runs", "1"]

    def test_bench_performance_prints_stage_breakdown(self, capsys):
        from repro.bench.cli import main

        assert main(["performance"] + self.BENCH_ARGS) == 0
        out = capsys.readouterr().out
        assert "Telemetry: stage profile" in out
        assert "mpeg2.encode.picture" in out
        assert "Stage coverage" in out
        assert "me.search.points" in out

    @pytest.mark.parametrize("fmt", ["chrome", "json"])
    def test_bench_performance_trace_export_validates(self, tmp_path, fmt, capsys):
        from repro.bench.cli import main

        path = tmp_path / f"trace-{fmt}.json"
        args = ["performance", "--trace", str(path), "--trace-format", fmt]
        assert main(args + self.BENCH_ARGS) == 0
        capsys.readouterr()
        check_trace = load_check_trace()
        assert "valid" in check_trace.validate_trace_file(str(path))

    def _write_stream(self, tmp_path, video):
        from repro.codecs import container

        stream = encode("mpeg2", video, qscale=5)
        path = tmp_path / "clip.hdvb"
        container.write_file(str(path), stream)
        return path

    def test_player_stats_prints_per_frame_table(self, tmp_path, video, capsys):
        from repro.player.cli import player_main

        path = self._write_stream(tmp_path, video)
        assert player_main([str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "STATS: per-frame decode" in out
        assert "decode ms" in out
        assert f"{len(video)} pictures decoded" in out
        assert "0 concealment event(s)" in out

    def test_player_stats_reports_concealments(self, tmp_path, video, capsys):
        from repro.player.cli import player_main

        path = self._write_stream(tmp_path, video)
        code = player_main([str(path), "--inject", "truncate:7",
                            "--conceal", "copy-last", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "copy-last" in out
        assert "concealment event(s)" in out
        assert "0 concealment event(s)" not in out
