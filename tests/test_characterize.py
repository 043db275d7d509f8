"""Tests for the workload characterisation module."""

import pytest

from repro.bench.characterize import (
    CountingKernels,
    characterize_decode,
    characterize_encode,
    render_profile,
)
from repro.codecs import CODEC_NAMES, get_encoder
from repro.kernels import get_kernels
from repro.kernels.api import implements_kernel_api


def fields_for(codec, video):
    fields = dict(width=video.width, height=video.height, search_range=4)
    if codec == "h264":
        fields["qp"] = 26
    else:
        fields["qscale"] = 5
    return fields


class TestCountingKernels:
    def test_implements_full_api(self):
        assert implements_kernel_api(CountingKernels("simd"))

    def test_counts_calls_and_samples(self):
        import numpy as np

        counting = CountingKernels("simd")
        a = np.zeros((8, 8), dtype=np.int64)
        counting.sad(a, a)
        counting.sad(a, a)
        counting.fdct8(a)
        assert counting.profile.kernels["sad"].calls == 2
        assert counting.profile.kernels["sad"].samples == 128
        assert counting.profile.kernels["fdct8"].calls == 1
        assert counting.profile.total_calls == 3

    def test_results_match_plain_backend(self):
        import numpy as np

        rng = np.random.default_rng(0)
        block = rng.integers(-100, 100, (8, 8)).astype(np.int64)
        counting = CountingKernels("simd")
        plain = get_kernels("simd")
        assert np.array_equal(counting.fdct8(block), plain.fdct8(block))


class TestCharacterization:
    @pytest.fixture(scope="class")
    def profiles(self, tiny_video):
        result = {}
        for codec in CODEC_NAMES:
            fields = fields_for(codec, tiny_video)
            encode_profile, stream = characterize_encode(codec, tiny_video, **fields)
            decode_profile, decoded = characterize_decode(codec, stream)
            assert len(decoded) == len(tiny_video)
            result[codec] = (encode_profile, decode_profile)
        return result

    def test_encode_dominated_by_motion_search(self, profiles):
        # SAD is the encode hot kernel for the hybrid codecs — the classic
        # characterisation result that motivates fast ME algorithms.
        for codec in ("mpeg2", "mpeg4"):
            encode_profile, _ = profiles[codec]
            top_kernel = encode_profile.top(1)[0][0]
            assert top_kernel in ("sad", "mc_qpel_bilinear", "mc_halfpel", "mc_qpel_h264")

    def test_decode_has_no_motion_search(self, profiles):
        for codec in CODEC_NAMES:
            _, decode_profile = profiles[codec]
            assert decode_profile.kernels["sad"].calls == 0

    def test_encode_heavier_than_decode(self, profiles):
        for codec in CODEC_NAMES:
            encode_profile, decode_profile = profiles[codec]
            assert encode_profile.total_calls > decode_profile.total_calls

    def test_h264_uses_its_kernel_family(self, profiles):
        encode_profile, decode_profile = profiles["h264"]
        assert encode_profile.kernels["fwd_transform4"].calls > 0
        assert decode_profile.kernels["inv_transform4"].calls > 0
        assert decode_profile.kernels["deblock_normal"].calls > 0
        assert decode_profile.kernels["fdct8"].calls == 0

    def test_mpeg_codecs_use_dct8(self, profiles):
        for codec in ("mpeg2", "mpeg4"):
            encode_profile, decode_profile = profiles[codec]
            assert encode_profile.kernels["fdct8"].calls > 0
            assert decode_profile.kernels["idct8"].calls > 0
            assert encode_profile.kernels["fwd_transform4"].calls == 0

    def test_render(self, profiles):
        encode_profile, _ = profiles["mpeg2"]
        text = render_profile(encode_profile)
        assert "Kernel mix" in text
        assert "TOTAL" in text
        assert "sad" in text

    def test_render_top(self, profiles):
        encode_profile, _ = profiles["h264"]
        text = render_profile(encode_profile, top=3)
        # 3 kernels + total + header rows.
        assert len(text.splitlines()) == 3 + 1 + 3


class TestStackedReconstruction:
    """Decoders rebuild residuals one macroblock at a time.

    Each plane of a macroblock gets one ``add_clip``; only an Intra4x4
    macroblock adds its sixteen luma blocks one by one, because each block
    predicts from its reconstructed neighbours (16 luma + u + v = 3 + 15).
    Stacking changes the number of calls, not the work: every kernel
    touches the samples the per-block decoders touched.
    """

    #: Per-kernel samples of the golden-stream decodes
    #: (``tests/test_golden_streams.py``), recorded with the per-block
    #: decoders.  They change only when the golden streams do.
    PER_BLOCK_SAMPLES = {
        "mpeg2": {"add_clip": 6144, "idct8": 4416, "dequant_mpeg": 4416,
                  "mc_halfpel": 4608},
        "mpeg4": {"add_clip": 6144, "idct8": 3136, "dequant_h263": 3136,
                  "mc_halfpel": 1536, "mc_qpel_bilinear": 3072},
        "h264": {"add_clip": 6144, "inv_transform4": 2592, "dequant_h264_4x4": 2592,
                 "dequant_h264_dc2": 128, "mc_qpel_h264": 3072,
                 "mc_chroma_bilinear8": 1536, "deblock_normal": 1472,
                 "deblock_strong": 128},
    }

    @staticmethod
    def decode(codec, stream, backend, monkeypatch):
        """Decode through counting kernels; returns (profile, I4x4 MB count)."""
        from repro.codecs.h264.decoder import H264Decoder

        intra4 = []
        decode_i4 = H264Decoder._decode_i4_mb

        def counted(self, reader, mbx, mby):
            intra4.append((mbx, mby))
            return decode_i4(self, reader, mbx, mby)

        monkeypatch.setattr(H264Decoder, "_decode_i4_mb", counted)
        profile, frames = characterize_decode(codec, stream, backend)
        macroblocks = len(frames) * (stream.width // 16) * (stream.height // 16)
        return profile, macroblocks, len(intra4)

    @pytest.mark.parametrize("backend", ["simd", "scalar"])
    @pytest.mark.parametrize("codec", ["mpeg2", "mpeg4", "h264"])
    def test_golden_decode_calls_and_samples(self, codec, backend, monkeypatch):
        from repro.codecs import container
        from tests.test_golden_streams import encode

        stream = container.unpack(encode(codec))
        profile, macroblocks, intra4 = self.decode(codec, stream, backend, monkeypatch)
        add_clip = profile.kernels["add_clip"].calls
        assert add_clip == 3 * macroblocks + 15 * intra4
        samples = {name: stats.samples for name, stats in profile.kernels.items()
                   if stats.calls}
        assert samples == self.PER_BLOCK_SAMPLES[codec]

    @pytest.mark.parametrize("qp", [26, 40])
    def test_h264_intra_modes_and_partitions(self, qp, monkeypatch):
        # QP 26 codes its I picture in Intra4x4, QP 40 in Intra16x16.
        from tests.conftest import make_moving_sequence

        video = make_moving_sequence(width=48, height=32, frames=5, dx=2, dy=1, seed=7)
        encoder = get_encoder("h264", width=48, height=32, search_range=4, qp=qp,
                              ref_frames=2,
                              partitions=("16x16", "16x8", "8x16", "8x8"))
        stream = encoder.encode_sequence(video)
        profile, macroblocks, intra4 = self.decode("h264", stream, "simd", monkeypatch)
        kernels = profile.kernels
        assert (intra4 > 0) == (qp == 26)
        assert kernels["add_clip"].calls == 3 * macroblocks + 15 * intra4
        assert kernels["add_clip"].samples == 384 * macroblocks
        assert kernels["inv_transform4"].samples == kernels["dequant_h264_4x4"].samples
        # One stacked call per plane group, far fewer than one per block.
        assert kernels["inv_transform4"].calls <= 2 * macroblocks
        assert kernels["inv_transform4"].samples > 16 * kernels["inv_transform4"].calls
