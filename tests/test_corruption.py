"""Failure injection: corrupted streams must raise clean errors, not crash.

Decoders consume untrusted bytes; every corruption must surface as a
:class:`ReproError` subclass (usually :class:`BitstreamError`) — never an
IndexError/ValueError from deep inside a kernel — or, when the damage
happens to decode into valid syntax, produce a frame-count-correct result.
"""

import numpy as np
import pytest

from repro.codecs import (
    CODEC_NAMES,
    EXTENSION_CODEC_NAMES,
    container,
    get_decoder,
    get_encoder,
)
from repro.codecs.base import EncodedPicture, EncodedVideo
from repro.codecs.h264 import H264Decoder, common as h264_common, intra
from repro.codecs.mpeg4 import Mpeg4Decoder, tables as mpeg4_tables
from repro.codecs.mpeg4.acdc import apply_ac_prediction, predict as acdc_predict
from repro.codecs.mpeg4.coefficients import decode_3d
from repro.common.expgolomb import read_se, read_ue
from repro.common.gop import FrameType
from repro.errors import ReproError
from repro.transform.zigzag import unscan4, unscan8


def encoded(tiny_video, codec):
    fields = dict(width=tiny_video.width, height=tiny_video.height, search_range=4)
    if codec == "h264":
        fields["qp"] = 26
    elif codec == "mjpeg":
        fields["quality"] = 80
    else:
        fields["qscale"] = 5
    return get_encoder(codec, **fields).encode_sequence(tiny_video)


def try_decode(codec, stream):
    try:
        result = get_decoder(codec).decode(stream)
    except ReproError:
        return None
    return result


@pytest.mark.parametrize("codec", CODEC_NAMES + EXTENSION_CODEC_NAMES)
class TestCorruption:
    def test_truncated_payload(self, codec, tiny_video):
        stream = encoded(tiny_video, codec)
        stream.pictures[0] = EncodedPicture(
            stream.pictures[0].payload[: len(stream.pictures[0].payload) // 3],
            stream.pictures[0].display_index,
            stream.pictures[0].frame_type,
        )
        result = try_decode(codec, stream)
        assert result is None or len(result) == len(tiny_video)

    def test_bit_flips_do_not_crash(self, codec, tiny_video):
        stream = encoded(tiny_video, codec)
        for position in (1, 7, 19, 53):
            pictures = list(stream.pictures)
            payload = bytearray(pictures[0].payload)
            if position < len(payload):
                payload[position] ^= 0xFF
            pictures[0] = EncodedPicture(bytes(payload), pictures[0].display_index,
                                         pictures[0].frame_type)
            corrupted = EncodedVideo(
                codec=stream.codec, width=stream.width, height=stream.height,
                fps=stream.fps, pictures=pictures,
            )
            result = try_decode(codec, corrupted)
            assert result is None or len(result) == len(tiny_video)

    def test_empty_payload(self, codec, tiny_video):
        stream = encoded(tiny_video, codec)
        stream.pictures[0] = EncodedPicture(b"", 0, FrameType.I)
        assert try_decode(codec, stream) is None

    def test_missing_pictures(self, codec, tiny_video):
        stream = encoded(tiny_video, codec)
        stream.pictures = stream.pictures[:1]
        result = try_decode(codec, stream)
        # A lone I picture may decode fine (1 frame) or fail cleanly.
        assert result is None or len(result) == 1

    def test_reordered_pictures(self, codec, tiny_video):
        stream = encoded(tiny_video, codec)
        stream.pictures = list(reversed(stream.pictures))
        result = try_decode(codec, stream)
        assert result is None or len(result) == len(tiny_video)

    def test_empty_stream(self, codec, tiny_video):
        stream = encoded(tiny_video, codec)
        stream.pictures = []
        assert try_decode(codec, stream) is None

    def test_duplicate_display_indices(self, codec, tiny_video):
        stream = encoded(tiny_video, codec)
        first = stream.pictures[0]
        stream.pictures = [first, EncodedPicture(first.payload, 0, first.frame_type)]
        assert try_decode(codec, stream) is None


class TestContainerCorruption:
    def test_random_bytes_rejected(self):
        import random

        rng = random.Random(0)
        for _ in range(20):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
            with pytest.raises(ReproError):
                container.unpack(blob)

    def test_header_flips_rejected_or_parse(self, tiny_video):
        stream = encoded(tiny_video, "mpeg2")
        data = bytearray(container.pack(stream))
        for position in range(0, min(len(data), 16)):
            mutated = bytearray(data)
            mutated[position] ^= 0x5A
            try:
                container.unpack(bytes(mutated))
            except ReproError:
                pass  # clean rejection is the expected common case


@pytest.mark.parametrize("codec", CODEC_NAMES + EXTENSION_CODEC_NAMES)
class TestErrorContext:
    """Strict decode failures carry codec, picture index and bit position."""

    def decode_error(self, codec, stream):
        try:
            get_decoder(codec).decode(stream)
        except ReproError as error:
            return error
        return None

    def test_empty_payload_error_has_full_context(self, codec, tiny_video):
        stream = encoded(tiny_video, codec)
        stream.pictures[0] = EncodedPicture(b"", 0, FrameType.I)
        error = self.decode_error(codec, stream)
        assert error is not None
        assert error.has_decode_context()
        assert error.codec == codec
        assert error.picture_index == 0
        assert f"codec={codec}" in str(error)

    def test_truncation_is_distinguished(self, codec, tiny_video):
        from repro.errors import TruncationError

        stream = encoded(tiny_video, codec)
        stream.pictures[0] = EncodedPicture(b"", 0, FrameType.I)
        error = self.decode_error(codec, stream)
        assert isinstance(error, TruncationError)

    def test_bit_flip_error_context_points_at_picture(self, codec, tiny_video):
        stream = encoded(tiny_video, codec)
        for position in (1, 7, 19, 53):
            pictures = list(stream.pictures)
            payload = bytearray(pictures[1].payload)
            if position < len(payload):
                payload[position] ^= 0xFF
            pictures[1] = EncodedPicture(bytes(payload), pictures[1].display_index,
                                         pictures[1].frame_type)
            corrupted = EncodedVideo(
                codec=stream.codec, width=stream.width, height=stream.height,
                fps=stream.fps, pictures=pictures,
            )
            error = self.decode_error(codec, corrupted)
            if error is not None:
                assert error.has_decode_context(), (position, repr(error))
                assert error.codec == codec



# ---------------------------------------------------------------------------
# Intra macroblocks are parsed whole, then reconstructed with stacked
# kernels.  The per-block references below reconstruct each block as soon
# as it is parsed; corruption must surface identically in both.
# ---------------------------------------------------------------------------

class _PerBlockH264(H264Decoder):
    def _decode_i4_mb(self, reader, mbx, mby):
        kernels, qp = self.kernels, self._qp
        for off_x, off_y in h264_common.LUMA_OFFSETS:
            x, y = 16 * mbx + off_x, 16 * mby + off_y
            bx, by = x // 4, y // 4
            mpm = self._intra4_mpm(bx, by)
            if reader.read_bit():
                mode_index = mpm
            else:
                remaining = reader.read_bits(2)
                mode_index = remaining + (1 if remaining >= mpm else 0)
            self._intra4_modes[(bx, by)] = mode_index
            prediction = intra.predict_luma4(self._recon.y, x, y, intra.LUMA4_MODES[mode_index])
            scanned, total_coeff = self.cavlc.decode_block(reader, 16, self._tc_luma.nc(bx, by))
            self._tc_luma.set(bx, by, total_coeff)
            residual = np.zeros((4, 4), dtype=np.int64)
            if total_coeff:
                residual = kernels.inv_transform4(kernels.dequant_h264_4x4(unscan4(scanned), qp))
            self._recon.store_block("y", x, y, kernels.add_clip(prediction, residual))
        self._meta.mark_intra_mb(mbx, mby)
        self._decode_intra_chroma(reader, mbx, mby)

    def _decode_i16_mb(self, reader, mbx, mby):
        kernels, qp = self.kernels, self._qp
        x0, y0 = 16 * mbx, 16 * mby
        prediction = intra.predict_block(
            self._recon.y, x0, y0, 16, intra.BLOCK_MODES[read_ue(reader)])
        has_ac = bool(reader.read_bit())
        dc_scanned, _ = self.cavlc.decode_block(reader, 16, self._tc_luma.nc(4 * mbx, 4 * mby))
        dc = kernels.dequant_h264_dc4(unscan4(dc_scanned), qp)
        for off_x, off_y in h264_common.LUMA_OFFSETS:
            bx, by = (x0 + off_x) // 4, (y0 + off_y) // 4
            levels, total_coeff = np.zeros((4, 4), dtype=np.int64), 0
            if has_ac:
                scanned, total_coeff = self.cavlc.decode_block(reader, 15, self._tc_luma.nc(bx, by))
                levels = unscan4([0] + scanned)
            self._tc_luma.set(bx, by, total_coeff)
            coeffs = kernels.dequant_h264_4x4(levels, qp)
            coeffs[0, 0] = dc[off_y // 4, off_x // 4]
            pixels = kernels.add_clip(prediction[off_y : off_y + 4, off_x : off_x + 4],
                                      kernels.inv_transform4(coeffs))
            self._recon.store_block("y", x0 + off_x, y0 + off_y, pixels)
        self._meta.mark_intra_mb(mbx, mby)
        self._decode_intra_chroma(reader, mbx, mby)


class _PerBlockMpeg4(Mpeg4Decoder):
    def _decode_intra_mb(self, reader, recon, mbx, mby):
        kernels = self.kernels
        use_prediction = bool(reader.read_bit())
        cbp = mpeg4_tables.CBP_TABLE.read(reader)
        for block_index, (plane, off_x, off_y) in enumerate(mpeg4_tables.BLOCK_LAYOUT):
            base = 16 if plane == "y" else 8
            bx, by = self._block_grid(plane, mbx, mby, block_index)
            direction, pred_dc, pred_ac = acdc_predict(self._acdc[plane], bx, by)
            dc = pred_dc + read_se(reader)
            scanned = [0] * 64
            if cbp & mpeg4_tables.cbp_bit(block_index):
                scanned = decode_3d(reader, 64, start=1)
            levels = unscan8(scanned)
            if use_prediction:
                levels = apply_ac_prediction(levels, direction, pred_ac, +1)
            levels[0, 0] = dc
            self._acdc[plane].put(bx, by, levels)
            coeffs = kernels.dequant_h263(levels, self._qscale, intra=True)
            pixels = kernels.add_clip(np.zeros((8, 8), dtype=np.int64), kernels.idct8(coeffs))
            recon.store_block(plane, mbx * base + off_x, mby * base + off_y, pixels)


def _outcome(decoder, stream):
    """Decoded frames, or the error class plus its decode context."""
    try:
        return decoder.decode(stream)
    except ReproError as error:
        return (type(error), error.codec, error.picture_index, error.frame_type,
                error.bit_position)


class TestParseThenReconstruct:
    """Truncated and bit-flipped intra pictures fail where they failed before."""

    @pytest.mark.parametrize("codec, fields, reference", [
        ("h264", dict(qp=26), _PerBlockH264),  # Intra4x4 I picture
        ("h264", dict(qp=40), _PerBlockH264),  # Intra16x16 I picture
        ("mpeg4", dict(qscale=5), _PerBlockMpeg4),
    ])
    def test_errors_match_per_block_reference(self, codec, fields, reference):
        from repro.robustness.inject import flip_bit, truncate_payload
        from tests.conftest import make_moving_sequence

        video = make_moving_sequence(width=48, height=32, frames=3, dx=2, dy=1, seed=5)
        stream = get_encoder(codec, width=48, height=32, search_range=4,
                             **fields).encode_sequence(video)
        assert stream.pictures[0].frame_type is FrameType.I
        size = len(stream.pictures[0].payload)
        damaged = [truncate_payload(stream, 0, keep) for keep in range(1, size, max(1, size // 8))]
        damaged += [flip_bit(stream, 0, bit) for bit in range(5, 8 * size, max(1, size))]
        errors = 0
        for corrupted in damaged:
            expected = _outcome(reference("simd"), corrupted)
            errors += isinstance(expected, tuple)
            assert _outcome(get_decoder(codec, backend="simd"), corrupted) == expected
            assert _outcome(get_decoder(codec, backend="scalar"), corrupted) == expected
        assert errors >= len(damaged) // 4
