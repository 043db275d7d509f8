"""Property tests: the scalar and SIMD kernel backends are bit-exact.

This is the invariant the whole scalar-vs-SIMD benchmark axis rests on
(the paper compares identical algorithms, optimised vs not).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import get_kernels
from repro.mc.pad import HALFPEL_PHASES, H264QpelReader, pad_plane

SCALAR = get_kernels("scalar")
SIMD = get_kernels("simd")


def blocks(size: int, low: int = -255, high: int = 255):
    return st.lists(
        st.lists(st.integers(low, high), min_size=size, max_size=size),
        min_size=size,
        max_size=size,
    ).map(lambda rows: np.array(rows, dtype=np.int64))


def pixel_blocks(size: int):
    return blocks(size, 0, 255)


def planes(height: int, width: int):
    return st.lists(
        st.lists(st.integers(0, 255), min_size=width, max_size=width),
        min_size=height,
        max_size=height,
    ).map(lambda rows: np.array(rows, dtype=np.int64))


def assert_same(a, b):
    assert np.array_equal(np.asarray(a), np.asarray(b))


def test_both_backends_implement_full_api():
    from repro.kernels.api import implements_kernel_api

    assert implements_kernel_api(SCALAR)
    assert implements_kernel_api(SIMD)


class TestCostKernels:
    @given(pixel_blocks(8), pixel_blocks(8))
    def test_sad(self, a, b):
        assert SCALAR.sad(a, b) == SIMD.sad(a, b)

    @given(pixel_blocks(8), pixel_blocks(8))
    def test_ssd(self, a, b):
        assert SCALAR.ssd(a, b) == SIMD.ssd(a, b)

    @given(pixel_blocks(4), pixel_blocks(4))
    def test_satd4(self, a, b):
        assert SCALAR.satd4(a, b) == SIMD.satd4(a, b)


class TestStackedSad:
    """``sad(a, b)`` with ``b`` of shape ``(n, h, w)`` returns ``n`` costs."""

    @given(st.integers(1, 9), st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=60)
    def test_stacked_sad_matches_per_candidate_loop(self, count, height, width, data):
        current = data.draw(planes(height, width))
        stack = np.stack([data.draw(planes(height, width)) for _ in range(count)])
        looped = [SIMD.sad(current, candidate) for candidate in stack]
        assert SCALAR.sad(current, stack) == looped
        assert SIMD.sad(current, stack) == looped
        assert all(type(cost) is int for cost in SIMD.sad(current, stack))

    def test_single_candidate_stack(self):
        a = np.arange(16, dtype=np.int64).reshape(4, 4)
        b = a[::-1].copy()
        assert SCALAR.sad(a, b[None]) == SIMD.sad(a, b[None]) == [SCALAR.sad(a, b)]


class TestBlockArithmetic:
    @given(blocks(4), blocks(4))
    def test_sub(self, a, b):
        assert_same(SCALAR.sub(a, b), SIMD.sub(a, b))

    @given(pixel_blocks(4), blocks(4, -512, 512))
    def test_add_clip(self, pred, res):
        assert_same(SCALAR.add_clip(pred, res), SIMD.add_clip(pred, res))

    @given(pixel_blocks(8), pixel_blocks(8))
    def test_average(self, a, b):
        assert_same(SCALAR.average(a, b), SIMD.average(a, b))


class TestTransforms:
    @given(blocks(8))
    def test_fdct8(self, block):
        assert_same(SCALAR.fdct8(block), SIMD.fdct8(block))

    @given(blocks(8, -2048, 2048))
    def test_idct8(self, coeffs):
        assert_same(SCALAR.idct8(coeffs), SIMD.idct8(coeffs))

    @given(blocks(4))
    def test_fwd_transform4(self, block):
        assert_same(SCALAR.fwd_transform4(block), SIMD.fwd_transform4(block))

    @given(blocks(4, -30000, 30000))
    def test_inv_transform4(self, coeffs):
        assert_same(SCALAR.inv_transform4(coeffs), SIMD.inv_transform4(coeffs))

    @given(blocks(4, -4096, 4096))
    def test_hadamard4(self, block):
        assert_same(SCALAR.hadamard4_forward(block), SIMD.hadamard4_forward(block))
        assert_same(SCALAR.hadamard4_inverse(block), SIMD.hadamard4_inverse(block))

    @given(st.lists(st.lists(st.integers(-4096, 4096), min_size=2, max_size=2),
                    min_size=2, max_size=2).map(lambda r: np.array(r, dtype=np.int64)))
    def test_hadamard2(self, block):
        assert_same(SCALAR.hadamard2(block), SIMD.hadamard2(block))


class TestQuantisers:
    @given(blocks(8, -2040, 2040), st.integers(1, 31), st.booleans())
    def test_quant_mpeg(self, coeffs, qscale, intra):
        from repro.kernels.tables import MPEG_INTER_MATRIX, MPEG_INTRA_MATRIX

        matrix = MPEG_INTRA_MATRIX if intra else MPEG_INTER_MATRIX
        assert_same(
            SCALAR.quant_mpeg(coeffs, matrix, qscale, intra),
            SIMD.quant_mpeg(coeffs, matrix, qscale, intra),
        )

    @given(blocks(8, -600, 600), st.integers(1, 31), st.booleans())
    def test_dequant_mpeg(self, levels, qscale, intra):
        from repro.kernels.tables import MPEG_INTER_MATRIX, MPEG_INTRA_MATRIX

        matrix = MPEG_INTRA_MATRIX if intra else MPEG_INTER_MATRIX
        assert_same(
            SCALAR.dequant_mpeg(levels, matrix, qscale, intra),
            SIMD.dequant_mpeg(levels, matrix, qscale, intra),
        )

    @given(blocks(8, -2040, 2040))
    def test_quant_matrix(self, coeffs):
        from repro.codecs.mjpeg.tables import LUMA_MATRIX

        assert_same(
            SCALAR.quant_matrix(coeffs, LUMA_MATRIX),
            SIMD.quant_matrix(coeffs, LUMA_MATRIX),
        )

    @given(blocks(8, -255, 255))
    def test_dequant_matrix(self, levels):
        from repro.codecs.mjpeg.tables import CHROMA_MATRIX

        assert_same(
            SCALAR.dequant_matrix(levels, CHROMA_MATRIX),
            SIMD.dequant_matrix(levels, CHROMA_MATRIX),
        )

    @given(blocks(8, -2040, 2040), st.integers(1, 31), st.booleans())
    def test_quant_h263(self, coeffs, qp, intra):
        assert_same(SCALAR.quant_h263(coeffs, qp, intra), SIMD.quant_h263(coeffs, qp, intra))

    @given(blocks(8, -600, 600), st.integers(1, 31), st.booleans())
    def test_dequant_h263(self, levels, qp, intra):
        assert_same(
            SCALAR.dequant_h263(levels, qp, intra), SIMD.dequant_h263(levels, qp, intra)
        )

    @given(blocks(4, -8160, 8160), st.integers(0, 51), st.booleans())
    def test_quant_h264(self, coeffs, qp, intra):
        assert_same(
            SCALAR.quant_h264_4x4(coeffs, qp, intra),
            SIMD.quant_h264_4x4(coeffs, qp, intra),
        )

    @given(blocks(4, -2047, 2047), st.integers(0, 51))
    def test_dequant_h264(self, levels, qp):
        assert_same(SCALAR.dequant_h264_4x4(levels, qp), SIMD.dequant_h264_4x4(levels, qp))

    @given(blocks(4, -16000, 16000), st.integers(0, 51), st.booleans())
    def test_h264_dc4(self, dc, qp, intra):
        assert_same(SCALAR.quant_h264_dc4(dc, qp, intra), SIMD.quant_h264_dc4(dc, qp, intra))

    @given(blocks(4, -2047, 2047), st.integers(0, 51))
    def test_h264_dc4_dequant(self, levels, qp):
        assert_same(SCALAR.dequant_h264_dc4(levels, qp), SIMD.dequant_h264_dc4(levels, qp))

    @given(st.lists(st.lists(st.integers(-8000, 8000), min_size=2, max_size=2),
                    min_size=2, max_size=2).map(lambda r: np.array(r, dtype=np.int64)),
           st.integers(0, 51), st.booleans())
    def test_h264_dc2(self, dc, qp, intra):
        assert_same(SCALAR.quant_h264_dc2(dc, qp, intra), SIMD.quant_h264_dc2(dc, qp, intra))
        levels = SCALAR.quant_h264_dc2(dc, qp, intra)
        assert_same(SCALAR.dequant_h264_dc2(levels, qp), SIMD.dequant_h264_dc2(levels, qp))


class TestMotionCompensation:
    @given(planes(24, 24), st.integers(-7, 7), st.integers(-7, 7))
    @settings(max_examples=40)
    def test_mc_halfpel(self, plane, mvx, mvy):
        args = (plane, 8, 8, 8, 8, mvx, mvy)
        assert_same(SCALAR.mc_halfpel(*args), SIMD.mc_halfpel(*args))

    @given(planes(24, 24), st.integers(-15, 15), st.integers(-15, 15))
    @settings(max_examples=40)
    def test_mc_qpel_bilinear(self, plane, mvx, mvy):
        args = (plane, 8, 8, 8, 8, mvx, mvy)
        assert_same(SCALAR.mc_qpel_bilinear(*args), SIMD.mc_qpel_bilinear(*args))

    @given(planes(28, 28), st.integers(-12, 12), st.integers(-12, 12))
    @settings(max_examples=60)
    def test_mc_qpel_h264(self, plane, mvx, mvy):
        args = (plane, 10, 10, 8, 8, mvx, mvy)
        assert_same(SCALAR.mc_qpel_h264(*args), SIMD.mc_qpel_h264(*args))

    def test_mc_qpel_h264_all_subpositions(self):
        rng = np.random.default_rng(11)
        plane = rng.integers(0, 256, (32, 32)).astype(np.int64)
        for fy in range(4):
            for fx in range(4):
                args = (plane, 12, 12, 4, 4, fx - 8, fy + 4)
                assert_same(SCALAR.mc_qpel_h264(*args), SIMD.mc_qpel_h264(*args))

    @given(planes(14, 17), st.sampled_from(HALFPEL_PHASES))
    @settings(max_examples=20)
    def test_mc_qpel_h264_whole_plane(self, plane, phase):
        rows, cols = plane.shape
        args = (plane, 2, 2, cols - 5, rows - 5) + phase
        assert_same(SCALAR.mc_qpel_h264(*args), SIMD.mc_qpel_h264(*args))

    @given(st.integers(0, 3), st.sampled_from([(4, 4), (8, 4), (4, 8), (8, 8)]),
           st.data())
    @settings(max_examples=60)
    def test_h264_plane_reader_matches_kernel(self, search_range, size, data):
        width, height = size
        frame = data.draw(planes(12, 16))
        padded = pad_plane(frame, search_range)
        x = data.draw(st.integers(0, 16 - width))
        y = data.draw(st.integers(0, 12 - height))
        reach = 4 * search_range + 3
        mvx = data.draw(st.integers(-reach, reach))
        mvy = data.draw(st.integers(-reach, reach))
        px, py = padded.offset(x, y)
        args = (padded.plane, px, py, width, height, mvx, mvy)
        expected = SIMD.mc_qpel_h264(*args)
        for backend in (SCALAR, SIMD):
            assert_same(H264QpelReader(padded, backend)(*args), expected)

    @pytest.mark.parametrize("search_range", [0, 2, 8])
    def test_h264_plane_reader_all_phases_at_range_limits(self, search_range):
        rng = np.random.default_rng(search_range)
        frame = rng.integers(0, 256, (16, 16)).astype(np.int64)
        padded = pad_plane(frame, search_range)
        readers = [H264QpelReader(padded, SCALAR), H264QpelReader(padded, SIMD)]
        corners = [(0, 0), (8, 8), (12, 0), (0, 12)]
        for x, y in corners:
            px, py = padded.offset(x, y)
            for whole_x in (-search_range - 1, 0, search_range):
                for whole_y in (-search_range - 1, 0, search_range):
                    for fy in range(4):
                        for fx in range(4):
                            mvx, mvy = 4 * whole_x + fx, 4 * whole_y + fy
                            args = (padded.plane, px, py, 4, 4, mvx, mvy)
                            expected = SIMD.mc_qpel_h264(*args)
                            for reader in readers:
                                assert_same(reader(*args), expected)

    @given(planes(20, 20), st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=40)
    def test_mc_chroma_bilinear8(self, plane, mvx, mvy):
        args = (plane, 8, 8, 4, 4, mvx, mvy)
        assert_same(SCALAR.mc_chroma_bilinear8(*args), SIMD.mc_chroma_bilinear8(*args))


def line(n: int):
    return st.lists(st.integers(0, 255), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.int64)
    )


class TestDeblock:
    @given(line(8), line(8), line(8), line(8), line(8), line(8),
           st.integers(0, 64), st.integers(0, 18),
           st.lists(st.integers(-1, 9), min_size=8, max_size=8),
           st.booleans())
    @settings(max_examples=60)
    def test_deblock_normal(self, p2, p1, p0, q0, q1, q2, alpha, beta, c0, chroma):
        c0_array = np.array(c0, dtype=np.int64)
        out_scalar = SCALAR.deblock_normal(p2, p1, p0, q0, q1, q2, alpha, beta, c0_array, chroma)
        out_simd = SIMD.deblock_normal(p2, p1, p0, q0, q1, q2, alpha, beta, c0_array, chroma)
        for a, b in zip(out_scalar, out_simd):
            assert_same(a, b)

    @given(line(8), line(8), line(8), line(8), line(8), line(8), line(8), line(8),
           st.integers(0, 128), st.integers(0, 18),
           st.lists(st.integers(0, 1), min_size=8, max_size=8),
           st.booleans())
    @settings(max_examples=60)
    def test_deblock_strong(self, p3, p2, p1, p0, q0, q1, q2, q3,
                            alpha, beta, mask, chroma):
        mask_array = np.array(mask, dtype=np.int64)
        out_scalar = SCALAR.deblock_strong(
            p3, p2, p1, p0, q0, q1, q2, q3, alpha, beta, mask_array, chroma
        )
        out_simd = SIMD.deblock_strong(
            p3, p2, p1, p0, q0, q1, q2, q3, alpha, beta, mask_array, chroma
        )
        for a, b in zip(out_scalar, out_simd):
            assert_same(a, b)
