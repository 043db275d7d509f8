"""Tests for padded reference planes and chroma MV derivation."""

import numpy as np
import pytest

from repro.codecs.frames import WorkingFrame
from repro.errors import ConfigError
from repro.kernels import get_kernels
from repro.mc.chroma import chroma_mv_from_halfpel, chroma_mv_from_qpel
from repro.mc.pad import INTERP_MARGIN, H264QpelReader, pad_plane
from repro.me.types import MotionVector


class TestPadPlane:
    def test_dimensions(self):
        plane = np.arange(12, dtype=np.int64).reshape(3, 4)
        padded = pad_plane(plane, search_range=5)
        pad = 5 + INTERP_MARGIN
        assert padded.pad == pad
        assert padded.plane.shape == (3 + 2 * pad, 4 + 2 * pad)
        assert padded.width == 4
        assert padded.height == 3

    def test_interior_preserved(self):
        plane = np.arange(16, dtype=np.int64).reshape(4, 4)
        padded = pad_plane(plane, 2)
        x, y = padded.offset(0, 0)
        assert np.array_equal(padded.plane[y : y + 4, x : x + 4], plane)

    def test_edges_replicated(self):
        plane = np.array([[1, 2], [3, 4]], dtype=np.int64)
        padded = pad_plane(plane, 1)
        assert padded.plane[0, 0] == 1  # top-left corner replicates
        assert padded.plane[-1, -1] == 4
        x, y = padded.offset(0, 0)
        assert padded.plane[y - 3, x] == 1  # above top row
        assert padded.plane[y, x - 3] == 1  # left of first column

    def test_offset_mapping(self):
        plane = np.zeros((8, 8), dtype=np.int64)
        padded = pad_plane(plane, 4)
        assert padded.offset(2, 3) == (2 + padded.pad, 3 + padded.pad)

    def test_negative_range_rejected(self):
        with pytest.raises(ConfigError):
            pad_plane(np.zeros((4, 4)), -1)


class TestHalfpelPlaneCache:
    KERNELS = get_kernels("simd")

    def _frame(self, seed: int = 0) -> WorkingFrame:
        rng = np.random.default_rng(seed)
        return WorkingFrame(
            rng.integers(0, 256, (16, 16)).astype(np.int64),
            np.zeros((8, 8), dtype=np.int64),
            np.zeros((8, 8), dtype=np.int64),
        )

    def test_planes_are_uint8_and_built_once(self):
        padded = self._frame().padded("y", 4)
        planes = padded.halfpel_planes(self.KERNELS)
        assert [plane.dtype for plane in planes] == [np.uint8] * 3
        rows, cols = padded.plane.shape
        assert all(plane.shape == (rows - 5, cols - 5) for plane in planes)
        assert all(not plane.flags.writeable for plane in planes)
        assert not padded.plane.flags.writeable
        assert padded.halfpel_planes(self.KERNELS) is planes

    def test_invalidate_padding_drops_planes(self):
        frame = self._frame()
        planes = frame.padded("y", 4).halfpel_planes(self.KERNELS)
        frame.invalidate_padding()
        assert frame.padded("y", 4).halfpel_planes(self.KERNELS) is not planes

    def test_reader_sees_new_samples_after_mutation_and_invalidation(self):
        frame = self._frame()
        before = frame.padded("y", 4)
        args = before.offset(4, 4) + (8, 8, 5, -7)
        old = H264QpelReader(before, self.KERNELS)(before.plane, *args)
        frame.y[:] = 255 - frame.y
        frame.invalidate_padding()
        after = frame.padded("y", 4)
        new = H264QpelReader(after, self.KERNELS)(after.plane, *args)
        expected = self.KERNELS.mc_qpel_h264(after.plane, *args)
        assert np.array_equal(new, expected)
        assert not np.array_equal(new, old)

    def test_reader_rejects_other_planes(self):
        padded = self._frame().padded("y", 4)
        reader = H264QpelReader(padded, self.KERNELS)
        with pytest.raises(ValueError):
            reader(padded.plane.copy(), 8, 8, 4, 4, 1, 1)


class TestChromaMv:
    @pytest.mark.parametrize(
        "luma, expected",
        [(0, 0), (1, 0), (2, 1), (3, 1), (-1, 0), (-2, -1), (-3, -1), (-4, -2)],
    )
    def test_halfpel_derivation(self, luma, expected):
        mv = chroma_mv_from_halfpel(MotionVector(luma, luma))
        assert mv == MotionVector(expected, expected)

    @pytest.mark.parametrize(
        "luma, expected",
        [(0, 0), (3, 0), (4, 1), (6, 1), (8, 2), (-3, 0), (-4, -1), (-9, -2)],
    )
    def test_qpel_derivation(self, luma, expected):
        mv = chroma_mv_from_qpel(MotionVector(luma, luma))
        assert mv == MotionVector(expected, expected)

    def test_components_independent(self):
        mv = chroma_mv_from_halfpel(MotionVector(5, -7))
        assert mv == MotionVector(2, -3)
