"""SIMD kernel backend: NumPy-vectorised integer kernels.

The data-parallel analogue of the paper's SIMD codec builds.  Every kernel
implements exactly the same integer algorithm as the scalar backend
(:mod:`repro.kernels.scalar`) — same rounding, same shifts, same clipping —
so the two backends are bit-exact against each other (enforced by property
tests in ``tests/test_kernels_equivalence.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels import tables

_A8 = tables.DCT8_INT
_H4 = tables.HADAMARD4
_CF = tables.H264_CF
_CI = tables.H264_CI
_POS = tables.H264_POSITION_CLASS


def _i64(block) -> np.ndarray:
    return np.asarray(block, dtype=np.int64)


def _sign_mag(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return np.sign(values), np.abs(values)


def _clip255(values: np.ndarray) -> np.ndarray:
    # np.minimum/np.maximum avoid the slow np.clip dispatch path, which
    # matters for the many small-block calls the codecs make.
    return np.minimum(np.maximum(values, 0), 255)


def _clip_range(values: np.ndarray, low, high) -> np.ndarray:
    return np.minimum(np.maximum(values, low), high)


class SimdKernels:
    """NumPy implementation of the kernel API."""

    name = "simd"

    # ------------------------------------------------------------------
    # cost kernels
    # ------------------------------------------------------------------

    def sad(self, a, b):
        diff = np.abs(_i64(b) - _i64(a))
        if diff.ndim == 3:
            return diff.reshape(diff.shape[0], -1).sum(axis=1).tolist()
        return int(np.sum(diff))

    def ssd(self, a, b) -> int:
        diff = _i64(a) - _i64(b)
        return int(np.sum(diff * diff))

    def satd4(self, a, b) -> int:
        diff = _i64(a) - _i64(b)
        transformed = _H4 @ diff @ _H4
        return int(np.sum(np.abs(transformed))) >> 1

    # ------------------------------------------------------------------
    # block arithmetic
    # ------------------------------------------------------------------

    def sub(self, a, b) -> np.ndarray:
        return _i64(a) - _i64(b)

    def add_clip(self, prediction, residual) -> np.ndarray:
        return _clip255(_i64(prediction) + _i64(residual))

    def average(self, a, b) -> np.ndarray:
        return (_i64(a) + _i64(b) + 1) >> 1

    # ------------------------------------------------------------------
    # 8x8 DCT family
    # ------------------------------------------------------------------

    def fdct8(self, block) -> np.ndarray:
        x = _i64(block)
        return (_A8 @ x @ _A8.T + tables.DCT8_ROUND) >> tables.DCT8_FINAL_SHIFT

    def idct8(self, coeffs) -> np.ndarray:
        y = _i64(coeffs)
        return (_A8.T @ y @ _A8 + tables.DCT8_ROUND) >> tables.DCT8_FINAL_SHIFT

    # ------------------------------------------------------------------
    # H.264 4x4 integer transform family
    # ------------------------------------------------------------------

    def fwd_transform4(self, block) -> np.ndarray:
        x = _i64(block)
        return _CF @ x @ _CF.T

    def inv_transform4(self, coeffs) -> np.ndarray:
        w = _i64(coeffs)
        return (_CI @ w @ _CI.T + 128) >> 8

    def hadamard4_forward(self, block) -> np.ndarray:
        x = _i64(block)
        return (_H4 @ x @ _H4) >> 1

    def hadamard4_inverse(self, coeffs) -> np.ndarray:
        y = _i64(coeffs)
        return _H4 @ y @ _H4

    def hadamard2(self, block) -> np.ndarray:
        b = _i64(block)
        h2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
        return h2 @ b @ h2

    # ------------------------------------------------------------------
    # MPEG-2 style quantisation
    # ------------------------------------------------------------------

    def quant_mpeg(self, coeffs, matrix, qscale: int, intra: bool) -> np.ndarray:
        c = _i64(coeffs)
        w = _i64(matrix)
        divisor = w * qscale
        scale = tables.MPEG_QUANT_SCALE
        sign, mag = _sign_mag(c)
        if intra:
            out = sign * ((scale * mag + divisor // 2) // divisor)
            out[0, 0] = _round_away_scalar(int(c[0, 0]), tables.MPEG_INTRA_DC_SCALER)
        else:
            out = sign * (scale * mag // divisor)
        return _clip_range(out, -2047, 2047)

    def dequant_mpeg(self, levels, matrix, qscale: int, intra: bool) -> np.ndarray:
        lv = _i64(levels)
        w = _i64(matrix)
        sign, mag = _sign_mag(lv)
        scale = tables.MPEG_QUANT_SCALE
        if intra:
            out = sign * (mag * w * qscale // scale)
            out[0, 0] = lv[0, 0] * tables.MPEG_INTRA_DC_SCALER
        else:
            out = np.where(lv == 0, 0, sign * ((2 * mag + 1) * w * qscale // (2 * scale)))
        return out

    def quant_matrix(self, coeffs, matrix) -> np.ndarray:
        c = _i64(coeffs)
        w = _i64(matrix)
        sign, mag = _sign_mag(c)
        return sign * ((mag + w // 2) // w)

    def dequant_matrix(self, levels, matrix) -> np.ndarray:
        return _i64(levels) * _i64(matrix)

    # ------------------------------------------------------------------
    # H.263-style quantisation (MPEG-4 ASP class)
    # ------------------------------------------------------------------

    def quant_h263(self, coeffs, qp: int, intra: bool) -> np.ndarray:
        c = _i64(coeffs)
        step2 = 4 * qp  # step in half-units: 2 * qp
        sign, mag = _sign_mag(c)
        if intra:
            out = sign * ((2 * mag + step2 // 2) // step2)
            out[0, 0] = _round_away_scalar(int(c[0, 0]), 8)
        else:
            out = sign * (2 * mag // step2)
        return _clip_range(out, -2047, 2047)

    def dequant_h263(self, levels, qp: int, intra: bool) -> np.ndarray:
        lv = _i64(levels)
        step2 = 4 * qp
        sign, mag = _sign_mag(lv)
        if intra:
            out = sign * (mag * step2 // 2)
            out[0, 0] = lv[0, 0] * 8
        else:
            out = np.where(lv == 0, 0, sign * ((2 * mag + 1) * step2 // 4))
        return out

    # ------------------------------------------------------------------
    # H.264 quantisation
    # ------------------------------------------------------------------

    @staticmethod
    def _h264_f(qp: int, intra: bool) -> Tuple[int, int]:
        qbits = 15 + qp // 6
        f = (1 << qbits) // 3 if intra else (1 << qbits) // 6
        return qbits, f

    def quant_h264_4x4(self, coeffs, qp: int, intra: bool) -> np.ndarray:
        c = _i64(coeffs)
        qbits, f = self._h264_f(qp, intra)
        mf = tables.H264_MF[qp % 6][_POS]
        sign, mag = _sign_mag(c)
        return sign * ((mag * mf + f) >> qbits)

    def dequant_h264_4x4(self, levels, qp: int) -> np.ndarray:
        lv = _i64(levels)
        v = tables.H264_V[qp % 6][_POS]
        return (lv * v) << (qp // 6)

    def quant_h264_dc4(self, dc, qp: int, intra: bool) -> np.ndarray:
        c = _i64(dc)
        qbits, f = self._h264_f(qp, intra)
        mf0 = int(tables.H264_MF[qp % 6][0])
        sign, mag = _sign_mag(c)
        return sign * ((mag * mf0 + 2 * f) >> (qbits + 1))

    def dequant_h264_dc4(self, levels, qp: int) -> np.ndarray:
        f = self.hadamard4_inverse(levels)
        v0 = int(tables.H264_V[qp % 6][0])
        shift = qp // 6
        if shift >= 2:
            return (f * v0) << (shift - 2)
        rounding = 1 << (1 - shift)
        return (f * v0 + rounding) >> (2 - shift)

    def quant_h264_dc2(self, dc, qp: int, intra: bool) -> np.ndarray:
        c = _i64(dc)
        qbits, f = self._h264_f(qp, intra)
        mf0 = int(tables.H264_MF[qp % 6][0])
        sign, mag = _sign_mag(c)
        return sign * ((mag * mf0 + 2 * f) >> (qbits + 1))

    def dequant_h264_dc2(self, levels, qp: int) -> np.ndarray:
        f = self.hadamard2(levels)
        v0 = int(tables.H264_V[qp % 6][0])
        return ((f * v0) << (qp // 6)) >> 1

    # ------------------------------------------------------------------
    # motion compensation / interpolation
    # ------------------------------------------------------------------

    def get_block(self, plane, x: int, y: int, width: int, height: int) -> np.ndarray:
        return np.asarray(plane[y : y + height, x : x + width], dtype=np.int64).copy()

    def mc_halfpel(self, plane, x: int, y: int, width: int, height: int,
                   mvx: int, mvy: int) -> np.ndarray:
        ix = x + (mvx >> 1)
        iy = y + (mvy >> 1)
        fx = mvx & 1
        fy = mvy & 1
        region = _i64(plane[iy : iy + height + 1, ix : ix + width + 1])
        p00 = region[:height, :width]
        if fx == 0 and fy == 0:
            return p00.copy()
        if fx == 1 and fy == 0:
            return (p00 + region[:height, 1 : width + 1] + 1) >> 1
        if fx == 0 and fy == 1:
            return (p00 + region[1 : height + 1, :width] + 1) >> 1
        return (
            p00
            + region[:height, 1 : width + 1]
            + region[1 : height + 1, :width]
            + region[1 : height + 1, 1 : width + 1]
            + 2
        ) >> 2

    def mc_qpel_bilinear(self, plane, x: int, y: int, width: int, height: int,
                         mvx: int, mvy: int) -> np.ndarray:
        ix = x + (mvx >> 2)
        iy = y + (mvy >> 2)
        fx = mvx & 3
        fy = mvy & 3
        region = _i64(plane[iy : iy + height + 1, ix : ix + width + 1])
        return (
            (4 - fx) * (4 - fy) * region[:height, :width]
            + fx * (4 - fy) * region[:height, 1 : width + 1]
            + (4 - fx) * fy * region[1 : height + 1, :width]
            + fx * fy * region[1 : height + 1, 1 : width + 1]
            + 8
        ) >> 4

    # -- H.264 six-tap quarter-pel -------------------------------------

    @staticmethod
    def _six_tap_h(region: np.ndarray) -> np.ndarray:
        """Horizontal six-tap over a region; output width = width - 5."""
        return (
            region[:, 0:-5]
            - 5 * region[:, 1:-4]
            + 20 * region[:, 2:-3]
            + 20 * region[:, 3:-2]
            - 5 * region[:, 4:-1]
            + region[:, 5:]
        )

    @staticmethod
    def _six_tap_v(region: np.ndarray) -> np.ndarray:
        """Vertical six-tap over a region; output height = height - 5."""
        return (
            region[0:-5, :]
            - 5 * region[1:-4, :]
            + 20 * region[2:-3, :]
            + 20 * region[3:-2, :]
            - 5 * region[4:-1, :]
            + region[5:, :]
        )

    def _h264_halfpel_h(self, region: np.ndarray, rows: int, cols: int,
                        row_off: int, col_off: int) -> np.ndarray:
        window = region[
            2 + row_off : 2 + row_off + rows,
            col_off : col_off + cols + 5,
        ]
        return _clip255((self._six_tap_h(window) + 16) >> 5)

    def _h264_halfpel_v(self, region: np.ndarray, rows: int, cols: int,
                        row_off: int, col_off: int) -> np.ndarray:
        window = region[
            row_off : row_off + rows + 5,
            2 + col_off : 2 + col_off + cols,
        ]
        return _clip255((self._six_tap_v(window) + 16) >> 5)

    def _h264_center(self, region: np.ndarray, rows: int, cols: int) -> np.ndarray:
        inter = self._six_tap_h(region[:, : cols + 5])[: rows + 5, :]
        return _clip255((self._six_tap_v(inter) + 512) >> 10)

    def mc_qpel_h264(self, plane, x: int, y: int, width: int, height: int,
                     mvx: int, mvy: int) -> np.ndarray:
        ix = x + (mvx >> 2)
        iy = y + (mvy >> 2)
        fx = mvx & 3
        fy = mvy & 3
        region = _i64(plane[iy - 2 : iy + height + 3, ix - 2 : ix + width + 3])

        def integer(row_off: int = 0, col_off: int = 0) -> np.ndarray:
            return region[
                2 + row_off : 2 + row_off + height,
                2 + col_off : 2 + col_off + width,
            ]

        def avg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return (a + b + 1) >> 1

        if fx == 0 and fy == 0:
            return integer().copy()
        if fy == 0:
            b = self._h264_halfpel_h(region, height, width, 0, 0)
            if fx == 2:
                return b
            return avg(integer(0, 0) if fx == 1 else integer(0, 1), b)
        if fx == 0:
            h = self._h264_halfpel_v(region, height, width, 0, 0)
            if fy == 2:
                return h
            return avg(integer(0, 0) if fy == 1 else integer(1, 0), h)
        if fx == 2 and fy == 2:
            return self._h264_center(region, height, width)
        if fx == 2:
            j = self._h264_center(region, height, width)
            b = self._h264_halfpel_h(region, height, width, 0 if fy == 1 else 1, 0)
            return avg(b, j)
        if fy == 2:
            j = self._h264_center(region, height, width)
            h = self._h264_halfpel_v(region, height, width, 0, 0 if fx == 1 else 1)
            return avg(h, j)
        b = self._h264_halfpel_h(region, height, width, 0 if fy == 1 else 1, 0)
        h = self._h264_halfpel_v(region, height, width, 0, 0 if fx == 1 else 1)
        return avg(b, h)

    def mc_chroma_bilinear8(self, plane, x: int, y: int, width: int, height: int,
                            mvx: int, mvy: int) -> np.ndarray:
        ix = x + (mvx >> 3)
        iy = y + (mvy >> 3)
        fx = mvx & 7
        fy = mvy & 7
        region = _i64(plane[iy : iy + height + 1, ix : ix + width + 1])
        return (
            (8 - fx) * (8 - fy) * region[:height, :width]
            + fx * (8 - fy) * region[:height, 1 : width + 1]
            + (8 - fx) * fy * region[1 : height + 1, :width]
            + fx * fy * region[1 : height + 1, 1 : width + 1]
            + 32
        ) >> 6

    # ------------------------------------------------------------------
    # H.264 in-loop deblocking
    # ------------------------------------------------------------------

    def deblock_normal(self, p2, p1, p0, q0, q1, q2,
                       alpha: int, beta: int, c0, chroma: bool):
        vp2, vp1, vp0 = _i64(p2), _i64(p1), _i64(p0)
        vq0, vq1, vq2 = _i64(q0), _i64(q1), _i64(q2)
        vc0 = _i64(c0)
        filt = (
            (vc0 >= 0)
            & (np.abs(vp0 - vq0) < alpha)
            & (np.abs(vp1 - vp0) < beta)
            & (np.abs(vq1 - vq0) < beta)
        )
        ap = np.abs(vp2 - vp0)
        aq = np.abs(vq2 - vq0)
        safe_c0 = np.maximum(vc0, 0)
        if chroma:
            c = safe_c0 + 1
        else:
            c = safe_c0 + (ap < beta).astype(np.int64) + (aq < beta).astype(np.int64)
        delta = _clip_range(((vq0 - vp0) * 4 + (vp1 - vq1) + 4) >> 3, -c, c)
        out_p0 = np.where(filt, _clip255(vp0 + delta), vp0)
        out_q0 = np.where(filt, _clip255(vq0 - delta), vq0)
        out_p1 = vp1.copy()
        out_q1 = vq1.copy()
        if not chroma:
            adj_p = _clip_range((vp2 + ((vp0 + vq0 + 1) >> 1) - 2 * vp1) >> 1, -safe_c0, safe_c0)
            adj_q = _clip_range((vq2 + ((vp0 + vq0 + 1) >> 1) - 2 * vq1) >> 1, -safe_c0, safe_c0)
            out_p1 = np.where(filt & (ap < beta), vp1 + adj_p, vp1)
            out_q1 = np.where(filt & (aq < beta), vq1 + adj_q, vq1)
        return out_p1, out_p0, out_q0, out_q1

    def deblock_strong(self, p3, p2, p1, p0, q0, q1, q2, q3,
                       alpha: int, beta: int, mask, chroma: bool):
        vp3, vp2, vp1, vp0 = _i64(p3), _i64(p2), _i64(p1), _i64(p0)
        vq0, vq1, vq2, vq3 = _i64(q0), _i64(q1), _i64(q2), _i64(q3)
        filt = (
            (_i64(mask) != 0)
            & (np.abs(vp0 - vq0) < alpha)
            & (np.abs(vp1 - vp0) < beta)
            & (np.abs(vq1 - vq0) < beta)
        )
        weak_p0 = (2 * vp1 + vp0 + vq1 + 2) >> 2
        weak_q0 = (2 * vq1 + vq0 + vp1 + 2) >> 2
        if chroma:
            return (
                vp2.copy(),
                vp1.copy(),
                np.where(filt, weak_p0, vp0),
                np.where(filt, weak_q0, vq0),
                vq1.copy(),
                vq2.copy(),
            )
        strong = np.abs(vp0 - vq0) < (alpha >> 2) + 2
        ap = np.abs(vp2 - vp0)
        aq = np.abs(vq2 - vq0)
        strong_p = filt & strong & (ap < beta)
        strong_q = filt & strong & (aq < beta)
        out_p0 = np.where(
            strong_p,
            (vp2 + 2 * vp1 + 2 * vp0 + 2 * vq0 + vq1 + 4) >> 3,
            np.where(filt, weak_p0, vp0),
        )
        out_p1 = np.where(strong_p, (vp2 + vp1 + vp0 + vq0 + 2) >> 2, vp1)
        out_p2 = np.where(
            strong_p, (2 * vp3 + 3 * vp2 + vp1 + vp0 + vq0 + 4) >> 3, vp2
        )
        out_q0 = np.where(
            strong_q,
            (vq2 + 2 * vq1 + 2 * vq0 + 2 * vp0 + vp1 + 4) >> 3,
            np.where(filt, weak_q0, vq0),
        )
        out_q1 = np.where(strong_q, (vq2 + vq1 + vq0 + vp0 + 2) >> 2, vq1)
        out_q2 = np.where(
            strong_q, (2 * vq3 + 3 * vq2 + vq1 + vq0 + vp0 + 4) >> 3, vq2
        )
        return out_p2, out_p1, out_p0, out_q0, out_q1, out_q2


def _round_away_scalar(numerator: int, denominator: int) -> int:
    if numerator >= 0:
        return (numerator + denominator // 2) // denominator
    return -((-numerator + denominator // 2) // denominator)
