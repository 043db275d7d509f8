"""Quantiser-scale equivalence between the codec families.

Section IV of the paper derives empirically (Equation 1) how to pick an
H.264 QP that matches the subjective/objective quality of an MPEG-2/MPEG-4
quantiser scale:

    H264_QP = 12 + 6 * log2(MPEG_QP)

The paper's own settings obey it: ``vqscale=5`` / ``fixed_quant=5`` for the
MPEG codecs and ``--qp 26`` for x264 (12 + 6*log2(5) = 25.93 -> 26).
"""

from __future__ import annotations

import math
from typing import Dict

from repro.errors import ConfigError

MPEG_QSCALE_MIN = 1
MPEG_QSCALE_MAX = 31
H264_QP_MIN = 0
H264_QP_MAX = 51


def h264_qp_from_mpeg(mpeg_qscale: float) -> int:
    """Equation 1 of the paper, rounded to the nearest integer QP."""
    if mpeg_qscale < MPEG_QSCALE_MIN:
        raise ConfigError(f"MPEG quantiser scale must be >= 1, got {mpeg_qscale}")
    qp = int(round(12.0 + 6.0 * math.log2(mpeg_qscale)))
    return max(H264_QP_MIN, min(H264_QP_MAX, qp))


def quantiser_fields(codec: str, mpeg_qscale: int) -> Dict[str, int]:
    """The encoder knob that puts ``codec`` at MPEG quantiser scale
    ``mpeg_qscale``: H.264 takes the Equation 1 QP, the intra-only MJPEG
    extension (no quantiser scale) a JPEG quality on the inverse scale
    ``100 - 3 * qscale`` clamped to [5, 98], and every other codec the
    scale itself."""
    if codec == "h264":
        return {"qp": h264_qp_from_mpeg(mpeg_qscale)}
    if codec == "mjpeg":
        return {"quality": max(5, min(98, 100 - 3 * mpeg_qscale))}
    return {"qscale": mpeg_qscale}


def mpeg_qscale_from_h264(h264_qp: int) -> float:
    """Inverse of Equation 1 (exact, unrounded)."""
    if not H264_QP_MIN <= h264_qp <= H264_QP_MAX:
        raise ConfigError(f"H.264 QP must be in [0, 51], got {h264_qp}")
    return 2.0 ** ((h264_qp - 12.0) / 6.0)


def validate_mpeg_qscale(qscale: int) -> int:
    if not MPEG_QSCALE_MIN <= qscale <= MPEG_QSCALE_MAX:
        raise ConfigError(
            f"MPEG quantiser scale must be in "
            f"[{MPEG_QSCALE_MIN}, {MPEG_QSCALE_MAX}], got {qscale}"
        )
    return qscale


def validate_h264_qp(qp: int) -> int:
    if not H264_QP_MIN <= qp <= H264_QP_MAX:
        raise ConfigError(f"H.264 QP must be in [{H264_QP_MIN}, {H264_QP_MAX}], got {qp}")
    return qp
