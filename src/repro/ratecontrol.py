"""One-pass constant-bitrate rate control (extension).

The paper deliberately fixes one-pass constant-QP coding because it
benchmarks "the video Codecs, not the rate control algorithms" (Section
IV).  Downstream users of a codec library do need rate control, so this
module adds the simplest classical scheme on top of the constant-QP
encoders: a virtual-buffer controller that re-tunes the quantiser between
GOP-sized segments to track a target bitrate.

    stream, trace = cbr_encode("mpeg4", video, target_kbps=300,
                               width=video.width, height=video.height)

The output stream is a normal closed-GOP stream (each segment starts with
an I frame, like the GOP-parallel encoder's output) and decodes with the
ordinary decoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.codecs import get_encoder
from repro.codecs.base import EncodedPicture, EncodedVideo
from repro.common.yuv import YuvSequence
from repro.errors import ConfigError
from repro.parallel import split_chunks
from repro.transform.qp import (
    MPEG_QSCALE_MAX,
    MPEG_QSCALE_MIN,
    quantiser_fields,
)


@dataclass(frozen=True)
class RateControlStep:
    """One controller decision: the segment it applied to and the result."""

    start_frame: int
    stop_frame: int
    qscale: int
    bits_spent: int
    bits_budget: int

    @property
    def fullness(self) -> float:
        """Virtual buffer error of this segment (spent / budget)."""
        if self.bits_budget <= 0:
            return 1.0
        return self.bits_spent / self.bits_budget


def _next_qscale(qscale: int, fullness: float) -> int:
    """Proportional controller step on the virtual buffer error."""
    if fullness > 1.15:
        step = 2 if fullness > 1.6 else 1
        qscale += step
    elif fullness < 0.85:
        step = 2 if fullness < 0.6 else 1
        qscale -= step
    return max(MPEG_QSCALE_MIN, min(MPEG_QSCALE_MAX, qscale))


def cbr_encode(
    codec: str,
    video: YuvSequence,
    target_kbps: float,
    segment_frames: int = 6,
    initial_qscale: int = 5,
    **config_fields,
) -> Tuple[EncodedVideo, List[RateControlStep]]:
    """Encode ``video`` tracking ``target_kbps``; returns (stream, trace).

    ``segment_frames`` is the controller granularity (two I-P-B-B GOPs by
    default).  ``config_fields`` are the usual encoder fields minus the
    quantiser, which the controller owns.
    """
    if target_kbps <= 0:
        raise ConfigError(f"target_kbps must be positive, got {target_kbps}")
    if segment_frames < 1:
        raise ConfigError(f"segment_frames must be >= 1, got {segment_frames}")
    for owned in ("qscale", "qp", "quality"):
        if owned in config_fields:
            raise ConfigError(f"{owned!r} is owned by the rate controller")

    segments = split_chunks(
        len(video), max(1, len(video) // segment_frames), min_chunk=min(3, len(video))
    )
    bits_per_frame = target_kbps * 1000.0 / video.fps

    merged = None
    trace: List[RateControlStep] = []
    qscale = initial_qscale
    for start, stop in segments:
        fields = dict(config_fields)
        fields.update(quantiser_fields(codec, qscale))
        encoder = get_encoder(codec, **fields)
        segment = encoder.encode_sequence(
            YuvSequence(video.frames[start:stop], fps=video.fps)
        )
        if merged is None:
            merged = EncodedVideo(
                codec=segment.codec,
                width=segment.width,
                height=segment.height,
                fps=video.fps,
            )
        for picture in segment.pictures:
            merged.pictures.append(
                EncodedPicture(picture.payload, picture.display_index + start,
                               picture.frame_type)
            )
        budget = int(bits_per_frame * (stop - start))
        step = RateControlStep(
            start_frame=start,
            stop_frame=stop,
            qscale=qscale,
            bits_spent=8 * segment.total_bytes,
            bits_budget=budget,
        )
        trace.append(step)
        qscale = _next_qscale(qscale, step.fullness)
    return merged, trace
