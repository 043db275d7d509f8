"""Stream-level error pins: how each codec fails on damaged pictures.

How a decoder fails is part of its output: the robustness layer reports
the error class and the bit position it stopped at.  For every codec, a
tiny I-P-B clip is truncated and bit-flipped in each picture, and the
outcome of each strict decode — error class, picture index, frame type
and ``bit_position``, or the digest of the decoded frames — must match
the outcome recorded in ``fixtures/codec_error_pins.json``.  Both kernel
backends must reproduce it.

Re-record (only after a deliberate change to a decoder's error
behaviour) with ``PYTHONPATH=src python -m tests.test_codec_error_pins``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.codecs import container, get_decoder, get_encoder
from repro.errors import ReproError
from repro.robustness.bench import encoder_fields, make_bench_clip
from repro.robustness.inject import flip_bit, truncate_payload

CODECS = ("mpeg2", "mpeg4", "h264", "vc1", "mjpeg")
FIXTURE = Path(__file__).parent / "fixtures" / "codec_error_pins.json"

#: Truncation points and flipped bits per picture.
TRUNCATIONS = 4
FLIPS = 7


def encode(codec):
    clip = make_bench_clip(width=32, height=32, frames=5)
    return get_encoder(codec, **encoder_fields(codec, 32, 32)).encode_sequence(clip)


def damaged_streams(stream):
    """(label, stream) for every truncation and bit flip of every picture."""
    for index, picture in enumerate(stream.pictures):
        size = len(picture.payload)
        for keep in range(0, size, max(1, size // TRUNCATIONS)):
            yield f"truncate:{index}:{keep}", truncate_payload(stream, index, keep)
        bits = 8 * size
        for bit in range(3, bits, max(1, bits // FLIPS)):
            yield f"flip:{index}:{bit}", flip_bit(stream, index, bit)


def outcome(codec, backend, stream):
    """Error class plus decode context, or the digest of the frames."""
    try:
        frames = get_decoder(codec, backend=backend).decode(stream)
    except ReproError as error:
        frame_type = getattr(error.frame_type, "name", error.frame_type)
        return [type(error).__name__, error.picture_index, frame_type,
                error.bit_position]
    digest = hashlib.sha256()
    for frame in frames:
        for plane in (frame.y, frame.u, frame.v):
            digest.update(plane.tobytes())
    return ["frames", digest.hexdigest()]


def record(codec):
    stream = encode(codec)
    return {
        "stream": hashlib.sha256(container.pack(stream)).hexdigest(),
        "frame_types": [picture.frame_type.name for picture in stream.pictures],
        "cases": {label: outcome(codec, "simd", damaged)
                  for label, damaged in damaged_streams(stream)},
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("codec", CODECS)
def test_errors_match_recorded_pins(codec, pins):
    expected = pins[codec]
    stream = encode(codec)
    assert hashlib.sha256(container.pack(stream)).hexdigest() == expected["stream"], (
        "the encoder output changed; the pins describe another stream")
    cases = dict(damaged_streams(stream))
    assert sorted(cases) == sorted(expected["cases"])
    for label, damaged in cases.items():
        for backend in ("simd", "scalar"):
            assert outcome(codec, backend, damaged) == expected["cases"][label], (
                f"{codec} {label} ({backend})")


def test_pins_cover_errors_in_every_frame_type(pins):
    """The sweep reaches P and B pictures wherever the codec has them."""
    for codec in CODECS:
        failed_types = {case[2] for case in pins[codec]["cases"].values()
                        if case[0] != "frames"}
        assert failed_types == set(pins[codec]["frame_types"]), codec
        errors = {case[0] for case in pins[codec]["cases"].values()}
        assert {"TruncationError", "frames"} <= errors, codec


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({codec: record(codec) for codec in CODECS},
                                  indent=1, sort_keys=True) + "\n")
