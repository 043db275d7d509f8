"""Seeded inputs of the four workloads, and digests that identify them.

Everything a workload feeds the program is derived here from the run's
``--seed``; the program itself only ever sees the generated inputs.

* Figure 1 runs the twelve jobs (four Table III clips, rendered with
  their generators' own seeds, times three codecs) in an order the seed
  shuffles.  The clips themselves do not depend on the seed: rendering
  them with other generator seeds moved SIMD decode throughput by up to
  ±10% from one seed to the next, more than the benchmark's bounds, so
  every run measures the paper's clips.
* ``serve`` runs the traffic seeds ``SERVE_SEEDS * s ... + SERVE_SEEDS - 1``.
* ``campaign`` runs ``campaign.json`` with the spec seed set to ``s``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent

#: Figure 1 codecs, in the paper's order.
FIG1_CODECS = ("mpeg2", "mpeg4", "h264")
FIG1_SCALE = Fraction(1, 8)
#: fig1-encode: the scaled 720p25 tier (160x96), 9 frames.
ENCODE_TIER, ENCODE_FRAMES = "720p25", 9
#: fig1-decode: the scaled 1088p25 tier (240x144).  Four frames (one
#: I-B-B-P group) keep the set-up encode of the 12 streams near 20 s.
DECODE_TIER, DECODE_FRAMES = "1088p25", 4

#: Distinct traffic seeds (60-client populations) per serve run.
SERVE_SEEDS = 3
SERVE_CLIENTS = 60
SERVE_CODECS = ("h264",)

CAMPAIGN_SPEC = HERE / "campaign.json"


def fig1_jobs(seed: int, tier: str, frames: int) -> List[Tuple[str, str, object]]:
    """``(clip name, codec, YuvSequence)`` for every Figure 1 job, in the
    order ``seed`` shuffles them into."""
    from repro.sequences import SEQUENCE_NAMES, generate_sequence

    jobs = []
    for name in SEQUENCE_NAMES:
        clip = generate_sequence(name, tier, frames=frames, scale=FIG1_SCALE)
        jobs.extend((name, codec, clip) for codec in FIG1_CODECS)
    random.Random(seed).shuffle(jobs)
    return jobs


def encoder_fields(codec: str, tier: str) -> Dict:
    """Figure 1 encoder settings: ``BenchConfig`` defaults, SIMD backend."""
    from repro.bench.config import BenchConfig
    from repro.common.resolution import tier_by_name

    return BenchConfig(scale=FIG1_SCALE).encoder_fields(
        codec, tier_by_name(tier, FIG1_SCALE), backend="simd")


def traffic_seeds(seed: int) -> List[int]:
    return [SERVE_SEEDS * seed + index for index in range(SERVE_SEEDS)]


def traffic_profiles(traffic_seed: int) -> list:
    """The client population ``run_serve`` builds for ``traffic_seed``."""
    from repro.origin.traffic import TrafficConfig, generate_profiles

    return generate_profiles(TrafficConfig(
        clients=SERVE_CLIENTS, seed=traffic_seed, codecs=SERVE_CODECS))


def campaign_spec(seed: int):
    """``campaign.json`` parsed, with the spec seed set to ``seed``."""
    from repro.orchestrate.spec import parse_spec

    data = json.loads(CAMPAIGN_SPEC.read_text(encoding="utf-8"))
    data["seed"] = seed
    return parse_spec(data, source=str(CAMPAIGN_SPEC))


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------


def frames_digest(video) -> str:
    """sha256 over every plane of every frame, in display order."""
    digest = hashlib.sha256()
    for frame in video:
        for plane in (frame.y, frame.u, frame.v):
            digest.update(plane.tobytes())
    return digest.hexdigest()


def stream_digest(stream) -> str:
    from repro.codecs.container import pack

    return hashlib.sha256(pack(stream)).hexdigest()


def input_digest(workload: str, seed: int) -> str:
    """One digest over everything ``workload`` feeds the program."""
    digest = hashlib.sha256(workload.encode())
    if workload in ("fig1-encode", "fig1-decode"):
        tier, frames = ((ENCODE_TIER, ENCODE_FRAMES) if workload == "fig1-encode"
                        else (DECODE_TIER, DECODE_FRAMES))
        for name, codec, clip in fig1_jobs(seed, tier, frames):
            digest.update(f"{name}/{codec}:{frames_digest(clip)}".encode())
    elif workload == "serve":
        for traffic_seed in traffic_seeds(seed):
            digest.update(repr(traffic_profiles(traffic_seed)).encode())
    elif workload == "campaign":
        digest.update(campaign_spec(seed).fingerprint().encode())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return digest.hexdigest()


def load_baseline() -> Dict[str, Dict[str, str]]:
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))

