"""Benchmark configuration.

Defaults mirror the paper's methodology scaled to pure-Python runtimes:
constant-QP encodes at qscale 5 / QP 26 (Equation 1), the I-P-B-B GOP,
EPZS / hexagon motion estimation, the three resolution tiers (scaled by
1/8 by default; see ``repro.common.resolution``), and multiple timed runs
per measurement (the paper uses five).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple

from repro.codecs import CODEC_NAMES
from repro.common.resolution import PAPER_TIERS, Resolution, scaled_tier
from repro.errors import ConfigError
from repro.sequences import SEQUENCE_NAMES
from repro.transform.qp import h264_qp_from_mpeg, quantiser_fields


@dataclass(frozen=True)
class BenchConfig:
    """Parameters of one benchmark campaign."""

    scale: Fraction = Fraction(1, 8)
    frames: int = 9
    qscale: int = 5
    search_range: int = 8
    runs: int = 3
    warmup: int = 1
    sequences: Tuple[str, ...] = SEQUENCE_NAMES
    codecs: Tuple[str, ...] = CODEC_NAMES
    tier_names: Tuple[str, ...] = tuple(tier.name for tier in PAPER_TIERS)

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        known_tiers = {tier.name for tier in PAPER_TIERS}
        for name in self.tier_names:
            if name not in known_tiers:
                raise ConfigError(
                    f"unknown resolution tier {name!r} "
                    f"(known: {', '.join(sorted(known_tiers))})"
                )

    @property
    def h264_qp(self) -> int:
        """Equation 1 applied to ``qscale`` (qscale 5 -> QP 26)."""
        return h264_qp_from_mpeg(self.qscale)

    def tiers(self) -> Tuple[Resolution, ...]:
        by_name = {tier.name: tier for tier in PAPER_TIERS}
        return tuple(scaled_tier(by_name[name], self.scale) for name in self.tier_names)

    def encoder_fields(self, codec: str, resolution: Resolution,
                       backend: str = "simd") -> Dict:
        """Constructor arguments for ``get_encoder`` under this config."""
        return dict(
            width=resolution.width,
            height=resolution.height,
            search_range=self.search_range,
            backend=backend,
            **quantiser_fields(codec, self.qscale),
        )


def quick_config() -> BenchConfig:
    """A minimal configuration for smoke tests and pytest-benchmark runs."""
    return BenchConfig(
        frames=5,
        runs=1,
        warmup=0,
        sequences=("rush_hour",),
        tier_names=("576p25",),
    )
