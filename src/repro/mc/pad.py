"""Edge-padded reference planes and their cached H.264 half-pel planes.

Motion vectors may point (partially) outside the picture; all standards
define the out-of-bounds samples by edge replication.  Rather than clamping
coordinates per pixel in the hot interpolation loops, reference planes are
padded once per frame with a margin that covers the motion search range
plus the widest interpolation support (the H.264 six-tap filter needs
samples from -2 to +3 around the block).

The H.264 encoder evaluates many quarter-pel candidates against the same
reference, so, as x264 does, it filters each padded plane once: the three
half-pel planes (``b`` horizontal, ``h`` vertical, ``j`` centre) are built
on first use by three whole-plane ``mc_qpel_h264`` calls and cached on the
:class:`PaddedPlane`.  Every quarter-pel prediction is then a slice of one
of the four planes or the rounded average of two slices
(:class:`H264QpelReader`).  The cache lives as long as the padded plane,
so :meth:`repro.codecs.frames.WorkingFrame.invalidate_padding` drops it
together with the padding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError

#: Extra margin beyond the search range for sub-pel filter support.
INTERP_MARGIN = 8

#: (fx, fy) phases of the cached b, h and j half-pel planes.
HALFPEL_PHASES = ((2, 0), (0, 2), (2, 2))


@dataclass
class PaddedPlane:
    """A reference plane with replicated borders.

    ``plane`` holds the padded samples as read-only ``int64``; frame
    coordinate (x, y) lives at ``plane[y + pad, x + pad]``.  Read-only
    because readers hand out views of it and of the half-pel planes.
    """

    plane: np.ndarray
    pad: int
    width: int
    height: int
    _halfpel: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    def offset(self, x: int, y: int) -> tuple:
        """Translate frame coordinates into padded-plane coordinates."""
        return (x + self.pad, y + self.pad)

    def halfpel_planes(self, kernels) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The H.264 half-pel planes ``(b, h, j)``, built on first use.

        Each is one whole-plane ``kernels.mc_qpel_h264`` call at padded
        position (2, 2), so ``b[r, c]`` is the half-pel sample right of
        ``plane[r + 2, c + 2]``, ``h[r, c]`` the one below it and
        ``j[r, c]`` the centre one.  The kernel clips to 0..255, so the
        planes are stored as read-only ``uint8``.
        """
        if self._halfpel is None:
            rows, cols = self.plane.shape
            built = []
            for fx, fy in HALFPEL_PHASES:
                samples = kernels.mc_qpel_h264(
                    self.plane, 2, 2, cols - 5, rows - 5, fx, fy
                ).astype(np.uint8)
                samples.flags.writeable = False
                built.append(samples)
            self._halfpel = tuple(built)
        return self._halfpel


#: Per quarter-pel phase (index ``4 * fy + fx``): one or two
#: (source, row offset, column offset) terms.  Source 0 is the padded
#: integer plane; 1, 2 and 3 are the b, h and j half-pel planes.  Two
#: terms are averaged with rounding, as the six-tap kernel does.
_PHASE_TERMS = (
    # fy = 0
    ((0, 0, 0),), ((0, 0, 0), (1, 0, 0)), ((1, 0, 0),), ((0, 0, 1), (1, 0, 0)),
    # fy = 1
    ((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (2, 0, 0)), ((1, 0, 0), (3, 0, 0)),
    ((1, 0, 0), (2, 0, 1)),
    # fy = 2
    ((2, 0, 0),), ((2, 0, 0), (3, 0, 0)), ((3, 0, 0),), ((2, 0, 1), (3, 0, 0)),
    # fy = 3
    ((0, 1, 0), (2, 0, 0)), ((1, 1, 0), (2, 0, 0)), ((1, 1, 0), (3, 0, 0)),
    ((1, 1, 0), (2, 0, 1)),
)


class H264QpelReader:
    """H.264 quarter-pel prediction read from cached half-pel planes.

    Called with the arguments of ``kernels.mc_qpel_h264`` on the padded
    plane it was made from, it returns the same samples: a read-only
    slice for the integer and half-pel phases, one ``kernels.average``
    of two slices for the quarter-pel ones.  The motion range it serves
    is the padded plane's, as for the kernel.
    """

    __slots__ = ("_plane", "_average", "_sources")

    def __init__(self, padded: PaddedPlane, kernels) -> None:
        self._plane = padded.plane
        self._average = kernels.average
        b, h, j = padded.halfpel_planes(kernels)
        # (array, origin): sample (r, c) of the padded plane's grid is
        # array[r - origin, c - origin].
        self._sources = ((padded.plane, 0), (b, 2), (h, 2), (j, 2))

    def __call__(self, plane, x: int, y: int, width: int, height: int,
                 mvx: int, mvy: int) -> np.ndarray:
        if plane is not self._plane:
            raise ValueError("H264QpelReader called on a plane it was not built from")
        ix = x + (mvx >> 2)
        iy = y + (mvy >> 2)
        blocks = []
        for source, drow, dcol in _PHASE_TERMS[4 * (mvy & 3) + (mvx & 3)]:
            array, origin = self._sources[source]
            row = iy + drow - origin
            col = ix + dcol - origin
            blocks.append(array[row : row + height, col : col + width])
        if len(blocks) == 1:
            return blocks[0]
        return self._average(blocks[0], blocks[1])


def pad_plane(plane: np.ndarray, search_range: int) -> PaddedPlane:
    """Edge-replicate ``plane`` for motion searches up to ``search_range``."""
    if search_range < 0:
        raise ConfigError(f"search_range must be >= 0, got {search_range}")
    pad = search_range + INTERP_MARGIN
    height, width = plane.shape
    padded = np.pad(plane.astype(np.int64), pad, mode="edge")
    padded.flags.writeable = False
    return PaddedPlane(plane=padded, pad=pad, width=width, height=height)


def max_mv_magnitude(padded: PaddedPlane, block_size: int) -> int:
    """Largest integer-pel MV magnitude safely addressable in ``padded``."""
    return padded.pad - INTERP_MARGIN
