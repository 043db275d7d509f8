"""Sub-pel motion vector refinement.

After the integer-pel search, the encoders refine to half-pel (MPEG-2) or
quarter-pel (MPEG-4 with ``qpel``, H.264) precision by evaluating the
interpolated predictions around the best integer vector — the same
two-stage refinement x264's ``--subme`` levels perform.

Motion vectors returned here are in *fractional units*: half-pel units for
MPEG-2 (interp = ``kernels.mc_halfpel``), quarter-pel for MPEG-4/H.264
(interp = ``kernels.mc_qpel_bilinear`` / the H.264 half-pel plane reader,
which returns exactly what ``kernels.mc_qpel_h264`` would).
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.mc.pad import PaddedPlane
from repro.me.cost import mv_rate_bits
from repro.me.types import MotionVector, SearchResult

InterpFn = Callable[..., np.ndarray]

_NEIGHBOURS = (
    (-1, -1), (0, -1), (1, -1),
    (-1, 0), (1, 0),
    (-1, 1), (0, 1), (1, 1),
)


def refine_subpel(
    kernels,
    current: np.ndarray,
    reference: PaddedPlane,
    x: int,
    y: int,
    width: int,
    height: int,
    integer_result: SearchResult,
    predictor: MotionVector,
    lagrangian: int,
    unit: int,
    interp: InterpFn,
) -> SearchResult:
    """Refine ``integer_result`` to fractional precision.

    ``unit`` is the number of fractional positions per pel (2 = half-pel,
    4 = quarter-pel); ``predictor`` must already be in fractional units.
    Performs log2(unit) halving stages (half-pel, then quarter-pel), each
    scoring its eight neighbours with one stacked ``sad``.  ``interp`` is
    called with the arguments of the interpolation kernels; the H.264
    encoder passes the reader of its cached half-pel planes
    (:class:`repro.mc.pad.H264QpelReader`).
    """
    plane = reference.plane
    px, py = reference.offset(x, y)

    def evaluate_many(mvs: List[MotionVector]) -> List[int]:
        blocks = np.stack([
            interp(plane, px, py, width, height, mv.x, mv.y) for mv in mvs
        ])
        sads = kernels.sad(current, blocks)
        return [
            sad + lagrangian * mv_rate_bits(mv, predictor)
            for mv, sad in zip(mvs, sads)
        ]

    best_mv = integer_result.mv.scaled(unit)
    best = SearchResult(best_mv, evaluate_many([best_mv])[0])

    step = unit >> 1
    while step >= 1:
        centre = best.mv
        neighbours = [
            MotionVector(centre.x + dx * step, centre.y + dy * step)
            for dx, dy in _NEIGHBOURS
        ]
        for mv, cost in zip(neighbours, evaluate_many(neighbours)):
            if cost < best.cost:
                best = SearchResult(mv, cost)
        step >>= 1
    return best
