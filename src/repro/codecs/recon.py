"""Macroblock residual reconstruction, shared by every encoder and decoder.

Real SIMD decoders rebuild a macroblock's residual in one call: FFmpeg's
``h264_idct_add16``/``idct_add8`` take all of a macroblock's coefficient
blocks at once.  This module does the same through the kernel API's
stacked inverse path (:mod:`repro.kernels.api`).  Per macroblock it

1. stacks the *coded* blocks only;
2. makes one dequant and one inverse-transform call on the stack;
3. scatters the results into a zeroed residual per plane;
4. makes one ``add_clip`` and one ``store_block`` per plane.

The scalar backend loops over a stack block by block, so stacking only
coded blocks keeps its work what the per-block code did.  Encoders call
the same routines for their reconstruction, so encoder and decoder stay
bit-identical by construction: one code path per transform family.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.codecs.frames import WorkingFrame

Levels = Optional[np.ndarray]

#: All-zero planes of one macroblock: the prediction of an 8x8 DCT intra
#: macroblock, and the residual of a macroblock without one.
ZERO_MB: Dict[str, np.ndarray] = {
    "y": np.zeros((16, 16), dtype=np.int64),
    "u": np.zeros((8, 8), dtype=np.int64),
    "v": np.zeros((8, 8), dtype=np.int64),
}
for _plane in ZERO_MB.values():
    _plane.setflags(write=False)


def tile(blocks: np.ndarray, grid: int) -> np.ndarray:
    """Lay ``grid * grid`` raster-ordered ``(s, s)`` blocks out as one plane."""
    size = blocks.shape[-1]
    return (
        blocks.reshape(grid, grid, size, size)
        .transpose(0, 2, 1, 3)
        .reshape(grid * size, grid * size)
    )


def inverse_blocks(levels: Sequence[Levels], size: int, dequant: Callable,
                   inverse: Callable, dc: Optional[np.ndarray] = None) -> np.ndarray:
    """``(size, size)`` residual blocks for ``levels``; ``None`` is uncoded.

    The coded blocks go through one stacked ``dequant`` and one stacked
    ``inverse`` call.  ``dc``, when given, holds one dequantised DC term
    per entry of ``levels`` in order (any shape) and replaces the
    dequantised ``[0, 0]`` terms; every entry is then coded, a ``None``
    one as all-zero levels.
    """
    if dc is not None:
        zero = np.zeros((size, size), dtype=np.int64)
        levels = [zero if block is None else block for block in levels]
    out = np.zeros((len(levels), size, size), dtype=np.int64)
    coded = [index for index, block in enumerate(levels) if block is not None]
    if coded:
        coeffs = dequant(np.array([levels[index] for index in coded]))
        if dc is not None:
            coeffs[:, 0, 0] = np.ravel(dc)
        out[coded] = inverse(coeffs)
    return out


def add_and_store(kernels, frame: WorkingFrame, mbx: int, mby: int,
                  prediction: Dict[str, np.ndarray],
                  residual: Dict[str, np.ndarray]) -> None:
    """One ``add_clip`` and one ``store_block`` per plane of one macroblock."""
    for plane, pred in prediction.items():
        size = 16 if plane == "y" else 8
        frame.store_block(plane, size * mbx, size * mby,
                          kernels.add_clip(pred, residual[plane]))


def reconstruct_dct_mb(kernels, frame: WorkingFrame, mbx: int, mby: int,
                       prediction: Dict[str, np.ndarray],
                       levels: Sequence[Levels], dequant: Callable) -> None:
    """MPEG-2 / MPEG-4: six 8x8 blocks (four luma in raster order, u, v).

    ``dequant`` maps a stack of quantised levels to coefficients, e.g. a
    partial of ``kernels.dequant_mpeg`` with the picture's matrix.
    """
    blocks = inverse_blocks(levels, 8, dequant, kernels.idct8)
    residual = {"y": tile(blocks[:4], 2), "u": blocks[4], "v": blocks[5]}
    add_and_store(kernels, frame, mbx, mby, prediction, residual)


def h264_blocks(kernels, qp: int, levels: Sequence[Levels],
                dc: Optional[np.ndarray] = None) -> np.ndarray:
    """H.264: residual 4x4 blocks through ``dequant_h264_4x4`` + ``inv_transform4``."""
    return inverse_blocks(
        levels, 4, lambda stack: kernels.dequant_h264_4x4(stack, qp),
        kernels.inv_transform4, dc,
    )


def h264_luma_residual(kernels, qp: int, levels: Sequence[Levels],
                       dc: Optional[np.ndarray] = None) -> np.ndarray:
    """The 16x16 luma residual from sixteen raster-ordered 4x4 blocks.

    ``dc`` is the Intra16x16 DC block from ``dequant_h264_dc4``.
    """
    return tile(h264_blocks(kernels, qp, levels, dc), 4)


def h264_chroma_residual(kernels, qp: int, ac: Sequence[Levels],
                         dc: Optional[Sequence[np.ndarray]]) -> Dict[str, np.ndarray]:
    """The u and v 8x8 residuals of a macroblock with chroma residual syntax.

    ``ac`` lists the eight AC level blocks, u then v, each plane in raster
    order; ``dc`` the two dequantised 2x2 DC blocks, u then v, or ``None``
    when the macroblock codes no chroma DC.  All eight blocks go through
    the kernels, as in the per-block code.
    """
    blocks = h264_blocks(kernels, qp, ac, np.zeros(8, dtype=np.int64) if dc is None else dc)
    return {"u": tile(blocks[:4], 2), "v": tile(blocks[4:], 2)}
