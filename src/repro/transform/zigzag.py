"""Coefficient scan orders.

Quantised transform coefficients are serialised in zigzag order before
entropy coding; all three codecs use these scans.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np


def _zigzag_positions(size: int) -> List[Tuple[int, int]]:
    """Classic zigzag order for a ``size`` x ``size`` block."""
    positions = []
    for diag in range(2 * size - 1):
        wave = []
        for i in range(diag + 1):
            j = diag - i
            if i < size and j < size:
                wave.append((i, j))
        if diag % 2 == 0:
            wave.reverse()
        positions.extend(wave)
    return positions


ZIGZAG_8X8: Tuple[Tuple[int, int], ...] = tuple(_zigzag_positions(8))
ZIGZAG_4X4: Tuple[Tuple[int, int], ...] = tuple(_zigzag_positions(4))
ZIGZAG_2X2: Tuple[Tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


def scan(block: np.ndarray, order: Sequence[Tuple[int, int]]) -> List[int]:
    """Serialise ``block`` in the given scan order."""
    rows = block.tolist()
    return [rows[i][j] for i, j in order]


@functools.lru_cache(maxsize=None)
def _flat_index(order: Tuple[Tuple[int, int], ...], size: int) -> np.ndarray:
    """Row-major flat positions of the entries of a scan order."""
    return np.array([i * size + j for i, j in order], dtype=np.intp)


_INDEX_8X8 = _flat_index(ZIGZAG_8X8, 8)
_INDEX_4X4 = _flat_index(ZIGZAG_4X4, 4)


def _place(values: Sequence[int], index: np.ndarray, size: int) -> np.ndarray:
    count = min(len(values), len(index))
    block = np.zeros(size * size, dtype=np.int64)
    block[index[:count]] = values[:count]
    return block.reshape(size, size)


def unscan(values: Sequence[int], order: Sequence[Tuple[int, int]], size: int) -> np.ndarray:
    """Rebuild a ``size`` x ``size`` block from scan-ordered ``values``.

    Values beyond the length of ``order`` are ignored.
    """
    return _place(values, _flat_index(tuple(order), size), size)


def scan8(block: np.ndarray) -> List[int]:
    return scan(block, ZIGZAG_8X8)


def unscan8(values: Sequence[int]) -> np.ndarray:
    return _place(values, _INDEX_8X8, 8)


def scan4(block: np.ndarray) -> List[int]:
    return scan(block, ZIGZAG_4X4)


def unscan4(values: Sequence[int]) -> np.ndarray:
    return _place(values, _INDEX_4X4, 4)
