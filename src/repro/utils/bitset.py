"""Lane words: one uint64 per vertex, one bit per root lane.

The bit-parallel multi-source BFS kernel carries one word per vertex;
:data:`MAX_LANES` is the lane count of a word and :func:`lane_matrix`
unpacks a word array into its (index, lane) membership matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_LANES", "lane_matrix"]

#: Lanes per word: one uint64 bit per root in the batched BFS kernel.
MAX_LANES = 64


def lane_matrix(words: np.ndarray) -> np.ndarray:
    """Unpack words into an ``(n, MAX_LANES)`` bool matrix, bit i → column i.

    One ``np.unpackbits`` pass replaces a per-lane masking loop: kernels
    get every (index, lane) membership pair from ``np.nonzero`` of the
    matrix instead of ``MAX_LANES`` passes over the word array.
    """
    # Little-endian layout pins the byte→lane map on any host.
    words = np.ascontiguousarray(words, dtype="<u8")
    if words.size == 0:
        return np.empty((0, MAX_LANES), dtype=bool)
    bits = np.unpackbits(
        words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    )
    return bits.view(bool)
