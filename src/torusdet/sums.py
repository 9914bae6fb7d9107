"""Deterministic accumulation of chunked lattice sums.

Lattice sums in this package are reduced in a fixed order: vectorized
partial sums per outermost-axis chunk (numpy pairwise summation), then an
exact ``math.fsum`` over the chunk partials.  The result is independent of
chunk boundaries to the fsum guarantee and bit-reproducible run to run.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


def fsum_chunks(chunks: Iterable[np.ndarray | float]) -> float:
    """Accumulate per-chunk partial sums deterministically.

    Each chunk is reduced with numpy's pairwise ``sum`` and the partials are
    combined exactly with ``math.fsum``: the result is bit-reproducible for
    a fixed chunking and stays within ~1e-13 relative across different
    chunk boundaries (only the in-chunk pairwise rounding moves).
    """
    partials = []
    for c in chunks:
        if isinstance(c, np.ndarray):
            partials.append(float(np.sum(c)))
        else:
            partials.append(float(c))
    return math.fsum(partials)
