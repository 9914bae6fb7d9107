"""Tests for the deterministic chunked accumulation."""

import numpy as np

from torusdet.sums import fsum_chunks


def test_fsum_chunks_deterministic_and_chunking_stable():
    rng = np.random.default_rng(1)
    data = rng.normal(size=4096) * 10.0 ** rng.integers(-8, 8, size=4096)
    chunked = [data[:1000], data[1000:3000], data[3000:]]
    # bit-reproducible for a fixed chunking
    assert fsum_chunks(chunked) == fsum_chunks([c.copy() for c in chunked])
    # within 1e-13 relative across chunk boundaries
    a = fsum_chunks([data])
    b = fsum_chunks(chunked)
    c = fsum_chunks(list(data.reshape(64, 64)))
    scale = float(np.sum(np.abs(data)))
    assert abs(a - b) <= 1e-13 * scale
    assert abs(a - c) <= 1e-13 * scale


def test_fsum_chunks_accepts_scalars():
    assert fsum_chunks([1.5, np.array([2.5, -1.0])]) == 3.0
