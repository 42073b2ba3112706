"""Counter-based random number generation for weight initialization.

Initialization must be reproducible bit-for-bit from a seed and must not
depend on construction order, so each parameter draws from its own stream
keyed by ``(seed, parameter name)``. The generator is splitmix64 used as
a pure function of (key, counter), which vectorizes cleanly in numpy.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64 output function, applied in place to a uint64 array."""
    tmp = np.empty_like(z)
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= np.uint64(_MIX1)
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= np.uint64(_MIX2)
        z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def stream_key(seed: int, name: str) -> int:
    """Derive a 64-bit stream key from a seed and a label.

    The label is absorbed byte by byte so distinct parameter names give
    unrelated streams even when they share a prefix.
    """
    k = (seed & _MASK) ^ 0x5851F42D4C957F2D
    for b in name.encode("utf-8"):
        k = ((k ^ b) * _GOLDEN + 0x14057B7EF767814F) & _MASK
        k = int(_finalize(np.array([k], dtype=np.uint64))[0])
    return k & _MASK


def raw_uint64(key: int, start: int, count: int) -> np.ndarray:
    """Values ``start .. start+count-1`` of the stream, as uint64."""
    state = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state *= np.uint64(_GOLDEN)
        state += np.uint64(key)
    return _finalize(state)


def uniform(key: int, start: int, count: int, low: float, high: float) -> np.ndarray:
    """Uniform float64 samples in [low, high) from the keyed stream.

    Uses the top 53 bits of each word, so results are identical on any
    platform with IEEE doubles.
    """
    bits = raw_uint64(key, start, count)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u *= 2.0 ** -53
    u *= high - low
    u += low
    return u


class ParameterRng:
    """Sequential view of one keyed stream, tracking its own offset."""

    def __init__(self, seed: int, name: str):
        self.key = stream_key(seed, name)
        self.offset = 0

    def uniform(self, count: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        out = uniform(self.key, self.offset, count, low, high)
        self.offset += count
        return out
