"""Counter-based random number generation for weight initialization.

Initialization must be reproducible bit-for-bit from a seed and must not
depend on construction order, so each parameter draws from its own stream
keyed by ``(seed, parameter name)``. The generator is splitmix64 used as
a pure function of (key, counter), which vectorizes cleanly in numpy.

Because value ``i`` of a stream depends on nothing but ``key`` and ``i``,
``uniform`` computes a stream block by block, ``BLOCK`` values at a time in
scratch arrays that stay in cache, and writes each block straight into an
output of the caller's dtype. Every step is element-wise, so the bytes do
not depend on the block size: any block size, or none, gives the same
output.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

# Values per block of ``uniform``: its scratch is one uint64 and one float64
# block, plus the shared step table below, 3 * 8 * BLOCK B = 768 KiB, sized
# to stay in L2. On the paper model's weight sizes 2^14, 2^15 and 2^16 tied
# in a sweep of 2^12 to 2^18; 2^18 took 2.5 times as long.
BLOCK = 2**15
# (j + 1) * golden mod 2^64 for j in one block: the counter steps that a
# block adds to its base
_STEPS = np.arange(1, BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)


def _finalize(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 output function, applied in place to a uint64 array;
    ``tmp`` is uint64 scratch of the same size."""
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= np.uint64(_MIX1)
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= np.uint64(_MIX2)
        z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _finalize_int(z: int) -> int:
    """splitmix64 output function on a Python int below 2^64."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_key(seed: int, name: str) -> int:
    """Derive a 64-bit stream key from a seed and a label.

    The label is absorbed byte by byte so distinct parameter names give
    unrelated streams even when they share a prefix.
    """
    k = (seed & _MASK) ^ 0x5851F42D4C957F2D
    for b in name.encode("utf-8"):
        k = _finalize_int(((k ^ b) * _GOLDEN + 0x14057B7EF767814F) & _MASK)
    return k


def uniform(key: int, count: int, low: float, high: float,
            dtype=np.float64) -> np.ndarray:
    """The first ``count`` samples in [low, high) of the keyed stream, as
    ``dtype``.

    Value ``i`` takes the top 53 bits of word ``i`` as a float64 in [0, 1),
    scales and shifts it in float64, then rounds it once to ``dtype``;
    results are identical on any platform with IEEE doubles. The words are
    made ``BLOCK`` at a time, each block written into the output as it is
    done, so no whole-length temporary exists; since every step is
    element-wise, the output bytes do not depend on ``BLOCK``.
    """
    out = np.empty(count, dtype)
    n = min(count, BLOCK)
    z = np.empty(n, np.uint64)
    u = np.empty(n, np.float64)
    # exact: 2^-53 is a power of two, so the product rounds once, as
    # (bits * 2^-53) * (high - low) does
    scale = (high - low) * 2.0 ** -53
    for b0 in range(0, count, BLOCK):
        m = min(BLOCK, count - b0)
        zb, ub = z[:m], u[:m]
        # word i is splitmix64(key + (i + 1) * golden), all mod 2^64; the
        # block from b0 adds its steps to key + b0 * golden
        np.add(_STEPS[:m], np.uint64((key + b0 * _GOLDEN) & _MASK), out=zb)
        _finalize(zb, ub.view(np.uint64))
        zb >>= np.uint64(11)
        np.multiply(zb, scale, out=ub)
        ub += low
        out[b0:b0 + m] = ub
    return out

