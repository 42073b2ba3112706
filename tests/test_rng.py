"""Tests for the counter-based weight-initialization streams."""

import numpy as np
import pytest

from ev2vox import rng

MASK = (1 << 64) - 1


def finalize_int(z):
    """splitmix64 output function on a Python int."""
    z = ((z ^ (z >> 30)) * rng._MIX1) & MASK
    z = ((z ^ (z >> 27)) * rng._MIX2) & MASK
    return z ^ (z >> 31)


def uniform_reference(key, count, low, high):
    """The stream written as out-of-place array expressions."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(key) + idx * np.uint64(rng._GOLDEN)
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(rng._MIX1)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(rng._MIX2)
        z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return low + (high - low) * u


@pytest.mark.parametrize("count", [0, 1, 1000])
def test_uniform_matches_reference_formula(count):
    key = rng.stream_key(7, "encoder.stem.conv.weight")
    got = rng.uniform(key, count, -0.25, 0.75)
    want = uniform_reference(key, count, -0.25, 0.75)
    assert got.dtype == np.float64 and got.shape == (count,)
    np.testing.assert_array_equal(got, want)


def test_stream_key_matches_integer_formula():
    k = 3 ^ 0x5851F42D4C957F2D
    for b in b"decoder.head.conv.weight":
        k = finalize_int(((k ^ b) * rng._GOLDEN + 0x14057B7EF767814F) & MASK)
    assert rng.stream_key(3, "decoder.head.conv.weight") == k


def test_uniform_crosses_blocks():
    key = rng.stream_key(11, "decoder.up1.deconv.weight")
    count = 3 * rng.BLOCK + 17
    got = rng.uniform(key, count, -0.5, 0.5)
    np.testing.assert_array_equal(got, uniform_reference(key, count, -0.5, 0.5))


def test_float32_output_is_the_float64_output_rounded():
    key = rng.stream_key(2, "encoder.stem.conv.weight")
    count = rng.BLOCK + 5
    got = rng.uniform(key, count, -0.1, 0.1, np.float32)
    assert got.dtype == np.float32
    want = rng.uniform(key, count, -0.1, 0.1).astype(np.float32)
    assert got.tobytes() == want.tobytes()

