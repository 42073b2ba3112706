"""Compare the float32 sigmoid with scipy.special.expit on all 2^32 inputs.

Every float32 bit pattern goes through ``nn.Sigmoid().forward`` and
``scipy.special.expit`` in chunks, and the script prints how many outputs
differ in their bits (two NaNs count as equal, whatever their payloads),
the seconds taken, and the glibc, numpy and scipy versions, since expit
calls the host C library's expf. The name keeps pytest from collecting it:
one run takes minutes.

Run:  PYTHONPATH=src python3 tests/check_sigmoid_exhaustive.py
"""

import platform
import sys
import time

import numpy as np
import scipy
from scipy.special import expit

from ev2vox import nn

CHUNK = 1 << 22  # inputs per chunk: about 200 MiB of temporaries


def mismatches(bits: np.ndarray) -> np.ndarray:
    """The bit patterns among ``bits`` (uint32) whose two sigmoids differ."""
    x = bits.view(np.float32)
    ours = nn.Sigmoid().forward(x, False)
    ref = expit(x)
    same = (ours.view(np.uint32) == ref.view(np.uint32)) | (np.isnan(ours) & np.isnan(ref))
    return bits[~same]


def main() -> int:
    start = time.monotonic()
    count, first = 0, []
    for lo in range(0, 1 << 32, CHUNK):
        bad = mismatches(np.arange(lo, lo + CHUNK, dtype=np.uint64).astype(np.uint32))
        count += len(bad)
        first.extend(bad[: 10 - len(first)].tolist())
    seconds = time.monotonic() - start
    libc = " ".join(platform.libc_ver())
    print(f"{count} mismatches of 2^32 float32 inputs in {seconds:.0f} s "
          f"({libc}, numpy {np.__version__}, scipy {scipy.__version__})")
    for b in first:
        print(f"  mismatch at bits 0x{b:08x} ({np.uint32(b).view(np.float32)!r})")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
