"""CKP1 checkpoint files: an ordered sequence of named float32 tensors.

Layout: magic ``E2VCKP1\\0``; u32 entry count; then per entry a u16 name
length, the UTF-8 name bytes, a u8 rank, u32 dims, and the row-major
float32 payload. Everything little-endian. Round-trips are bit-exact for
float32 data, which is why optimizer state and running statistics are
stored in float32 throughout the package.

``save_checkpoint`` and ``load_checkpoint`` build and parse CKP1 bytes; the
file itself is written and read through ``ev2vox.artifacts``.
"""

from __future__ import annotations

import os

import numpy as np

from .artifacts import read, write
from .errors import FormatError

CKP1_MAGIC = b"E2VCKP1\x00"


def save_checkpoint(path: str | os.PathLike, entries) -> None:
    """Write (name, array) pairs in order; accepts a dict or pair list."""
    if isinstance(entries, dict):
        entries = list(entries.items())
    chunks = [CKP1_MAGIC, np.uint32(len(entries)).tobytes()]
    for name, value in entries:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"entry name too long: {name[:40]}...")
        # ascontiguousarray would promote rank-0 entries to rank 1
        arr = np.asarray(value, dtype="<f4")
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if arr.ndim > 0xFF:
            raise FormatError(f"entry {name}: rank {arr.ndim} exceeds format limit")
        chunks.append(np.uint16(len(raw)).tobytes())
        chunks.append(raw)
        chunks.append(np.uint8(arr.ndim).tobytes())
        chunks.append(np.asarray(arr.shape, dtype="<u4").tobytes())
        chunks.append(arr.tobytes())
    write(path, b"".join(chunks))


def load_checkpoint(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a CKP1 file into an insertion-ordered name->float32 array dict."""
    blob = read(path, CKP1_MAGIC, 4, "CKP1")
    count = int(np.frombuffer(blob, "<u4", 1, offset=len(CKP1_MAGIC))[0])
    pos = len(CKP1_MAGIC) + 4
    out: dict[str, np.ndarray] = {}

    def take(nbytes: int) -> bytes:
        nonlocal pos
        if pos + nbytes > len(blob):
            raise FormatError(f"{path}: truncated CKP1 entry at byte {pos}")
        piece = blob[pos : pos + nbytes]
        pos += nbytes
        return piece

    for _ in range(count):
        name_len = int(np.frombuffer(take(2), "<u2")[0])
        name = take(name_len).decode("utf-8")
        rank = int(np.frombuffer(take(1), "u1")[0])
        dims = tuple(int(v) for v in np.frombuffer(take(4 * rank), "<u4"))
        n_items = 1
        for dim in dims:
            n_items *= dim
        payload = np.frombuffer(take(4 * n_items), "<f4").reshape(dims)
        if name in out:
            raise FormatError(f"{path}: duplicate entry name {name!r}")
        out[name] = payload.copy()

    if pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - pos} trailing bytes after last entry")
    return out
