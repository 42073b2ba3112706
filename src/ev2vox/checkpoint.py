"""CKP1 checkpoint files: an ordered sequence of named float32 tensors.

Layout: magic ``E2VCKP1\\0``; u32 entry count; then per entry a u16 name
length, the UTF-8 name bytes, a u8 rank, u32 dims, and the row-major
float32 payload. Everything little-endian. Round-trips are bit-exact for
float32 data, which is why optimizer state and running statistics are
stored in float32 throughout the package.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import FormatError, IoFailure

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
    try:
        with open(path, "wb") as fh:
            fh.write(b"".join(chunks))
    except OSError as exc:
        raise IoFailure(f"cannot write checkpoint {path}: {exc}") from exc


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write a text artifact, such as a checkpoint's JSON sidecar; an OSError
    is an IoFailure, as in save_checkpoint."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def load_checkpoint(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a CKP1 file into an insertion-ordered name->float32 array dict."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc

    if len(blob) < len(CKP1_MAGIC) + 4:
        raise FormatError(f"{path}: truncated CKP1 header")
    if blob[: len(CKP1_MAGIC)] != CKP1_MAGIC:
        raise FormatError(f"{path}: bad magic, not a CKP1 file")

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
