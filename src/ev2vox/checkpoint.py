"""CKP1 checkpoint files: an ordered sequence of named float32 tensors.

Layout: magic ``E2VCKP1\\0``; u32 entry count; then per entry a u16 name
length, the UTF-8 name bytes, a u8 rank, u32 dims, and the row-major
float32 payload. Everything little-endian. Round-trips are bit-exact for
float32 data, which is why optimizer state and running statistics are
stored in float32 throughout the package.

Both functions take the entries as an ordered list of (name, array)
pairs, the arrays that hold the state: ``save_checkpoint`` writes each
array from its own buffer and ``load_checkpoint`` reads each payload
straight into its array, so neither makes a copy of the state. The file
itself is written and read through ``ev2vox.artifacts``.
"""

from __future__ import annotations

import os

import numpy as np

from .artifacts import reading, write
from .errors import DataError, FormatError, InternalError

CKP1_MAGIC = b"E2VCKP1\x00"


def _check_array(name: str, arr) -> None:
    if not (isinstance(arr, np.ndarray) and arr.dtype == "<f4" and arr.flags.c_contiguous):
        raise InternalError(f"checkpoint entry {name} is not a C-contiguous <f4 array")


def save_checkpoint(path: str | os.PathLike, entries) -> None:
    """Write the (name, array) pairs of ``entries`` in order."""
    chunks = [CKP1_MAGIC, len(entries).to_bytes(4, "little")]
    for name, arr in entries:
        _check_array(name, arr)
        raw = name.encode("utf-8")
        chunks += [len(raw).to_bytes(2, "little"), raw, arr.ndim.to_bytes(1, "little"),
                   np.asarray(arr.shape, "<u4").tobytes(), memoryview(arr)]
    write(path, *chunks)


def load_checkpoint(path: str | os.PathLike, entries) -> None:
    """Read the CKP1 file at ``path`` into the arrays of ``entries``, a list
    of the (name, array) pairs it was saved from, in the order it was saved.

    An entry count, name or shape other than those of ``entries`` is a
    DataError, and a file that ends early or runs on past the last entry a
    FormatError, each naming ``path``. On an error the arrays may hold part
    of the file.
    """
    with reading(path, CKP1_MAGIC, 4, "CKP1") as fh:

        def take(nbytes: int) -> bytes:
            piece = fh.read(nbytes)
            if len(piece) < nbytes:
                raise FormatError(f"{path}: truncated CKP1 entry at byte {fh.tell()}")
            return piece

        def next_name() -> bytes:
            return take(int.from_bytes(take(2), "little"))

        count = int.from_bytes(take(4), "little")
        for i, (name, dst) in enumerate(entries):
            _check_array(name, dst)
            raw = next_name() if i < count else None
            if raw != name.encode("utf-8"):
                raise DataError(f"{path}: checkpoint entry {i} is {_shown(raw)}, expected '{name}'")
            rank = take(1)[0]
            dims = tuple(np.frombuffer(take(4 * rank), "<u4").tolist())
            if dims != dst.shape:
                raise DataError(f"{path}: {name}: checkpoint shape {dims} "
                                f"!= model shape {dst.shape}")
            if fh.readinto(dst) < dst.nbytes:
                raise FormatError(f"{path}: truncated CKP1 entry {name}")
        if count > len(entries):
            raise DataError(f"{path}: checkpoint entry {len(entries)} is "
                            f"{_shown(next_name())}, expected none")
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the last CKP1 entry")


def _shown(raw: bytes | None) -> str:
    return "absent" if raw is None else f"'{raw.decode('utf-8', 'backslashreplace')}'"
