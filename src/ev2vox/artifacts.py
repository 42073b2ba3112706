"""Every file the package reads or writes goes through this module.

The format modules only build and parse bytes. Here an ``OSError`` becomes
an ``IoFailure`` that names the path, and a file too short for its header,
a wrong magic, text that is not UTF-8 or JSON that does not parse becomes
a ``FormatError``. A write is atomic: its chunks go to a temp file beside
the destination, which is synced and then renamed over it, so a reader
sees the previous file or the new one, never a part of either.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from pathlib import Path

from .errors import FormatError, IoFailure


def write(path: str | os.PathLike, *chunks: str | bytes | memoryview) -> None:
    """Write the chunks to ``path`` in order, atomically; a str chunk is
    written as UTF-8 and any other is a bytes-like buffer, written as is."""
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        # a replaced temp file is already gone
        with contextlib.suppress(OSError):
            os.remove(tmp)


def write_json(path: str | os.PathLike, obj) -> None:
    """Write ``obj`` as JSON with two-space indents, sorted keys and a final
    newline, so equal objects give equal bytes."""
    write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def reading(path: str | os.PathLike, magic: bytes = b"", header: int = 0, kind: str = ""):
    """``path`` opened for binary reading just past ``magic``, which the file
    must start with and follow with at least ``header`` more bytes; ``kind``
    names the format in errors. An ``OSError`` while it is open is an
    IoFailure."""
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size < len(magic) + header:
                raise FormatError(f"{path}: truncated {kind} header")
            if fh.read(len(magic)) != magic:
                raise FormatError(f"{path}: bad {kind} magic")
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read(path: str | os.PathLike, magic: bytes = b"", header: int = 0, kind: str = "") -> bytes:
    """The bytes of ``path``, magic included, checked as ``reading`` checks
    them."""
    with reading(path, magic, header, kind) as fh:
        fh.seek(0)
        return fh.read()


def read_json(path: str | os.PathLike):
    """The value of a UTF-8 JSON file."""
    blob = read(path)
    try:
        return json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def make_dir(path: str | os.PathLike) -> None:
    """Create ``path`` and its parents unless present; it must be writable."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create directory {path}: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise IoFailure(f"directory {path} is not writable")
