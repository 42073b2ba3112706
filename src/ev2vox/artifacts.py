"""Every file the package reads or writes goes through this module.

The format modules only build and parse bytes. Here an ``OSError`` becomes
an ``IoFailure`` that names the path, and a file too short for its header,
a wrong magic, text that is not UTF-8 or JSON that does not parse becomes
a ``FormatError``. Writes go straight to the destination, so they are not
atomic (ROADMAP item 3).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import FormatError, IoFailure


def write(path: str | os.PathLike, data: bytes | str) -> None:
    """Write ``data`` to ``path``; a str is written as UTF-8."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_json(path: str | os.PathLike, obj) -> None:
    """Write ``obj`` as JSON with two-space indents, sorted keys and a final
    newline, so equal objects give equal bytes."""
    write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read(path: str | os.PathLike, magic: bytes = b"", header: int = 0, kind: str = "") -> bytes:
    """The bytes of ``path``, which must hold ``magic`` plus ``header`` more
    bytes and start with ``magic``; ``kind`` names the format in errors."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if len(blob) < len(magic) + header:
        raise FormatError(f"{path}: truncated {kind} header")
    if not blob.startswith(magic):
        raise FormatError(f"{path}: bad {kind} magic")
    return blob


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
