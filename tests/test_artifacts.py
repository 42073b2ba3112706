"""One table of I/O failures for every artifact writer and reader.

Every file goes through ``ev2vox.artifacts``: an OS-level failure is an
IoFailure that names the path, and a file whose bytes are not the format
it claims is a FormatError. Both are data errors, so the CLI exits 3.
A write is atomic: it replaces the destination whole or leaves it alone.
"""

import builtins
import errno
import os
import re
import shutil

import numpy as np
import pytest

from ev2vox import artifacts, cli
from ev2vox.checkpoint import CKP1_MAGIC, load_checkpoint, save_checkpoint
from ev2vox.errors import FormatError, IoFailure
from ev2vox.events import EVT1_MAGIC, read_evt1, validate_stream, write_evt1
from ev2vox.voxel import VOX1_MAGIC, VoxelGrid, read_vox1, write_vox1

# (label, write(path)) for each kind of artifact the package writes
WRITERS = [
    ("evt1", lambda p: write_evt1(validate_stream([(1, 2, 0.0, 1)], 4, 4, 0.1), p)),
    ("vox1", lambda p: write_vox1(VoxelGrid.empty(2), p)),
    ("ckp1", lambda p: save_checkpoint(p, [("w", np.zeros(2, np.float32))])),
    ("json", lambda p: artifacts.write_json(p, {"a": 1})),
    ("text", lambda p: artifacts.write(p, "a,b\n")),
]

# (label, read(path), magic, header bytes after the magic)
BINARY_READERS = [
    ("evt1", read_evt1, EVT1_MAGIC, 24),
    ("vox1", read_vox1, VOX1_MAGIC, 2),
    ("ckp1", lambda p: load_checkpoint(p, []), CKP1_MAGIC, 4),
]
READERS = [(label, read) for label, read, _, _ in BINARY_READERS] + [
    ("json", artifacts.read_json)
]


@pytest.mark.parametrize("label,write", WRITERS, ids=[w[0] for w in WRITERS])
def test_writer_onto_a_directory_is_io_failure(tmp_path, label, write):
    dest = tmp_path / f"out.{label}"
    dest.mkdir()
    with pytest.raises(IoFailure, match=re.escape(str(dest))):
        write(dest)


def test_frame_cache_onto_a_directory_is_io_failure(pipeline, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data, ignore=shutil.ignore_patterns("run", "cache"))
    dest = data / "cache" / "s0000.frames.npy"
    dest.mkdir(parents=True)
    cfg = cli.load_run_config(pipeline["cfg"], toy=True)
    with pytest.raises(IoFailure, match=re.escape(str(dest))):
        cli.cmd_preprocess(cfg, str(data / "manifest.json"), 1)


@pytest.mark.parametrize("label,read", READERS, ids=[r[0] for r in READERS])
def test_reader_of_a_missing_file_is_io_failure(tmp_path, label, read):
    path = tmp_path / f"absent.{label}"
    with pytest.raises(IoFailure, match=re.escape(str(path))):
        read(path)


@pytest.mark.parametrize("label,read,magic,header", BINARY_READERS,
                         ids=[r[0] for r in BINARY_READERS])
def test_reader_of_a_truncated_header_is_format_error(tmp_path, label, read, magic, header):
    path = tmp_path / f"short.{label}"
    path.write_bytes(magic + b"\x00" * (header - 1))
    with pytest.raises(FormatError, match="truncated"):
        read(path)


@pytest.mark.parametrize("label,read,magic,header", BINARY_READERS,
                         ids=[r[0] for r in BINARY_READERS])
def test_reader_of_a_wrong_magic_is_format_error(tmp_path, label, read, magic, header):
    path = tmp_path / f"bad.{label}"
    path.write_bytes(b"E2VXXX1\x00" + b"\x00" * header)
    with pytest.raises(FormatError, match="magic"):
        read(path)


@pytest.mark.parametrize("blob", [b"\xff\xfe{}", b'{"a": "\xe9"}', b'{"a": '],
                         ids=["utf16-bom", "latin1", "malformed"])
def test_read_json_of_bad_text_is_format_error(tmp_path, blob):
    path = tmp_path / "bad.json"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=re.escape(str(path))):
        artifacts.read_json(path)


def test_round_trips(tmp_path):
    artifacts.write_json(tmp_path / "a.json", {"b": [1, 2], "a": "é"})
    want = '{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert (tmp_path / "a.json").read_bytes() == want.encode()
    assert artifacts.read_json(tmp_path / "a.json") == {"a": "é", "b": [1, 2]}
    artifacts.write(tmp_path / "t.txt", "é\n")
    assert artifacts.read(tmp_path / "t.txt") == "é\n".encode("utf-8")
    artifacts.write(tmp_path / "t.txt", "a", b"b", memoryview(b"c"))
    assert artifacts.read(tmp_path / "t.txt") == b"abc"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "t.txt"]


class FullDisk:
    """A file whose writes fail with ENOSPC once it holds any bytes."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, chunk):
        if self.fh.tell():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(chunk)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def test_write_that_fails_mid_file_leaves_the_previous_file(tmp_path, monkeypatch):
    dest = tmp_path / "model.ckpt"
    save_checkpoint(dest, [("w", np.zeros(2, np.float32))])
    before = dest.read_bytes()
    monkeypatch.setattr(artifacts, "open", lambda path, mode: FullDisk(builtins.open(path, mode)),
                        raising=False)
    with pytest.raises(IoFailure, match=re.escape(f"cannot write {dest}: ")):
        save_checkpoint(dest, [("w", np.ones(2, np.float32)), ("v", np.ones(3, np.float32))])
    assert dest.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_make_dir_below_a_file_is_io_failure(tmp_path):
    (tmp_path / "f").write_bytes(b"")
    with pytest.raises(IoFailure, match=re.escape(str(tmp_path / "f"))):
        artifacts.make_dir(tmp_path / "f" / "sub")
