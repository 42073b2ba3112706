"""Damaged artifacts through ``eval`` and both ``export`` forms.

Each case damages one file of a copy of the session ``pipeline`` run, runs
every command that reads that file in process, and then restores it. Every
command must exit 0 (the damage is harmless, or reads as other valid data)
or 3 with a message that names the damaged file. The formats are all that
``eval`` and ``export`` read: EVT1, VOX1, CKP1, the checkpoint's JSON
sidecar, ``manifest.json``, and the frame cache's ``.npy`` stack and
``.json`` sidecar. The mutation families:

- truncation at each boundary of a binary header;
- seeded bit flips in a binary header;
- 0 and all ones written over each fixed field, and NaN and +-inf over
  each float field;
- each JSON leaf swapped for a value of every other JSON type.
"""

import dataclasses
import json
import math
import shutil

import numpy as np
import pytest

from ev2vox import cli

SAMPLE = "s0000"  # the sample whose files are damaged, entry 0 of the manifest
FLIPS = 8  # seeded header bit flips per binary format
SEED = 32

FILES = {
    "evt1": f"{SAMPLE}.evt",
    "vox1": f"{SAMPLE}.vox",
    "ckp1": "run/model.ckpt",
    "sidecar": "run/model.ckpt.json",
    "manifest": "manifest.json",
    "npy": f"cache/{SAMPLE}.frames.npy",
    "cache_json": f"cache/{SAMPLE}.frames.json",
}


# Each binary layout maps a blob to the offsets where a truncation cuts it
# (named by the first part cut off), the length of its header, and its fixed
# fields as (offset, dtype). The names are listed once more below, because
# the cases are made before any file exists.

def evt1_layout(blob):
    fields = {"m": (8, "<u4"), "n": (12, "<u4"), "t": (16, "<f8"), "i": (24, "<u8"),
              "record0.t": (32, "<f8"), "record0.x": (40, "<u2"), "record0.y": (42, "<u2"),
              "record0.p": (44, "<i1")}
    cuts = {"magic": 0, "m": 8, "n": 12, "t": 16, "i": 24, "records": 32, "record1": 48}
    return cuts, 32, fields


def vox1_layout(blob):
    return {"magic": 0, "resolution": 8, "occupancy": 10}, 10, {"resolution": (8, "<u2")}


def ckp1_entries(blob):
    """Each CKP1 entry's name -> (offset of its name length, of its rank,
    of its payload)."""
    at, out = 12, {}
    for _ in range(int.from_bytes(blob[8:12], "little")):
        n = int.from_bytes(blob[at:at + 2], "little")
        rank = blob[at + 2 + n]
        dims = np.frombuffer(blob, "<u4", rank, at + 3 + n)
        payload = at + 3 + n + 4 * rank
        out[blob[at + 2:at + 2 + n].decode()] = (at, at + 2 + n, payload)
        at = payload + 4 * math.prod(dims.tolist())
    return out


def ckp1_layout(blob):
    entries = ckp1_entries(blob)
    at, rank_at, payload = next(iter(entries.values()))
    step = entries["opt.step"][2]
    cuts = {"magic": 0, "count": 8, "entry0": at, "entry0.name": at + 2,
            "entry0.rank": rank_at, "entry0.dims": rank_at + 1, "entry0.payload": payload,
            "opt.step.payload": step}
    fields = {"count": (8, "<u4"), "entry0.name_length": (at, "<u2"),
              "entry0.rank": (rank_at, "<u1"), "entry0.dim0": (rank_at + 1, "<u4"),
              "entry0.value0": (payload, "<f4"), "opt.step": (step, "<f4")}
    return cuts, payload, fields


def npy_layout(blob):
    assert blob[6] == 1  # format 1.0: a u2 header length
    data = 10 + int.from_bytes(blob[8:10], "little")
    cuts = {"magic": 0, "version": 6, "header_length": 8, "header": 10, "data": data}
    # the stack's first set cell, so that writing 0 over it changes the file
    first_set = data + int(np.flatnonzero(np.frombuffer(blob, np.uint8, offset=data))[0])
    fields = {"version": (6, "<u1"), "header_length": (8, "<u2"),
              "first_set_cell": (first_set, "<u1")}
    return cuts, data, fields


BINARY = {
    "evt1": (evt1_layout, ("magic", "m", "n", "t", "i", "records", "record1"),
             {"m": "u", "n": "u", "t": "f", "i": "u", "record0.t": "f", "record0.x": "u",
              "record0.y": "u", "record0.p": "i"}),
    "vox1": (vox1_layout, ("magic", "resolution", "occupancy"), {"resolution": "u"}),
    "ckp1": (ckp1_layout, ("magic", "count", "entry0", "entry0.name", "entry0.rank",
                           "entry0.dims", "entry0.payload", "opt.step.payload"),
             {"count": "u", "entry0.name_length": "u", "entry0.rank": "u",
              "entry0.dim0": "u", "entry0.value0": "f", "opt.step": "f"}),
    "npy": (npy_layout, ("magic", "version", "header_length", "header", "data"),
            {"version": "u", "header_length": "u", "first_set_cell": "u"}),
}

INT_VALUES = ("zero", "ones")
FLOAT_VALUES = INT_VALUES + ("nan", "inf", "-inf")


def truncate(fmt, part):
    return lambda blob: blob[:BINARY[fmt][0](blob)[0][part]]


def flip(fmt, k):
    def mutate(blob):
        header = BINARY[fmt][0](blob)[1]
        bit = int(np.random.default_rng([SEED, list(BINARY).index(fmt), k]).integers(8 * header))
        out = bytearray(blob)
        out[bit // 8] ^= 1 << bit % 8
        return bytes(out)
    return mutate


def overwrite(fmt, field, value):
    def mutate(blob):
        offset, dtype = BINARY[fmt][0](blob)[2][field]
        size = np.dtype(dtype).itemsize
        raw = (b"\xff" * size if value == "ones"
               else np.array(0 if value == "zero" else float(value), dtype).tobytes())
        return blob[:offset] + raw + blob[offset + size:]
    return mutate


# One value of each JSON type; a leaf is swapped for each of another type.
JSON_VALUES = {"null": None, "bool": True, "number": 7, "string": "x", "array": [],
               "object": {}}


def json_type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    return {int: "number", float: "number", str: "string", list: "array",
            tuple: "array", dict: "object"}[type(value)]


def leaves(value, path=()):
    """(path, value) of each scalar in a JSON-shaped value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from leaves(item, path + (i,))
    else:
        yield path, value


# The JSON files' shapes, taken from the types that write them.
JSON_SHAPES = {
    "sidecar": {"config": dataclasses.asdict(cli.TOY.model), "seed": 0, "epoch": 0},
    "manifest": {"entries": [{f.name: "" for f in dataclasses.fields(cli.ManifestEntry)}]},
    "cache_json": {"binning": dataclasses.asdict(cli.TOY.binning), "shape": [0, 0, 0],
                   "events_sha256": ""},
}


def swap(path, value):
    def mutate(blob):
        data = json.loads(blob)
        node = data
        for key in path[:-1]:
            node = node[key]
        assert json_type(node[path[-1]]) != json_type(value)
        node[path[-1]] = value
        return json.dumps(data).encode()
    return mutate


def cases():
    for fmt, (_, cuts, fields) in BINARY.items():
        for part in cuts:
            yield pytest.param(fmt, truncate(fmt, part), id=f"{fmt}-truncate-{part}")
        for k in range(FLIPS):
            yield pytest.param(fmt, flip(fmt, k), id=f"{fmt}-flip{k}")
        for field, kind in fields.items():
            for value in FLOAT_VALUES if kind == "f" else INT_VALUES:
                yield pytest.param(fmt, overwrite(fmt, field, value),
                                   id=f"{fmt}-{field}={value}")
    for fmt, shape in JSON_SHAPES.items():
        for path, leaf in leaves(shape):
            for name, value in JSON_VALUES.items():
                if name != json_type(leaf):
                    dotted = ".".join(map(str, path))
                    yield pytest.param(fmt, swap(path, value), id=f"{fmt}-{dotted}={name}")


@pytest.fixture(scope="module")
def run_copy(pipeline, tmp_path_factory):
    root = tmp_path_factory.mktemp("corruption")
    shutil.copytree(pipeline["data"], root / "data")
    shutil.copy(pipeline["cfg"], root / "cfg.json")
    return root


# an infinite weight makes NaN products, which eval reads as empty grids
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("fmt,mutate", cases())
def test_damaged_file_exits_0_or_3_naming_it(run_copy, capsys, fmt, mutate):
    data = run_copy / "data"
    path = data / FILES[fmt]
    manifest = str(data / "manifest.json")
    config = ["--toy", "--config", str(run_copy / "cfg.json")]
    export = (["export", *config, str(path), "--out", str(run_copy / "out.obj")]
              if fmt == "vox1" else
              ["export", *config, "--manifest", manifest, str(data / FILES["ckp1"]), SAMPLE,
               "--out", str(run_copy / "out.obj")])
    original = path.read_bytes()
    damaged = mutate(original)
    assert damaged != original
    path.write_bytes(damaged)
    try:
        for argv in (["eval", *config, "--manifest", manifest], export):
            capsys.readouterr()
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in (0, 3), f"{argv[0]} exited {code}: {err}"
            if code == 3:
                assert str(path) in err, f"{argv[0]}: {err}"
    finally:
        path.write_bytes(original)
