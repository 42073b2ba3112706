"""End-to-end and unit tests for the command line pipeline.

The ``pipeline`` fixture, one full toy run, lives in conftest.py.
"""

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import types
import typing
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ev2vox import cli
from ev2vox.checkpoint import save_checkpoint
from ev2vox.errors import (
    ConfigError,
    DataError,
    FormatError,
    InternalError,
    IoFailure,
    PipelineError,
)
from ev2vox.events import EventStream, bin_to_frames, read_evt1, write_evt1
from ev2vox.model import EncoderConfig
from ev2vox.train import load_training_checkpoint
from ev2vox.voxel import VoxelGrid, parse_obj, read_vox1, write_vox1


def tree_hash(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def write_config(path, data):
    path = Path(path)
    path.write_text(json.dumps(data))
    return str(path)


class TestGenerate:
    def test_writes_dataset_tree(self, pipeline):
        assert pipeline["codes"]["generate"] == 0
        data = pipeline["data"]
        for i in range(8):
            for suffix in (".evt", ".vox", ".json"):
                assert (data / f"s{i:04d}{suffix}").is_file()
        assert (data / "manifest.json").is_file()

    def test_split_counts_for_eight(self, pipeline):
        entries = json.loads((pipeline["data"] / "manifest.json").read_text())["entries"]
        counts = Counter(e["split"] for e in entries)
        assert counts == {"train": 6, "val": 1, "test": 1}

    def test_default_count_splits_eight_one_one(self, tmp_path):
        assert cli.main(["generate", "--toy", "--seed", "7", "--out", str(tmp_path / "d")]) == 0
        entries = json.loads((tmp_path / "d" / "manifest.json").read_text())["entries"]
        assert len(entries) == 10
        counts = Counter(e["split"] for e in entries)
        assert counts == {"train": 8, "val": 1, "test": 1}

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"generate": {"count": 4}})
        for d in ("a", "b"):
            code = cli.main(
                ["generate", "--toy", "--config", cfg, "--seed", "3", "--out", str(tmp_path / d)]
            )
            assert code == 0
        assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")

    def test_explicit_scenes(self, tmp_path):
        scenes = [
            {"primitives": [{"kind": "sphere", "center": [0, 0, 0], "radius": 0.3}]},
            {"primitives": [{"kind": "box", "center": [0, 0, 0],
                             "half_extents": [0.2, 0.2, 0.2]}]},
        ]
        cfg = write_config(
            tmp_path / "c.json", {"generate": {"count": 2, "scenes": scenes}}
        )
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        entries = json.loads((tmp_path / "d" / "manifest.json").read_text())["entries"]
        assert [e["category"] for e in entries] == ["sphere", "box"]

    def test_labels_at_the_model_resolution(self, tmp_path):
        # one key sets the label and output resolution for both commands;
        # the count, splits and epochs only keep the run short
        cfg = write_config(tmp_path / "c.json", {
            "model": {"encoder": {"resolution": 4}},
            "generate": {"count": 2, "ratios": [1, 0, 0]},
            "trainer": {"run": {"epochs": 1, "checkpoint_every": 1}},
        })
        data = tmp_path / "d"
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(data)]) == 0
        assert read_vox1(data / "s0000.vox").resolution == 4
        assert json.loads((data / "s0000.json").read_text())["resolution"] == 4
        assert cli.main(["train", "--toy", "--config", cfg, "--manifest",
                         str(data / "manifest.json"), "--out", str(tmp_path / "run")]) == 0

    def test_bad_scene_spec_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"generate": {"count": 1, "scenes": [{"primitives": [{"kind": "torus"}]}]}},
        )
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("field,value", [
        ("axis", 1.7), ("radius", True), ("half_height", "0.2"), ("albdo", 0.5),
        ("center", [math.nan, 0, 0]),
    ])
    def test_scene_value_of_wrong_type_or_name_exits_2(self, tmp_path, capsys, field, value):
        cylinder = {"kind": "cylinder", "center": [0, 0, 0], "axis": 2,
                    "radius": 0.2, "half_height": 0.2, field: value}
        cfg = write_config(
            tmp_path / "c.json",
            {"generate": {"count": 1, "scenes": [{"primitives": [cylinder]}]}},
        )
        out = tmp_path / "d"
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(out)]) == 2
        assert f"generate.scenes[0].primitives[0].{field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,overrides", [
        ("generate.width", {"generate": {"width": 2**63 - 1}}),
        ("model.encoder.resolution", {"model": {"encoder": {"resolution": 2**33}}}),
        ("generate.width", {"generate": {"width": 70_000, "height": 2}}),
        ("generate.height", {"generate": {"width": 1, "height": 65_536}}),
    ])
    def test_size_its_format_cannot_store_exits_2(self, tmp_path, capsys, key, overrides):
        cfg = write_config(tmp_path / "c.json", overrides)
        out = tmp_path / "d"
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {key} " in capsys.readouterr().err
        assert not out.exists()

    def test_largest_size_each_format_stores_is_let_through(self, tmp_path, monkeypatch, capsys):
        def stop(scene, traj, cam, contrast, resolution):
            raise DataError(f"reached rendering at {cam.width}x{cam.height}, R={resolution}")

        monkeypatch.setattr(cli, "generate_sample", stop)
        cfg = write_config(tmp_path / "c.json", {
            "generate": {"count": 1, "width": 1, "height": 65_535},
            "model": {"encoder": {"resolution": 65_535}, "decoder": {"channels": [4]}},
        })
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(tmp_path / "d")]) == 3
        assert "reached rendering at 1x65535, R=65535" in capsys.readouterr().err

    def test_count_scene_mismatch_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", {"generate": {"count": 3, "scenes": []}}
        )
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(tmp_path / "d")]) == 2


class TestSplitAssignment:
    def test_exact_quotas(self):
        ids = [f"s{i}" for i in range(10)]
        counts = Counter(cli.split_assignments(ids, (8, 1, 1), 7).values())
        assert counts == {"train": 8, "val": 1, "test": 1}

    def test_largest_remainder_tie_goes_to_earlier_split(self):
        # 7 samples at 8:1:1 -> shares 5.6/0.7/0.7; the two leftovers go to
        # val and test (equal remainders, index order)
        counts = Counter(cli.split_assignments([str(i) for i in range(7)], (8, 1, 1), 0).values())
        assert counts == {"train": 5, "val": 1, "test": 1}

    def test_order_independent(self):
        ids = [f"x{i}" for i in range(12)]
        fwd = cli.split_assignments(ids, (8, 1, 1), 5)
        rev = cli.split_assignments(list(reversed(ids)), (8, 1, 1), 5)
        assert fwd == rev

    def test_seed_changes_assignment(self):
        ids = [f"x{i}" for i in range(30)]
        a = cli.split_assignments(ids, (8, 1, 1), 0)
        b = cli.split_assignments(ids, (8, 1, 1), 1)
        assert a != b


def config_sections(cls, path=""):
    """(dotted path, class) of ``cls`` and of every config dataclass in its
    field tree, parents first; a tuple of dataclasses is walked at ``[0]``."""
    yield path, cls
    for name, tp in typing.get_type_hints(cls).items():
        index = ""
        if typing.get_origin(tp) is tuple:
            tp, index = typing.get_args(tp)[0], "[0]"
        if dataclasses.is_dataclass(tp):
            yield from config_sections(tp, f"{path}.{name}{index}".lstrip("."))


# every config dataclass, at the dotted path where a run config holds it.
# pytest numbers parametrized cases by position; listing the root, trainer
# and metrics sections last keeps the ids of the cases listed before them
CONFIG_SECTIONS = dict(sorted(
    config_sections(cli.RunConfig), key=lambda item: item[0] in ("", "trainer", "metrics")
))


def wrong_values(tp) -> list:
    """JSON values that annotation ``tp`` refuses, near misses for scalars."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None takes null, and refuses what X refuses
        (inner,) = [a for a in args if a is not type(None)]
        return wrong_values(inner)
    if origin is tuple:
        n = 1 if args[-1] is Ellipsis else len(args)
        return ["x", [wrong_values(args[0])[0]] * n]
    if dataclasses.is_dataclass(tp):
        return [3]
    return {bool: ["false", 1], int: [2.5, True], float: [True, "0.2"], str: [5], dict: [[1]]}[tp]


def override_at(section: str, field: str, value) -> dict:
    """A run config that sets ``field`` of the section at dotted path ``section``."""
    if section == "model.encoder.stages[0]":
        stage = {**dataclasses.asdict(EncoderConfig.toy().stages[0]), field: value}
        section, field, value = "model.encoder", "stages", [stage]
    tree = {field: value}
    for part in reversed(section.split(".") if section else []):
        tree = {part: tree}
    return tree


# keys that run configs no longer have, as (section, place among the
# section's fields, key, values it once took); a file that still sets one
# exits 2 naming it. Each keeps the place its field had, so the numbered ids
# of the cases after it stay as they were
RETIRED_KEYS = [
    ("binning", 1, "mode", ["uniform"]),
    ("model.decoder", 0, "levels", [2, 3]),
    ("generate", 1, "resolution", [8, 32]),
]


def field_cases(values_of, retired=()) -> list:
    """(run config, dotted key) for each value ``values_of(annotation)``
    gives for every field of every config dataclass, and for each value of
    each ``retired`` key at its place."""
    cases = []
    for section, cls in CONFIG_SECTIONS.items():
        keys = [(f.name, values_of(typing.get_type_hints(cls)[f.name]))
                for f in dataclasses.fields(cls)]
        for where, index, key, values in retired:
            if where == section:
                keys.insert(index, (key, values))
        cases += [(override_at(section, key, value), f"{section}.{key}".lstrip("."))
                  for key, values in keys for value in values]
    return cases


# a wrong-typed value for every field of every config dataclass, and each
# retired key
FIELD_TYPE_CASES = field_cases(wrong_values, RETIRED_KEYS)

# what Python's json reads but no float field takes: NaN, the infinities and
# an integer past the float range. Listed after FIELD_TYPE_CASES, so the
# numbered ids of those cases stay as they were
NON_FINITE_CASES = field_cases(
    lambda tp: [math.nan, math.inf, -math.inf, 10 ** 400] if tp is float else []
)


class TestConfig:
    def test_toy_and_full_presets_differ(self):
        toy = cli.load_run_config(None, toy=True)
        full = cli.load_run_config(None, toy=False)
        assert toy.binning.window == 0.05 and full.binning.window == 0.005
        assert toy.model.encoder.stem.channels < full.model.encoder.stem.channels
        assert toy.trainer.optimizer.lr > full.trainer.optimizer.lr

    @pytest.mark.parametrize("preset", [True, False], ids=["toy", "full"])
    def test_preset_round_trips_through_a_config_file(self, tmp_path, preset):
        # the file layout is RunConfig's tree, and every key overrides the preset
        cfg = cli.load_run_config(None, toy=preset)
        path = write_config(tmp_path / "c.json", dataclasses.asdict(cfg))
        for toy in (True, False):
            assert cli.load_run_config(path, toy=toy) == cfg

    def test_seed_flag_overrides_run_seed(self):
        cfg = cli.load_run_config(None, toy=True, seed=11)
        assert cfg.run.seed == 11

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"trainer": {"optimiser": {}}})
        assert cli.main(["train", "--toy", "--config", cfg, "--manifest", "m.json"]) == 2
        assert "trainer.optimiser" in capsys.readouterr().err

    def test_nested_override_merges(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", {"trainer": {"run": {"epochs": 3}}})
        cfg = cli.load_run_config(cfg_path, toy=True)
        assert cfg.run.epochs == 3
        assert cfg.run.batch_size == 5

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"trainer": }')
        assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
        assert "1:13" in capsys.readouterr().err

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"trainer": "\xff"}')
        assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert cli.main(
            ["generate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "d")]
        ) == 2

    def test_bad_value_type_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"metrics": {"threshold": "high"}})
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("override,key", [
        ({"model": {"encoder": {"stem": {"pool": "false"}}}}, "encoder.stem.pool"),
        ({"model": {"encoder": {"stem": {"channels": 8.0}}}}, "encoder.stem.channels"),
        ({"model": {"decoder": {"channels": [16, 32.5]}}}, "decoder.channels"),
        ({"model": {"seed": True}}, "model.seed"),
        ({"generate": {"count": 2.5}}, "generate.count"),
        ({"generate": {"ratios": [8, 1, 1.0]}}, "generate.ratios"),
        ({"trainer": {"run": {"epochs": 2.5}}}, "trainer.run.epochs"),
        ({"binning": {"target_height": 32.0}}, "binning.target_height"),
        ({"metrics": {"threshold": True}}, "metrics.threshold"),
        ({"metrics": {"distance": "0.2"}}, "metrics.distance"),
        ({"binning": {"window": True}}, "binning.window"),
        ({"trainer": {"optimizer": {"lr": True}}}, "trainer.optimizer.lr"),
        ({"generate": {"contrast": True}}, "generate.contrast"),
        ({"trainer": {"run": 3}}, "trainer.run"),
    ] + FIELD_TYPE_CASES + NON_FINITE_CASES + [
        ({"metrics": {"threshold": 1.5}}, "metrics: threshold must lie in (0, 1)"),
        ({"metrics": {"distance": 0}}, "metrics: distance must be positive"),
        ({"model": {"encoder": {"stages": [{"blocks": 0, "channels": 8, "stride": [1, 1, 1]}]}}},
         "model.encoder.stages[0]: blocks must be at least 1"),
    ])
    def test_wrong_value_type_exits_2(self, tmp_path, capsys, override, key):
        cfg = write_config(tmp_path / "c.json", override)
        out = tmp_path / "d"
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model,key", [
        ({"encoder": {"stem": {"kernel": [3, 3]}}}, "model.encoder.stem.kernel"),
        ({"encoder": {"stem": {"stride": [1, 2]}}}, "model.encoder.stem.stride"),
        ({"encoder": {"stem": {"channels": 0}}}, "model.encoder.stem: channels"),
        ({"decoder": {"channels": [0, 32]}}, "model.decoder: channels"),
        ({"encoder": {"stages": [{"blocks": 1, "channels": 8}]}}, "model.encoder.stages[0].stride"),
        ({"encoder": {"in_channels": 2}}, "model.encoder.in_channels"),
        # the train labels are 8^3
        ({"encoder": {"resolution": 6}}, "model.encoder.resolution"),
        # the key that named the output volume before resolution did
        ({"encoder": {"hidden_spatial": [8, 8, 8]}}, "model.encoder.hidden_spatial"),
    ])
    def test_bad_model_shape_exits_2(self, pipeline, tmp_path, capsys, model, key):
        # unchecked, these ended training in an internal shape error, a
        # ZeroDivisionError, a KeyError or, with an empty run directory left
        # behind, a prediction/target shape mismatch
        cfg = write_config(tmp_path / "c.json", {"model": model})
        out = tmp_path / "run"
        code = cli.main(
            ["train", "--toy", "--config", cfg, "--manifest", str(pipeline["manifest"]),
             "--out", str(out)]
        )
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["width", "height", "contrast"])
    def test_bad_camera_value_exits_2_before_writing(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path / "c.json", {"generate": {field: 0}})
        out = tmp_path / "d"
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(out)]) == 2
        assert f"generate: {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_resolution_the_decoder_cannot_restore_exits_2_before_writing(self, tmp_path,
                                                                          capsys):
        # the toy decoder's two levels halve the output volume once
        cfg = write_config(tmp_path / "c.json", {"model": {"encoder": {"resolution": 5}}})
        out = tmp_path / "d"
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "model.encoder.resolution 5" in err and "model.decoder.channels" in err
        assert not out.exists()

    def test_float_epochs_train_exits_2(self, pipeline, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"trainer": {"run": {"epochs": 2.5}}})
        code = cli.main(
            ["train", "--toy", "--config", cfg, "--manifest", str(pipeline["manifest"]),
             "--out", str(tmp_path / "run")]
        )
        assert code == 2

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli.main(["generate", "--toy", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_run_seed_exits_2(self, pipeline, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"trainer": {"run": {"seed": -3}}})
        code = cli.main(
            ["train", "--toy", "--config", cfg, "--manifest", str(pipeline["manifest"]),
             "--out", str(tmp_path / "run")]
        )
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err


# caches that parse but hold no (D, H, W) uint8 stack, or one of another
# shape than the (10, 32, 32) their sidecar records
DAMAGED_CACHES = [
    pytest.param(np.zeros((10, 32), np.uint8), id="2d"),
    pytest.param(np.zeros((4, 10, 32, 32), np.uint8), id="4d"),
    pytest.param(np.full((10, 32, 32), "1"), id="str"),
    pytest.param(np.full((10, 32, 32), 0.5), id="float64"),
    pytest.param(np.zeros((10, 16, 16), np.uint8), id="smaller-frames"),
    pytest.param(np.zeros((3, 32, 32), np.uint8), id="fewer-frames"),
]


class TestPreprocess:
    def test_cache_contents(self, pipeline):
        assert pipeline["codes"]["preprocess"] == 0
        cache = pipeline["data"] / "cache"
        stacks = sorted(cache.glob("*.frames.npy"))
        assert len(stacks) == 8
        for path in stacks:
            frames = np.load(path)
            # toy binning: 0.5 s over 0.05 s windows, OR-pooled to 32x32
            assert frames.shape == (10, 32, 32)
            assert frames.dtype == np.uint8 and frames.flags.c_contiguous
            assert set(np.unique(frames)) <= {0, 1}
        meta = json.loads((cache / "s0000.frames.json").read_text())
        assert meta["binning"]["window"] == 0.05
        assert meta["shape"] == [10, 32, 32]

    def test_thread_count_does_not_change_bytes(self, pipeline, tmp_path):
        data = copy_dataset(pipeline, tmp_path)
        shutil.rmtree(data / "cache")
        code = cli.main(
            ["preprocess", "--toy", "--config", pipeline["cfg"],
             "--manifest", str(data / "manifest.json"), "--threads", "3"]
        )
        assert code == 0
        assert tree_hash(data / "cache") == tree_hash(pipeline["data"] / "cache")

    def test_missing_manifest_exits_3_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere" / "manifest.json"
        assert cli.main(["preprocess", "--toy", "--manifest", str(missing)]) == 3
        assert str(missing) in capsys.readouterr().err

    def test_out_option_exits_2(self, pipeline, tmp_path):
        # train, eval and export read only <manifest dir>/cache
        with pytest.raises(SystemExit) as exc:
            cli.main(["preprocess", "--toy", "--manifest", str(pipeline["manifest"]),
                      "--out", str(tmp_path / "cache")])
        assert exc.value.code == 2
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("width,height,duration", [(32, 32, -1.0), (32, 32, math.nan), (0, 0, 0.5)],
                             ids=["negative-duration", "nan-duration", "zero-sensor"])
    def test_bad_event_header_exits_3_naming_file(self, pipeline, tmp_path, capsys,
                                                  width, height, duration):
        # a header with zero events, which no record check would catch
        data = copy_dataset(pipeline, tmp_path)
        bad = data / "s0000.evt"
        empty = np.empty(0)
        write_evt1(EventStream(width, height, duration, empty, empty, empty, empty), bad)
        assert cli.main(["preprocess", "--toy", "--manifest", str(data / "manifest.json")]) == 3
        assert str(bad) in capsys.readouterr().err

    def test_nan_timestamp_exits_3_naming_file(self, pipeline, tmp_path, capsys):
        data = copy_dataset(pipeline, tmp_path)
        bad = data / "s0000.evt"
        blob = bytearray(bad.read_bytes())
        blob[32:40] = np.float64(np.nan).tobytes()  # the first record's t
        bad.write_bytes(bytes(blob))
        assert cli.main(["preprocess", "--toy", "--manifest", str(data / "manifest.json")]) == 3
        assert f"{bad}: event 0 has non-finite timestamp" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [0, -32], ids=["zero", "negative"])
    def test_binning_target_below_1_exits_2_before_writing(self, pipeline, tmp_path, capsys,
                                                           target):
        data = copy_dataset(pipeline, tmp_path)
        shutil.rmtree(data / "cache")
        cfg = write_config(tmp_path / "c.json",
                           {"binning": {"target_height": target, "target_width": target}})
        code = cli.main(["preprocess", "--toy", "--config", cfg,
                         "--manifest", str(data / "manifest.json")])
        assert code == 2
        assert "binning: target dimensions must be positive" in capsys.readouterr().err
        assert not (data / "cache").exists()

    # 5e-324 makes the frame count infinite, 1e-300 one no array shape holds,
    # and 1e-15 a 455 PiB stack of 32x32 frames that fits an intp but no
    # 57-bit address space, so its allocation fails on any host
    @pytest.mark.parametrize("window", [5e-324, 1e-300, 1e-15])
    @pytest.mark.parametrize("command", ["preprocess", "train"])
    def test_window_too_fine_to_bin_exits_2(self, pipeline, tmp_path, capsys, command, window):
        data = copy_dataset(pipeline, tmp_path)
        cfg = write_config(tmp_path / "c.json", {"binning": {"window": window}})
        args = [command, "--toy", "--config", cfg, "--manifest", str(data / "manifest.json")]
        if command == "train":
            args += ["--out", str(tmp_path / "run")]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert f"binning.window {window!r} cuts the stream's 0.5 s into" in err
        assert "Traceback" not in err

    def test_bad_thread_values_exit_2(self, pipeline):
        args = ["preprocess", "--toy", "--manifest", str(pipeline["manifest"])]
        assert cli.main(args + ["--threads", "0"]) == 2

    def test_truncated_cache_exits_3(self, pipeline, tmp_path, capsys):
        data = copy_dataset(pipeline, tmp_path)
        entry = cli.load_manifest(data / "manifest.json").for_split("train")[0]
        cached = data / "cache" / f"{entry.id}.frames.npy"
        cached.write_bytes(cached.read_bytes()[:100])
        code = cli.main(["train", "--toy", "--config", pipeline["cfg"],
                         "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "run")])
        assert code == 3
        assert str(cached) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "export"])
    @pytest.mark.parametrize("array", DAMAGED_CACHES)
    def test_damaged_cache_exits_3(self, pipeline, tmp_path, capsys, command, array):
        data = copy_dataset(pipeline, tmp_path)
        entry = cli.load_manifest(data / "manifest.json").for_split("train")[0]
        cached = data / "cache" / f"{entry.id}.frames.npy"
        np.save(cached, array)
        run = tmp_path / "run"
        shutil.copytree(pipeline["run"], run)
        args = {
            "train": ["train", "--out", str(tmp_path / "retrain")],
            "eval": ["eval", "--out", str(run)],
            "export": ["export", str(run / "model.ckpt"), entry.id,
                       "--out", str(tmp_path / "x.obj")],
        }[command]
        code = cli.main(args + ["--toy", "--config", pipeline["cfg"],
                                "--manifest", str(data / "manifest.json")])
        assert code == 3
        assert str(cached) in capsys.readouterr().err

    def test_cache_is_used_only_for_the_events_it_binned(self, tmp_path):
        # seed 8's events overwrite seed 7's beside seed 7's cache
        cfg = write_config(tmp_path / "c.json", {"generate": {"count": 2}})
        data = tmp_path / "d"
        for args in (["generate", "--seed", "7", "--out", str(data)],
                     ["preprocess", "--manifest", str(data / "manifest.json")],
                     ["generate", "--seed", "8", "--out", str(data)]):
            assert cli.main(args + ["--toy", "--config", cfg]) == 0
        run_cfg = cli.load_run_config(cfg, toy=True)
        manifest = cli.load_manifest(data / "manifest.json")
        for entry in manifest.entries:
            fresh = bin_to_frames(read_evt1(data / entry.events), run_cfg.binning)
            stale = np.load(data / "cache" / f"{entry.id}.frames.npy")
            assert not np.array_equal(stale, fresh)
            frames = cli._frames(run_cfg, manifest, entry)
            np.testing.assert_array_equal(frames, fresh)

    def test_cache_is_used_only_for_its_binning(self, pipeline, tmp_path):
        data = copy_dataset(pipeline, tmp_path)
        manifest = cli.load_manifest(data / "manifest.json")
        entry = manifest.entries[0]
        # a stack without events marks the cached copy; binning afresh finds events
        np.save(data / "cache" / f"{entry.id}.frames.npy", np.zeros((10, 32, 32), np.uint8))
        same = cli.load_run_config(pipeline["cfg"], toy=True)
        assert not cli._frames(same, manifest, entry).any()
        finer = cli.load_run_config(
            write_config(tmp_path / "c.json", {"binning": {"window": 0.025}}), toy=True
        )
        frames = cli._frames(finer, manifest, entry)
        assert frames.shape == (20, 32, 32) and frames.any()


def copy_dataset(pipeline, tmp_path) -> Path:
    """The pipeline's dataset and frame cache, without its run, in tmp_path."""
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data, ignore=shutil.ignore_patterns("run"))
    return data


# a truncated sidecar, one without a model, and bytes that are not text
DAMAGED_SIDECARS = [b'{"config": {"encoder": {"st', b"{}", b"[]", b'{"config": 3}', b"\xff\xfe"]


# changes to the pipeline's sidecar config, each leaving JSON that describes
# no model this version builds: keys that sidecars carried before the norm
# and in_channels options went, the decoder depth and hidden volume they
# carried before the channel list and resolution stated them, and a
# resolution that the decoder's two levels cannot halve and restore, which
# the model config itself refuses
RETIRED_SIDECAR_KEYS = {"encoder": {"norm": "batch", "in_channels": 1},
                        "decoder": {"norm": "batch"}}
LEVELS = {"decoder": {"levels": 2}}
HIDDEN_SPATIAL = {"encoder": {"hidden_spatial": [8, 8, 8]}}
ODD_HIDDEN = {"encoder": {"resolution": 5}}
NO_MODEL = "model.ckpt.json: sidecar does not describe a model"
# (command, change); each exits 3 naming the sidecar
SIDECARS_WITHOUT_A_MODEL = [
    pytest.param("eval", RETIRED_SIDECAR_KEYS, id="eval-retired-keys"),
    pytest.param("export", RETIRED_SIDECAR_KEYS, id="export-retired-keys"),
    pytest.param("eval", LEVELS, id="eval-levels"),
    pytest.param("export", LEVELS, id="export-levels"),
    pytest.param("eval", HIDDEN_SPATIAL, id="eval-hidden-spatial"),
    pytest.param("export", HIDDEN_SPATIAL, id="export-hidden-spatial"),
    pytest.param("eval", ODD_HIDDEN, id="eval-odd-hidden"),
    pytest.param("export", ODD_HIDDEN, id="export-odd-hidden"),
]


def damaged_run(pipeline, tmp_path, sidecar: bytes) -> Path:
    """A run directory holding the pipeline's checkpoint beside ``sidecar``."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "model.ckpt").write_bytes((pipeline["run"] / "model.ckpt").read_bytes())
    (run / "model.ckpt.json").write_bytes(sidecar)
    return run


def edited(edit):
    """A damage that rewrites a checkpoint from its (name, array) entries
    after ``edit`` has changed that list in place."""
    def damage(path):
        model, opt_state, _ = load_training_checkpoint(path)
        entries = model.state_entries() + opt_state.entries()
        edit(entries, [name for name, _ in entries])
        save_checkpoint(path, entries)
    return damage


def dropped(key):
    return edited(lambda entries, names: entries.pop(names.index(key)))


def replaced(key, value):
    return edited(lambda entries, names: entries.__setitem__(names.index(key), (key, value)))


def added(key, value):
    return edited(lambda entries, names: entries.append((key, value)))


def swapped(key, other):
    def edit(entries, names):
        i, j = names.index(key), names.index(other)
        entries[i], entries[j] = entries[j], entries[i]
    return edited(edit)


def renamed_to_bytes(key, raw):
    """A damage that puts ``raw`` in the place of the first ``key`` in the file."""
    def damage(path):
        path.write_bytes(path.read_bytes().replace(key.encode(), raw, 1))
    return damage


# (entry, damage): an optimizer moment left out, one of the wrong shape,
# one for no parameter, a step counter of two values, one that is not
# finite, a bias on a conv that feeds a norm, which convs carried before
# they lost it, a name that is not UTF-8, and two moments in each
# other's place
DAMAGED_CHECKPOINTS = [
    pytest.param("opt.m/encoder.stem.conv.weight", dropped("opt.m/encoder.stem.conv.weight"),
                 id="missing-moment"),
    pytest.param("opt.v/encoder.stem.conv.weight",
                 replaced("opt.v/encoder.stem.conv.weight", np.zeros(3, np.float32)),
                 id="misshapen-moment"),
    pytest.param("opt.m/bogus", added("opt.m/bogus", np.zeros(3, np.float32)), id="extra-moment"),
    pytest.param("opt.step", replaced("opt.step", np.ones(2, np.float32)), id="two-steps"),
    pytest.param("opt.step", replaced("opt.step", np.array(np.nan, np.float32)), id="nan-step"),
    pytest.param("encoder.stem.conv.bias", added("encoder.stem.conv.bias", np.zeros(8, np.float32)),
                 id="conv-bias"),
    pytest.param("encoder.stem.conv.weight",
                 renamed_to_bytes("encoder.stem.conv.weight", b"encoder.stem.conv.weigh\xff"),
                 id="non-utf8-name"),
    pytest.param("opt.m/encoder.stem.conv.weight",
                 swapped("opt.m/encoder.stem.conv.weight", "opt.v/encoder.stem.conv.weight"),
                 id="wrong-order"),
]


def damaged_checkpoint_run(pipeline, tmp_path, damage) -> Path:
    """A run directory holding the pipeline's sidecar beside its checkpoint
    after ``damage`` has rewritten the checkpoint."""
    run = damaged_run(pipeline, tmp_path, (pipeline["run"] / "model.ckpt.json").read_bytes())
    damage(run / "model.ckpt")
    return run


# The toy pipeline (generate --seed 7 of 8 samples, preprocess, train, eval)
# into argv[1], in one interpreter; it prints the BLAS thread count, asked
# from the loaded OpenBLAS, or None where no OpenBLAS answers.
TOY_RUN_SCRIPT = """
import ctypes, json, sys
from pathlib import Path
from ev2vox import cli

root = Path(sys.argv[1])
(root / "cfg.json").write_text(json.dumps({"generate": {"count": 8}}))
common = ["--toy", "--config", str(root / "cfg.json")]
manifest = str(root / "data" / "manifest.json")
for argv in (["generate", *common, "--seed", "7", "--out", str(root / "data")],
             ["preprocess", *common, "--manifest", manifest],
             ["train", *common, "--manifest", manifest],
             ["eval", *common, "--manifest", manifest]):
    if cli.main(argv):
        sys.exit(f"{argv[0]} failed")
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
threads = None
for lib in map(ctypes.CDLL, libs):
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if threads is None and hasattr(lib, name):
            get = getattr(lib, name)
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
print("blas threads", threads)
"""


class TestTrainEval:
    def test_pipeline_exit_codes(self, pipeline):
        assert pipeline["codes"] == {"generate": 0, "preprocess": 0, "train": 0, "eval": 0}

    def test_blas_thread_count_does_not_change_bytes(self, tmp_path):
        # both runs at once, each in a fresh interpreter, since OpenBLAS
        # reads its thread count when it loads
        runs = {}
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
                   "OPENBLAS_NUM_THREADS": threads}
            runs[threads] = subprocess.Popen(
                [sys.executable, "-c", TOY_RUN_SCRIPT, str(tmp_path / threads)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        trees = []
        for threads, proc in runs.items():
            out, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err
            assert out.splitlines()[-1] in (f"blas threads {threads}", "blas threads None")
            root = tmp_path / threads
            trees.append({p.relative_to(root): p.read_bytes()
                          for p in sorted(root.rglob("*")) if p.is_file()})
        assert trees[0].keys() == trees[1].keys()
        assert len(trees[0]) == 2 + 3 * 8 + 2 * 8 + 5
        assert [p for p in trees[0] if trees[0][p] != trees[1][p]] == []

    def test_training_artifacts(self, pipeline):
        run = pipeline["run"]
        assert (run / "model.ckpt").is_file()
        assert (run / "model.ckpt.json").is_file()
        lines = (run / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,iou"
        assert len(lines) == 1 + 100

    def test_overfit_train_iou(self, pipeline):
        rows = (pipeline["run"] / "report.csv").read_text().strip().splitlines()
        assert rows[0] == "split,category,count,iou,fscore"
        overall = {}
        for line in rows[1:]:
            split, category, count, iou_s, f_s = line.split(",")
            if category == "Overall":
                overall[split] = float(iou_s)
        assert overall["train"] > 0.9

    def test_report_text_sections(self, pipeline):
        text = (pipeline["run"] / "report.txt").read_text()
        for section in ("== train ==", "== val ==", "== test =="):
            assert section in text
        assert "IoU@t=0.3" in text

    def test_rerun_training_is_byte_identical(self, pipeline, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"generate": {"count": 8}, "trainer": {"run": {"epochs": 2, "checkpoint_every": 2}}},
        )
        outs = []
        for d in ("r1", "r2"):
            code = cli.main(
                ["train", "--toy", "--config", cfg,
                 "--manifest", str(pipeline["manifest"]), "--out", str(tmp_path / d)]
            )
            assert code == 0
            outs.append((tmp_path / d / "model.ckpt").read_bytes())
        assert outs[0] == outs[1]

    def test_eval_config_mismatch_exits_3(self, pipeline, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"model": {"decoder": {"channels": [8, 32]}}})
        code = cli.main(
            ["eval", "--toy", "--config", cfg, "--manifest", str(pipeline["manifest"])]
        )
        assert code == 3
        assert "configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [
        ("encoder", "norm"), ("decoder", "norm"), ("encoder", "paper_scale"),
        ("encoder", "in_channels"),
    ])
    def test_retired_model_keys_exit_2(self, pipeline, tmp_path, capsys, section, key):
        # each with the one value it could take
        value = 1 if key == "in_channels" else "batch"
        cfg = write_config(tmp_path / "c.json", {"model": {section: {key: value}}})
        code = cli.main(
            ["eval", "--toy", "--config", cfg, "--manifest", str(pipeline["manifest"])]
        )
        assert code == 2
        assert f"model.{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["model.ckpt.json", "metrics.csv"])
    def test_unwritable_training_artifact_exits_3(self, pipeline, tmp_path, capsys, name):
        cfg = write_config(
            tmp_path / "c.json", {"trainer": {"run": {"epochs": 1, "checkpoint_every": 1}}}
        )
        run = tmp_path / "run"
        (run / name).mkdir(parents=True)
        code = cli.main(
            ["train", "--toy", "--config", cfg, "--manifest", str(pipeline["manifest"]),
             "--out", str(run)]
        )
        assert code == 3
        assert str(run / name) in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", DAMAGED_SIDECARS)
    def test_eval_damaged_sidecar_exits_3(self, pipeline, tmp_path, capsys, sidecar):
        run = damaged_run(pipeline, tmp_path, sidecar)
        code = cli.main(
            ["eval", "--toy", "--config", pipeline["cfg"],
             "--manifest", str(pipeline["manifest"]), "--out", str(run)]
        )
        assert code == 3
        assert "model.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("key,damage", DAMAGED_CHECKPOINTS)
    def test_eval_damaged_checkpoint_exits_3(self, pipeline, tmp_path, capsys, key, damage):
        run = damaged_checkpoint_run(pipeline, tmp_path, damage)
        code = cli.main(
            ["eval", "--toy", "--config", pipeline["cfg"],
             "--manifest", str(pipeline["manifest"]), "--out", str(run)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "model.ckpt" in err and key in err

    @pytest.mark.parametrize("command,change", SIDECARS_WITHOUT_A_MODEL)
    def test_sidecar_without_a_model_exits_3(self, pipeline, tmp_path, capsys, command, change):
        sidecar = json.loads((pipeline["run"] / "model.ckpt.json").read_text())
        for section, keys in change.items():
            sidecar["config"][section].update(keys)
        run = damaged_run(pipeline, tmp_path, json.dumps(sidecar).encode())
        out = tmp_path / "x.obj"
        args = {
            "eval": ["eval", "--out", str(run)],
            "export": ["export", str(run / "model.ckpt"), "s0000", "--out", str(out)],
        }[command]
        code = cli.main(args + ["--toy", "--config", pipeline["cfg"],
                                "--manifest", str(pipeline["manifest"])])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {run / NO_MODEL}")
        assert not (run / "report.txt").exists() and not out.exists()

    def test_eval_without_checkpoint_exits_3(self, pipeline, tmp_path):
        code = cli.main(
            ["eval", "--toy", "--config", pipeline["cfg"],
             "--manifest", str(pipeline["manifest"]), "--out", str(tmp_path / "empty")]
        )
        assert code == 3

    def test_train_without_train_split_exits_3(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"generate": {"count": 1, "ratios": [0, 0, 1]}})
        data = tmp_path / "d"
        assert cli.main(["generate", "--toy", "--config", cfg, "--out", str(data)]) == 0
        assert cli.main(
            ["train", "--toy", "--config", cfg, "--manifest", str(data / "manifest.json")]
        ) == 3

    def test_train_on_events_spanning_no_frame_exits_3(self, pipeline, tmp_path, capsys):
        # a stream of duration 0 bins to a stack of no frames
        data = tmp_path / "data"
        data.mkdir()
        sensor = read_evt1(pipeline["data"] / "s0000.evt")
        empty = np.empty(0)
        write_evt1(EventStream(sensor.sensor_width, sensor.sensor_height, 0.0,
                               empty, empty, empty, empty), data / "a.evt")
        shutil.copy(pipeline["data"] / "s0000.vox", data / "a.vox")
        entry = {"id": "a", "category": "x", "events": "a.evt", "label": "a.vox",
                 "split": "train"}
        (data / "manifest.json").write_text(json.dumps({"entries": [entry]}))
        code = cli.main(["train", "--toy", "--config", pipeline["cfg"],
                         "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "run")])
        assert code == 3
        assert "data error: frame stack has a zero-sized axis" in capsys.readouterr().err

    def test_eval_rejects_a_long_stream_before_binning_it(self, pipeline, tmp_path, capsys,
                                                          monkeypatch):
        # T = 2e4 s bins to a 400,000x32x32 stack (410 MB); the headers'
        # shapes are compared first, so no stack of that depth is built
        data = copy_dataset(pipeline, tmp_path)
        evt = data / "s0000.evt"
        blob = bytearray(evt.read_bytes())
        blob[16:24] = np.float64(2e4).tobytes()  # the header's f64 T
        evt.write_bytes(bytes(blob))
        binned = []

        def recording(stream, binning):
            binned.append(stream.duration)
            return bin_to_frames(stream, binning)

        monkeypatch.setattr(cli, "bin_to_frames", recording)
        code = cli.main(["eval", "--toy", "--config", pipeline["cfg"],
                         "--manifest", str(data / "manifest.json"), "--out", str(pipeline["run"])])
        assert code == 3
        err = capsys.readouterr().err
        assert str(evt) in err and "(400000, 32, 32)" in err
        assert 2e4 not in binned


class TestExport:
    def test_empty_grid(self, tmp_path):
        vox = tmp_path / "empty.vox"
        write_vox1(VoxelGrid(4, np.zeros((4, 4, 4), dtype=bool)), vox)
        out = tmp_path / "empty.obj"
        assert cli.main(["export", str(vox), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 0
        assert sum(1 for l in lines if l.startswith("f ")) == 0

    def test_single_voxel_cube(self, tmp_path):
        occ = np.zeros((4, 4, 4), dtype=bool)
        occ[1, 2, 3] = True
        vox = tmp_path / "one.vox"
        write_vox1(VoxelGrid(4, occ), vox)
        out = tmp_path / "one.obj"
        assert cli.main(["export", str(vox), "--out", str(out)]) == 0
        mesh = parse_obj(out.read_text())
        assert mesh.vertices.shape == (8, 3)
        assert mesh.triangles.shape == (12, 3)
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        np.testing.assert_allclose(lo, [1 / 4, 2 / 4, 3 / 4])
        np.testing.assert_allclose(hi, [2 / 4, 3 / 4, 4 / 4])

    def test_export_from_checkpoint(self, pipeline, tmp_path):
        out = tmp_path / "pred.obj"
        code = cli.main(
            ["export", str(pipeline["run"] / "model.ckpt"), "s0000",
             "--toy", "--config", pipeline["cfg"],
             "--manifest", str(pipeline["manifest"]), "--out", str(out)]
        )
        assert code == 0
        mesh = parse_obj(out.read_text())
        assert len(mesh.vertices) % 8 == 0 and len(mesh.vertices) > 0

    @pytest.mark.parametrize("sidecar", DAMAGED_SIDECARS)
    def test_export_damaged_sidecar_exits_3(self, pipeline, tmp_path, capsys, sidecar):
        run = damaged_run(pipeline, tmp_path, sidecar)
        out = tmp_path / "pred.obj"
        code = cli.main(
            ["export", str(run / "model.ckpt"), "s0000",
             "--toy", "--config", pipeline["cfg"],
             "--manifest", str(pipeline["manifest"]), "--out", str(out)]
        )
        assert code == 3
        assert "model.ckpt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,damage", DAMAGED_CHECKPOINTS)
    def test_export_damaged_checkpoint_exits_3(self, pipeline, tmp_path, capsys, key, damage):
        run = damaged_checkpoint_run(pipeline, tmp_path, damage)
        out = tmp_path / "pred.obj"
        code = cli.main(
            ["export", str(run / "model.ckpt"), "s0000",
             "--toy", "--config", pipeline["cfg"],
             "--manifest", str(pipeline["manifest"]), "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "model.ckpt" in err and key in err
        assert not out.exists()

    def test_export_config_mismatch_exits_3(self, pipeline, tmp_path, capsys):
        # a toy checkpoint exported under the full preset, as eval refuses it
        out = tmp_path / "pred.obj"
        code = cli.main(
            ["export", str(pipeline["run"] / "model.ckpt"), "s0000",
             "--config", pipeline["cfg"],
             "--manifest", str(pipeline["manifest"]), "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "model.ckpt" in err and "different model configuration" in err
        assert not out.exists()

    def test_unknown_sample_id_exits_3(self, pipeline, tmp_path):
        code = cli.main(
            ["export", str(pipeline["run"] / "model.ckpt"), "zzz",
             "--toy", "--config", pipeline["cfg"],
             "--manifest", str(pipeline["manifest"]), "--out", str(tmp_path / "x.obj")]
        )
        assert code == 3

    def test_usage_errors_exit_2(self, pipeline, tmp_path):
        vox = tmp_path / "g.vox"
        write_vox1(VoxelGrid(2, np.zeros((2, 2, 2), dtype=bool)), vox)
        assert cli.main(["export", str(vox)]) == 2
        assert cli.main(["export", str(vox), "s0000", "--out", str(tmp_path / "x.obj")]) == 2
        assert cli.main(["export", "grid.txt", "--out", str(tmp_path / "x.obj")]) == 2
        assert cli.main(
            ["export", str(pipeline["run"] / "model.ckpt"), "--out", str(tmp_path / "x.obj")]
        ) == 2

    def test_missing_vox_file_exits_3(self, tmp_path):
        assert cli.main(
            ["export", str(tmp_path / "absent.vox"), "--out", str(tmp_path / "x.obj")]
        ) == 3


class TestFlags:
    # (subcommand with its positionals, a flag that subcommand does not read)
    REMOVED = [
        (["generate"], ["--manifest", "m.json"]),
        (["generate"], ["--threads", "2"]),
        (["preprocess"], ["--seed", "1"]),
        (["train"], ["--threads", "2"]),
        (["eval"], ["--threads", "2"]),
        (["eval"], ["--seed", "1"]),
        (["export", "g.vox"], ["--threads", "2"]),
        (["export", "g.vox"], ["--seed", "1"]),
    ]

    @pytest.mark.parametrize("command,flag", REMOVED, ids=[f"{c[0]}{f[0]}" for c, f in REMOVED])
    def test_unread_flag_is_a_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--toy"] + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# each family's exit code and stderr prefix; anything else is a traceback
EXIT_CODES = [
    (ConfigError, 2, "config error:"),
    (DataError, 3, "data error:"),
    (FormatError, 3, "data error:"),
    (IoFailure, 3, "data error:"),
    (InternalError, 4, "internal error:"),
    (PipelineError, 4, "internal error:"),
    (RuntimeError, 4, "Traceback"),
]


@pytest.mark.parametrize("error,code,prefix", EXIT_CODES,
                         ids=[error.__name__ for error, _, _ in EXIT_CODES])
def test_error_family_sets_exit_code(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_dispatch", fail)
    assert cli.main(["eval", "--manifest", "manifest.json"]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "boom" in err


# (manifest JSON, the dotted path its error names); each holds one sample whose
# files exist, so only the shape of the JSON is wrong
ENTRY = {"id": "a", "events": "a.evt", "label": "a.evt", "split": "train"}
MALFORMED_MANIFESTS = [
    ({"entries": [{**ENTRY, "id": 7}]}, "manifest.entries[0].id must be a string"),
    ({"entries": [{**ENTRY, "events": None}]}, "manifest.entries[0].events must be a string"),
    ({"entries": [{**ENTRY, "category": {"k": 1}}]},
     "manifest.entries[0].category must be a string"),
    ({"entries": [{**ENTRY, "sample_id": "a"}]}, "'manifest.entries[0].sample_id'"),
    ({"entries": [{k: v for k, v in ENTRY.items() if k != "split"}]},
     "manifest.entries[0].split is missing"),
    ({"entries": {"a": ENTRY}}, "manifest.entries must be a list"),
    ({"entries": [ENTRY, ["a", "a.evt"]]}, "manifest.entries[1] must be an object"),
    ({}, "manifest.entries is missing"),
    ([ENTRY], "manifest must be an object"),
]


class TestManifestLoading:
    @pytest.mark.parametrize("payload,where", MALFORMED_MANIFESTS,
                             ids=["int-id", "null-events", "dict-category", "unknown-key",
                                  "no-split", "entries-object", "entry-list", "no-entries",
                                  "top-list"])
    def test_malformed_manifest_exits_3(self, tmp_path, capsys, payload, where):
        (tmp_path / "a.evt").write_bytes(b"")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["preprocess", "--toy", "--manifest", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and where in err

    def test_category_defaults_to_all(self, tmp_path):
        (tmp_path / "a.evt").write_bytes(b"")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": [ENTRY]}))
        assert cli.load_manifest(path).entries[0].category == "all"

    def test_non_utf8_manifest_exits_3(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_bytes(b'{"entries": ["\xe9"]}')
        assert cli.main(["preprocess", "--toy", "--manifest", str(path)]) == 3
        assert str(path) in capsys.readouterr().err

    def test_duplicate_id_rejected(self, tmp_path):
        (tmp_path / "a.evt").write_bytes(b"")
        path = tmp_path / "manifest.json"
        entry = {"id": "a", "category": "x", "events": "a.evt", "label": "a.evt",
                 "split": "train"}
        path.write_text(json.dumps({"entries": [entry, entry]}))
        with pytest.raises(DataError, match="duplicate sample id 'a'"):
            cli.load_manifest(path)

    def test_missing_referenced_file_fails_fast(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": [
            {"id": "a", "category": "x", "events": "a.evt", "label": "a.vox",
             "split": "train"}
        ]}))
        with pytest.raises(DataError, match="missing file"):
            cli.load_manifest(path)

    def test_unknown_split_rejected(self, tmp_path):
        (tmp_path / "a.evt").write_bytes(b"")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": [
            {"id": "a", "category": "x", "events": "a.evt", "label": "a.evt",
             "split": "holdout"}
        ]}))
        with pytest.raises(DataError, match="unknown split 'holdout'"):
            cli.load_manifest(path)


class TestGridToObj:
    def test_vertex_and_face_counts_scale_with_occupancy(self):
        rng = np.random.default_rng(0)
        occ = rng.random((6, 6, 6)) < 0.3
        text = cli.grid_to_obj(VoxelGrid(6, occ))
        n = int(occ.sum())
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 8 * n
        assert sum(1 for l in lines if l.startswith("f ")) == 12 * n
        mesh = parse_obj(text)
        assert len(mesh.vertices) == 8 * n
