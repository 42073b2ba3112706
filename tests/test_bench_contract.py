"""What the benchmark reads of the package, checked without running it.

``bench/tracer.py`` wraps each nn layer class's own ``forward`` and
``backward`` and finds layers by walking a model's attributes; these tests
load it by file path and check both against one toy forward and backward.
It also wraps the functions it lists in ``FUNCTIONS`` wherever a module
binds them, and ``bench/workload.py`` derives its expected call counts from
the toy run config, so the names both read are pinned here too.
"""

import dataclasses
import importlib
import importlib.util
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ev2vox import cli, sim, train
from ev2vox import model as M
from ev2vox.events import bin_to_frames, read_evt1
from ev2vox.voxel import read_vox1, uv_sphere_mesh

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"ev2vox_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench_module("tracer")


def expected_conv_counts(enc: M.EncoderConfig, dec: M.DecoderConfig) -> Counter:
    """Conv and deconv layers per tracer group, derived from the configs."""
    kd, kh, kw = enc.stem.kernel
    assert kd == kh == kw
    counts = Counter({f"nn.conv_k{kd}": 1})
    cin = enc.stem.channels
    for stage in enc.stages:
        for bi in range(stage.blocks):
            stride = stage.stride if bi == 0 else (1, 1, 1)
            cout = stage.channels * M.EXPANSION
            # reduce and expand, plus a projection when the shortcut is not the identity
            counts["nn.conv_k1"] += 2 + (cin != cout or tuple(stride) != (1, 1, 1))
            counts["nn.conv_k3"] += 1
            cin = cout
    counts["nn.conv_k1"] += 2  # decoder entry and head
    counts["nn.conv_k3"] += 2 * (len(dec.channels) - 1)  # each down and each up's fuse
    counts["nn.deconv_k2"] += len(dec.channels) - 1
    return counts


def test_tracer_sees_every_toy_layer_forward_and_backward():
    tracer_mod = load_tracer()
    enc, dec = M.EncoderConfig.toy(), M.DecoderConfig.toy()
    model = M.build_model(enc, dec, seed=0).train()
    groups = tracer_mod.layer_counts(model)
    convs = {g: n for g, n in groups.items() if g.startswith(("nn.conv", "nn.deconv"))}
    assert convs == expected_conv_counts(enc, dec)

    x = (np.random.default_rng(0).random((2, 1, 10, 32, 32)) < 0.2).astype(np.float32)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        probs = model.forward(x)
        model.backward(np.full(probs.shape, 1.0 / probs.size, dtype=np.float32))
    finally:
        tracer.uninstall()

    calls = tracer.calls()
    assert calls["model.forward_s"] == 1 and calls["model.backward_s"] == 1
    for group, count in groups.items():
        assert (calls[f"{group}.fwd_s"], calls[f"{group}.bwd_s"]) == (count, count), group


def test_filled_slots_stay_out_of_the_attribute_walk():
    # a remembered forward fills every layer's saved slot; the tracer's layer
    # walk, the parameter order and the checkpoint entry order ignore it
    tracer_mod = load_tracer()
    model = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=0).train()

    def walked():
        return (tracer_mod.layer_counts(model), [p.name for p in model.parameters()],
                [name for name, _ in model.state_entries()])

    before = walked()
    model.forward(np.random.default_rng(1).random((1, 1, 10, 32, 32)).astype(np.float32))
    layers = {cls for _, cls, _, _ in tracer_mod.LAYERS}
    assert all(m.saved is not None for m in model.modules() if type(m).__name__ in layers)
    assert walked() == before


def test_every_traced_function_resolves():
    for modname, attr, _, _ in load_tracer().FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), f"{modname}.{attr}"


def test_cli_binds_build_model():
    # the tracer counts model builds through each module's own binding
    assert cli.build_model is M.build_model
    assert train.build_model is M.build_model


@pytest.mark.parametrize("scene,voxelizes", [
    (sim.Scene(primitives=[sim.Box((0.0, 0.0, 0.0), (0.2, 0.2, 0.2))]), 0),
    (sim.Scene(mesh=uv_sphere_mesh(n_lat=8, n_lon=16)), 1),
], ids=["box", "mesh"])
def test_sample_renders_each_frame_and_labels_once(scene, voxelizes):
    # bench/workload.py expects these calls of one generate_sample; only a
    # mesh scene goes through the voxelizer
    traj = sim.TrajectoryConfig(duration=0.5, fps=4.0)
    cam = sim.CameraIntrinsics(width=16, height=16)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        sim.generate_sample(scene, traj, cam, resolution=8)
    finally:
        tracer.uninstall()
    calls = tracer.calls()
    assert calls["sim.render_frame.self_s"] == 2 and calls["sim.occupancy_label_s"] == 1
    assert calls["voxel.voxelize_s"] == voxelizes


def test_mesh_sample_matches_the_recorded_digests(tmp_path):
    # one seed-0 operation of the mesh_sample workload, checked as the
    # benchmark checks it: its EVT1 and VOX1 bytes must equal the digests in
    # bench/reference.json, so a raycaster or voxelizer change that moves
    # them fails here as well as in the benchmark
    workload = load_bench_module("workload")
    wl = workload.MeshSample(workload.DEFAULT_SEED, tmp_path)
    wl.prepare()
    seconds, stages, failed, outputs = wl.run("test")
    problems, fingerprint = wl.check(outputs)
    assert failed == [] and problems == []
    ref = workload.REFERENCE["mesh_sample"]
    assert fingerprint == ref["evt_sha256"] + ref["vox_sha256"]


def test_eval_builds_one_model_and_bins_nothing(pipeline, tmp_path):
    # bench/workload.py expects these calls of the toy pipeline's eval stage
    run = tmp_path / "run"
    shutil.copytree(pipeline["run"], run)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        code = cli.main(["eval", "--toy", "--config", pipeline["cfg"],
                         "--manifest", str(pipeline["manifest"]), "--out", str(run)])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = tracer.calls()
    assert calls["model.build_s"] == 1 and calls["checkpoint.load_s"] == 1
    assert calls["events.evt1_read_s"] == 0 and calls["events.bin_to_frames_s"] == 0
    assert calls["voxel.vox1_read_s"] == len(cli.load_manifest(pipeline["manifest"]).entries)


def test_toy_config_has_what_the_workload_reads():
    cfg = cli.load_run_config(None, toy=True, seed=3)
    run = cfg.run
    assert run.seed == 3
    for value in (run.epochs, run.batch_size, run.checkpoint_every, cfg.generate.count):
        assert type(value) is int and value >= 1


def test_toy_labels_match_the_toy_model_output(tmp_path):
    # the workload's train IoU check scores predictions against these labels
    cfg = cli.load_run_config(None, toy=True)
    one = dataclasses.replace(cfg, generate=dataclasses.replace(cfg.generate, count=1))
    cli.cmd_generate(one, 0, str(tmp_path))
    label = read_vox1(tmp_path / "s0000.vox")
    frames = bin_to_frames(read_evt1(tmp_path / "s0000.evt"), cfg.binning)
    model = M.build_model(cfg.model.encoder, cfg.model.decoder)
    probs = model.forward(M.frames_to_input([frames]), remember=False)
    assert probs.shape[1:] == label.occupancy.shape
