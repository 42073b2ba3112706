"""Qualification suite: nine pass/fail criteria with runtime budgets.

Each test prints one line, visible even under pytest's capture, naming the
criterion and PASS or FAIL. Tolerances and budgets are part of the
contract, so they are asserted, not just reported.
"""

import time

import numpy as np
import pytest

from gradcheck import as_float64, numeric_grad_coords, numeric_grad_full, rel_err

from ev2vox import nn
from ev2vox.cli import _procedural_scene, grid_to_obj
from ev2vox.events import (
    BinningConfig,
    bin_to_frames,
    from_arrays,
    validate_stream,
    write_evt1,
)
from ev2vox.model import (
    DecoderConfig,
    EncoderConfig,
    bce_loss,
    build_model,
    count_parameters,
    decode,
    encode,
)
from ev2vox.sim import (
    CameraIntrinsics,
    Scene,
    Sphere,
    TrajectoryConfig,
    camera_pose,
    generate_sample,
    render_frame,
    video_to_events,
)
from ev2vox.train import (
    AdamWConfig,
    TrainRun,
    load_metric_log,
    load_training_checkpoint,
    train,
)
from ev2vox.voxel import (
    VoxelGrid,
    binarize,
    fscore,
    iou,
    parse_obj,
    unit_cube_mesh,
    uv_sphere_mesh,
    voxelize,
    write_vox1,
)

REFERENCE_PARAM_COUNT = 149_155_905


@pytest.fixture
def announce(capsys):
    def _say(line):
        with capsys.disabled():
            print(line, flush=True)
    return _say


def run_criterion(announce, number, label, budget_s, body):
    start = time.perf_counter()
    try:
        note = body()
    except BaseException:
        announce(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        announce(f"criterion {number} ({label}): FAIL "
                 f"(over budget: {elapsed:.1f}s >= {budget_s}s)")
        pytest.fail(f"runtime {elapsed:.1f}s exceeds the {budget_s}s budget")
    extra = f"; {note}" if note else ""
    announce(f"criterion {number} ({label}): PASS ({elapsed:.1f}s{extra})")


def test_criterion_1_frame_count(announce):
    def body():
        rng = np.random.default_rng(0)
        for n_events in (0, 1, 100_000):
            t = np.sort(rng.uniform(0.0, 0.5, n_events))
            x = rng.integers(0, 64, n_events)
            y = rng.integers(0, 64, n_events)
            p = rng.choice([-1, 1], n_events)
            stream = from_arrays(t, x, y, p, 64, 64, duration=0.5)
            frames = bin_to_frames(stream, BinningConfig(window=0.005))
            assert len(frames) == 100, f"{n_events} events gave {len(frames)} frames"

    run_criterion(announce, 1, "frame-count fidelity", 1.0, body)


def test_criterion_2_trajectory(announce):
    def body():
        cfg = TrajectoryConfig()
        p0 = camera_pose(cfg, 0.0)
        assert abs(p0.position[2] - 2.0) < 1e-12
        assert abs(np.hypot(p0.position[0], p0.position[1]) - 4.0) < 1e-12
        ph = camera_pose(cfg, cfg.duration / 2)
        assert abs(ph.position[2]) < 1e-12
        assert abs(np.hypot(ph.position[0], ph.position[1]) - 6.0) < 1e-12
        pT = camera_pose(cfg, cfg.duration)
        assert abs(pT.position[2] + 2.0) < 1e-12
        assert abs(np.hypot(pT.position[0], pT.position[1]) - 4.0) < 1e-12

        n_frames = int(cfg.duration * cfg.fps)
        assert n_frames == 120
        scene = Scene(primitives=[Sphere((0.0, 0.0, 0.0), 0.3)])
        cam = CameraIntrinsics()
        video = np.stack([
            render_frame(scene, camera_pose(cfg, i / cfg.fps), cam)
            for i in range(n_frames)
        ])
        assert video.shape == (120, 64, 64)

    run_criterion(announce, 2, "trajectory fidelity", 1.0, body)


def _layer_cases(seed):
    """One small randomized instance of every differentiable layer."""
    rng = np.random.default_rng(seed)
    shape = (2, 3, int(rng.integers(3, 6)), int(rng.integers(4, 8)), int(rng.integers(4, 8)))
    x = rng.normal(size=shape)
    yield "conv3d", as_float64(nn.Conv3d(3, 4, kernel=3, stride=(1, 2, 2), padding=1,
                                         name="c", seed=seed)), x
    yield "deconv3d", as_float64(nn.Deconv3d(3, 2, kernel=2, stride=2,
                                             name="d", seed=seed)), x
    bn = as_float64(nn.BatchNorm3d(3, name="b"))
    bn.training = True
    yield "batchnorm", bn, x
    yield "relu", nn.ReLU(), x
    yield "sigmoid", nn.Sigmoid(), x
    target = tuple(int(rng.integers(2, 6)) for _ in range(3))
    yield "adaptive_resize", nn.AdaptiveResize3d(target), x


def _full_toy_model_case(seed):
    """Finite-difference the toy model's BCE loss at sampled coordinates.

    The step is smaller than the layer checks use: through a deep
    composition a wider stencil occasionally straddles a ReLU kink, which
    poisons the central difference without meaning the gradient is wrong.
    """
    h = 1e-7
    rng = np.random.default_rng(seed)
    model = as_float64(build_model(EncoderConfig.toy(), DecoderConfig.toy(), seed=seed))
    model.train()
    d = int(rng.integers(5, 9))
    hw = int(rng.integers(12, 20)) * 2
    x = rng.random((1, 1, d, hw, hw))
    target = (rng.random((1, 8, 8, 8)) < 0.4).astype(np.float64)

    def loss_value():
        return bce_loss(model.forward(x, remember=False), target)[0]

    loss, grad = bce_loss(model.forward(x, remember=True), target)
    for p in model.parameters():
        p.zero_grad()
    grad_x = model.backward(grad)

    def pick(arr):
        return rng.choice(arr.size, size=min(4, arr.size), replace=False)

    coords = pick(x)
    num = numeric_grad_coords(loss_value, x, coords, h=h)
    ana = grad_x.reshape(-1)[coords]
    assert rel_err(ana, num) < 1e-6, f"input gradient mismatch at seed {seed}"

    params = {p.name: p for p in model.parameters()}
    for name in (
        "encoder.stem.conv.weight",
        "encoder.stage1.block0.conv2.weight",
        "decoder.up1.deconv.weight",
        "decoder.head.conv.bias",
    ):
        p = params[name]
        coords = pick(p.value)
        num = numeric_grad_coords(loss_value, p.value, coords, h=h)
        ana = p.grad.reshape(-1)[coords]
        assert rel_err(ana, num) < 1e-6, f"{name} mismatch at seed {seed}"


def test_criterion_3_gradient_suite(announce):
    def body():
        for seed in range(20):
            rng = np.random.default_rng((seed, 1))
            for label, layer, x in _layer_cases(seed):
                # batch norm and ReLU write into their input
                y = layer.forward(x.copy(), remember=True)
                proj = rng.normal(size=y.shape)
                for p in layer.parameters():
                    p.zero_grad()
                ana_x = layer.backward(proj)

                def objective():
                    return float((layer.forward(x.copy(), remember=False) * proj).sum())

                err = rel_err(ana_x, numeric_grad_full(objective, x))
                assert err < 1e-6, f"{label} input grad err {err:.2e} at seed {seed}"
                for p in layer.parameters():
                    perr = rel_err(p.grad, numeric_grad_full(objective, p.value))
                    assert perr < 1e-6, f"{label}.{p.name} err {perr:.2e} at seed {seed}"

            # BCE loss gradient against finite differences
            pred = rng.uniform(0.05, 0.95, size=(1, 8, 8, 8))
            tgt = (rng.random((1, 8, 8, 8)) < 0.5).astype(np.float64)
            _, g = bce_loss(pred, tgt)
            coords = rng.choice(pred.size, size=6, replace=False)
            num = numeric_grad_coords(lambda: bce_loss(pred, tgt)[0], pred, coords)
            ana = g.reshape(-1)[coords]
            assert rel_err(ana, num) < 1e-6

            _full_toy_model_case(seed)

    run_criterion(announce, 3, "gradient suite", 120.0, body)


def test_criterion_4_metric_oracles(announce):
    def body():
        rng = np.random.default_rng(4)
        for case in range(200):
            probs = rng.random((8, 8, 8))
            gt = rng.random((8, 8, 8)) < rng.uniform(0.1, 0.6)
            thr = float(rng.uniform(0.1, 0.9))
            # occupancy takes probabilities strictly above the threshold
            pred_occ = probs > thr
            inter = int(np.sum(pred_occ & gt))
            union = int(np.sum(pred_occ | gt))
            expect = 1.0 if union == 0 else inter / union
            got = iou(binarize(probs, thr), VoxelGrid(8, gt))
            assert got == expect, f"IoU mismatch on case {case}"

            d = float(rng.uniform(0.05, 0.5))
            got_f = fscore(VoxelGrid(8, pred_occ), VoxelGrid(8, gt), distance=d)
            rec = (np.argwhere(pred_occ) + 0.5) / 8
            ref = (np.argwhere(gt) + 0.5) / 8
            if len(rec) == 0 or len(ref) == 0:
                both_empty = len(rec) == 0 and len(ref) == 0
                assert got_f == (1.0 if both_empty else 0.0)
                continue
            dists = np.linalg.norm(
                rec[:, None, :] - ref[None, :, :], axis=2
            )
            precision = float(np.mean(dists.min(axis=1) < d))
            recall = float(np.mean(dists.min(axis=0) < d))
            expect_f = (0.0 if precision + recall == 0
                        else 2 * precision * recall / (precision + recall))
            assert got_f == expect_f, f"F-Score mismatch on case {case}"

        empty = VoxelGrid(8, np.zeros((8, 8, 8), dtype=bool))
        full = VoxelGrid(8, np.ones((8, 8, 8), dtype=bool))
        assert iou(empty, empty) == 1.0
        assert fscore(empty, full, 0.2) == 0.0
        assert fscore(full, empty, 0.2) == 0.0

        loss, _ = bce_loss(np.full((1, 4, 4, 4), 0.5), np.zeros((1, 4, 4, 4)))
        assert abs(loss - np.log(2.0)) < 1e-6

    run_criterion(announce, 4, "metric oracle equivalence", 30.0, body)


def test_criterion_5_event_synthesis(announce):
    def body():
        contrast = 0.2
        assert len(video_to_events(np.full((6, 4, 4), 0.3), fps=100.0)) == 0

        rng = np.random.default_rng(5)
        for _ in range(20):
            steps = rng.uniform(0.02, 0.4, size=int(rng.integers(2, 9)))
            sign = rng.choice([-1.0, 1.0])
            levels = np.concatenate([[0.0], np.cumsum(steps * sign)]) - 1.0
            frames = (np.exp(levels) - 1e-3)[:, None, None] * np.ones((1, 1, 1))
            l0, l1 = np.log(frames[0, 0, 0] + 1e-3), np.log(frames[-1, 0, 0] + 1e-3)
            expect = int(np.floor(abs(l1 - l0) / contrast))
            stream = video_to_events(frames, fps=50.0, contrast=contrast)
            assert len(stream) == expect

        base = 0.2
        l0 = np.log(base + 1e-3)
        frames = np.full((2, 2, 2), base)
        frames[1, 0, 0] = np.exp(l0 + 2.5 * contrast) - 1e-3
        stream = video_to_events(frames, fps=10.0, contrast=contrast)
        assert len(stream) == 2
        fractions = stream.t / 0.1
        assert np.all(np.abs(fractions - [0.4, 0.8]) < 1e-9)

        for seed in range(5):
            vid = np.random.default_rng(seed).uniform(0.05, 1.0, size=(10, 8, 8))
            s = video_to_events(vid, fps=60.0)
            records = list(zip(s.x, s.y, s.t, s.p))
            validate_stream(records, s.sensor_width, s.sensor_height, s.duration)

    run_criterion(announce, 5, "event-synthesis properties", 30.0, body)


def _procedural_dataset(seed=7, count=8):
    binning = BinningConfig(window=0.05, target_height=32, target_width=32)
    dataset = []
    for i in range(count):
        scene, kind = _procedural_scene(seed, i)
        stream, label = generate_sample(scene, resolution=8)
        dataset.append((bin_to_frames(stream, binning), label, kind))
    return dataset


def test_criterion_6_overfit(announce):
    note = {}

    def body():
        dataset = _procedural_dataset()
        model = build_model(EncoderConfig.toy(), DecoderConfig.toy(), seed=0)
        run = TrainRun(epochs=200, batch_size=2, seed=0, checkpoint_every=200)
        result = train(dataset, model, run, AdamWConfig.toy())
        _, loss, train_iou = result.log[-1]
        note["msg"] = f"loss {loss:.4f}, IoU@0.3 {train_iou:.4f}"
        assert loss < 0.05, f"final loss {loss:.4f} >= 0.05"
        assert train_iou >= 0.9, f"train IoU {train_iou:.4f} < 0.9"
        return note["msg"]

    run_criterion(announce, 6, "overfit convergence", 300.0, body)


def test_criterion_7_determinism(announce, tmp_path):
    def body():
        # identical seeds -> identical EVT1/VOX1 bytes
        scene, _ = _procedural_scene(3, 0)
        blobs = []
        for run_dir in ("a", "b"):
            d = tmp_path / run_dir
            d.mkdir()
            stream, label = generate_sample(scene, resolution=8)
            write_evt1(stream, d / "s.evt")
            write_vox1(label, d / "s.vox")
            blobs.append(((d / "s.evt").read_bytes(), (d / "s.vox").read_bytes()))
        assert blobs[0] == blobs[1]

        # identical seeds -> identical CKP1 bytes and metric logs
        rng = np.random.default_rng(0)
        data = [((rng.random((6, 16, 16)) < 0.05).astype(np.uint8),
                 VoxelGrid(8, rng.random((8, 8, 8)) < 0.3))
                for _ in range(4)]
        run = TrainRun(epochs=4, batch_size=2, seed=1, checkpoint_every=4)
        artifacts = []
        for name in ("r1", "r2"):
            d = tmp_path / name
            d.mkdir()
            model = build_model(EncoderConfig.toy(), DecoderConfig.toy(), seed=1)
            res = train(data, model, run, AdamWConfig.toy(), out_dir=str(d))
            artifacts.append(((d / "model.ckpt").read_bytes(),
                              (d / "metrics.csv").read_bytes(), res))
        assert artifacts[0][:2] == artifacts[1][:2]

        # checkpoint + optimizer state round-trips bit-exactly
        res = artifacts[0][2]
        fresh, state, sidecar = load_training_checkpoint(tmp_path / "r1" / "model.ckpt")
        for (n1, v1), (n2, v2) in zip(res.model.state_entries(), fresh.state_entries()):
            assert n1 == n2 and v1.tobytes() == v2.tobytes()
        for (n1, v1), (n2, v2) in zip(res.opt_state.entries(), state.entries()):
            assert n1 == n2 and np.asarray(v1).tobytes() == np.asarray(v2).tobytes()
        assert sidecar["epoch"] == 4

        # resumed training equals uninterrupted training
        full_dir, part_dir = tmp_path / "full", tmp_path / "part"
        full_dir.mkdir()
        part_dir.mkdir()
        run6 = TrainRun(epochs=6, batch_size=2, seed=1, checkpoint_every=3)
        model = build_model(EncoderConfig.toy(), DecoderConfig.toy(), seed=1)
        train(data, model, run6, AdamWConfig.toy(), out_dir=str(full_dir))

        run3 = TrainRun(epochs=3, batch_size=2, seed=1, checkpoint_every=3)
        model = build_model(EncoderConfig.toy(), DecoderConfig.toy(), seed=1)
        train(data, model, run3, AdamWConfig.toy(), out_dir=str(part_dir))
        resumed, state, sidecar = load_training_checkpoint(part_dir / "model.ckpt")
        train(data, resumed, run6, AdamWConfig.toy(), out_dir=str(part_dir),
              start_epoch=sidecar["epoch"], opt_state=state,
              log=load_metric_log(str(part_dir)))
        assert (full_dir / "model.ckpt").read_bytes() == (part_dir / "model.ckpt").read_bytes()
        assert (full_dir / "metrics.csv").read_bytes() == (part_dir / "metrics.csv").read_bytes()

    run_criterion(announce, 7, "determinism and persistence", 300.0, body)


def test_criterion_8_full_scale(announce):
    def body():
        model = build_model(EncoderConfig.paper(), DecoderConfig.paper(), seed=0)
        n_params = count_parameters(model)
        # batch-stat normalization, as during training; fresh running stats
        # would let activations grow until the sigmoid saturates in float32
        model.train()
        rng = np.random.default_rng(0)
        x = (rng.random((1, 1, 100, 256, 256)) < 0.05).astype(np.float32)
        latent = encode(model, x)
        assert latent.shape == (1, 2048, 4, 8, 8)
        assert model.decoder.resize.spec.target == (32, 32, 32)
        probs = decode(model, latent)
        assert probs.shape == (1, 32, 32, 32)
        assert probs.min() > 0.0 and probs.max() < 1.0
        # the reference figure comes from an under-specified architecture;
        # report both counts rather than asserting equality
        return (f"params {n_params:,} vs reference {REFERENCE_PARAM_COUNT:,} "
                f"(deviation documented, not asserted)")

    run_criterion(announce, 8, "full-scale structural check", 300.0, body)


def test_criterion_9_voxelizer(announce):
    def body():
        sphere = voxelize(uv_sphere_mesh(), 32)
        analytic = 4.0 / 3.0 * np.pi * 0.5 ** 3 * 32 ** 3
        assert abs(sphere.count() - analytic) / analytic < 0.05

        cube = voxelize(unit_cube_mesh(), 8)
        assert cube.count() == 8 ** 3

        for grid in (sphere, VoxelGrid(4, np.zeros((4, 4, 4), dtype=bool))):
            k = grid.count()
            text = grid_to_obj(grid)
            if k == 0:
                assert not any(l.startswith(("v ", "f ")) for l in text.splitlines())
                continue
            mesh = parse_obj(text)
            assert mesh.vertices.shape == (8 * k, 3)
            assert mesh.triangles.shape == (12 * k, 3)

    run_criterion(announce, 9, "voxelizer accuracy", 300.0, body)
