"""Tests for the optimizer, training loop, checkpoint resume, and reports."""

import numpy as np
import pytest

from ev2vox import train as T
from ev2vox import voxel
from ev2vox.checkpoint import load_checkpoint, save_checkpoint
from ev2vox.errors import ConfigError, DataError, InternalError
from ev2vox.model import DecoderConfig, EncoderConfig, ModelConfig, build_model
from ev2vox.nn import Parameter


def scalar_param(value=1.0, decay=True, name="w"):
    return Parameter(np.array([value], dtype=np.float32), name, decay=decay)


class TestAdamWConfig:
    def test_defaults(self):
        cfg = T.AdamWConfig()
        assert cfg.lr == 1e-5 and cfg.weight_decay == 0.01
        assert T.AdamWConfig.toy().lr == 1e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": -1e-3},
            {"beta1": 1.0},
            {"beta2": -0.1},
            {"eps": 0.0},
            {"weight_decay": -0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            T.AdamWConfig(**kwargs)


class TestAdamWStep:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = scalar_param(3.0)
        state = T.OptState([p])
        T.adamw_step([p], state, T.AdamWConfig(lr=1e-3, weight_decay=0.0))
        assert p.value[0] == np.float32(3.0)
        assert state.step == 1

    def test_first_step_closed_form(self):
        # with g=1 the bias corrections cancel: m_hat = v_hat = 1, so the
        # update is lr / (1 + eps), indistinguishable from lr at f32
        p = scalar_param(1.0)
        p.grad[...] = 1.0
        state = T.OptState([p])
        T.adamw_step([p], state, T.AdamWConfig(lr=1e-3, weight_decay=0.0))
        assert abs(p.value[0] - (1.0 - 1e-3)) < 1e-7

    def test_decay_only(self):
        lr, wd = 1e-3, 0.01
        p = scalar_param(2.0)
        state = T.OptState([p])
        T.adamw_step([p], state, T.AdamWConfig(lr=lr, weight_decay=wd))
        np.testing.assert_allclose(p.value[0], 2.0 * (1.0 - lr * wd), rtol=1e-7)

    def test_decay_skips_flagged_params(self):
        bias = scalar_param(2.0, decay=False, name="b")
        state = T.OptState([bias])
        T.adamw_step([bias], state, T.AdamWConfig(lr=1e-3, weight_decay=0.5))
        assert bias.value[0] == np.float32(2.0)

    def test_constant_gradient_moves_monotonically(self):
        p = scalar_param(0.0)
        state = T.OptState([p])
        cfg = T.AdamWConfig(lr=1e-2, weight_decay=0.0)
        seen = [p.value[0]]
        for _ in range(30):
            p.grad[...] = 1.0
            T.adamw_step([p], state, cfg)
            seen.append(p.value[0])
        diffs = np.diff(seen)
        assert np.all(diffs < 0)

    def test_gradients_zeroed_after_step(self):
        p = scalar_param(1.0)
        p.grad[...] = 5.0
        state = T.OptState([p])
        T.adamw_step([p], state, T.AdamWConfig(lr=1e-3))
        assert np.all(p.grad == 0.0)

    def test_in_place_update_is_the_formula_bitwise(self):
        # parameters of several sizes, largest first, share the scratch buffers
        rng = np.random.default_rng(12)
        cfg = T.AdamWConfig(lr=1e-3, weight_decay=0.01)
        params = [Parameter(rng.normal(size=shape).astype(np.float32), f"p{i}", decay=decay)
                  for i, (shape, decay) in enumerate([((4, 3, 5), True), ((7,), False),
                                                      ((2, 5), True), ((3,), False)])]
        want = [(p.value.copy(), np.zeros_like(p.value), np.zeros_like(p.value))
                for p in params]
        state = T.OptState(params)
        for t in range(1, 6):
            grads = [rng.normal(size=p.value.shape).astype(np.float32) for p in params]
            for p, g in zip(params, grads):
                p.grad[...] = g
            T.adamw_step(params, state, cfg)
            c1 = 1.0 - cfg.beta1 ** t
            c2 = 1.0 - cfg.beta2 ** t
            for p, g, (w, m, v) in zip(params, grads, want):
                # the out-of-place update the in-place one replaced
                m *= cfg.beta1
                m += (1.0 - cfg.beta1) * g
                v *= cfg.beta2
                v += (1.0 - cfg.beta2) * np.square(g)
                update = (m / c1) / (np.sqrt(v / c2) + cfg.eps)
                if p.decay and cfg.weight_decay:
                    update = update + cfg.weight_decay * w
                w -= (cfg.lr * update).astype(w.dtype)
                assert p.value.tobytes() == w.tobytes()
                assert state.m[p.name].tobytes() == m.tobytes()
                assert state.v[p.name].tobytes() == v.tobytes()

    def test_state_shape_mismatch_raises(self):
        p = scalar_param(1.0)
        state = T.OptState([p])
        state.m["w"] = np.zeros(2, dtype=np.float32)
        with pytest.raises(InternalError, match="optimizer m for w: state shape \\(2,\\)"):
            T.adamw_step([p], state, T.AdamWConfig())

    def test_missing_state_raises(self):
        p = scalar_param(1.0)
        q = scalar_param(1.0, name="other")
        state = T.OptState([p])
        with pytest.raises(InternalError, match="optimizer m for other: state shape None"):
            T.adamw_step([q], state, T.AdamWConfig())

    def test_state_entries_round_trip(self, tmp_path):
        p = scalar_param(1.0)
        p.grad[...] = 1.0
        state = T.OptState([p])
        T.adamw_step([p], state, T.AdamWConfig(lr=1e-3))
        save_checkpoint(tmp_path / "opt.ckpt", state.entries())
        restored = T.OptState([p])
        load_checkpoint(tmp_path / "opt.ckpt", restored.entries())
        assert restored.step == state.step
        np.testing.assert_array_equal(restored.m["w"], state.m["w"])
        np.testing.assert_array_equal(restored.v["w"], state.v["w"])

    def test_load_takes_float32_moments_without_a_copy(self, tmp_path):
        p = scalar_param(1.0)
        save_checkpoint(tmp_path / "opt.ckpt", [
            ("opt.step", np.array(3.0, np.float32)),
            ("opt.m/w", np.array([0.5], np.float32)), ("opt.v/w", np.array([0.25], np.float32))])
        restored = T.OptState([p])
        arrays = [value for _, value in restored.entries()]
        load_checkpoint(tmp_path / "opt.ckpt", restored.entries())
        assert restored.step == 3 and restored.m["w"] == 0.5 and restored.v["w"] == 0.25
        assert all(value is array for (_, value), array in zip(restored.entries(), arrays))


def toy_dataset(n, seed=0, depth=10, side=32, r=8):
    """Procedural (frames, label) pairs: random sparse frames and a solid
    ball whose radius varies per sample."""
    rng = np.random.default_rng(seed)
    out = []
    axes = (np.arange(r) + 0.5) / r - 0.5
    xs, ys, zs = np.meshgrid(axes, axes, axes, indexing="ij")
    for i in range(n):
        frames = (rng.random((depth, side, side)) < 0.05).astype(np.uint8)
        radius = 0.25 + 0.15 * (i % 4) / 3.0
        occ = xs ** 2 + ys ** 2 + zs ** 2 <= radius ** 2
        out.append((frames, voxel.VoxelGrid(r, occ)))
    return out


def toy_model(seed=0):
    return build_model(EncoderConfig.toy(), DecoderConfig.toy(), seed=seed)


class TestTrainLoop:
    def test_empty_dataset_raises(self):
        with pytest.raises(DataError, match="training requires at least one sample"):
            T.train([], toy_model(), T.TrainRun(epochs=1), T.AdamWConfig.toy())

    def test_inconsistent_shapes_raise(self):
        data = toy_dataset(2)
        bad = [(data[0][0], data[0][1]), (data[1][0][:5], data[1][1])]
        with pytest.raises(DataError, match="sample 1 has shapes"):
            T.train(bad, toy_model(), T.TrainRun(epochs=1), T.AdamWConfig.toy())

    def test_one_step_per_epoch_when_batch_covers_dataset(self):
        data = toy_dataset(5)
        run = T.TrainRun(epochs=3, batch_size=5, seed=1)
        result = T.train(data, toy_model(), run, T.AdamWConfig.toy())
        assert result.opt_state.step == 3

    def test_epoch_leaves_no_module_holding_saved_state(self):
        model = toy_model()
        T.train(toy_dataset(3), model, T.TrainRun(epochs=1, batch_size=2, seed=1),
                T.AdamWConfig.toy())
        assert [type(m).__name__ for m in model.modules() if m.saved is not None] == []

    def test_ragged_final_batch_still_visits_everyone(self):
        data = toy_dataset(7)
        run = T.TrainRun(epochs=2, batch_size=3, seed=1)
        result = T.train(data, toy_model(), run, T.AdamWConfig.toy())
        # ceil(7 / 3) = 3 steps per epoch
        assert result.opt_state.step == 6
        assert len(result.log) == 2

    def test_epoch_shuffle_is_permutation(self):
        for epoch in range(5):
            order = np.random.default_rng((11, epoch)).permutation(9)
            assert sorted(order.tolist()) == list(range(9))

    def test_two_runs_same_seed_identical(self, tmp_path):
        data = toy_dataset(4)
        outs = []
        for sub in ("a", "b"):
            run = T.TrainRun(epochs=2, batch_size=2, seed=3, checkpoint_every=2)
            result = T.train(
                data, toy_model(seed=5), run, T.AdamWConfig.toy(),
                out_dir=tmp_path / sub,
            )
            outs.append(result)
        assert outs[0].log == outs[1].log
        a = (tmp_path / "a" / "model.ckpt").read_bytes()
        b = (tmp_path / "b" / "model.ckpt").read_bytes()
        assert a == b

    def test_resume_matches_uninterrupted(self, tmp_path):
        data = toy_dataset(4)
        opt = T.AdamWConfig.toy()

        run_full = T.TrainRun(epochs=6, batch_size=2, seed=7, checkpoint_every=3)
        full = T.train(data, toy_model(seed=2), run_full, opt, out_dir=tmp_path / "full")

        run_half = T.TrainRun(epochs=3, batch_size=2, seed=7, checkpoint_every=3)
        T.train(data, toy_model(seed=2), run_half, opt, out_dir=tmp_path / "part")

        ckpt = tmp_path / "part" / "model.ckpt"
        resumed_model, state, sidecar = T.load_training_checkpoint(ckpt)
        log = T.load_metric_log(tmp_path / "part")
        assert sidecar["epoch"] == 3
        resumed = T.train(
            data, resumed_model, run_full, opt,
            out_dir=tmp_path / "part",
            start_epoch=sidecar["epoch"], opt_state=state, log=log,
        )
        assert resumed.log == full.log
        a = (tmp_path / "full" / "model.ckpt").read_bytes()
        b = (tmp_path / "part" / "model.ckpt").read_bytes()
        assert a == b

    def test_checkpoint_sidecar_and_metrics(self, tmp_path):
        data = toy_dataset(2)
        run = T.TrainRun(epochs=2, batch_size=2, seed=0, checkpoint_every=10)
        result = T.train(data, toy_model(), run, T.AdamWConfig.toy(), out_dir=tmp_path)
        assert result.checkpoint_path is not None
        _, state, sidecar = T.load_training_checkpoint(result.checkpoint_path)
        assert sidecar["epoch"] == 2 and sidecar["seed"] == 0
        assert state.step == result.opt_state.step
        assert T.load_metric_log(tmp_path) == result.log

    def test_loader_refuses_another_model_before_building(self, tmp_path, monkeypatch):
        run = T.TrainRun(epochs=1, batch_size=2, seed=0, checkpoint_every=1)
        result = T.train(toy_dataset(2), toy_model(), run, T.AdamWConfig.toy(), out_dir=tmp_path)
        monkeypatch.setattr(T, "build_model", None)
        other = ModelConfig(EncoderConfig.toy(), DecoderConfig.toy(), seed=1)
        with pytest.raises(DataError, match="model.ckpt: checkpoint was trained with a different"):
            T.load_training_checkpoint(result.checkpoint_path, other)


class TestOverfit:
    def test_single_sample_overfits_with_monotone_loss(self):
        # epoch count calibrated empirically: lr 1e-3 moves each weight
        # about lr per step under Adam, and 50 steps is not enough travel
        # to saturate the logits below loss 0.05 from this init
        data = toy_dataset(1, seed=4)
        run = T.TrainRun(epochs=200, batch_size=1, seed=0, checkpoint_every=1000)
        result = T.train(data, toy_model(seed=1), run, T.AdamWConfig.toy())
        losses = [row[1] for row in result.log]
        assert losses[-1] < 0.05, f"final loss {losses[-1]}"
        assert result.log[-1][2] > 0.9, f"final IoU {result.log[-1][2]}"
        assert all(b <= a for a, b in zip(losses, losses[1:])), "loss not monotone"


class FakeModel:
    """Returns pre-baked probability grids in dataset order."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)
        self.cursor = 0

    def eval(self):
        return self

    def forward(self, x, remember=True):
        n = x.shape[0]
        out = self.probs[self.cursor:self.cursor + n]
        self.cursor += n
        return out


class TestEvaluate:
    def test_perfect_predictions_score_one(self):
        data = toy_dataset(3, r=4)
        samples = [(f, label, "ball") for f, label in data]
        fake = FakeModel(np.stack([label.occupancy.astype(np.float64) for _, label in data]))
        report = T.evaluate(fake, samples, threshold=0.3, distance=0.2)
        assert len(report.rows) == 1
        assert report.rows[0].iou == 1.0 and report.rows[0].fscore == 1.0
        assert report.overall.iou == 1.0

    def test_means_match_per_sample_metrics(self):
        rng = np.random.default_rng(9)
        frames = np.zeros((2, 4, 4), dtype=np.uint8)
        gts = [voxel.VoxelGrid(4, rng.random((4, 4, 4)) > 0.5) for _ in range(2)]
        preds = [rng.uniform(0, 1, (4, 4, 4)) for _ in range(2)]
        samples = [(frames, g, "solo") for g in gts]
        report = T.evaluate(FakeModel(np.stack(preds)), samples, threshold=0.3, distance=0.2)

        expect_iou = []
        expect_f = []
        for p, gt in zip(preds, gts):
            pred = voxel.binarize(p, 0.3)
            expect_iou.append(voxel.iou(pred, gt))
            expect_f.append(voxel.fscore(pred, gt, 0.2))
        assert report.rows[0].iou == pytest.approx(np.mean(expect_iou))
        assert report.rows[0].fscore == pytest.approx(np.mean(expect_f))

    def test_overall_is_sample_weighted(self):
        frames = np.zeros((2, 4, 4), dtype=np.uint8)
        full = voxel.VoxelGrid(4, np.ones((4, 4, 4), dtype=bool))
        probs = []
        samples = []
        # one "good" category sample scoring 1.0, three "bad" scoring 0.0
        samples.append((frames, full, "good"))
        probs.append(np.ones((4, 4, 4)) * 0.9)
        for _ in range(3):
            samples.append((frames, full, "bad"))
            probs.append(np.zeros((4, 4, 4)))
        report = T.evaluate(FakeModel(np.stack(probs)), samples, 0.3, 0.2)
        by_cat = {r.category: r for r in report.rows}
        assert by_cat["good"].iou == 1.0 and by_cat["bad"].iou == 0.0
        # sample-weighted: (1 + 0 + 0 + 0) / 4, not (1 + 0) / 2
        assert report.overall.iou == pytest.approx(0.25)
        assert report.overall.count == 4

    def test_report_text_names_thresholds(self):
        frames = np.zeros((2, 4, 4), dtype=np.uint8)
        gt = voxel.VoxelGrid(4, np.ones((4, 4, 4), dtype=bool))
        report = T.evaluate(
            FakeModel(np.ones((1, 4, 4, 4)) * 0.8),
            [(frames, gt, "cube")],
            threshold=0.4,
            distance=0.1,
        )
        text = report.text()
        assert "t=0.4" in text and "d=0.1" in text
        assert "Overall" in text and "cube" in text
        rows = report.csv_rows()
        assert rows[0] == "category,count,iou,fscore"
        assert rows[1].startswith("cube,1,")

    def test_unlabeled_samples_fall_into_all(self):
        frames = np.zeros((2, 4, 4), dtype=np.uint8)
        gt = voxel.VoxelGrid(4, np.ones((4, 4, 4), dtype=bool))
        report = T.evaluate(FakeModel(np.full((1, 4, 4, 4), 0.9)), [(frames, gt)], 0.3, 0.2)
        assert report.rows[0].category == "all"
