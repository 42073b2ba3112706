"""Tests for the encoder-decoder assembly, the loss, and state handling."""

import hashlib
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from ev2vox import model as M
from ev2vox import nn
from ev2vox import train as T
from ev2vox.checkpoint import load_checkpoint, save_checkpoint
from ev2vox.config import from_json
from ev2vox.errors import (
    ConfigError,
    DataError,
    InternalError,
)
from gradcheck import as_float64, numeric_grad_coords, rel_err


def micro_configs():
    """A model small enough for finite-difference sweeps."""
    enc = M.EncoderConfig(
        stem=M.StemConfig(kernel=(3, 3, 3), stride=(1, 2, 2), channels=4, pool=False),
        stages=(M.StageConfig(1, 4, (1, 1, 1)), M.StageConfig(1, 8, (2, 2, 2))),
        resolution=4,
    )
    dec = M.DecoderConfig(channels=(4, 8))
    return enc, dec


def saved_training_checkpoint(tmp_path, model, damage):
    """The path of ``model``'s training checkpoint in tmp_path, written from
    its (name, array) entries after ``damage`` has edited that list in place."""
    path = T._save_training_checkpoint(
        tmp_path, model, T.OptState(model.parameters()), T.TrainRun(), 0, [])
    entries = model.state_entries() + T.OptState(model.parameters()).entries()
    damage(entries)
    save_checkpoint(path, entries)
    return path


def replaced(name, value):
    """A damage that puts ``value`` in the place of entry ``name``."""
    def damage(entries):
        entries[[n for n, _ in entries].index(name)] = (name, value)
    return damage


class TestConfigs:
    def test_toy_matches_declared_shape(self):
        enc = M.EncoderConfig.toy()
        assert enc.stem.channels == 8
        assert [(s.blocks, s.channels) for s in enc.stages] == [(1, 8), (1, 16)]
        assert enc.resolution == 8
        assert enc.out_channels == 64
        assert M.DecoderConfig.toy().channels == (16, 32)

    def test_full_scale_stage_pattern(self):
        enc = M.EncoderConfig.paper()
        assert [s.blocks for s in enc.stages] == [3, 8, 36, 3]
        assert enc.out_channels == 2048
        assert enc.resolution == 32
        assert M.DecoderConfig.paper().channels == (64, 128, 256)

    def test_config_dict_round_trip(self):
        for enc, dec in ((M.EncoderConfig.toy(), M.DecoderConfig.toy()),
                         (M.EncoderConfig.paper(), M.DecoderConfig.paper())):
            # through JSON text, so tuples come back from lists
            d = json.loads(json.dumps(asdict(M.ModelConfig(enc, dec, seed=3))))
            assert from_json(M.ModelConfig, d, "config") == M.ModelConfig(enc, dec, seed=3)

    @pytest.mark.parametrize("make", [
        lambda: M.StemConfig(kernel=(3, 0, 3)),
        lambda: M.StemConfig(stride=(1, 0, 1)),
        lambda: M.StemConfig(channels=0),
        lambda: M.StageConfig(1, 0, (1, 1, 1)),
        lambda: M.StageConfig(1, 4, (2, 0, 2)),
        lambda: M.StageConfig(0, 4, (1, 1, 1)),
        lambda: M.DecoderConfig(channels=(8, 0)),
    ])
    def test_shapes_below_one_rejected(self, make):
        with pytest.raises(ConfigError, match="must be at least 1"):
            make()

    def test_empty_stages_rejected(self):
        with pytest.raises(ConfigError):
            M.EncoderConfig(stem=M.StemConfig(), stages=())

    def test_bad_hidden_rejected(self):
        with pytest.raises(ConfigError):
            M.EncoderConfig(
                stem=M.StemConfig(), stages=(M.StageConfig(1, 4, (1, 1, 1)),),
                resolution=0,
            )

    def test_empty_channel_list_rejected(self):
        with pytest.raises(ConfigError, match="at least one level"):
            M.DecoderConfig(channels=())

    def test_duplicate_state_names_rejected(self, monkeypatch):
        # a second copy of the encoder repeats every encoder entry's name
        build = M.build_encoder
        monkeypatch.setattr(M, "build_encoder",
                            lambda cfg, seed: nn.Sequential(build(cfg, seed), build(cfg, seed)))
        with pytest.raises(ConfigError, match=r"duplicate state names in model: "
                           r"\['encoder.stage0.block0.conv1.weight', "):
            M.build_model(*micro_configs(), seed=0)

    def test_indivisible_hidden_rejected_at_build(self):
        enc = M.EncoderConfig(
            stem=M.StemConfig(kernel=(3, 3, 3), stride=(1, 1, 1), channels=4, pool=False),
            stages=(M.StageConfig(1, 4, (1, 1, 1)),),
            resolution=5,
        )
        with pytest.raises(ConfigError, match="model.encoder.resolution 5 .*model.decoder"):
            M.build_model(enc, M.DecoderConfig(channels=(4, 8)), seed=0)


class TestShapes:
    def test_toy_forward_shape(self):
        m = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=1)
        x = np.random.default_rng(0).random((1, 1, 10, 32, 32)).astype(np.float32)
        probs = m.forward(x)
        assert probs.shape == (1, 8, 8, 8)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_toy_encode_shape(self):
        m = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=1)
        x = np.zeros((2, 1, 10, 32, 32), dtype=np.float32)
        # the latent keeps the encoder's own volume; the decoder resizes it
        assert M.encode(m, x).shape == (2, 64, 5, 8, 8)

    def test_micro_shape_propagation(self):
        # stem (1,2,2) halves 16x16 to 8x8; the second stage halves all three
        # axes, and the decoder's resize pins the output to 4^3 regardless
        enc, dec = micro_configs()
        m = M.build_model(enc, dec, seed=3)
        x = np.zeros((1, 1, 6, 16, 16), dtype=np.float32)
        assert M.encode(m, x).shape == (1, 32, 3, 4, 4)
        assert m.forward(x).shape == (1, 4, 4, 4)

    def test_encode_wrong_rank_raises(self):
        m = M.build_model(*micro_configs(), seed=0)
        with pytest.raises(InternalError, match="expected rank-5 tensor"):
            M.encode(m, np.zeros((1, 6, 16, 16), dtype=np.float32))

    def test_encode_wrong_channels_raises(self):
        m = M.build_model(*micro_configs(), seed=0)
        with pytest.raises(InternalError, match="expects 1 channels, got 2"):
            M.encode(m, np.zeros((1, 2, 6, 16, 16), dtype=np.float32))

    def test_zeroed_head_gives_exact_half(self):
        m = M.build_model(*micro_configs(), seed=5)
        m.decoder.head.weight.value[...] = 0.0
        m.decoder.head_bias.value[...] = 0.0
        x = np.random.default_rng(2).random((1, 1, 6, 16, 16)).astype(np.float32)
        probs = m.forward(x, remember=False)
        assert np.all(probs == 0.5)

    def test_decoder_restores_noncubic_spatial(self):
        # the decoder's resize pins any latent volume, grown, shrunk or
        # already cubic, to R^3 in both entry orders, and every down halving
        # is undone by the matching up level
        enc = M.EncoderConfig(
            stem=M.StemConfig(kernel=(3, 3, 3), stride=(1, 2, 2), channels=4, pool=False),
            stages=(M.StageConfig(1, 4, (1, 1, 1)),),
            resolution=8,
        )
        m = M.build_model(enc, M.DecoderConfig(channels=(4, 8)), seed=0)
        assert m.decoder.resize.spec.target == (8, 8, 8)
        rng = np.random.default_rng(3)
        for shape in ((1, 16, 4, 8, 8), (2, 16, 3, 11, 5), (1, 16, 8, 8, 8)):
            latent = rng.random(shape).astype(np.float32)
            for remember in (True, False):
                assert M.decode(m, latent, remember).shape == (shape[0], 8, 8, 8)


class TestDecoderEntryOrder:
    """Inference runs the decoder's 1x1x1 entry conv before its resize,
    training after it."""

    @staticmethod
    def cases(dtype):
        """(decoder, latent, exact): the toy and micro models' decoders on
        their encoders' latents, and 512-channel latents under a 64-wide
        entry, as the paper's, and under a 4-wide one.

        The orders commute in exact arithmetic; in floating point they give
        the same bytes when the BLAS computes each cell's product the same
        way at the latent's cell count and at R^3. With OpenBLAS 0.3.31 on
        AVX-512, products of up to about 10^6 multiply-adds, as the 4-wide
        entry's on 256 cells, sum their 512 channels in another order than
        the larger product at R^3, so there the orders agree only to
        rounding."""
        rng = np.random.default_rng(17)
        cast = as_float64 if dtype == np.float64 else (lambda module: module)
        for enc, dec, frames in ((M.EncoderConfig.toy(), M.DecoderConfig.toy(), (2, 1, 10, 32, 32)),
                                 (*micro_configs(), (3, 1, 6, 16, 16))):
            m = cast(M.build_model(enc, dec, seed=4))
            yield m.decoder, M.encode(m, rng.random(frames).astype(dtype)), True
        latent = rng.normal(size=(1, 512, 4, 8, 8)).astype(dtype)
        yield cast(M.Decoder(M.DecoderConfig((64, 128)), 512, 16, seed=4)), latent, True
        yield cast(M.Decoder(M.DecoderConfig((4, 8)), 512, 32, seed=4)), latent, False

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_inference_matches_resize_then_conv(self, dtype, training):
        for dec, latent, exact in self.cases(dtype):
            dec.train(training)
            assert latent.shape[2:] != dec.resize.spec.target
            got = dec.forward(latent, remember=False)
            assert got.dtype == dtype
            # resized by hand, the decoder's own resize (after its conv) is a
            # copy, so this runs resize -> conv -> norm -> ReLU -> the UNet
            want = dec.forward(dec.resize.forward(latent, remember=False), remember=False)
            if exact:
                np.testing.assert_array_equal(got, want)
            else:
                tol = 1000 * np.finfo(dtype).eps
                np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    def test_remembered_forward_keeps_the_training_order(self):
        # the conv's gradients sum over the cells it saw; R^3 cells keep the
        # trained bytes
        m = M.build_model(*micro_configs(), seed=2)
        x = np.random.default_rng(5).random((2, 1, 6, 16, 16)).astype(np.float32)
        m.forward(x, remember=True)
        conv = m.decoder.entry.layers[0]
        assert conv.saved.shape == (2, 32, 4, 4, 4)
        assert m.decoder.resize.saved == (2, 32, 3, 4, 4)

    def test_inference_never_builds_the_resized_latent(self):
        # A (1, 512, 4, 8, 8) latent resized to 32^3 is 64 MiB in float32.
        # Projected to 4 channels first, the forward's traced peak was 11.4
        # MiB as measured (76.9 MiB when remembered, which resizes first and
        # keeps its caches); 24 MiB catches any latent-wide resize.
        dec = M.Decoder(M.DecoderConfig((4, 8)), 512, 32, seed=0)
        latent = np.random.default_rng(0).random((1, 512, 4, 8, 8)).astype(np.float32)
        tracemalloc.start()
        try:
            probs = dec.forward(latent, remember=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probs.shape == (1, 1, 32, 32, 32)
        assert peak < 24 * 2**20


class TestSavedState:
    def test_backward_leaves_no_module_holding_saved_state(self):
        m = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=1)
        x = np.random.default_rng(0).random((2, 1, 10, 32, 32)).astype(np.float32)
        probs = m.forward(x)
        assert any(mod.saved is not None for mod in m.modules())
        m.backward(np.full(probs.shape, 1.0 / probs.size, dtype=np.float32))
        assert [type(mod).__name__ for mod in m.modules() if mod.saved is not None] == []


class TestBceLoss:
    def test_perfect_prediction_is_tiny(self):
        target = (np.random.default_rng(0).random((2, 4, 4, 4)) > 0.5).astype(np.float64)
        pred = np.clip(target, 1e-7, 1 - 1e-7)
        loss, _ = M.bce_loss(pred, target)
        assert loss < 1e-5

    def test_uniform_half_gives_ln2(self):
        target = (np.random.default_rng(1).random((3, 3, 3)) > 0.3).astype(np.float64)
        loss, _ = M.bce_loss(np.full((3, 3, 3), 0.5), target)
        assert abs(loss - np.log(2.0)) < 1e-6

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(7)
        pred = rng.uniform(0.01, 0.99, size=(1, 4, 4, 4))
        target = (rng.random((1, 4, 4, 4)) > 0.5).astype(np.float64)
        loss, grad = M.bce_loss(pred, target)
        total = 0.0
        n = pred.size
        for p, v in zip(pred.ravel(), target.ravel()):
            total += -(v * np.log(p) + (1 - v) * np.log(1 - p))
        assert abs(loss - total / n) < 1e-10
        # per-voxel gradient against the closed form
        expected = (pred - target) / (pred * (1 - pred)) / n
        np.testing.assert_allclose(grad, expected, rtol=1e-12)

    def test_float32_model_gets_a_float32_gradient(self):
        # bce_loss makes the one cast to the model's dtype, so a model
        # recast to float64 (full_model_loss_check) runs its backward in
        # float64; its float32 gradient is the float64 one rounded once
        m = M.build_model(*micro_configs(), seed=0).train()
        probs = m.forward(np.random.default_rng(2).random((2, 1, 6, 16, 16)).astype(np.float32))
        target = (np.random.default_rng(3).random(probs.shape) > 0.5).astype(np.float64)
        _, grad = M.bce_loss(probs, target)
        assert probs.dtype == grad.dtype == np.float32
        wide = M.bce_loss(probs.astype(np.float64), target)[1]
        assert grad.tobytes() == wide.astype(np.float32).tobytes()
        assert m.backward(grad).dtype == np.float32
        assert {p.grad.dtype for p in m.parameters()} == {np.dtype(np.float32)}

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        pred = rng.uniform(0.05, 0.95, size=(2, 3, 3, 3))
        target = (rng.random(pred.shape) > 0.5).astype(np.float64)
        _, grad = M.bce_loss(pred, target)

        def f():
            return M.bce_loss(pred, target)[0]

        coords = rng.choice(pred.size, size=12, replace=False)
        num = numeric_grad_coords(f, pred, coords)
        assert rel_err(grad.ravel()[coords], num) < 1e-8

    def test_shape_mismatch_raises(self):
        with pytest.raises(DataError, match="prediction shape \\(2, 4, 4, 4\\) != target shape"):
            M.bce_loss(np.zeros((2, 4, 4, 4)), np.zeros((2, 8, 8, 8)))

    def test_saturated_inputs_stay_finite(self):
        target = np.ones((2, 2, 2))
        loss, grad = M.bce_loss(np.zeros((2, 2, 2)), target)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


def expected_toy_count():
    """Closed-form parameter count for the toy config, summed by hand from
    the layer table: a conv or deconv contributes kd*kh*kw*Cin*Cout, a norm
    2C, and the head's logit offset 1."""

    def conv(k, cin, cout):
        return k ** 3 * cin * cout

    def block(cin, w):
        cout = 4 * w
        n = conv(1, cin, w) + 2 * w          # reduce
        n += conv(3, w, w) + 2 * w           # spatial
        n += conv(1, w, cout) + 2 * cout     # expand
        if cin != cout:
            n += conv(1, cin, cout) + 2 * cout
        return n

    total = conv(3, 1, 8) + 2 * 8            # stem
    total += block(8, 8)                     # stage 0 (projects 8 -> 32)
    total += block(32, 16)                   # stage 1 (strided, projects)
    total += conv(1, 64, 16) + 2 * 16        # decoder entry
    total += conv(3, 16, 32) + 2 * 32        # down
    total += conv(2, 32, 16) + 2 * 16        # deconv up
    total += conv(3, 32, 16) + 2 * 16        # fuse after concat
    total += conv(1, 16, 1) + 1              # head and its offset
    return total


class TestCountParameters:
    def test_toy_count_matches_hand_sum(self):
        m = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=0)
        assert M.count_parameters(m) == expected_toy_count()

    def test_single_conv_counts_weight_only(self):
        from ev2vox import nn
        conv = nn.Conv3d(1, 1, 1, name="solo", seed=0)
        assert sum(p.value.size for p in conv.parameters()) == 1

    def test_registry_names_unique(self):
        m = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=0)
        names = [p.name for p in m.parameters()] + [n for n, _ in m.buffers()]
        assert len(names) == len(set(names))


@pytest.mark.parametrize("configs,paired", [
    ((M.EncoderConfig.toy(), M.DecoderConfig.toy()), 13),
    ((M.EncoderConfig.paper(), M.DecoderConfig.paper()), 162),
])
def test_convs_followed_by_norm_own_one_parameter(configs, paired):
    # batch norm subtracts the batch mean, so a bias before it would be dead
    m = M.build_model(*configs, seed=0)
    convs = [
        conv
        for seq in m.modules() if isinstance(seq, nn.Sequential)
        for conv, norm in zip(seq.layers, seq.layers[1:])
        if isinstance(conv, nn.Conv3d) and isinstance(norm, nn.BatchNorm3d)
    ]
    assert len(convs) == paired
    assert all(conv.parameters() == [conv.weight] for conv in convs)


def toy_train_step(budget_mib):
    """Probabilities, input gradient and parameter gradients of one toy
    training step (batch 5) with ``nn.MAX_PATCH_BYTES`` at ``budget_mib`` MiB;
    at 8 MiB, the default, each toy conv is one block per sample."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "MAX_PATCH_BYTES", budget_mib * 2**20)
        m = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=3).train()
        rng = np.random.default_rng(3)
        x = (rng.random((5, 1, 10, 32, 32)) < 0.1).astype(np.float32)
        target = (rng.random((5, 8, 8, 8)) < 0.4).astype(np.float32)
        probs = m.forward(x)
        gx = m.backward(M.bce_loss(probs, target)[1])
        return probs, gx, {p.name: p.grad for p in m.parameters()}


class TestDeterminism:
    def test_same_seed_same_weights(self):
        a = M.build_model(*micro_configs(), seed=42)
        b = M.build_model(*micro_configs(), seed=42)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            np.testing.assert_array_equal(pa.value, pb.value)

    def test_different_seed_differs(self):
        a = M.build_model(*micro_configs(), seed=0)
        b = M.build_model(*micro_configs(), seed=1)
        assert any(
            not np.array_equal(pa.value, pb.value)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_forward_is_pure(self):
        m = M.build_model(*micro_configs(), seed=9).eval()
        x = np.random.default_rng(4).random((1, 1, 6, 16, 16)).astype(np.float32)
        first = m.forward(x, remember=False)
        second = m.forward(x, remember=False)
        np.testing.assert_array_equal(first, second)

    def test_eval_output_does_not_depend_on_the_batch(self):
        # running statistics away from (0, 1), as after training
        m = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=0)
        rng = np.random.default_rng(5)
        for name, buf in m.buffers():
            buf[...] = rng.uniform(0.5, 1.5, buf.shape) * (1.0 if "var" in name else 0.1)
        m.eval()
        x = (rng.random((5, 1, 10, 32, 32)) < 0.1).astype(np.float32)
        whole = m.forward(x, remember=False)
        assert 0.0 < whole.min() and whole.max() < 1.0
        for lo, hi in [(0, 3), (2, 5)] + [(i, i + 1) for i in range(5)]:
            assert m.forward(x[lo:hi], remember=False).tobytes() == whole[lo:hi].tobytes()

    @pytest.mark.parametrize("budget_mib", [1, 2, 32])
    def test_step_outputs_do_not_depend_on_the_budget(self, budget_mib):
        probs, gx, _ = toy_train_step(budget_mib)
        want_probs, want_gx, _ = toy_train_step(8)
        assert probs.tobytes() == want_probs.tobytes()
        assert gx.tobytes() == want_gx.tobytes()

    @pytest.mark.parametrize("budget_mib", [
        pytest.param(mib, marks=pytest.mark.xfail(strict=True, reason=(
            "conv3d_core_weight_grad adds one product per output block into the weight "
            "gradient, so a budget that cuts a layer into more blocks sums in another "
            "order: at 1 MiB encoder.stage0.block0.conv2.weight and "
            "decoder.up1.fuse.conv.weight differ from 8 MiB in the last bits, at 2 MiB "
            "the first of them"))) for mib in (1, 2)
    ] + [32])
    def test_step_weight_gradients_do_not_depend_on_the_budget(self, budget_mib):
        grads = toy_train_step(budget_mib)[2]
        want = toy_train_step(8)[2]
        assert [k for k in want if grads[k].tobytes() != want[k].tobytes()] == []

    def test_config_dict_rebuild_matches(self):
        enc, dec = micro_configs()
        m = M.build_model(enc, dec, seed=13)
        d = asdict(M.ModelConfig(enc, dec, seed=13))
        m2 = M.E2VModel(from_json(M.ModelConfig, d, "config"))
        for pa, pb in zip(m.parameters(), m2.parameters()):
            np.testing.assert_array_equal(pa.value, pb.value)


# Every distinct conv and deconv shape of the paper model, as (kind, in
# channels, out channels, kernel, stride, padding), under the name of the
# first layer that has it
PAPER_LAYER_SHAPES = {
    "encoder.stem.conv": ("conv3d", 1, 64, 7, 2, 3),
    "encoder.stage0.block0.conv1": ("conv3d", 64, 64, 1, 1, 0),
    "encoder.stage0.block0.conv2": ("conv3d", 64, 64, 3, 1, 1),
    "encoder.stage0.block0.conv3": ("conv3d", 64, 256, 1, 1, 0),
    "encoder.stage0.block1.conv1": ("conv3d", 256, 64, 1, 1, 0),
    "encoder.stage1.block0.conv1": ("conv3d", 256, 128, 1, 1, 0),
    "encoder.stage1.block0.conv2": ("conv3d", 128, 128, 3, 2, 1),
    "encoder.stage1.block0.conv3": ("conv3d", 128, 512, 1, 1, 0),
    "encoder.stage1.block0.proj.conv": ("conv3d", 256, 512, 1, 2, 0),
    "encoder.stage1.block1.conv1": ("conv3d", 512, 128, 1, 1, 0),
    "encoder.stage1.block1.conv2": ("conv3d", 128, 128, 3, 1, 1),
    "encoder.stage2.block0.conv1": ("conv3d", 512, 256, 1, 1, 0),
    "encoder.stage2.block0.conv2": ("conv3d", 256, 256, 3, 2, 1),
    "encoder.stage2.block0.conv3": ("conv3d", 256, 1024, 1, 1, 0),
    "encoder.stage2.block0.proj.conv": ("conv3d", 512, 1024, 1, 2, 0),
    "encoder.stage2.block1.conv1": ("conv3d", 1024, 256, 1, 1, 0),
    "encoder.stage2.block1.conv2": ("conv3d", 256, 256, 3, 1, 1),
    "encoder.stage3.block0.conv1": ("conv3d", 1024, 512, 1, 1, 0),
    "encoder.stage3.block0.conv2": ("conv3d", 512, 512, 3, 2, 1),
    "encoder.stage3.block0.conv3": ("conv3d", 512, 2048, 1, 1, 0),
    "encoder.stage3.block0.proj.conv": ("conv3d", 1024, 2048, 1, 2, 0),
    "encoder.stage3.block1.conv1": ("conv3d", 2048, 512, 1, 1, 0),
    "encoder.stage3.block1.conv2": ("conv3d", 512, 512, 3, 1, 1),
    "decoder.entry.conv": ("conv3d", 2048, 64, 1, 1, 0),
    "decoder.down1.conv": ("conv3d", 64, 128, 3, 2, 1),
    "decoder.down2.conv": ("conv3d", 128, 256, 3, 2, 1),
    "decoder.up2.deconv": ("deconv3d", 256, 128, 2, 2, 0),
    "decoder.up2.fuse.conv": ("conv3d", 256, 128, 3, 1, 1),
    "decoder.up1.deconv": ("deconv3d", 128, 64, 2, 2, 0),
    "decoder.up1.fuse.conv": ("conv3d", 128, 64, 3, 1, 1),
    "decoder.head.conv": ("conv3d", 64, 1, 1, 1, 0),
}
# a 1x1x1 unit-stride conv is one block at any budget, in both directions
POINTWISE_LAYERS = [name for name, (_, _, _, k, s, _) in PAPER_LAYER_SHAPES.items()
                    if k == s == 1]
BLOCKED_LAYERS = [name for name in PAPER_LAYER_SHAPES if name not in POINTWISE_LAYERS]


def paper_layer_pass(name, routine, budget=None):
    """A paper-shaped layer's forward output, or its input gradient, for a
    batch of 2 at a small spatial size whose outputs have 2 planes of 3
    rows wherever the conv core cuts blocks, with ``nn.MAX_PATCH_BYTES`` at
    ``budget`` (the default if None); also each ``nn._blocks`` call's
    arguments and blocks."""
    kind, cin, cout, kernel, stride, padding = PAPER_LAYER_SHAPES[name]
    layer_cls = nn.Deconv3d if kind == "deconv3d" else nn.Conv3d
    layer = layer_cls(cin, cout, kernel, stride=stride, padding=padding, name=name, seed=0)
    dims = (4, 6, 5) if kind == "conv3d" and stride == 2 else (2, 3, 3)
    rng = np.random.default_rng(len(name))
    x = rng.normal(size=(2, cin, *dims)).astype(np.float32)
    g = rng.normal(size=(2, cout, *layer.spec.out_dims(dims))).astype(np.float32)
    calls = []
    blocks = nn._blocks

    def recording(*args):
        calls.append((args, list(blocks(*args))))
        return iter(calls[-1][1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_blocks", recording)
        if budget is not None:
            mp.setattr(nn, "MAX_PATCH_BYTES", budget)
        y = layer.forward(x, remember=routine == "input grad")
        out = y if routine == "forward" else layer.backward(g)
    return out, calls


SMALL_GEMM = (
    "a block's product of at most 100^3 multiply-adds runs OpenBLAS's small-matrix "
    "kernel, whose sums change with the product's column count")
STRIDE2_SCATTER = (
    "at stride 2 the taps overlap, and an input cell on a block edge adds its taps' "
    "products in block order instead of tap order")
BOTH_CUTS = ("depth planes", "h-row slabs")
# (layer, routine): the cuts that move its bytes, and why; all others match
CUT_DEPENDENT = {
    ("encoder.stem.conv", "forward"): (BOTH_CUTS, SMALL_GEMM),
    ("encoder.stem.conv", "input grad"): (BOTH_CUTS, f"{SMALL_GEMM}; {STRIDE2_SCATTER}"),
    ("encoder.stage0.block0.conv2", "forward"): (BOTH_CUTS, SMALL_GEMM),
    ("encoder.stage0.block0.conv2", "input grad"): (BOTH_CUTS, SMALL_GEMM),
    ("encoder.stage1.block0.conv2", "input grad"): (BOTH_CUTS, STRIDE2_SCATTER),
    ("encoder.stage1.block0.proj.conv", "forward"): (("h-row slabs",), SMALL_GEMM),
    ("encoder.stage1.block0.proj.conv", "input grad"): (("h-row slabs",), SMALL_GEMM),
    ("encoder.stage2.block0.conv2", "input grad"): (BOTH_CUTS, STRIDE2_SCATTER),
    ("encoder.stage3.block0.conv2", "input grad"): (BOTH_CUTS, STRIDE2_SCATTER),
    ("decoder.down1.conv", "forward"): (("h-row slabs",), SMALL_GEMM),
    ("decoder.down1.conv", "input grad"): (BOTH_CUTS, STRIDE2_SCATTER),
    ("decoder.down2.conv", "input grad"): (BOTH_CUTS, STRIDE2_SCATTER),
    ("decoder.up2.deconv", "input grad"): (("h-row slabs",), SMALL_GEMM),
    ("decoder.up1.deconv", "input grad"): (BOTH_CUTS, SMALL_GEMM),
    ("decoder.up1.fuse.conv", "forward"): (("h-row slabs",), SMALL_GEMM),
    ("decoder.up1.fuse.conv", "input grad"): (("h-row slabs",), SMALL_GEMM),
}


def blocked_layer_cases():
    for name in BLOCKED_LAYERS:
        for routine in ("forward", "input grad"):
            cuts, why = CUT_DEPENDENT.get((name, routine), ((), ""))
            for cut in BOTH_CUTS:
                marks = ()
                if cut in cuts:
                    shape = dict(zip(("kind", "cin", "cout", "kernel", "stride", "padding"),
                                     PAPER_LAYER_SHAPES[name]))
                    marks = pytest.mark.xfail(strict=True, reason=f"{name} {shape}: {why}")
                yield pytest.param(name, routine, cut, marks=marks,
                                   id=f"{name}-{routine}-{cut}")


class TestPaperLayerBudgets:
    """Each paper layer shape's forward output and input gradient, bitwise,
    under budgets that cut its conv core into one block, depth planes or
    h-row slabs. The weight gradient is left out: it adds one product per
    block (the toy step's strict xfail in TestDeterminism)."""

    def test_table_holds_every_paper_layer_shape(self, monkeypatch):
        def zero_uniform(key, count, low, high, dtype):
            # untouched zero pages: the paper model's shapes for no memory
            return np.zeros(count, dtype)

        monkeypatch.setattr(nn.rng, "uniform", zero_uniform)
        m = M.build_model(M.EncoderConfig.paper(), M.DecoderConfig.paper())
        shapes = {(l.kind, l.spec.in_channels, l.spec.out_channels, *l.spec.kernel[:1],
                   *l.spec.stride[:1], *l.spec.padding[:1])
                  for l in m.modules() if isinstance(l, nn.Conv3d)}
        assert all(len(set(t)) == 1 for l in m.modules() if isinstance(l, nn.Conv3d)
                   for t in (l.spec.kernel, l.spec.stride, l.spec.padding))
        assert shapes == set(PAPER_LAYER_SHAPES.values())
        assert len(PAPER_LAYER_SHAPES) == len(shapes)

    @pytest.mark.parametrize("routine", ["forward", "input grad"])
    @pytest.mark.parametrize("name", POINTWISE_LAYERS)
    def test_pointwise_layer_takes_no_cut(self, name, routine):
        out, calls = paper_layer_pass(name, routine, budget=64)
        assert calls == []
        assert out.tobytes() == paper_layer_pass(name, routine)[0].tobytes()

    @pytest.mark.parametrize("name,routine,cut", blocked_layer_cases())
    def test_blocked_layer_bytes_do_not_depend_on_the_cut(self, name, routine, cut):
        # after the forward's, a backward cuts the weight gradient's blocks,
        # then the input gradient's
        want, calls = paper_layer_pass(name, routine)
        (rows, (do, ho, wo), itemsize), blocks = calls[-1]
        assert len(calls) == (1 if routine == "forward" else 3) and len(blocks) == 1
        cols = {"depth planes": (do - 1) * ho * wo, "h-row slabs": (ho - 1) * wo}[cut]
        got, calls = paper_layer_pass(name, routine, budget=rows * itemsize * cols)
        blocks = calls[-1][1]
        if cut == "depth planes":
            assert len(blocks) == do and all(b[2:] == (0, ho) for b in blocks)
        else:
            assert [b[3] - b[2] for b in blocks] == [ho - 1, 1] * do
        assert got.tobytes() == want.tobytes()


class TestState:
    def test_round_trip_bitwise(self, tmp_path):
        m = M.build_model(*micro_configs(), seed=3)
        # bend the running stats away from their init so buffers are exercised
        x = np.random.default_rng(0).random((2, 1, 6, 16, 16)).astype(np.float32)
        m.train().forward(x, remember=False)
        save_checkpoint(tmp_path / "m.ckpt", m.state_entries())
        other = M.build_model(*micro_configs(), seed=77)
        arrays = [value for _, value in other.state_entries()]
        load_checkpoint(tmp_path / "m.ckpt", other.state_entries())
        # the load reads into the model's own arrays: each p.value and
        # running statistic is the same object after it
        for (ka, va), (kb, vb), array in zip(m.state_entries(), other.state_entries(), arrays):
            assert ka == kb and vb is array
            np.testing.assert_array_equal(va, vb)

    def test_missing_key_raises(self, tmp_path):
        m = M.build_model(*micro_configs(), seed=3)
        first, second = (p.name for p in m.parameters()[:2])
        path = saved_training_checkpoint(tmp_path, m, lambda e: e.pop(0))
        with pytest.raises(DataError, match=f"checkpoint entry 0 is '{second}', expected '{first}'"):
            T.load_training_checkpoint(path)

    def test_extra_key_raises(self, tmp_path):
        m = M.build_model(*micro_configs(), seed=3)
        path = saved_training_checkpoint(
            tmp_path, m, lambda e: e.append(("bogus.weight", np.zeros(3, np.float32))))
        with pytest.raises(DataError, match="is 'bogus.weight', expected none"):
            T.load_training_checkpoint(path)

    def test_wrong_shape_raises(self, tmp_path):
        m = M.build_model(*micro_configs(), seed=3)
        name = m.parameters()[0].name
        path = saved_training_checkpoint(
            tmp_path, m, replaced(name, np.zeros((1, 1, 1, 1, 1), np.float32)))
        with pytest.raises(DataError, match=rf"{name}: checkpoint shape \(1, 1, 1, 1, 1\)"):
            T.load_training_checkpoint(path)

    def test_reshaped_buffer_raises(self, tmp_path):
        # a running statistic of the right size but another shape is not reshaped
        m = M.build_model(*micro_configs(), seed=3)
        name, value = m.buffers()[0]
        path = saved_training_checkpoint(tmp_path, m, replaced(name, value.reshape(1, -1)))
        with pytest.raises(DataError, match=rf"{name}: checkpoint shape \(1, {value.size}\)"):
            T.load_training_checkpoint(path)

    def test_checkpoint_bytes_pinned(self, tmp_path):
        # attribute order is checkpoint order; this digest pins both
        m = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=0)
        entries = m.state_entries()
        assert len(entries) == 67
        path = tmp_path / "toy.ckpt"
        save_checkpoint(path, entries)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "ced5bc37aecc1e34d735086ad930158e19773be2b97b5655c7901496e6e6309d"

    def test_train_eval_reach_every_batchnorm(self):
        from ev2vox import nn
        m = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=0)
        stem, *blocks = m.encoder.layers
        dec = m.decoder
        norms = (
            [stem.layers[1]]
            + [n for b in blocks for n in (*b.main.layers[1::3], b.shortcut.layers[1])]
            + [dec.entry.layers[1], dec.downs[0].layers[1], dec.ups[0].up.layers[1],
               dec.ups[0].fuse.layers[1]]
        )
        walked = [mod for mod in m.modules() if isinstance(mod, nn.BatchNorm3d)]
        assert walked == norms
        assert m.eval() is m
        assert not m.training and not any(n.training for n in norms)
        m.train()
        assert m.training and all(n.training for n in norms)

    def test_frames_to_input_stacks(self):
        arrs = [np.ones((3, 4, 4), dtype=np.uint8), np.zeros((3, 4, 4), dtype=np.uint8)]
        batch = M.frames_to_input(arrs)
        assert batch.shape == (2, 1, 3, 4, 4) and batch.dtype == np.float32

    def test_frames_to_input_rejects_ragged(self):
        with pytest.raises(InternalError, match="frame stacks disagree in shape"):
            M.frames_to_input([np.ones((3, 4, 4)), np.ones((2, 4, 4))])


def full_model_loss_check(seed, tol=1e-6, n_coords=6):
    """Finite-difference check of d(loss)/d(input) and d(loss)/d(params)
    through the whole network, recast to float64: the loss gradient, the
    input gradient and every parameter gradient stay float64."""
    enc, dec = micro_configs()
    m = as_float64(M.build_model(enc, dec, seed=seed)).train()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 1, 6, 16, 16))
    target = (rng.random((1, 4, 4, 4)) > 0.5).astype(np.float64)

    probs = m.forward(x)
    loss, gloss = M.bce_loss(probs, target)
    assert np.isfinite(loss)
    for p in m.parameters():
        p.zero_grad()
    gx = m.backward(gloss)
    assert gloss.dtype == gx.dtype == np.float64
    assert {p.grad.dtype for p in m.parameters()} == {np.dtype(np.float64)}

    def f():
        return M.bce_loss(m.forward(x, remember=False), target)[0]

    # the input plus a spread of parameters along the depth of the net
    checks = [("input", x, gx)]
    by_name = {p.name: p for p in m.parameters()}
    for name in (
        "encoder.stem.conv.weight",
        "encoder.stage0.block0.conv2.weight",
        "encoder.stage1.block0.norm2.gain",
        "decoder.down1.conv.weight",
        "decoder.up1.deconv.weight",
        "decoder.head.conv.bias",
    ):
        p = by_name[name]
        checks.append((name, p.value, p.grad))

    for name, arr, ana in checks:
        k = min(n_coords, arr.size)
        coords = rng.choice(arr.size, size=k, replace=False)
        num = numeric_grad_coords(f, arr, coords)
        err = rel_err(ana.ravel()[coords], num)
        assert err < tol, f"{name}: rel err {err:.3g} at seed {seed}"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
class TestFullModelGradient:
    def test_loss_gradient_matches_fd(self, seed):
        full_model_loss_check(seed)
