"""Batch norm, max pool, ReLU and resize against their fresh-array forms.

The oracles below are the forwards these layers had before batch norm and
ReLU wrote into their input, max pooling became three 1-D passes and the
resize gathered innermost axis first, and the max pool's ``np.add.at``
backward from before it walked the forward's taps. Those rewrites are
exact, so every output, running statistic, pooling argmax and backward
result must match the oracle bit for bit, NaN payload and zero sign
included, alone and inside the paper's stem, pool and bottleneck.
"""

import math

import numpy as np
import pytest

from ev2vox import model as M
from ev2vox import nn
from ev2vox.nn import BN_EPS, BN_MOMENTUM
from gradcheck import as_float64

# NaN and -inf inputs make NaN statistics, and pool gradients overflow, on purpose
pytestmark = [
    pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
]


class OracleBatchNorm3d(nn.BatchNorm3d):
    """Whole-tensor statistics, then fresh xhat and output arrays."""

    def forward(self, x, remember=True):
        axes = (0, 2, 3, 4)
        m = x.shape[0] * x.shape[2] * x.shape[3] * x.shape[4]
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, mean=mean)
            mean = mean.reshape(-1)
            self.running_mean = (
                (1.0 - BN_MOMENTUM) * self.running_mean
                + BN_MOMENTUM * mean.astype(np.float64)
            ).astype(np.float32)
            self.running_var = (
                (1.0 - BN_MOMENTUM) * self.running_var
                + BN_MOMENTUM * var.astype(np.float64)
            ).astype(np.float32)
        else:
            mean = self.running_mean.astype(x.dtype)
            var = self.running_var.astype(x.dtype)
        ivar = 1.0 / np.sqrt(var + BN_EPS)
        xhat = x - mean[None, :, None, None, None]
        xhat *= ivar[None, :, None, None, None]
        gain = self.gain.value[None, :, None, None, None]
        self.save_for_backward((xhat, ivar, m), remember)
        if remember:
            y = gain * xhat
        else:
            y = xhat
            y *= gain
        y += self.shift.value[None, :, None, None, None]
        return y


class OracleReLU(nn.ReLU):
    """A fresh output array."""

    def forward(self, x, remember=True):
        self.save_for_backward((x > 0) if remember else None, remember)
        return np.maximum(x, 0)


class OracleMaxPool3d(nn.MaxPool3d):
    """One strict-greater scan over all taps of a -inf padded copy; the
    backward scatters every output's gradient onto its winning tap with
    ``np.add.at`` into a padded accumulator, then crops it."""

    def forward(self, x, remember=True):
        kd, kh, kw = self.spec.kernel
        sd, sh, sw = self.spec.stride
        pd, ph, pw = self.spec.padding
        do, ho, wo = self.spec.out_dims(x.shape[2:])
        xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)), constant_values=-np.inf)
        y = np.full((x.shape[0], x.shape[1], do, ho, wo), -np.inf, dtype=x.dtype)
        better = np.empty(y.shape, dtype=bool)
        arg = np.zeros(y.shape, dtype=np.int16) if remember else None
        offset = 0
        for a in range(kd):
            dsl = slice(a, a + (do - 1) * sd + 1, sd)
            for b in range(kh):
                hsl = slice(b, b + (ho - 1) * sh + 1, sh)
                for c in range(kw):
                    wsl = slice(c, c + (wo - 1) * sw + 1, sw)
                    plane = xp[:, :, dsl, hsl, wsl]
                    np.greater(plane, y, out=better)
                    np.copyto(y, plane, where=better)
                    if remember:
                        np.copyto(arg, offset, where=better)
                    offset += 1
        self.save_for_backward((arg, x.shape), remember)
        return y

    def backward(self, grad_out):
        arg, in_shape = self.take_saved()
        kd, kh, kw = self.spec.kernel
        sd, sh, sw = self.spec.stride
        pd, ph, pw = self.spec.padding
        n, c, do, ho, wo = grad_out.shape
        a = arg // (kh * kw)
        b = (arg // kw) % kh
        cc = arg % kw
        gxp = np.zeros(
            (n, c, in_shape[2] + 2 * pd, in_shape[3] + 2 * ph, in_shape[4] + 2 * pw),
            dtype=grad_out.dtype,
        )
        ni = np.arange(n)[:, None, None, None, None]
        ci = np.arange(c)[None, :, None, None, None]
        di = np.arange(do)[None, None, :, None, None] * sd + a
        hi = np.arange(ho)[None, None, None, :, None] * sh + b
        wi = np.arange(wo)[None, None, None, None, :] * sw + cc
        np.add.at(gxp, (ni, ci, di, hi, wi), grad_out)
        if pd or ph or pw:
            return np.ascontiguousarray(
                gxp[:, :, pd : pd + in_shape[2], ph : ph + in_shape[3], pw : pw + in_shape[4]]
            )
        return gxp


def copyto_max_pass(x, arg, axis, kernel, stride, padding, size, scale, remember):
    """``nn._max_pass`` as it chose values before: ``np.copyto(where=)``."""
    shape = x.shape[:axis] + (size,) + x.shape[axis + 1 :]
    y = np.full(shape, -np.inf, dtype=x.dtype)
    better = np.empty(shape, dtype=bool)
    out_arg = np.zeros(shape, dtype=np.int16) if remember else None
    offset = np.empty(shape, dtype=np.int16) if remember else None
    for t in range(kernel):
        lo = max(0, -((t - padding) // stride))
        hi = min(size, (x.shape[axis] - 1 - t + padding) // stride + 1)
        if lo >= hi:
            continue
        src = lo * stride + t - padding
        into = (slice(None),) * axis + (slice(lo, hi),)
        taps = (slice(None),) * axis + (slice(src, src + (hi - lo - 1) * stride + 1, stride),)
        plane, yo, bo = x[taps], y[into], better[into]
        np.greater(plane, yo, out=bo)
        np.copyto(yo, plane, where=bo)
        if remember and (t or arg is not None):
            oo = offset[into]
            if arg is None:
                np.multiply(bo, np.int16(t * scale), out=oo)
            else:
                np.add(arg[taps], np.int16(t * scale), out=oo)
                oo *= bo
            np.maximum(out_arg[into], oo, out=out_arg[into])
    return y, out_arg


class OracleAdaptiveResize3d(nn.AdaptiveResize3d):
    """One gather per resized axis, outermost first."""

    def forward(self, x, remember=True):
        y = x
        for axis, idx in enumerate(self._index_maps(x.shape[2:]), start=2):
            if len(idx) != x.shape[axis]:
                y = np.take(y, idx, axis=axis)
        self.save_for_backward(x.shape, remember)
        return x.copy() if y is x else y


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    if np.issubdtype(got.dtype, np.floating):
        assert np.array_equal(np.signbit(got), np.signbit(want))


def special_input(rng, shape, dtype=np.float32, nan=True):
    """Normal values with repeats (ties), signed zeros, -inf and (optionally) NaN."""
    x = np.round(rng.normal(loc=0.5, scale=2.0, size=shape) * 2) / 2
    flat = x.reshape(-1)
    picks = rng.permutation(flat.size)
    k = max(1, flat.size // 10)
    flat[picks[:k]] = 0.0
    flat[picks[k : 2 * k]] = -0.0
    flat[picks[2 * k : 2 * k + 2]] = -np.inf
    if nan:
        flat[picks[2 * k + 2 : 2 * k + 4]] = np.nan
    return x.astype(dtype)


def bn_pair(channels, dtype, training, rng):
    layers = (OracleBatchNorm3d(channels), nn.BatchNorm3d(channels))
    if dtype == np.float64:
        layers = tuple(map(as_float64, layers))
    gain, shift = rng.normal(size=channels), rng.normal(size=channels)
    if channels > 1:
        gain[-1] = -0.0
    for layer in layers:
        layer.gain.value[...] = gain
        layer.shift.value[...] = shift
        layer.running_mean[...] = shift
        layer.running_var[...] = np.abs(gain) + 0.25
        layer.training = training
    return layers


class TestBatchNormOracle:
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("remember", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_fresh_array_forward(self, n, training, remember, dtype):
        rng = np.random.default_rng(31)
        shape = (n, 7, 3, 4, 5)
        x = rng.normal(loc=1.0, scale=2.0, size=shape).astype(dtype)
        x[:, 1] = np.round(x[:, 1])  # ties
        x[:, 2] = special_input(rng, x[:, 2].shape, dtype, nan=False)
        x[:, 3] = -0.0
        x[:, 4, 0, 0, 0] = np.nan
        x[:, 5, 1, 1, 1] = -np.inf
        oracle, layer = bn_pair(7, dtype, training, rng)
        want = oracle.forward(x.copy(), remember)
        got = layer.forward(x.copy(), remember)
        assert_same_bits(got, want)
        assert_same_bits(layer.running_mean, oracle.running_mean)
        assert_same_bits(layer.running_var, oracle.running_var)
        if remember:
            g = rng.normal(size=shape).astype(dtype)
            g[:, 0] = -0.0
            assert_same_bits(layer.backward(g.copy()), oracle.backward(g.copy()))
            assert_same_bits(layer.gain.grad, oracle.gain.grad)
            assert_same_bits(layer.shift.grad, oracle.shift.grad)

    @pytest.mark.parametrize("shape", [(1, 3, 25, 16, 64), (5, 6, 4, 40, 40), (5, 1, 4, 40, 40)])
    def test_large_runs_match_whole_tensor_statistics(self, shape):
        # (D, H, W) runs past numpy's 8192-element buffer, and one channel,
        # whose samples numpy sums as one run
        rng = np.random.default_rng(32)
        x = rng.normal(loc=3.0, size=shape).astype(np.float32)
        oracle, layer = bn_pair(shape[1], np.float32, True, rng)
        assert_same_bits(layer.forward(x.copy()), oracle.forward(x.copy()))
        assert_same_bits(layer.running_mean, oracle.running_mean)
        assert_same_bits(layer.running_var, oracle.running_var)
        g = rng.normal(size=shape).astype(np.float32)
        assert_same_bits(layer.backward(g), oracle.backward(g))


class TestBatchNormSlabs(TestBatchNormOracle):
    """The checks above with a budget under every tensor they use.

    The (n, 7, 3, 4, 5) tensors split into slabs of 4 and 3 float32 or
    2, 2, 2 and 1 float64 channels per sample; the larger shapes into one
    channel per slab.
    """

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES", 1000)

    def test_one_channel_stays_one_block(self):
        # summed one sample at a time, this input's variance changes in
        # the last bit, and so do its output and running variance
        rng = np.random.default_rng(17)
        x = rng.normal(loc=3.0, size=(3, 1, 60, 64, 64)).astype(np.float32)
        oracle, layer = bn_pair(1, np.float32, True, rng)
        assert_same_bits(layer.forward(x.copy()), oracle.forward(x.copy()))
        assert_same_bits(layer.running_var, oracle.running_var)


POOL_SPECS = [
    # kernel, stride, padding: the paper's, even kernels, padding k//2,
    # uneven per-axis mixes, and windows lying wholly in the padding
    (3, 2, 1), (2, 2, 0), (3, 1, 1), (5, 2, 2), (3, 3, 1),
    ((3, 2, 1), (1, 2, 2), (1, 0, 0)),
    ((2, 3, 3), (2, 1, 3), (0, 1, 1)),
    ((1, 3, 5), (1, 3, 2), (0, 1, 2)),
    ((2, 2, 2), 1, (2, 0, 1)),
]


class TestMaxPoolOracle:
    @pytest.mark.parametrize("kernel,stride,padding", POOL_SPECS)
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("fill", ["normal", "special"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_tap_scan(self, kernel, stride, padding, n, fill, dtype):
        rng = np.random.default_rng(41)
        shape = (n, 3, 6, 7, 9)
        if fill == "normal":
            x = rng.normal(size=shape).astype(dtype)
        else:
            x = special_input(rng, shape, dtype)
            x[0, 0, :3, :3, :3] = np.nan  # NaN-only windows
            x[-1, 1, 2:5] = -0.0  # signed-zero ties
            x[-1, 1, 2:5, ::2, ::3] = 0.0
        oracle = OracleMaxPool3d(kernel, stride, padding)
        layer = nn.MaxPool3d(kernel, stride, padding)
        for remember in (False, True):
            assert_same_bits(layer.forward(x, remember), oracle.forward(x, remember))
        assert_same_bits(layer.saved[0], oracle.saved[0])
        g = rng.normal(size=layer.spec.out_dims(shape[2:])).astype(dtype)
        g = np.broadcast_to(g, (n, 3, *g.shape)).copy()
        # NaN, -0.0 and entries any two of which overflow to +inf where they
        # meet; overflow goes one way only, since where +inf meets -inf
        # np.add.at and a vector add give NaNs of opposite sign
        flat = g.reshape(-1)
        picks = rng.permutation(flat.size)
        k = max(1, flat.size // 8)
        flat[picks[:2]] = np.nan
        flat[picks[2 : 2 + k]] = -0.0
        flat[picks[2 + k : 2 + 2 * k]] = 0.75 * np.finfo(dtype).max
        assert_same_bits(layer.backward(g), oracle.backward(g))

    def test_all_zero_ties_keep_the_first_sign(self):
        # a window of -0 and +0 takes the sign of its first tap in (d, h, w) order
        x = np.zeros((1, 1, 2, 2, 2), np.float32)
        x[0, 0, 0, 1, 0] = -0.0
        x[0, 0, 1, 0, 0] = -0.0
        for first in (-0.0, 0.0):
            x[0, 0, 0, 0, 0] = first
            y = nn.MaxPool3d(2).forward(x)
            assert np.signbit(y[0, 0, 0, 0, 0]) == np.signbit(first)


class TestMaxPassSelect:
    """Each 1-D pass's bitwise select against the masked copy it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("remember", [False, True])
    @pytest.mark.parametrize("kernel,stride,padding", POOL_SPECS)
    def test_select_matches_masked_copy(self, kernel, stride, padding, remember, dtype):
        rng = np.random.default_rng(43)
        x = special_input(rng, (2, 3, 6, 7, 9), dtype)
        x[0, 1, :, :, ::4] = np.inf
        x[1, 0, 1:4] = np.nan
        spec = nn.MaxPool3d(kernel, stride, padding).spec
        out_dims = spec.out_dims(x.shape[2:])
        got = want = (x, None)
        for i in (2, 1, 0):
            args = (i + 2, spec.kernel[i], spec.stride[i], spec.padding[i], out_dims[i],
                    math.prod(spec.kernel[i + 1 :]), remember)
            got, want = nn._max_pass(*got, *args), copyto_max_pass(*want, *args)
            assert got[0].tobytes() == want[0].tobytes()
            if remember:
                assert_same_bits(got[1], want[1])


class TestMaxPoolSlabs(TestMaxPoolOracle):
    """The checks above with a budget of two of the input's channel planes,
    so each sample is pooled in slabs of 2 and 1 channels."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES", 2 * 6 * 7 * 9 * 4)


class TestResizeOracle:
    # identity, upsample, downsample and mixed axes
    @pytest.mark.parametrize(
        "target", [(5, 6, 7), (9, 11, 14), (3, 2, 4), (5, 13, 3), (32, 3, 20)]
    )
    @pytest.mark.parametrize("n", [1, 5])
    def test_matches_outermost_first_gather(self, target, n):
        rng = np.random.default_rng(51)
        x = special_input(rng, (n, 3, 5, 6, 7))
        oracle, layer = OracleAdaptiveResize3d(target), nn.AdaptiveResize3d(target)
        got = layer.forward(x)
        assert got.flags.c_contiguous
        assert_same_bits(got, oracle.forward(x))


class TestInPlace:
    def test_relu_writes_its_input(self):
        x = special_input(np.random.default_rng(62), (1, 2, 3, 4, 5))
        want = np.maximum(x, 0)
        y = nn.ReLU().forward(x)
        assert y is x
        assert_same_bits(y, want)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("remember", [True, False])
    def test_norm_takes_its_input_buffer(self, training, remember):
        x = np.random.default_rng(63).normal(size=(2, 3, 4, 4, 4)).astype(np.float32)
        bn = nn.BatchNorm3d(3)
        bn.training = training
        y = bn.forward(x, remember)
        # remember: the input holds xhat and the output is fresh
        assert (y is not x) == remember
        if remember:
            assert bn.saved[0] is x


ORACLES = {nn.BatchNorm3d: OracleBatchNorm3d, nn.ReLU: OracleReLU,
           nn.MaxPool3d: OracleMaxPool3d, nn.AdaptiveResize3d: OracleAdaptiveResize3d}


class TestPaperStemOracle:
    @staticmethod
    def _run(enc, x, g):
        y = enc.forward(x.copy(), remember=True)
        gx = enc.backward(g)
        y_eval = enc.eval().forward(x.copy(), remember=False)
        return [y, gx, y_eval] + [p.grad for p in enc.parameters()] + [
            b for _, b in enc.buffers()
        ]

    def test_stem_pool_and_bottleneck_match_oracle_layers(self):
        # the paper's 7x7x7 stride-2 stem and its max pool (the toy model has
        # no pool) with few channels, then one bottleneck, whose residual sum
        # lands in its norm's output, and a resize that grows and shrinks
        cfg = M.EncoderConfig(
            stem=M.StemConfig(channels=8),
            stages=(M.StageConfig(1, 4, (1, 1, 1)),),
            resolution=4,
        )
        # the model's decoder opens with this resize; here it ends the chain
        enc, oracle = (
            nn.Sequential(M.build_encoder(cfg, seed=0),
                          nn.AdaptiveResize3d(cfg.resolution))
            for _ in range(2)
        )
        swapped = 0
        for m in oracle.modules():
            if type(m) in ORACLES:
                m.__class__ = ORACLES[type(m)]
                swapped += 1
        assert swapped == 11  # 5 norms, 4 ReLUs, the pool and the resize
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 1, 10, 18, 14)).astype(np.float32)
        g = rng.normal(size=(2, cfg.out_channels, 4, 4, 4)).astype(np.float32)
        got, want = self._run(enc, x, g), self._run(oracle, x, g)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_bits(a, b)


class TestPaperStemSlabs(TestPaperStemOracle):
    """The stem, pool and bottleneck in blocks: the stem's (5, 9, 7) output
    channels come in slabs of 3, 3 and 2 per sample."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES", 3 * 5 * 9 * 7 * 4)
