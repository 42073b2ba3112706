"""Batch norm, max pool, ReLU and resize against their fresh-array forms.

The oracles below are the forwards these layers had before batch norm and
ReLU wrote into their input, max pooling became three 1-D passes and the
resize gathered innermost axis first. Those rewrites are exact, so every
output, running statistic, pooling argmax and backward result must match
the oracle bit for bit, NaN payload and zero sign included, alone and
inside the paper's stem, pool and bottleneck.
"""

import numpy as np
import pytest

from ev2vox import model as M
from ev2vox import nn
from ev2vox.nn import BN_EPS, BN_MOMENTUM

# NaN and -inf inputs make NaN statistics on purpose
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


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
        self._cache = (xhat, ivar, m) if remember else None
        if remember or np.result_type(xhat, gain) != xhat.dtype:
            y = gain * xhat
        else:
            y = xhat
            y *= gain
        y += self.shift.value[None, :, None, None, None]
        return y


class OracleReLU(nn.ReLU):
    """A fresh output array."""

    def forward(self, x, remember=True):
        self._mask = (x > 0) if remember else None
        return np.maximum(x, 0)


class OracleMaxPool3d(nn.MaxPool3d):
    """One strict-greater scan over all taps of a -inf padded copy."""

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
        self._cache = (arg, x.shape) if remember else None
        return y


class OracleAdaptiveResize3d(nn.AdaptiveResize3d):
    """One gather per resized axis, outermost first."""

    def forward(self, x, remember=True):
        y = x
        for axis, idx in enumerate(self._index_maps(x.shape[2:]), start=2):
            if len(idx) != x.shape[axis]:
                y = np.take(y, idx, axis=axis)
        self._cache = x.shape if remember else None
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
    layers = (OracleBatchNorm3d(channels, dtype=dtype), nn.BatchNorm3d(channels, dtype=dtype))
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
    # input dtype, layer dtype: the last pair has parameters wider than x
    @pytest.mark.parametrize("dtype,layer_dtype", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64),
    ])
    def test_matches_fresh_array_forward(self, n, training, remember, dtype, layer_dtype):
        rng = np.random.default_rng(31)
        shape = (n, 7, 3, 4, 5)
        x = rng.normal(loc=1.0, scale=2.0, size=shape).astype(dtype)
        x[:, 1] = np.round(x[:, 1])  # ties
        x[:, 2] = special_input(rng, x[:, 2].shape, dtype, nan=False)
        x[:, 3] = -0.0
        x[:, 4, 0, 0, 0] = np.nan
        x[:, 5, 1, 1, 1] = -np.inf
        oracle, layer = bn_pair(7, layer_dtype, training, rng)
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
    def test_matches_tap_scan(self, kernel, stride, padding, n, fill):
        rng = np.random.default_rng(41)
        shape = (n, 3, 6, 7, 9)
        if fill == "normal":
            x = rng.normal(size=shape).astype(np.float32)
        else:
            x = special_input(rng, shape)
            x[0, 0, :3, :3, :3] = np.nan  # NaN-only windows
            x[-1, 1, 2:5] = -0.0  # signed-zero ties
            x[-1, 1, 2:5, ::2, ::3] = 0.0
        oracle = OracleMaxPool3d(kernel, stride, padding)
        layer = nn.MaxPool3d(kernel, stride, padding)
        for remember in (False, True):
            assert_same_bits(layer.forward(x, remember), oracle.forward(x, remember))
        assert_same_bits(layer._cache[0], oracle._cache[0])
        g = rng.normal(size=layer.spec.out_dims(shape[2:])).astype(np.float32)
        g = np.broadcast_to(g, (n, 3, *g.shape)).copy()
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
            assert bn._cache[0] is x


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
            hidden_spatial=(4, 4, 5),
        )
        enc = M.build_encoder(cfg, seed=0, dtype=np.float32)
        oracle = M.build_encoder(cfg, seed=0, dtype=np.float32)
        swapped = 0
        for m in oracle.modules():
            if type(m) in ORACLES:
                m.__class__ = ORACLES[type(m)]
                swapped += 1
        assert swapped == 11  # 5 norms, 4 ReLUs, the pool and the resize
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 1, 10, 18, 14)).astype(np.float32)
        g = rng.normal(size=(2, cfg.out_channels, *cfg.hidden_spatial)).astype(np.float32)
        got, want = self._run(enc, x, g), self._run(oracle, x, g)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_bits(a, b)
