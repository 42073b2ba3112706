import decimal
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from ev2vox import checkpoint as ckp
from ev2vox import nn
from ev2vox.errors import DataError, FormatError, InternalError
from gradcheck import as_float64, check_layer

N_GRAD_SEEDS = 20
# kernel, stride, padding: the 1x1x1 fast path at both strides and a 3x3x3
POINTWISE_AND_K3 = [(1, 1, 0), (1, 2, 0), (3, 1, 1)]


def loop_conv3d(x, weight, stride, padding):
    """Seven nested loops, the slowest possible convolution."""
    n, cin, d, h, w = x.shape
    cout, _, kd, kh, kw = weight.shape
    sd, sh, sw = stride
    pd, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    do = (d + 2 * pd - kd) // sd + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    y = np.zeros((n, cout, do, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for dd in range(do):
                for hh in range(ho):
                    for ww in range(wo):
                        acc = 0.0
                        for ci in range(cin):
                            for a in range(kd):
                                for b in range(kh):
                                    for c in range(kw):
                                        acc += (
                                            xp[ni, ci, dd * sd + a, hh * sh + b, ww * sw + c]
                                            * weight[co, ci, a, b, c]
                                        )
                        y[ni, co, dd, hh, ww] = acc
    return y


# Row-major im2col lowering, the conv core before the channels-first one:
# patch rows (n, d, h, w), columns (c, kd, kh, kw), and a transpose back to
# NCDHW. Kept as the byte-level reference for nn's core routines.


def _ref_depth_chunks(rows_per_depth, cols, itemsize, out_depth):
    budget_rows = max(1, nn.MAX_PATCH_BYTES // max(1, cols * itemsize))
    step = max(1, budget_rows // max(1, rows_per_depth))
    for d0 in range(0, out_depth, step):
        yield d0, min(out_depth, d0 + step)


def _ref_patch_matrix(xp_slice, kernel, stride):
    sd, sh, sw = stride
    win = sliding_window_view(xp_slice, kernel, axis=(2, 3, 4))[:, :, ::sd, ::sh, ::sw]
    win = np.ascontiguousarray(win.transpose(0, 2, 3, 4, 1, 5, 6, 7))
    n, do, ho, wo = win.shape[:4]
    return win.reshape(n * do * ho * wo, -1)


def _ref_pad(x, padding):
    pd, ph, pw = padding
    return np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))


def _ref_channels_last(g, d0, d1):
    return np.ascontiguousarray(g[:, :, d0:d1].transpose(0, 2, 3, 4, 1)).reshape(-1, g.shape[1])


def ref_conv_forward(x, weight, stride, padding):
    n, cin, d, h, w = x.shape
    cout, _, kd, kh, kw = weight.shape
    do, ho, wo = nn.LayerSpec("conv3d", (kd, kh, kw), stride, padding).out_dims((d, h, w))
    xp = _ref_pad(x, padding)
    wmat = weight.reshape(cout, -1)
    sd = stride[0]
    y = np.empty((n, do, ho, wo, cout), dtype=np.result_type(x, weight))
    for d0, d1 in _ref_depth_chunks(n * ho * wo, wmat.shape[1], x.itemsize, do):
        p = _ref_patch_matrix(xp[:, :, d0 * sd : (d1 - 1) * sd + kd], (kd, kh, kw), stride)
        y[:, d0:d1] = (p @ wmat.T).reshape(n, d1 - d0, ho, wo, cout)
    return np.ascontiguousarray(y.transpose(0, 4, 1, 2, 3))


def ref_conv_input_grad(grad_out, weight, stride, padding, in_dims):
    n, cout, do, ho, wo = grad_out.shape
    _, cin, kd, kh, kw = weight.shape
    d, h, w = in_dims
    pd, ph, pw = padding
    sd, sh, sw = stride
    wmat = weight.reshape(cout, -1)
    gxp = np.zeros((n, cin, d + 2 * pd, h + 2 * ph, w + 2 * pw),
                   dtype=np.result_type(grad_out, weight))
    for d0, d1 in _ref_depth_chunks(n * ho * wo, wmat.shape[1], grad_out.itemsize, do):
        gp = (_ref_channels_last(grad_out, d0, d1) @ wmat).reshape(
            n, d1 - d0, ho, wo, cin, kd, kh, kw).transpose(0, 4, 1, 2, 3, 5, 6, 7)
        for a, b, c in itertools.product(range(kd), range(kh), range(kw)):
            gxp[:, :, d0 * sd + a : (d1 - 1) * sd + a + 1 : sd,
                b : b + (ho - 1) * sh + 1 : sh, c : c + (wo - 1) * sw + 1 : sw] += gp[..., a, b, c]
    return np.ascontiguousarray(gxp[:, :, pd : pd + d, ph : ph + h, pw : pw + w])


def ref_conv_weight_grad(x, grad_out, stride, padding, kernel):
    cin = x.shape[1]
    n, cout, do, ho, wo = grad_out.shape
    kd, kh, kw = kernel
    sd = stride[0]
    xp = _ref_pad(x, padding)
    gw = np.zeros((cout, cin * kd * kh * kw), dtype=np.result_type(x, grad_out))
    for d0, d1 in _ref_depth_chunks(n * ho * wo, gw.shape[1], x.itemsize, do):
        p = _ref_patch_matrix(xp[:, :, d0 * sd : (d1 - 1) * sd + kd], kernel, stride)
        gw += _ref_channels_last(grad_out, d0, d1).T @ p
    return gw.reshape(cout, cin, kd, kh, kw)


# The conv core as it ran on one np.pad copy of its whole input, cut into
# the blocks nn cuts at the same MAX_PATCH_BYTES and with the same products:
# the byte-level reference for building each block's slab of the padded
# input on its own.


def _pad_oracle_patches(x, kernel, stride, padding, out_dims, axes):
    xp = _ref_pad(x, padding)
    kd, kh, kw = kernel
    sd, sh, sw = stride
    if tuple(kernel) == (1, 1, 1) and tuple(stride) == (1, 1, 1):
        blocks = [(0, out_dims[0], 0, out_dims[1])]
    else:
        blocks = nn._blocks(x.shape[1] * kd * kh * kw, out_dims, x.itemsize)
    for d0, d1, h0, h1 in blocks:
        xs = xp[:, :, d0 * sd : (d1 - 1) * sd + kd, h0 * sh : (h1 - 1) * sh + kh]
        win = sliding_window_view(xs, kernel, axis=(2, 3, 4))[:, :, ::sd, ::sh, ::sw]
        yield (d0, d1, h0, h1), np.ascontiguousarray(
            win.transpose(0, 1, 5, 6, 7, 2, 3, 4).transpose(axes))


def pad_oracle_forward(x, weight, stride, padding):
    n, cout = x.shape[0], weight.shape[0]
    kernel = weight.shape[2:]
    out_dims = nn.LayerSpec("conv3d", kernel, stride, padding).out_dims(x.shape[2:])
    wmat = weight.reshape(cout, -1)
    y = np.empty((n, cout, *out_dims), dtype=np.result_type(x, weight))
    for (d0, d1, h0, h1), p in _pad_oracle_patches(x, kernel, stride, padding, out_dims,
                                                   range(8)):
        np.matmul(wmat, p.reshape(n, wmat.shape[1], -1),
                  out=y[:, :, d0:d1, h0:h1].reshape(n, cout, -1))
    return y


def pad_oracle_input_grad(grad_out, weight, stride, padding, in_dims):
    n, cout, do, ho, wo = grad_out.shape
    _, cin, kd, kh, kw = weight.shape
    if tuple(stride) == (1, 1, 1):
        adjoint = [k - 1 - p for k, p in zip((kd, kh, kw), padding)]
        crop = tuple(slice(max(0, -a), size - max(0, -a)) for a, size in zip(adjoint, (do, ho, wo)))
        flipped = weight[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        return pad_oracle_forward(
            grad_out[(...,) + crop], flipped, stride, tuple(max(0, a) for a in adjoint))
    d, h, w = in_dims
    pd, ph, pw = padding
    sd, sh, sw = stride
    wmat_t = weight.reshape(cout, -1).T
    gxp = np.zeros((n, cin, d + 2 * pd, h + 2 * ph, w + 2 * pw),
                   dtype=np.result_type(grad_out, weight))
    for d0, d1, h0, h1 in nn._blocks(wmat_t.shape[0], (do, ho, wo), grad_out.itemsize):
        g = grad_out[:, :, d0:d1, h0:h1].reshape(n, cout, -1)
        gp = (wmat_t @ g).reshape(n, cin, kd, kh, kw, d1 - d0, h1 - h0, wo)
        for a, b, c in itertools.product(range(kd), range(kh), range(kw)):
            gxp[:, :, d0 * sd + a : (d1 - 1) * sd + a + 1 : sd,
                h0 * sh + b : (h1 - 1) * sh + b + 1 : sh,
                c : c + (wo - 1) * sw + 1 : sw] += gp[:, :, a, b, c]
    return np.ascontiguousarray(gxp[:, :, pd : pd + d, ph : ph + h, pw : pw + w])


def pad_oracle_weight_grad(x, grad_out, stride, padding, kernel):
    n, cout = grad_out.shape[:2]
    k = x.shape[1] * math.prod(kernel)
    gw = np.zeros((cout, k), dtype=np.result_type(x, grad_out))
    patch_order = (1, 2, 3, 4, 0, 5, 6, 7)
    for (d0, d1, h0, h1), p in _pad_oracle_patches(x, kernel, stride, padding,
                                                   grad_out.shape[2:], patch_order):
        g = grad_out[:, :, d0:d1, h0:h1].transpose(1, 0, 2, 3, 4).reshape(cout, -1)
        gw += g @ p.reshape(k, -1).T
    return gw.reshape(cout, x.shape[1], *kernel)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestLayerSpec:
    def test_conv_dims(self):
        spec = nn.LayerSpec("conv3d", (3, 3, 3), (2, 2, 2), (1, 1, 1))
        assert spec.out_dims((10, 32, 32)) == (5, 16, 16)

    def test_deconv_dims(self):
        spec = nn.LayerSpec("deconv3d", (2, 2, 2), (2, 2, 2), (0, 0, 0))
        assert spec.out_dims((4, 4, 4)) == (8, 8, 8)

    def test_non_positive_dims_rejected(self):
        spec = nn.LayerSpec("conv3d", (5, 5, 5))
        with pytest.raises(InternalError, match="to non-positive dims"):
            spec.out_dims((3, 3, 3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InternalError, match="unknown layer kind 'pool9d'"):
            nn.LayerSpec("pool9d")


class TestConv3d:
    def test_identity_kernel(self):
        conv = as_float64(nn.Conv3d(1, 1, 1, name="c"))
        conv.weight.value[...] = 1.0
        x = np.random.default_rng(0).normal(size=(2, 1, 3, 4, 5))
        np.testing.assert_allclose(conv.forward(x), x)

    def test_all_ones_sum(self):
        conv = as_float64(nn.Conv3d(1, 1, 2, name="c"))
        conv.weight.value[...] = 1.0
        x = np.ones((1, 1, 2, 2, 2))
        y = conv.forward(x)
        assert y.shape == (1, 1, 1, 1, 1)
        assert y[0, 0, 0, 0, 0] == pytest.approx(8.0)

    @pytest.mark.parametrize("stride,padding", [((1, 1, 1), (0, 0, 0)), ((2, 1, 2), (1, 1, 0)), ((1, 2, 2), (0, 1, 1))])
    def test_matches_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(1, 2, 3, 4, 4))
        conv = as_float64(nn.Conv3d(2, 3, 2, stride=stride, padding=padding, name="c"))
        got = conv.forward(x)
        want = loop_conv3d(x, conv.weight.value, stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,padding", POINTWISE_AND_K3)
    def test_matches_loop_oracle_batched(self, kernel, stride, padding):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(2, 2, 3, 4, 4))
        conv = as_float64(nn.Conv3d(2, 3, kernel, stride=stride, padding=padding, name="c"))
        got = conv.forward(x)
        want = loop_conv3d(x, conv.weight.value, conv.spec.stride, conv.spec.padding)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_zero_grad_out(self):
        conv = as_float64(nn.Conv3d(2, 3, 2, name="c"))
        x = np.random.default_rng(1).normal(size=(1, 2, 3, 4, 4))
        y = conv.forward(x)
        gx = conv.backward(np.zeros_like(y))
        assert not gx.any()
        assert not conv.weight.grad.any()

    def test_scalar_weight_gradient_is_input(self):
        conv = as_float64(nn.Conv3d(1, 1, 1, name="c"))
        x = np.array([[[[[3.5]]]]])
        conv.forward(x)
        conv.backward(np.ones((1, 1, 1, 1, 1)))
        assert conv.weight.grad[0, 0, 0, 0, 0] == pytest.approx(3.5)

    def test_backward_linearity(self):
        conv = as_float64(nn.Conv3d(2, 2, 3, padding=1, name="c"))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 4, 4, 4))
        g = rng.normal(size=(1, 2, 4, 4, 4))
        conv.forward(x)
        g1 = conv.backward(g)
        conv.forward(x)
        g2 = conv.backward(3.0 * g)
        np.testing.assert_allclose(3.0 * g1, g2, rtol=1e-12)

    def test_same_padding_preserves_dims(self):
        conv = as_float64(nn.Conv3d(1, 1, 3, stride=1, padding=1, name="c"))
        x = np.zeros((1, 1, 5, 6, 7))
        assert conv.forward(x).shape == (1, 1, 5, 6, 7)

    def test_channel_mismatch_rejected(self):
        conv = nn.Conv3d(2, 3, 2, name="c")
        with pytest.raises(InternalError, match="expects 2 channels, got 4"):
            conv.forward(np.zeros((1, 4, 3, 3, 3), dtype=np.float32))

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        conv = as_float64(nn.Conv3d(2, 3, 2, stride=(2, 1, 2), padding=(1, 0, 1),
                                    name="c", seed=seed))
        x = rng.normal(size=(1, 2, 3, 4, 4))
        check_layer(conv, x, rng)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kernel,stride,padding", POINTWISE_AND_K3)
    def test_gradcheck_batched(self, kernel, stride, padding, seed):
        rng = np.random.default_rng(700 + seed)
        conv = as_float64(nn.Conv3d(2, 3, kernel, stride=stride, padding=padding,
                                    name="c", seed=seed))
        x = rng.normal(size=(2, 2, 3, 4, 4))
        check_layer(conv, x, rng)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kernel,padding", [(1, 1), (3, 3)])
    def test_gradcheck_padding_past_kernel(self, kernel, padding, seed):
        # the unit-stride input gradient crops where k-1-p is negative
        rng = np.random.default_rng(800 + seed)
        conv = as_float64(nn.Conv3d(2, 3, kernel, padding=padding, name="c", seed=seed))
        x = rng.normal(size=(2, 2, 3, 4, 4))
        check_layer(conv, x, rng)

    def test_chunked_matches_unchunked(self, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 8, 5, 5))
        g = rng.normal(size=(2, 4, 8, 5, 5))

        def run():
            conv = as_float64(nn.Conv3d(3, 4, 3, padding=1, name="c", seed=3))
            y = conv.forward(x)
            gx = conv.backward(g)
            return y, gx, conv.weight.grad.copy()

        y1, gx1, gw1 = run()
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES", 4096)
        y2, gx2, gw2 = run()
        # different chunk boundaries reorder the float summation, so the
        # comparison is tight-tolerance rather than bitwise
        np.testing.assert_allclose(y1, y2, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gx1, gx2, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw1, gw2, rtol=1e-12, atol=1e-12)


    @pytest.mark.parametrize("make,in_shape", [
        (lambda: as_float64(nn.Conv3d(3, 4, 1, stride=2, name="c", seed=3)),
         (2, 3, 8, 5, 5)),
        (lambda: as_float64(nn.Deconv3d(3, 4, 2, stride=2, name="d", seed=3)),
         (2, 3, 6, 5, 5)),
    ], ids=["pointwise_stride2", "deconv_k2s2"])
    def test_chunked_matches_unchunked_fast_paths(self, monkeypatch, make, in_shape):
        rng = np.random.default_rng(8)
        x = rng.normal(size=in_shape)
        g = rng.normal(size=make().forward(x).shape)

        def run():
            layer = make()
            y = layer.forward(x)
            return y, layer.backward(g), layer.weight.grad.copy()

        unchunked = run()
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES", 256)
        for a, b in zip(unchunked, run()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestConvLowering:
    """The channels-first core against the row-major reference above.

    Float64 inputs and a tight tolerance: the two lowerings hand BLAS
    operands in different layouts, and BLAS does not promise one
    summation order across layouts.
    """

    # kernel -> (in channels, out channels, input dims)
    SHAPES = {1: (6, 5, (5, 6, 6)), 2: (4, 5, (5, 6, 6)),
              3: (3, 4, (5, 6, 6)), 7: (2, 3, (8, 9, 9))}
    # kernel, padding: a 1x1x1 kernel's k//2 padding is 0, so it runs once
    KERNEL_PADDING = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (7, 0), (7, 3)]

    @staticmethod
    def _check_all_routines(x, w, stride, padding):
        dims = x.shape[2:]
        close = dict(rtol=1e-12, atol=1e-12)
        y = nn.conv3d_core_forward(x, w, stride, padding)
        np.testing.assert_allclose(y, ref_conv_forward(x, w, stride, padding), **close)
        g = np.random.default_rng(99).normal(size=y.shape)
        np.testing.assert_allclose(
            nn.conv3d_core_input_grad(g, w, stride, padding, dims),
            ref_conv_input_grad(g, w, stride, padding, dims), **close,
        )
        np.testing.assert_allclose(
            nn.conv3d_core_weight_grad(x, g, stride, padding, w.shape[2:]),
            ref_conv_weight_grad(x, g, stride, padding, w.shape[2:]), **close,
        )

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("stride", [(1, 1, 1), (2, 2, 2), (1, 2, 2)])
    @pytest.mark.parametrize("kernel,pad", KERNEL_PADDING)
    def test_matches_row_major_reference(self, kernel, pad, stride, batch):
        cin, cout, dims = self.SHAPES[kernel]
        rng = np.random.default_rng(kernel * 10 + batch)
        x = rng.normal(size=(batch, cin, *dims))
        w = rng.normal(size=(cout, cin, kernel, kernel, kernel))
        self._check_all_routines(x, w, stride, (pad,) * 3)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_one_output_channel_matches_reference(self, batch):
        # the decoder head's shape: numpy may send a one-row product to gemv
        rng = np.random.default_rng(5)
        x = rng.normal(size=(batch, 16, 8, 8, 8))
        w = rng.normal(size=(1, 16, 1, 1, 1))
        self._check_all_routines(x, w, (1, 1, 1), (0, 0, 0))

    def test_toy_training_step_matches_reference(self, monkeypatch):
        from ev2vox import model as M
        rng = np.random.default_rng(3)
        x = (rng.random((5, 1, 10, 32, 32)) < 0.1).astype(np.float64)
        g = rng.normal(size=(5, 8, 8, 8))

        def step():
            m = as_float64(M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=0))
            out = [m.forward(x), m.backward(g)]
            return out + [p.grad for p in m.parameters()]

        got = step()
        monkeypatch.setattr(nn, "conv3d_core_forward", ref_conv_forward)
        monkeypatch.setattr(nn, "conv3d_core_input_grad", ref_conv_input_grad)
        monkeypatch.setattr(nn, "conv3d_core_weight_grad", ref_conv_weight_grad)
        want = step()
        assert len(got) == len(want) == 43  # output, input grad, 41 parameter grads
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    # padding at or past the kernel size: k-1-p is negative on some axes
    @pytest.mark.parametrize("kernel,padding", [(1, (1, 1, 1)), (3, (3, 3, 3)), (3, (3, 0, 1))])
    def test_unit_stride_adjoint_past_kernel_matches_reference(self, kernel, padding):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(2, 3, 4, 5, 6))
        w = rng.normal(size=(4, 3, kernel, kernel, kernel))
        self._check_all_routines(x, w, (1, 1, 1), padding)

    @staticmethod
    def _peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_pointwise_materializes_no_patch_matrix(self, stride):
        x = np.random.default_rng(0).normal(size=(1, 64, 8, 32, 32)).astype(np.float32)
        w = np.ones((64, 64, 1, 1, 1), dtype=np.float32)
        y, peak = self._peak_bytes(nn.conv3d_core_forward, x, w, (stride,) * 3, (0, 0, 0))
        subsample = 0 if stride == 1 else x[:, :, ::2, ::2, ::2].nbytes
        # any further copy of the (subsampled) input would overrun this
        assert peak <= y.nbytes + subsample + 16 * 2**10

    def test_unit_stride_input_grad_skips_tap_product(self):
        # up1.fuse's 32 -> 16 channels: the scatter's (n, cin*27, L) tap
        # product is twice the flipped-kernel forward's patch matrix
        rng = np.random.default_rng(2)
        g = rng.normal(size=(2, 16, 8, 8, 8)).astype(np.float32)
        w = rng.normal(size=(16, 32, 3, 3, 3)).astype(np.float32)
        gx, peak = self._peak_bytes(
            nn.conv3d_core_input_grad, g, w, (1, 1, 1), (1, 1, 1), (8, 8, 8)
        )
        tap_product = 2 * 32 * 27 * 8**3 * g.itemsize
        assert gx.shape == (2, 32, 8, 8, 8)
        assert peak < tap_product

    def test_patch_matrix_stays_under_budget(self, monkeypatch):
        budget = 64 * 2**10
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES", budget)
        x = np.random.default_rng(1).normal(size=(1, 4, 8, 12, 12)).astype(np.float32)
        w = np.ones((8, 4, 3, 3, 3), dtype=np.float32)
        y, peak = self._peak_bytes(nn.conv3d_core_forward, x, w, (1, 1, 1), (0, 0, 0))
        unchunked = 4 * 27 * y[0, 0].size * x.itemsize
        assert unchunked > budget  # the budget does force chunking here
        assert peak < budget + y.nbytes

    @pytest.mark.parametrize("routine", ["forward", "weight_grad"])
    @pytest.mark.parametrize("kernel,stride,padding,shape", [
        pytest.param(3, (1, 1, 1), (1, 1, 1), (1, 4, 16, 32, 32), id="k3"),
        pytest.param(7, (2, 2, 2), (3, 3, 3), (1, 2, 20, 40, 40), id="k7s2"),
    ])
    def test_padded_conv_builds_no_padded_input(self, monkeypatch, routine, kernel, stride,
                                                padding, shape):
        budget = 64 * 2**10
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES", budget)
        rng = np.random.default_rng(8)
        x = rng.normal(size=shape).astype(np.float32)
        w = rng.normal(size=(4, shape[1], kernel, kernel, kernel)).astype(np.float32)
        y = nn.conv3d_core_forward(x, w, stride, padding)
        padded = _ref_pad(x, padding).nbytes
        if routine == "forward":
            _, peak = self._peak_bytes(nn.conv3d_core_forward, x, w, stride, padding)
            ceiling = y.nbytes + budget + padded // 2
        else:
            _, peak = self._peak_bytes(
                nn.conv3d_core_weight_grad, x, y, stride, padding, w.shape[2:])
            ceiling = budget + padded // 2
        # one sample's patch block plus half a padded input: a padded copy
        # of the whole input would overrun it
        assert peak < ceiling

    @staticmethod
    def _record_blocks(monkeypatch):
        """Patch nn._blocks to log the block list of every call."""
        calls = []
        blocks = nn._blocks

        def recording(*args):
            calls.append(list(blocks(*args)))
            return iter(calls[-1])

        monkeypatch.setattr(nn, "_blocks", recording)
        return calls

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("stride", [(1, 1, 1), (2, 2, 2), (1, 2, 2)])
    @pytest.mark.parametrize("kernel", [3, 7])
    def test_blocks_match_one_block(self, monkeypatch, kernel, stride, batch):
        rng = np.random.default_rng(kernel + batch)
        x = rng.normal(size=(batch, 2, 5, 9, 7))
        w = rng.normal(size=(2, 2, kernel, kernel, kernel))
        padding = (kernel // 2,) * 3
        dims = x.shape[2:]

        def routines():
            y = nn.conv3d_core_forward(x, w, stride, padding)
            g = np.random.default_rng(99).normal(size=y.shape)
            return (y, nn.conv3d_core_input_grad(g, w, stride, padding, dims),
                    nn.conv3d_core_weight_grad(x, g, stride, padding, w.shape[2:]))

        one_block = routines()
        # every routine here has 2*k^3 patch rows; the budget holds 14
        # float64 columns of them, under one output plane at any stride
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES", 2 * kernel**3 * 8 * 14)
        calls = self._record_blocks(monkeypatch)
        blocked = routines()
        assert len(calls) == 3
        for blocks in calls:
            slabs = [h1 - h0 for d0, d1, h0, h1 in blocks]
            assert all(d1 - d0 == 1 for d0, d1, h0, h1 in blocks)
            assert slabs[-1] < slabs[0]  # a ragged last slab
        # y starts as np.empty: a block product that missed y would show here
        for a, b in zip(one_block, blocked):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_budget_bounds_each_sample_block(self, monkeypatch):
        # one h row of one sample's patches is 216 x 64 floats; a budget of
        # under two rows makes one-row blocks, far under a whole plane
        row = 216 * 64 * 4
        budget = 100_000
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES", budget)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 8, 4, 16, 64)).astype(np.float32)
        w = rng.normal(size=(2, 8, 3, 3, 3)).astype(np.float32)
        y, peak = self._peak_bytes(nn.conv3d_core_forward, x, w, (1, 1, 1), (1, 1, 1))
        ceiling = x.shape[0] * budget + y.nbytes
        assert x.shape[0] * 16 * row > ceiling  # blocks of whole planes overrun it
        assert peak < ceiling

    def test_toy_model_calls_get_one_block(self, monkeypatch):
        # the per-sample budget leaves every toy GEMM its unblocked shape
        from ev2vox import model as M
        calls = self._record_blocks(monkeypatch)
        rng = np.random.default_rng(6)
        m = M.build_model(M.EncoderConfig.toy(), M.DecoderConfig.toy(), seed=0)
        x = (rng.random((5, 1, 10, 32, 32)) < 0.1).astype(np.float32)
        y = m.forward(x)
        m.backward(rng.normal(size=y.shape).astype(np.float32))
        assert len(calls) > 20
        assert all(len(blocks) == 1 for blocks in calls)


class TestPaddedSlabs:
    """Each conv core routine and Deconv3d, bit for bit, against the same
    routine run on one np.pad copy of its input at the same budget."""

    # kernel, padding: 0 and k//2, and padding at or past the kernel
    KERNEL_PADDING = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (3, 3),
                      (3, (3, 0, 1)), (7, 0), (7, 3)]
    STRIDES = [(1, 1, 1), (2, 2, 2), (1, 2, 2)]
    BUDGETS = ["one block", "depth planes", "h-row slabs"]

    @staticmethod
    def _budget(kind, rows, out_dims, itemsize):
        """A budget whose blocks of ``rows``-row patches over ``out_dims`` are
        one block, several depth-plane blocks, or h-row slabs with a ragged
        last one (out_dims has at least 2 planes and 3 rows here)."""
        do, ho, wo = out_dims
        cols = {"one block": do * ho * wo, "depth planes": (do - 1) * ho * wo,
                "h-row slabs": (ho - 1) * wo}[kind]
        return rows * itemsize * cols

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("kernel,padding", KERNEL_PADDING)
    def test_conv_core_matches_padded_copy(self, monkeypatch, kernel, padding, stride, budget):
        cin, cout, dims = (2, 3, (11, 12, 10)) if kernel == 7 else (3, 4, (5, 7, 6))
        padding = nn.as_triple(padding)
        rng = np.random.default_rng(kernel)
        x = rng.normal(size=(2, cin, *dims))
        w = rng.normal(size=(cout, cin, kernel, kernel, kernel))
        out_dims = nn.LayerSpec("conv3d", (kernel,) * 3, stride, padding).out_dims(dims)
        g = rng.normal(size=(2, cout, *out_dims))
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES",
                            self._budget(budget, cin * kernel**3, out_dims, x.itemsize))
        calls = TestConvLowering._record_blocks(monkeypatch)
        y = nn.conv3d_core_forward(x, w, stride, padding)
        if calls:  # a 1x1x1 unit-stride conv is one block without asking
            blocks = calls[0]
            if budget == "one block":
                assert len(blocks) == 1
            elif budget == "depth planes":
                assert len(blocks) > 1 and all(b[2:] == (0, out_dims[1]) for b in blocks)
            else:
                assert all(d1 - d0 == 1 for d0, d1, _, _ in blocks)
                assert blocks[-1][3] - blocks[-1][2] < blocks[0][3] - blocks[0][2]
        assert_same_bytes(y, pad_oracle_forward(x, w, stride, padding))
        assert_same_bytes(nn.conv3d_core_input_grad(g, w, stride, padding, dims),
                          pad_oracle_input_grad(g, w, stride, padding, dims))
        assert_same_bytes(nn.conv3d_core_weight_grad(x, g, stride, padding, w.shape[2:]),
                          pad_oracle_weight_grad(x, g, stride, padding, w.shape[2:]))

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("kernel,padding", KERNEL_PADDING)
    def test_deconv_matches_padded_copy(self, monkeypatch, kernel, padding, stride, budget):
        cin, cout, dims = (2, 3, (5, 6, 5)) if kernel == 7 else (3, 4, (6, 7, 6))
        layer = as_float64(nn.Deconv3d(cin, cout, kernel, stride, padding, name="up"))
        spec = layer.spec
        w = layer.weight.value
        rng = np.random.default_rng(kernel + 100)
        x = rng.normal(size=(2, cin, *dims))
        out_dims = spec.out_dims(dims)
        # the backward's conv runs over the output gradient down to dims
        monkeypatch.setattr(nn, "MAX_PATCH_BYTES",
                            self._budget(budget, cout * kernel**3, dims, x.itemsize))
        y = layer.forward(x)
        assert_same_bytes(y, pad_oracle_input_grad(x, w, spec.stride, spec.padding, out_dims))
        g = rng.normal(size=y.shape)
        assert_same_bytes(layer.backward(g), pad_oracle_forward(g, w, spec.stride, spec.padding))
        assert_same_bytes(layer.weight.grad,
                          pad_oracle_weight_grad(g, x, spec.stride, spec.padding, spec.kernel))


class TestDeconv3d:
    def test_impulse_response_copies_kernel(self):
        dc = as_float64(nn.Deconv3d(1, 1, 2, stride=2, name="d"))
        x = np.zeros((1, 1, 2, 2, 2))
        x[0, 0, 1, 0, 1] = 1.0
        y = dc.forward(x)
        assert y.shape == (1, 1, 4, 4, 4)
        np.testing.assert_allclose(y[0, 0, 2:4, 0:2, 2:4], dc.weight.value[0, 0])
        mask = np.ones((4, 4, 4), dtype=bool)
        mask[2:4, 0:2, 2:4] = False
        assert not y[0, 0][mask].any()

    def test_output_dims(self):
        dc = nn.Deconv3d(3, 2, (2, 3, 2), stride=(2, 1, 2), padding=(0, 1, 0), name="d")
        assert dc.spec.out_dims((4, 5, 6)) == (8, 5, 12)

    def test_adjoint_identity_with_conv(self):
        rng = np.random.default_rng(3)
        conv = as_float64(nn.Conv3d(2, 3, 2, stride=2, name="c", seed=1))
        dc = as_float64(nn.Deconv3d(3, 2, 2, stride=2, name="d", seed=2))
        dc.weight.value = conv.weight.value  # shared kernel, layouts coincide
        x = rng.normal(size=(2, 2, 4, 4, 4))
        y = rng.normal(size=(2, 3, 2, 2, 2))
        lhs = float((conv.forward(x) * y).sum())
        rhs = float((x * dc.forward(y)).sum())
        assert abs(lhs - rhs) < 1e-10

    def test_deconv_forward_equals_conv_input_grad(self):
        rng = np.random.default_rng(4)
        dc = as_float64(nn.Deconv3d(3, 2, (3, 2, 2), stride=(1, 2, 2), padding=(1, 0, 0),
                                    name="d", seed=5))
        g = rng.normal(size=(1, 3, 4, 3, 3))
        out_dims = dc.spec.out_dims((4, 3, 3))
        want = nn.conv3d_core_input_grad(
            g, dc.weight.value, dc.spec.stride, dc.spec.padding, out_dims
        )
        np.testing.assert_array_equal(dc.forward(g), want)

    @pytest.mark.parametrize("kernel,padding", [(2, 0), (3, 1), (3, 2), (1, 1)])
    def test_unit_stride_matches_reference(self, kernel, padding):
        rng = np.random.default_rng(12)
        dc = as_float64(nn.Deconv3d(3, 2, kernel, stride=1, padding=padding,
                                    name="d", seed=5))
        x = rng.normal(size=(2, 3, 4, 5, 6))
        want = ref_conv_input_grad(x, dc.weight.value, (1, 1, 1), (padding,) * 3,
                                   dc.spec.out_dims(x.shape[2:]))
        np.testing.assert_allclose(dc.forward(x), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradcheck(self, seed):
        rng = np.random.default_rng(100 + seed)
        dc = as_float64(nn.Deconv3d(3, 2, 2, stride=(2, 2, 1), padding=(0, 0, 1),
                                    name="d", seed=seed))
        x = rng.normal(size=(1, 3, 3, 3, 4))
        check_layer(dc, x, rng)


class TestBatchNorm:
    def test_constant_channel_maps_to_shift(self):
        bn = as_float64(nn.BatchNorm3d(2, name="n"))
        bn.shift.value[...] = [0.7, -0.2]
        x = np.full((2, 2, 3, 3, 3), 5.0)
        y = bn.forward(x)
        np.testing.assert_allclose(y[:, 0], 0.7, atol=1e-9)
        np.testing.assert_allclose(y[:, 1], -0.2, atol=1e-9)

    def test_standardizes_moments(self):
        rng = np.random.default_rng(5)
        bn = as_float64(nn.BatchNorm3d(3, name="n"))
        x = rng.normal(loc=2.0, scale=3.0, size=(4, 3, 5, 5, 5))
        y = bn.forward(x)
        mean = y.mean(axis=(0, 2, 3, 4))
        var = y.var(axis=(0, 2, 3, 4))
        assert np.all(np.abs(mean) < 1e-5)
        assert np.all(np.abs(var - 1.0) < 1e-3)

    def test_eval_mode_uses_running_stats(self):
        rng = np.random.default_rng(6)
        bn = as_float64(nn.BatchNorm3d(1, name="n"))
        for _ in range(200):
            bn.forward(rng.normal(loc=4.0, scale=2.0, size=(2, 1, 4, 4, 4)))
        bn.training = False
        shifted = rng.normal(loc=-10.0, scale=1.0, size=(2, 1, 4, 4, 4))
        y = bn.forward(shifted)
        # standardized against running stats (mean 4, var 4), not batch stats
        assert y.mean() < -5.0
        assert abs(bn.running_mean[0] - 4.0) < 0.3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_remember_false_same_output(self, training, dtype):
        rng = np.random.default_rng(11)
        x = rng.normal(loc=1.0, size=(2, 3, 4, 4, 4)).astype(dtype)
        outs = []
        for remember in (True, False):
            bn = nn.BatchNorm3d(3, name="n")
            bn = as_float64(bn) if dtype == np.float64 else bn
            bn.gain.value[...] = [0.5, -1.5, 2.0]
            bn.shift.value[...] = [0.1, 0.0, -0.3]
            bn.running_var[...] = [0.5, 2.0, 1.0]
            bn.training = training
            outs.append(bn.forward(x.copy(), remember=remember))
        assert outs[0].dtype == outs[1].dtype == dtype
        assert outs[0].tobytes() == outs[1].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_running_stats_match_two_pass_moments(self, dtype):
        rng = np.random.default_rng(13)
        x = rng.normal(loc=1.5, scale=2.0, size=(3, 4, 5, 6, 7)).astype(dtype)
        bn = nn.BatchNorm3d(4, name="n")
        bn = as_float64(bn) if dtype == np.float64 else bn
        bn.running_mean[...] = [0.5, -1.0, 0.0, 2.0]
        bn.running_var[...] = [1.5, 0.25, 1.0, 3.0]
        want = [
            (0.9 * old + 0.1 * new.astype(np.float64)).astype(np.float32)
            for old, new in ((bn.running_mean, x.mean(axis=(0, 2, 3, 4))),
                             (bn.running_var, x.var(axis=(0, 2, 3, 4))))
        ]
        bn.forward(x)
        assert bn.running_mean.tobytes() == want[0].tobytes()
        assert bn.running_var.tobytes() == want[1].tobytes()

    def test_zero_volume_rejected(self):
        bn = nn.BatchNorm3d(2, name="n")
        with pytest.raises(InternalError, match="zero-sized axis"):
            bn.forward(np.zeros((0, 2, 3, 3, 3), dtype=np.float32))

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradcheck_train(self, seed):
        rng = np.random.default_rng(200 + seed)
        bn = as_float64(nn.BatchNorm3d(3, name="n"))
        bn.gain.value[...] = rng.normal(size=3)
        bn.shift.value[...] = rng.normal(size=3)
        x = rng.normal(size=(2, 3, 3, 4, 2))
        check_layer(bn, x, rng)

    def test_gradcheck_eval(self):
        rng = np.random.default_rng(77)
        bn = as_float64(nn.BatchNorm3d(2, name="n"))
        bn.forward(rng.normal(size=(2, 2, 4, 4, 4)))  # populate running stats
        bn.training = False
        x = rng.normal(size=(2, 2, 3, 3, 3))
        check_layer(bn, x, rng)


class TestActivations:
    def test_relu_values(self):
        r = nn.ReLU()
        x = np.array([[[[[-1.0, 2.0]]]]])
        np.testing.assert_array_equal(r.forward(x), [[[[[0.0, 2.0]]]]])

    def test_sigmoid_at_zero(self):
        s = nn.Sigmoid()
        assert s.forward(np.zeros((1, 1, 1, 1, 1)))[0, 0, 0, 0, 0] == 0.5

    def test_sigmoid_range(self):
        s = nn.Sigmoid()
        x = np.array([[[[[-800.0, 800.0, 0.3]]]]])
        y = s.forward(x)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_relu_gradcheck(self, seed):
        rng = np.random.default_rng(300 + seed)
        x = rng.normal(size=(1, 2, 3, 4, 4))
        x += 0.2 * np.sign(x)  # keep clear of the kink
        check_layer(nn.ReLU(), x, rng)

    def test_relu_gradcheck_across_the_kink(self):
        # entries within h of zero: their central differences read 0.5, not a
        # derivative, so check_layer leaves them out instead of failing
        rng = np.random.default_rng(301)
        x = rng.normal(size=(1, 2, 3, 4, 4))
        x.flat[:4] = [3e-6, -3e-6, 0.0, 9e-6]
        check_layer(nn.ReLU(), x, rng)

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_sigmoid_gradcheck(self, seed):
        rng = np.random.default_rng(400 + seed)
        x = rng.normal(size=(1, 2, 3, 4, 4))
        check_layer(nn.Sigmoid(), x, rng)


def float32_band(center, half_width=4096):
    """The 2 * half_width float32 values with bit patterns around ``center``'s."""
    c = int(np.float32(center).view(np.uint32))
    return np.arange(c - half_width, c + half_width).astype(np.uint32).view(np.float32)


def assert_same_bits(ours, ref):
    """Equal float32 bits, or NaN on both sides whatever its payload."""
    same = (ours.view(np.uint32) == ref.view(np.uint32)) | (np.isnan(ours) & np.isnan(ref))
    assert same.all(), f"{(~same).sum()} differ, first at {ours[~same][:3]} vs {ref[~same][:3]}"


class TestSigmoidBytes:
    """The float32 sigmoid against ``scipy.special.expit`` bit for bit, on a
    sample; ``tests/check_sigmoid_exhaustive.py`` covers all 2^32 inputs."""

    def check(self, x):
        x = np.asarray(x, dtype=np.float32)
        assert_same_bits(nn.Sigmoid().forward(x, False), expit(x))

    def test_strided_bit_patterns(self):
        # every 4,099th pattern reaches every exponent and both signs
        self.check(np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32).view(np.float32))

    def test_special_values(self):
        tiny = np.float32(np.finfo(np.float32).smallest_subnormal)
        self.check([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny])

    def test_special_case_thresholds(self):
        # expf's overflow and underflow cuts, at the argument -x; the
        # underflow cut cannot show here, as 1 + e rounds to 1 on both sides
        cuts = -np.array([nn._EXPF_OVERFLOW, nn._EXPF_UNDERFLOW], dtype=np.float32)
        self.check(np.concatenate([cuts, np.nextafter(cuts, np.float32(np.inf)),
                                   np.nextafter(cuts, np.float32(-np.inf))]))

    @pytest.mark.parametrize("center", [88.0, -88.0, 8.94e-8, -8.94e-8])
    def test_bands_where_simpler_forms_disagree(self, center):
        # glibc's expf takes its special-case branch from |x| >= 88; near
        # 8.94e-8 a float32 np.exp already rounds the other way
        self.check(float32_band(center))

    def test_simpler_forms_disagree_in_the_bands(self):
        # the bands above would catch a float32 or float64 np.exp
        x = np.concatenate([float32_band(c) for c in (88.0, -88.0, 8.94e-8, -8.94e-8)])
        one = np.float32(1)
        for e in (np.exp(-x), np.exp(-x.astype(np.float64)).astype(np.float32)):
            assert (one / (one + e) != expit(x)).any()

    def test_table_is_the_rounded_powers_of_two(self):
        # bits(RN(2^(i/32))) - (i << 47), derived in 60-digit decimal
        for i, entry in enumerate(nn._EXPF_TABLE.tolist()):
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                power = decimal.Decimal(2) ** (decimal.Decimal(i) / 32)
                mantissa = int((power * 2**52).to_integral_value(decimal.ROUND_HALF_EVEN))
            assert 2**52 <= mantissa < 2**53
            assert entry == (0x3FF << 52) + mantissa - 2**52 - (i << 47), i

    def test_float64_is_the_plain_formula(self):
        x = np.random.default_rng(5).normal(scale=10.0, size=(2, 1, 3, 4, 5))
        np.testing.assert_array_equal(nn.Sigmoid().forward(x, False), 1 / (1 + np.exp(-x)))


# what every CLI command imports
CLI_IMPORT_SCRIPT = """
import sys
import ev2vox.cli, ev2vox.model, ev2vox.train
print(" ".join(m for m in sys.modules if m.startswith("scipy")))
"""


def test_cli_loads_no_scipy():
    # the sigmoid computes expf in numpy, so no command imports scipy
    # (scipy.special is about 0.2 s and 24 MiB of RSS at start-up)
    src = os.path.dirname(os.path.dirname(nn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", CLI_IMPORT_SCRIPT], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.split() == []


class TestMaxPool:
    def test_matches_window_max_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 6, 7, 5))
        pool = nn.MaxPool3d(3, stride=2, padding=1)
        y = pool.forward(x)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)),
                    constant_values=-np.inf)
        do, ho, wo = y.shape[2:]
        for ni in range(2):
            for ci in range(3):
                for d in range(do):
                    for h in range(ho):
                        for w in range(wo):
                            win = xp[ni, ci, 2 * d : 2 * d + 3, 2 * h : 2 * h + 3, 2 * w : 2 * w + 3]
                            assert y[ni, ci, d, h, w] == win.max()

    def test_backward_routes_to_argmax(self):
        x = np.zeros((1, 1, 2, 2, 2))
        x[0, 0, 1, 0, 1] = 5.0
        pool = nn.MaxPool3d(2)
        y = pool.forward(x)
        gx = pool.backward(np.ones_like(y))
        want = np.zeros_like(x)
        want[0, 0, 1, 0, 1] = 1.0
        np.testing.assert_array_equal(gx, want)

    def test_ties_route_to_first_position(self):
        x = np.full((1, 1, 2, 2, 2), 3.0)
        pool = nn.MaxPool3d(2)
        y = pool.forward(x)
        gx = pool.backward(np.ones_like(y))
        want = np.zeros_like(x)
        want[0, 0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(gx, want)

    def test_remember_false_same_output(self):
        x = np.random.default_rng(12).normal(size=(2, 3, 6, 7, 5)).astype(np.float32)
        x[0, 0, 2, 3, 1] = np.nan
        x[1] = np.round(x[1])  # ties
        pool = nn.MaxPool3d(3, stride=2, padding=1)
        y1 = pool.forward(x, remember=True)
        y2 = pool.forward(x, remember=False)
        assert y1.tobytes() == y2.tobytes()

    def test_backward_transient_stays_near_the_gradient(self):
        # the paper stem pool's k3 s2 p1: each block's scratch is one mask
        # and one selection of its outputs' size, no index grids or padded
        # accumulator (those peaked at over 3x the gradient)
        x = np.random.default_rng(18).normal(size=(1, 8, 20, 32, 32)).astype(np.float32)
        pool = nn.MaxPool3d(3, stride=2, padding=1)
        g = np.random.default_rng(19).normal(size=pool.forward(x).shape).astype(np.float32)
        gx, peak = TestConvLowering._peak_bytes(pool.backward, g)
        assert peak < 1.5 * gx.nbytes

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradcheck(self, seed):
        rng = np.random.default_rng(500 + seed)
        x = rng.normal(size=(1, 2, 4, 5, 4)) * 3.0
        pool = nn.MaxPool3d(3, stride=2, padding=1)
        check_layer(pool, x, rng)


def add_at_resize_backward(layer, grad_out, in_shape):
    """Scatter-add oracle: every output cell adds onto its source cell."""
    di, hi, wi = layer._index_maps(in_shape[2:])
    gx = np.zeros(in_shape, dtype=grad_out.dtype)
    np.add.at(gx, (np.arange(in_shape[0])[:, None, None, None, None],
                   np.arange(in_shape[1])[None, :, None, None, None],
                   di[None, None, :, None, None], hi[None, None, None, :, None],
                   wi[None, None, None, None, :]), grad_out)
    return gx


class TestAdaptiveResize:
    def test_identity_when_dims_match(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 4, 4, 4))
        layer = nn.AdaptiveResize3d((4, 4, 4))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_downsample_keeps_even_planes(self):
        x = np.arange(4, dtype=np.float64).reshape(1, 1, 4, 1, 1)
        x = np.broadcast_to(x, (1, 1, 4, 2, 2)).copy()
        layer = nn.AdaptiveResize3d((2, 2, 2))
        y = layer.forward(x)
        np.testing.assert_array_equal(y[0, 0, :, 0, 0], [0.0, 2.0])

    def test_upsample_repeats_planes(self):
        x = np.arange(2, dtype=np.float64).reshape(1, 1, 2, 1, 1)
        x = np.broadcast_to(x, (1, 1, 2, 2, 2)).copy()
        layer = nn.AdaptiveResize3d((4, 2, 2))
        y = layer.forward(x)
        np.testing.assert_array_equal(y[0, 0, :, 0, 0], [0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradcheck(self, seed):
        rng = np.random.default_rng(600 + seed)
        x = rng.normal(size=(1, 2, 5, 3, 4))
        layer = nn.AdaptiveResize3d((3, 4, 2))
        check_layer(layer, x, rng)

    # (source, target) sizes: identity, upsample, downsample and
    # non-integer ratios both ways
    SIZE_PAIRS = [(5, 5), (5, 8), (8, 3), (7, 5), (3, 20)]

    @staticmethod
    def _check_backward(in_shape, target):
        rng = np.random.default_rng(15)
        layer = nn.AdaptiveResize3d(target)
        y = layer.forward(rng.normal(size=in_shape).astype(np.float32))
        g = rng.normal(size=y.shape).astype(np.float32)
        got = layer.backward(g)
        want = add_at_resize_backward(layer, g, in_shape)
        contributions = add_at_resize_backward(layer, np.ones_like(g), in_shape)
        assert got.dtype == np.float32 and got.shape == in_shape
        if contributions.max() <= 2:
            # 0 + a + b and a + b round alike
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("axis", [2, 3, 4])
    @pytest.mark.parametrize("size,target", SIZE_PAIRS)
    def test_backward_one_axis_matches_add_at(self, size, target, axis):
        in_shape = [2, 3, 4, 5, 6]
        in_shape[axis] = size
        out = list(in_shape[2:])
        out[axis - 2] = target
        self._check_backward(tuple(in_shape), tuple(out))

    @pytest.mark.parametrize("dims,target", [((5, 8, 7), (8, 3, 5)), ((3, 7, 8), (20, 5, 3))])
    def test_backward_all_axes_match_add_at(self, dims, target):
        self._check_backward((2, 3, *dims), target)

    # target dims: identity, upsample, downsample and mixed axes
    @pytest.mark.parametrize("target", [(5, 6, 7), (9, 11, 14), (3, 2, 4), (5, 13, 3)])
    def test_forward_matches_fancy_index(self, target):
        x = np.random.default_rng(16).normal(size=(2, 3, 5, 6, 7)).astype(np.float32)
        layer = nn.AdaptiveResize3d(target)
        di, hi, wi = layer._index_maps(x.shape[2:])
        want = x[:, :, di[:, None, None], hi[None, :, None], wi[None, None, :]]
        got = layer.forward(x)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)

    def test_forward_identity_returns_a_copy(self):
        x = np.ones((1, 2, 3, 4, 5))
        y = nn.AdaptiveResize3d((3, 4, 5)).forward(x)
        np.testing.assert_array_equal(y, x)
        assert not np.shares_memory(y, x)

    def test_backward_identity_returns_a_copy(self):
        layer = nn.AdaptiveResize3d((3, 4, 5))
        layer.forward(np.zeros((1, 2, 3, 4, 5)))
        g = np.ones((1, 2, 3, 4, 5))
        gx = layer.backward(g)
        np.testing.assert_array_equal(gx, g)
        assert not np.shares_memory(gx, g)


# one of each layer with a saved slot, each taking (2, 2, 4, 4, 4) float64
SLOT_LAYERS = {
    "Conv3d": lambda: as_float64(nn.Conv3d(2, 3, 3, padding=1, name="c")),
    "Deconv3d": lambda: as_float64(nn.Deconv3d(2, 3, 2, stride=2, name="d")),
    "BatchNorm3d": lambda: as_float64(nn.BatchNorm3d(2, name="b")),
    "ReLU": nn.ReLU,
    "Sigmoid": nn.Sigmoid,
    "MaxPool3d": lambda: nn.MaxPool3d(2),
    "AdaptiveResize3d": lambda: nn.AdaptiveResize3d((3, 5, 6)),
}


EMPTY_SLOT = "backward called without a cached forward"


@pytest.mark.parametrize("name", SLOT_LAYERS)
class TestSavedSlot:
    @staticmethod
    def layer_and_input(name):
        x = np.random.default_rng(5).normal(size=(2, 2, 4, 4, 4))
        return SLOT_LAYERS[name](), x

    def test_backward_empties_the_slot(self, name):
        layer, x = self.layer_and_input(name)
        g = np.ones_like(layer.forward(x))
        assert layer.saved is not None
        layer.backward(g)
        assert layer.saved is None
        with pytest.raises(InternalError, match=f"^{name} {EMPTY_SLOT}$"):
            layer.backward(g)

    def test_unremembered_forward_empties_the_slot(self, name):
        layer, x = self.layer_and_input(name)
        layer.forward(x.copy())
        g = np.ones_like(layer.forward(x, remember=False))
        assert layer.saved is None
        with pytest.raises(InternalError, match=f"^{name} {EMPTY_SLOT}$"):
            layer.backward(g)


class TestSequential:
    def test_empty_is_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 3, 3, 3))
        seq = nn.Sequential()
        assert seq.forward(x) is x
        assert seq.backward(x) is x
        assert seq.parameters() == [] and seq.buffers() == []

    def test_runs_layers_in_order_and_backward_in_reverse(self):
        rng = np.random.default_rng(1)
        conv = as_float64(nn.Conv3d(2, 3, 3, padding=1, name="c", seed=2))
        resize = nn.AdaptiveResize3d((2, 3, 5))
        x = rng.normal(size=(1, 2, 4, 4, 4))
        seq = nn.Sequential(conv, resize)
        y = seq.forward(x)
        np.testing.assert_array_equal(y, resize.forward(conv.forward(x)))
        g = rng.normal(size=y.shape)
        gx = seq.backward(g)
        seq.forward(x)
        np.testing.assert_array_equal(gx, conv.backward(resize.backward(g)))

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradcheck_conv_norm_relu(self, seed):
        rng = np.random.default_rng(300 + seed)
        bn = as_float64(nn.BatchNorm3d(3, name="b"))
        bn.running_mean[...] = rng.normal(size=3)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=3)
        seq = nn.Sequential(
            as_float64(nn.Conv3d(2, 3, 3, padding=1, name="c", seed=seed)), bn, nn.ReLU()
        ).eval()
        check_layer(seq, rng.normal(size=(2, 2, 3, 4, 4)), rng)

    # range(N_GRAD_SEEDS) and the seeds below 1000 whose inputs land a
    # batch-normed value within a central difference of ReLU's kink
    @pytest.mark.parametrize("seed", [*range(N_GRAD_SEEDS), 184, 449, 616, 705])
    def test_gradcheck_conv_norm_relu_train(self, seed):
        # batch statistics: every parameter, the conv's included, has a
        # gradient that finite differences can measure
        rng = np.random.default_rng(300 + seed)
        seq = nn.Sequential(
            as_float64(nn.Conv3d(2, 3, 3, padding=1, name="c", seed=seed)),
            as_float64(nn.BatchNorm3d(3, name="b")),
            nn.ReLU(),
        )
        check_layer(seq, rng.normal(size=(2, 2, 3, 4, 4)), rng)

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradcheck_norm_relu_conv_train(self, seed):
        rng = np.random.default_rng(400 + seed)
        seq = nn.Sequential(
            as_float64(nn.BatchNorm3d(2, name="b")),
            nn.ReLU(),
            as_float64(nn.Conv3d(2, 3, 3, padding=1, name="c", seed=seed)),
        )
        check_layer(seq, rng.normal(size=(2, 2, 3, 4, 4)), rng)


class TestConcatSplit:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(1, 2, 3, 3, 3))
        b = rng.normal(size=(1, 5, 3, 3, 3))
        cat = np.concatenate([a, b], axis=1)
        assert cat.shape[1] == 7
        ga, gb = nn.split_channels(cat, [2, 5])
        np.testing.assert_array_equal(ga, a)
        np.testing.assert_array_equal(gb, b)

    def test_bad_split_rejected(self):
        with pytest.raises(InternalError, match=r"cannot split 4 channels into \[2, 3\]"):
            nn.split_channels(np.zeros((1, 4, 1, 1, 1)), [2, 3])


class TestInitialization:
    def test_same_seed_same_weights(self):
        c1 = nn.Conv3d(2, 3, 3, name="stem.conv", seed=11)
        c2 = nn.Conv3d(2, 3, 3, name="stem.conv", seed=11)
        np.testing.assert_array_equal(c1.weight.value, c2.weight.value)

    def test_different_names_differ(self):
        c1 = nn.Conv3d(2, 3, 3, name="a", seed=11)
        c2 = nn.Conv3d(2, 3, 3, name="b", seed=11)
        assert not np.array_equal(c1.weight.value, c2.weight.value)

    def test_different_seeds_differ(self):
        c1 = nn.Conv3d(2, 3, 3, name="a", seed=11)
        c2 = nn.Conv3d(2, 3, 3, name="a", seed=12)
        assert not np.array_equal(c1.weight.value, c2.weight.value)

    def test_kaiming_bound(self):
        conv = nn.Conv3d(4, 8, 3, name="c", seed=0)
        bound = np.sqrt(6.0 / (4 * 27))
        assert np.abs(conv.weight.value).max() <= bound
        assert np.abs(conv.weight.value).max() > 0.5 * bound
        assert conv.parameters() == [conv.weight]

    def test_zero_grad(self):
        conv = as_float64(nn.Conv3d(1, 1, 1, name="c"))
        x = np.ones((1, 1, 2, 2, 2))
        conv.forward(x)
        conv.backward(np.ones((1, 1, 2, 2, 2)))
        assert conv.weight.grad.any()
        conv.weight.zero_grad()
        assert not conv.weight.grad.any()


def resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class TestParameter:
    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm for the resident set size")
    def test_unwritten_grad_is_not_resident(self):
        before = resident_bytes()
        value = np.full(16 * 2**20, 0.5, dtype=np.float32)  # 64 MiB, written
        p = nn.Parameter(value, "w")
        assert resident_bytes() - before < 1.5 * value.nbytes
        assert p.grad.shape == value.shape and p.grad.dtype == value.dtype
        assert not p.grad.any()
        p.grad += 2.0
        assert (p.grad == 2.0).all()
        p.zero_grad()
        assert not p.grad.any()


# runs in a fresh interpreter; VmHWM is the peak RSS of its own address
# space (ru_maxrss would carry over the launching process's peak)
SLAB_PEAK_SCRIPT = """
import numpy as np
from ev2vox import nn

def status_bytes(key):
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith(key + ":"))
    return int(line.split()[1]) * 1024

x = np.empty((1, 16, 16, 256, 256), np.float32)  # 64 MiB
np.random.default_rng(0).standard_normal(dtype=np.float32, out=x)
before = status_bytes("VmRSS")
y = nn.MaxPool3d(3, 2, 1).forward(nn.BatchNorm3d(16).forward(x, False), False)
print(x.nbytes, y.nbytes, status_bytes("VmHWM") - before)
"""


class TestSlabMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status for the peak resident set size")
    def test_norm_and_pool_make_no_input_sized_scratch(self):
        # RSS after the call would miss a freed scratch array, so a fresh
        # process compares its peak RSS with its RSS before the two layers
        src = os.path.dirname(os.path.dirname(nn.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", SLAB_PEAK_SCRIPT], env=env,
                             capture_output=True, text=True, check=True, timeout=120).stdout
        x_bytes, y_bytes, rise = (int(v) for v in out.split())
        # the pool's output (an eighth of x) and a few budget-sized blocks
        assert y_bytes == x_bytes // 8
        assert rise < x_bytes // 2


def blank(entries):
    """Destinations for a load of ``entries``: arrays of their shapes that
    hold none of their values."""
    return [(name, np.full(value.shape, -1.0, np.float32)) for name, value in entries]


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        entries = [
            ("encoder.stem.weight", rng.normal(size=(4, 1, 3, 3, 3)).astype(np.float32)),
            ("encoder.stem.bias", rng.normal(size=4).astype(np.float32)),
            ("opt.step", np.array([17.0], dtype=np.float32)),
        ]
        path = tmp_path / "m.ckp1"
        ckp.save_checkpoint(path, entries)
        loaded = blank(entries)
        arrays = [value for _, value in loaded]
        ckp.load_checkpoint(path, loaded)
        for (name, value), (_, got), array in zip(entries, loaded, arrays):
            assert got is array
            np.testing.assert_array_equal(got, value)
        # bytes stable across writes
        path2 = tmp_path / "m2.ckp1"
        ckp.save_checkpoint(path2, entries)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_checkpoint(self, tmp_path):
        path = tmp_path / "e.ckp1"
        ckp.save_checkpoint(path, [])
        assert path.read_bytes() == b"E2VCKP1\x00" + bytes(4)
        ckp.load_checkpoint(path, [])

    def test_layout(self, tmp_path):
        path = tmp_path / "l.ckp1"
        ckp.save_checkpoint(path, [("ab", np.array([1.0, 2.0], dtype=np.float32))])
        blob = path.read_bytes()
        assert blob[:8] == b"E2VCKP1\x00"
        assert np.frombuffer(blob, "<u4", 1, offset=8)[0] == 1
        assert np.frombuffer(blob, "<u2", 1, offset=12)[0] == 2
        assert blob[14:16] == b"ab"
        assert blob[16] == 1  # rank
        assert np.frombuffer(blob, "<u4", 1, offset=17)[0] == 2
        np.testing.assert_array_equal(
            np.frombuffer(blob, "<f4", 2, offset=21), [1.0, 2.0]
        )
        assert len(blob) == 29

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckp1"
        path.write_bytes(b"BADMAGIC" + b"\x00" * 8)
        with pytest.raises(FormatError):
            ckp.load_checkpoint(path, [])

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.ckp1"
        entries = [("x", np.zeros(3, dtype=np.float32))]
        ckp.save_checkpoint(path, entries)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            ckp.load_checkpoint(path, blank(entries))

    @pytest.mark.parametrize("cut", [2, 14, 18])  # into the payload, the dims, the name
    def test_truncated(self, tmp_path, cut):
        path = tmp_path / "x.ckp1"
        entries = [("x", np.zeros(3, dtype=np.float32))]
        ckp.save_checkpoint(path, entries)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(FormatError, match="truncated"):
            ckp.load_checkpoint(path, blank(entries))

    def test_scalar_rank_zero(self, tmp_path):
        path = tmp_path / "s.ckp1"
        ckp.save_checkpoint(path, [("s", np.array(3.25, np.float32))])
        loaded = blank([("s", np.zeros((), np.float32))])
        ckp.load_checkpoint(path, loaded)
        assert loaded[0][1].shape == ()
        assert loaded[0][1] == np.float32(3.25)

    @pytest.mark.parametrize("dests,match", [
        ([("a", (2,))], r"entry 1 is 'b', expected none"),
        ([("a", (2,)), ("b", (3,)), ("c", (1,))], "entry 2 is absent, expected 'c'"),
        ([("a", (2,)), ("c", (3,))], "entry 1 is 'b', expected 'c'"),
        ([("b", (3,)), ("a", (2,))], "entry 0 is 'a', expected 'b'"),
        ([("a", (2,)), ("b", (1, 3))], r"b: checkpoint shape \(3,\) != model shape \(1, 3\)"),
    ], ids=["fewer", "more", "renamed", "reordered", "reshaped"])
    def test_entries_other_than_the_destinations_are_data_errors(self, tmp_path, dests, match):
        path = tmp_path / "d.ckp1"
        ckp.save_checkpoint(path, [("a", np.ones(2, np.float32)), ("b", np.ones(3, np.float32))])
        with pytest.raises(DataError, match=match) as info:
            ckp.load_checkpoint(path, [(n, np.zeros(shape, np.float32)) for n, shape in dests])
        assert not isinstance(info.value, FormatError)
        assert str(path) in str(info.value)

    def test_name_that_is_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "u.ckp1"
        entries = [("ab", np.ones(2, np.float32))]
        ckp.save_checkpoint(path, entries)
        path.write_bytes(path.read_bytes().replace(b"ab", b"a\xff"))
        with pytest.raises(DataError, match=r"entry 0 is 'a\\xff', expected 'ab'"):
            ckp.load_checkpoint(path, blank(entries))

    @pytest.mark.parametrize("value", [
        np.zeros(3, np.float64), np.zeros(6, np.float32)[::2], np.zeros(3, ">f4"), np.float32(1.0),
    ], ids=["float64", "strided", "big-endian", "numpy-scalar"])
    def test_entry_must_be_a_contiguous_f4_array(self, tmp_path, value):
        path = tmp_path / "c.ckp1"
        with pytest.raises(InternalError, match="x is not a C-contiguous <f4 array"):
            ckp.save_checkpoint(path, [("x", value)])
        assert not path.exists()
        ckp.save_checkpoint(path, [("x", np.zeros(np.shape(value), np.float32))])
        with pytest.raises(InternalError, match="x is not a C-contiguous <f4 array"):
            ckp.load_checkpoint(path, [("x", value)])


# runs in a fresh interpreter, once to save and once to load, since VmHWM
# only rises; prints the checkpoint's entry bytes and the step's peak rise
CHECKPOINT_PEAK_SCRIPT = """
import sys
import numpy as np
from ev2vox.checkpoint import load_checkpoint, save_checkpoint

def status_bytes(key):
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith(key + ":"))
    return int(line.split()[1]) * 1024

step, path = sys.argv[1:]
shapes = [(4, 2**20)] * 4 + [(3, 5), ()]  # 64 MiB and change
fill = (lambda i: i) if step == "save" else (lambda i: -1)  # every page resident
entries = [(f"w{i}", np.full(s, fill(i), np.float32)) for i, s in enumerate(shapes)]
before = status_bytes("VmRSS")
(save_checkpoint if step == "save" else load_checkpoint)(path, entries)
rise = status_bytes("VmHWM") - before
assert all((value == i).all() for i, (_, value) in enumerate(entries))
print(sum(value.nbytes for _, value in entries), rise)
"""


class TestCheckpointMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status for the peak resident set size")
    def test_save_and_load_make_no_checkpoint_sized_copy(self, tmp_path):
        src = os.path.dirname(os.path.dirname(nn.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        path = str(tmp_path / "big.ckpt")
        for step in ("save", "load"):
            out = subprocess.run([sys.executable, "-c", CHECKPOINT_PEAK_SCRIPT, step, path],
                                 env=env, capture_output=True, text=True, check=True,
                                 timeout=120).stdout
            nbytes, rise = (int(v) for v in out.split())
            assert nbytes >= 64 * 2**20
            assert rise < nbytes // 4, step
