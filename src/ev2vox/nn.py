"""Rank-5 tensor layers with explicit forward and backward passes.

Tensors are plain numpy arrays shaped (N, C, D, H, W), float32 by default
with a float64 mode for gradient verification. There is no autodiff tape:
each layer caches what its own backward needs during forward, and model
code threads gradients through layers by hand in reverse order.

The convolution engine works channels-first: per sample and depth chunk,
the kernel reshaped to (cout, cin*kd*kh*kw) multiplies a patch matrix with
rows (c, kd, kh, kw) and columns (d, h, w), copied out of a
``sliding_window_view`` along w, so the product is already NCDHW. A 1x1x1
kernel needs no window view; at unit stride its patches are the input. The
input gradient multiplies the transposed kernel by the output gradient and
adds each tap's (d, h, w) block back with one strided slice addition; the
weight gradient is one product per chunk over all samples. Transposed
convolution reuses the three routines with forward and input gradient
swapped. Chunking keeps a patch matrix under a fixed byte budget.

Every layer, and every block built from layers, is a ``Module``. A module
holds no registry: its parameters, buffers and submodules are found by
walking its instance attributes (and lists of them) in insertion order.
That order is the checkpoint order, so assigning attributes in a
different order in ``__init__`` changes the bytes of every saved model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .errors import ShapeMismatch, ZeroBatchVolume
from .rng import ParameterRng

# Byte budget of one materialized patch matrix; convs chunk over output
# depth to meet it, down to one depth plane per chunk.
MAX_PATCH_BYTES = 256 * 2**20


def as_triple(v) -> tuple[int, int, int]:
    if isinstance(v, int):
        return (v, v, v)
    t = tuple(int(a) for a in v)
    if len(t) != 3:
        raise ShapeMismatch(f"expected an int or 3-tuple, got {v!r}")
    return t


def _require_rank5(x: np.ndarray, context: str) -> None:
    if x.ndim != 5:
        raise ShapeMismatch(f"{context}: expected rank-5 tensor, got shape {x.shape}")
    if x.size == 0:
        raise ZeroBatchVolume(f"{context}: tensor has a zero-sized axis {x.shape}")


class Parameter:
    """A learnable array paired with its gradient accumulator."""

    def __init__(self, value: np.ndarray, name: str, decay: bool = True):
        self.value = value
        self.grad = np.zeros_like(value)
        self.name = name
        # weight decay is skipped for norm gains/shifts and biases
        self.decay = decay

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class Module:
    """Base of all layers and blocks: state found by one attribute walk.

    An attribute holding a ``Parameter`` is a parameter; one holding a
    ``Module`` is a child, walked in turn; a list is walked item by item.
    A module with running statistics names them in ``buffer_names`` and
    prefixes them with its ``name`` in ``buffers()``. Subclasses define
    their own ``forward``/``backward``; the base class has neither.
    """

    training = True
    buffer_names: tuple[str, ...] = ()

    def _walk(self):
        """Parameters and submodules below self, depth-first in attribute order."""
        for value in vars(self).values():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Parameter):
                    yield item
                elif isinstance(item, Module):
                    yield item
                    yield from item._walk()

    def modules(self) -> list["Module"]:
        return [self] + [m for m in self._walk() if isinstance(m, Module)]

    def parameters(self) -> list[Parameter]:
        return [p for p in self._walk() if isinstance(p, Parameter)]

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return [
            (f"{m.name}.{b}", getattr(m, b)) for m in self.modules() for b in m.buffer_names
        ]

    def train(self, mode: bool = True):
        """Set ``training`` on this module and every submodule."""
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)


@dataclass
class LayerSpec:
    """Declarative description of one layer for shape plumbing.

    ``out_dims`` computes the spatial output dims for given input dims and
    raises if any would be non-positive, so configuration errors surface
    at build time rather than mid-forward.
    """

    kind: str
    kernel: tuple[int, int, int] = (1, 1, 1)
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: tuple[int, int, int] = (0, 0, 0)
    in_channels: int = 0
    out_channels: int = 0
    target: tuple[int, int, int] | None = None

    _KINDS = ("conv3d", "deconv3d", "maxpool3d", "adaptive_resize")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ShapeMismatch(f"unknown layer kind {self.kind!r}")

    def out_dims(self, in_dims: tuple[int, int, int]) -> tuple[int, int, int]:
        if self.kind == "adaptive_resize":
            out = self.target
        elif self.kind == "deconv3d":
            out = tuple(
                (d - 1) * s - 2 * p + k
                for d, k, s, p in zip(in_dims, self.kernel, self.stride, self.padding)
            )
        else:
            out = tuple(
                (d + 2 * p - k) // s + 1
                for d, k, s, p in zip(in_dims, self.kernel, self.stride, self.padding)
            )
        if any(d <= 0 for d in out):
            raise ShapeMismatch(
                f"{self.kind} with kernel={self.kernel} stride={self.stride} "
                f"padding={self.padding} maps {in_dims} to non-positive dims {out}"
            )
        return out


# Convolution core


def _pad_spatial(x: np.ndarray, padding, value: float = 0.0) -> np.ndarray:
    pd, ph, pw = padding
    if pd == ph == pw == 0:
        return x
    return np.pad(
        x,
        ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)),
        constant_values=value,
    )


def _chunk_ranges(rows: int, cols_per_depth: int, itemsize: int, out_depth: int):
    """Output-depth ranges whose (rows, cols) patch matrix fits MAX_PATCH_BYTES."""
    budget_cols = max(1, MAX_PATCH_BYTES // max(1, rows * itemsize))
    step = max(1, budget_cols // max(1, cols_per_depth))
    for d0 in range(0, out_depth, step):
        yield d0, min(out_depth, d0 + step)


def _windows(xp: np.ndarray, kernel, stride, d0: int, d1: int) -> np.ndarray:
    """Windows of output depths d0:d1 as an (n, c, kd, kh, kw, d, h, w) view."""
    kd, kh, kw = kernel
    sd, sh, sw = stride
    xs = xp[:, :, d0 * sd : (d1 - 1) * sd + kd]
    if kd == kh == kw == 1:
        return xs[:, :, None, None, None, ::sd, ::sh, ::sw]
    win = sliding_window_view(xs, kernel, axis=(2, 3, 4))[:, :, ::sd, ::sh, ::sw]
    return win.transpose(0, 1, 5, 6, 7, 2, 3, 4)


def conv3d_core_forward(x, weight, stride, padding):
    n, cin, d, h, w = x.shape
    cout, cin_w, kd, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeMismatch(f"input has {cin} channels, kernel expects {cin_w}")
    spec = LayerSpec("conv3d", (kd, kh, kw), stride, padding)
    do, ho, wo = spec.out_dims((d, h, w))
    xp = _pad_spatial(x, padding)
    wmat = weight.reshape(cout, -1)
    k = wmat.shape[1]
    y = np.empty((n, cout, do, ho, wo), dtype=np.result_type(x, weight))
    for d0, d1 in _chunk_ranges(k, n * ho * wo, x.itemsize, do):
        win = _windows(xp, (kd, kh, kw), stride, d0, d1)
        # (d, h, w) of a depth slice merge into a view, so out= writes into y
        np.matmul(wmat, win.reshape(n, k, -1), out=y[:, :, d0:d1].reshape(n, cout, -1))
    return y


def conv3d_core_input_grad(grad_out, weight, stride, padding, in_dims):
    """Gradient w.r.t. the (unpadded) convolution input."""
    n, cout, do, ho, wo = grad_out.shape
    cout_w, cin, kd, kh, kw = weight.shape
    if cout != cout_w:
        raise ShapeMismatch(f"grad has {cout} channels, kernel expects {cout_w}")
    d, h, w = in_dims
    pd, ph, pw = padding
    sd, sh, sw = stride
    wmat_t = weight.reshape(cout, -1).T
    gxp = np.zeros(
        (n, cin, d + 2 * pd, h + 2 * ph, w + 2 * pw),
        dtype=np.result_type(grad_out, weight),
    )
    for d0, d1 in _chunk_ranges(wmat_t.shape[0], n * ho * wo, grad_out.itemsize, do):
        g = grad_out[:, :, d0:d1].reshape(n, cout, -1)
        gp = (wmat_t @ g).reshape(n, cin, kd, kh, kw, d1 - d0, ho, wo)
        for a in range(kd):
            dsl = slice(d0 * sd + a, (d1 - 1) * sd + a + 1, sd)
            for b in range(kh):
                hsl = slice(b, b + (ho - 1) * sh + 1, sh)
                for c in range(kw):
                    wsl = slice(c, c + (wo - 1) * sw + 1, sw)
                    gxp[:, :, dsl, hsl, wsl] += gp[:, :, a, b, c]
    return np.ascontiguousarray(gxp[:, :, pd : pd + d, ph : ph + h, pw : pw + w])


def conv3d_core_weight_grad(x, grad_out, stride, padding, kernel):
    n, cin, d, h, w = x.shape
    n_g, cout, do, ho, wo = grad_out.shape
    if n != n_g:
        raise ShapeMismatch("input and gradient batch sizes differ")
    kd, kh, kw = kernel
    xp = _pad_spatial(x, padding)
    k = cin * kd * kh * kw
    gw = np.zeros((cout, k), dtype=np.result_type(x, grad_out))
    for d0, d1 in _chunk_ranges(k, n * ho * wo, x.itemsize, do):
        # (K, n*L) patches against the (cout, n*L) gradient; with one sample
        # at unit stride a 1x1x1 conv's both are views
        win = _windows(xp, kernel, stride, d0, d1)
        p = win.transpose(1, 2, 3, 4, 0, 5, 6, 7).reshape(k, -1)
        gw += grad_out[:, :, d0:d1].transpose(1, 0, 2, 3, 4).reshape(cout, -1) @ p.T
    return gw.reshape(cout, cin, kd, kh, kw)


# Layers


class Conv3d(Module):
    """3D cross-correlation with optional bias."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel,
        stride=1,
        padding=0,
        bias: bool = True,
        name: str = "conv",
        seed: int = 0,
        dtype=np.float32,
    ):
        kernel = as_triple(kernel)
        self.spec = LayerSpec(
            "conv3d", kernel, as_triple(stride), as_triple(padding),
            in_channels, out_channels,
        )
        fan_in = in_channels * kernel[0] * kernel[1] * kernel[2]
        bound = np.sqrt(6.0 / fan_in)
        rng = ParameterRng(seed, f"{name}.weight")
        w = rng.uniform(out_channels * fan_in, -bound, bound).astype(dtype)
        self.weight = Parameter(
            w.reshape(out_channels, in_channels, *kernel), f"{name}.weight"
        )
        self.bias = (
            Parameter(np.zeros(out_channels, dtype=dtype), f"{name}.bias", decay=False)
            if bias
            else None
        )
        self._x = None

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        _require_rank5(x, "conv3d")
        if x.shape[1] != self.spec.in_channels:
            raise ShapeMismatch(
                f"conv3d expects {self.spec.in_channels} channels, got {x.shape[1]}"
            )
        self._x = x if remember else None
        y = conv3d_core_forward(x, self.weight.value, self.spec.stride, self.spec.padding)
        if self.bias is not None:
            y += self.bias.value[None, :, None, None, None]
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ShapeMismatch("conv3d backward called without a cached forward")
        x = self._x
        self.weight.grad += conv3d_core_weight_grad(
            x, grad_out, self.spec.stride, self.spec.padding, self.spec.kernel
        )
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=(0, 2, 3, 4))
        return conv3d_core_input_grad(
            grad_out, self.weight.value, self.spec.stride, self.spec.padding,
            x.shape[2:],
        )


class Deconv3d(Module):
    """Transposed 3D convolution (the adjoint of Conv3d's forward).

    Weight layout is (in_channels, out_channels, kd, kh, kw), which is
    exactly the conv layout with the channel roles swapped, so forward
    and backward reuse the convolution core with input-gradient and
    forward exchanged.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel,
        stride=1,
        padding=0,
        bias: bool = True,
        name: str = "deconv",
        seed: int = 0,
        dtype=np.float32,
    ):
        kernel = as_triple(kernel)
        self.spec = LayerSpec(
            "deconv3d", kernel, as_triple(stride), as_triple(padding),
            in_channels, out_channels,
        )
        fan_in = in_channels * kernel[0] * kernel[1] * kernel[2]
        bound = np.sqrt(6.0 / fan_in)
        rng = ParameterRng(seed, f"{name}.weight")
        w = rng.uniform(
            in_channels * out_channels * kernel[0] * kernel[1] * kernel[2],
            -bound,
            bound,
        ).astype(dtype)
        self.weight = Parameter(
            w.reshape(in_channels, out_channels, *kernel), f"{name}.weight"
        )
        self.bias = (
            Parameter(np.zeros(out_channels, dtype=dtype), f"{name}.bias", decay=False)
            if bias
            else None
        )
        self._x = None

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        _require_rank5(x, "deconv3d")
        if x.shape[1] != self.spec.in_channels:
            raise ShapeMismatch(
                f"deconv3d expects {self.spec.in_channels} channels, got {x.shape[1]}"
            )
        self._x = x if remember else None
        out_dims = self.spec.out_dims(x.shape[2:])
        y = conv3d_core_input_grad(
            x, self.weight.value, self.spec.stride, self.spec.padding, out_dims
        )
        if self.bias is not None:
            y += self.bias.value[None, :, None, None, None]
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ShapeMismatch("deconv3d backward called without a cached forward")
        x = self._x
        self.weight.grad += conv3d_core_weight_grad(
            grad_out, x, self.spec.stride, self.spec.padding, self.spec.kernel
        )
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=(0, 2, 3, 4))
        return conv3d_core_forward(
            grad_out, self.weight.value, self.spec.stride, self.spec.padding
        )


class BatchNorm3d(Module):
    """Per-channel standardization over (N, D, H, W) with affine output.

    Train mode uses batch statistics and updates running averages with
    momentum 0.1; eval mode applies the stored running statistics.
    """

    buffer_names = ("running_mean", "running_var")

    def __init__(
        self,
        channels: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        name: str = "norm",
        dtype=np.float32,
    ):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gain = Parameter(np.ones(channels, dtype=dtype), f"{name}.gain", decay=False)
        self.shift = Parameter(np.zeros(channels, dtype=dtype), f"{name}.shift", decay=False)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.name = name
        self._cache = None

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        _require_rank5(x, "norm")
        if x.shape[1] != self.channels:
            raise ShapeMismatch(f"norm expects {self.channels} channels, got {x.shape[1]}")
        axes = (0, 2, 3, 4)
        m = x.shape[0] * x.shape[2] * x.shape[3] * x.shape[4]
        if m == 0:
            raise ZeroBatchVolume("norm received an empty reduction volume")
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                (1.0 - self.momentum) * self.running_mean
                + self.momentum * mean.astype(np.float64)
            ).astype(np.float32)
            self.running_var = (
                (1.0 - self.momentum) * self.running_var
                + self.momentum * var.astype(np.float64)
            ).astype(np.float32)
        else:
            mean = self.running_mean.astype(x.dtype)
            var = self.running_var.astype(x.dtype)
        ivar = 1.0 / np.sqrt(var + self.eps)
        xhat = x - mean[None, :, None, None, None]
        xhat *= ivar[None, :, None, None, None]
        gain = self.gain.value[None, :, None, None, None]
        self._cache = (xhat, ivar, m) if remember else None
        if remember or np.result_type(xhat, gain) != xhat.dtype:
            y = gain * xhat
        else:
            # nothing keeps xhat and the output has its dtype: reuse it in place
            y = xhat
            y *= gain
        y += self.shift.value[None, :, None, None, None]
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeMismatch("norm backward called without a cached forward")
        xhat, ivar, m = self._cache
        axes = (0, 2, 3, 4)
        dshift = grad_out.sum(axis=axes)
        dgain = (grad_out * xhat).sum(axis=axes)
        self.shift.grad += dshift
        self.gain.grad += dgain
        gscale = (self.gain.value * ivar)[None, :, None, None, None]
        if self.training:
            return gscale * (
                grad_out
                - dshift[None, :, None, None, None] / m
                - xhat * dgain[None, :, None, None, None] / m
            )
        return gscale * grad_out


class ReLU(Module):
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        self._mask = (x > 0) if remember else None
        return np.maximum(x, 0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ShapeMismatch("relu backward called without a cached forward")
        return grad_out * self._mask


class Sigmoid(Module):
    def __init__(self):
        self._y = None

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        y = expit(x)
        self._y = y if remember else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise ShapeMismatch("sigmoid backward called without a cached forward")
        return grad_out * self._y * (1.0 - self._y)


class MaxPool3d(Module):
    """Max pooling with -inf padding and first-window-position tie-breaks."""

    def __init__(self, kernel, stride=None, padding=0):
        kernel = as_triple(kernel)
        stride = kernel if stride is None else as_triple(stride)
        self.spec = LayerSpec("maxpool3d", kernel, stride, as_triple(padding))
        self._cache = None

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        _require_rank5(x, "maxpool3d")
        kd, kh, kw = self.spec.kernel
        sd, sh, sw = self.spec.stride
        do, ho, wo = self.spec.out_dims(x.shape[2:])
        xp = _pad_spatial(x, self.spec.padding, value=-np.inf)
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
                    # strict > keeps the first of tied positions and never takes NaN
                    np.greater(plane, y, out=better)
                    np.copyto(y, plane, where=better)
                    if remember:
                        np.copyto(arg, offset, where=better)
                    offset += 1
        self._cache = (arg, x.shape) if remember else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeMismatch("maxpool3d backward called without a cached forward")
        arg, in_shape = self._cache
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


class AdaptiveResize3d(Module):
    """Nearest-neighbor resize to a fixed spatial target.

    Output cell i along an axis reads source cell floor(i * D / D').
    The backward pass scatter-adds gradients onto their source cells.
    """

    def __init__(self, target):
        self.spec = LayerSpec("adaptive_resize", target=as_triple(target))
        self._cache = None

    def _index_maps(self, in_dims):
        return tuple(
            (np.arange(t, dtype=np.int64) * d) // t
            for d, t in zip(in_dims, self.spec.target)
        )

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        _require_rank5(x, "adaptive_resize")
        di, hi, wi = self._index_maps(x.shape[2:])
        y = x[:, :, di[:, None, None], hi[None, :, None], wi[None, None, :]]
        self._cache = x.shape if remember else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeMismatch("adaptive_resize backward called without a cached forward")
        in_shape = self._cache
        di, hi, wi = self._index_maps(in_shape[2:])
        n, c = in_shape[0], in_shape[1]
        gx = np.zeros(in_shape, dtype=grad_out.dtype)
        ni = np.arange(n)[:, None, None, None, None]
        ci = np.arange(c)[None, :, None, None, None]
        np.add.at(
            gx,
            (ni, ci, di[None, None, :, None, None], hi[None, None, None, :, None],
             wi[None, None, None, None, :]),
            grad_out,
        )
        return gx


def concat_channels(parts: list[np.ndarray]) -> np.ndarray:
    """Forward of a channel concatenation; split_channels is its backward."""
    return np.concatenate(parts, axis=1)


def split_channels(grad: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    if sum(sizes) != grad.shape[1]:
        raise ShapeMismatch(
            f"cannot split {grad.shape[1]} channels into {sizes}"
        )
    edges = np.cumsum(sizes)[:-1]
    return [np.ascontiguousarray(p) for p in np.split(grad, edges, axis=1)]
