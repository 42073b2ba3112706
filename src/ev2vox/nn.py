"""Rank-5 tensor layers with explicit forward and backward passes.

Tensors are plain numpy arrays shaped (N, C, D, H, W), float32 by default
with a float64 mode for gradient verification. There is no autodiff tape:
each layer caches what its own backward needs during forward, and a
``Sequential`` chain runs its layers' backwards in reverse order, so a
block writes out only what a chain cannot express (a residual add, a
concatenation).

The convolution engine works channels-first: per sample and output block,
the kernel reshaped to (cout, cin*kd*kh*kw) multiplies a patch matrix with
rows (c, kd, kh, kw) and columns (d, h, w), copied out of a
``sliding_window_view`` along w, so the product is already NCDHW and lands
in the output through a view. A 1x1x1 kernel needs no window view; at unit
stride its patches are the input, used in place. At unit stride the input
gradient is itself such a forward: the output gradient, padded by k-1-p
(cropped where that is negative), convolved with the spatially flipped
kernel with its channel axes swapped. At any other
stride it multiplies the transposed kernel by the output gradient and adds
each tap's (d, h, w) block back with one strided slice addition. The
weight gradient is one product per block over all samples. Transposed
convolution reuses the three routines with forward and input gradient
swapped. Blocks keep one sample's patch matrix under a cache-sized byte
budget: whole output-depth planes while they fit, else slabs of h rows of
one plane. The forward and the weight gradient copy every block into one
buffer made for the largest, so a call faults in no fresh pages per block
and no buffer outlives its call.

Batch norm and ReLU write into their input's buffer: batch norm puts xhat
there (and, unless it remembers, its output too), ReLU its output. Every
model caller hands them a fresh array that nothing else holds (a conv's
output, a norm's output, a residual sum); a caller that reads its input
again afterwards passes a copy. Batch norm subtracts the mean once, in
place, and squares the deviations into one scratch array whose mean is
the variance, so its statistics are the bytes of ``x.mean`` and
``x.var(mean=)``.

Every layer, and every block built from layers, is a ``Module``. A module
holds no registry: its parameters, buffers and submodules are found by
walking its instance attributes (and lists of them) in insertion order.
That order is the checkpoint order, so assigning attributes in a
different order in ``__init__`` changes the bytes of every saved model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from .errors import ShapeMismatch, ZeroBatchVolume
from .rng import ParameterRng

# Byte budget of one sample's patch block, sized for cache: a conv takes
# whole output-depth planes per block while they fit, else slabs of h rows
# of one plane. A call copies its blocks into one buffer of n blocks at
# most, freed when it returns. 8 MiB was fastest or tied on every
# paper-scale conv shape in a sweep of 2, 4, 8 and 16 MiB.
MAX_PATCH_BYTES = 8 * 2**20

# BatchNorm3d's variance floor and running-statistics momentum
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


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
        # weight decay is skipped for norm gains/shifts and the head's offset
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


class Sequential(Module):
    """Layers run in order forward and in reverse backward; empty is the identity."""

    def __init__(self, *layers: Module):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, remember)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


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


def _pad_spatial(x: np.ndarray, padding) -> np.ndarray:
    pd, ph, pw = padding
    if pd == ph == pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))


def _blocks(rows: int, out_dims, itemsize: int):
    """Output blocks (d0, d1, h0, h1) whose one-sample patch matrix fits MAX_PATCH_BYTES.

    A block is whole depth planes while one sample's plane fits the
    budget, otherwise a slab of h rows of one plane (the last slab ragged).
    The first block is the largest.
    """
    do, ho, wo = out_dims
    cols = max(1, MAX_PATCH_BYTES // max(1, rows * itemsize))
    if cols >= ho * wo:
        step = cols // (ho * wo)
        for d0 in range(0, do, step):
            yield d0, min(do, d0 + step), 0, ho
        return
    step = max(1, cols // wo)
    for d0 in range(do):
        for h0 in range(0, ho, step):
            yield d0, d0 + 1, h0, min(ho, h0 + step)


def _windows(xp: np.ndarray, kernel, stride, block) -> np.ndarray:
    """Windows of one output block as an (n, c, kd, kh, kw, d, h, w) view."""
    kd, kh, kw = kernel
    sd, sh, sw = stride
    d0, d1, h0, h1 = block
    xs = xp[:, :, d0 * sd : (d1 - 1) * sd + kd, h0 * sh : (h1 - 1) * sh + kh]
    if kd == kh == kw == 1:
        return xs[:, :, None, None, None, ::sd, ::sh, ::sw]
    win = sliding_window_view(xs, kernel, axis=(2, 3, 4))[:, :, ::sd, ::sh, ::sw]
    return win.transpose(0, 1, 5, 6, 7, 2, 3, 4)


def _patch_blocks(xp: np.ndarray, kernel, stride, out_dims, axes=(0, 1, 2, 3, 4, 5, 6, 7)):
    """(block, patches) per output block of a conv over the padded input ``xp``.

    ``patches`` is the block's ``_windows`` transposed by ``axes``. They are
    copied into a prefix of one buffer, made for the first (largest) block
    and reused by the rest, except for a 1x1x1 unit-stride conv: its
    patches are its input, so its one block is a view.
    """
    if tuple(kernel) == (1, 1, 1) and tuple(stride) == (1, 1, 1):
        block = (0, out_dims[0], 0, out_dims[1])
        yield block, _windows(xp, kernel, stride, block).transpose(axes)
        return
    buf = None
    for block in _blocks(xp.shape[1] * math.prod(kernel), out_dims, xp.itemsize):
        win = _windows(xp, kernel, stride, block).transpose(axes)
        if buf is None:
            buf = np.empty(win.size, win.dtype)
        patches = buf[: win.size].reshape(win.shape)
        np.copyto(patches, win)
        yield block, patches


def conv3d_core_forward(x, weight, stride, padding):
    n, cin, d, h, w = x.shape
    cout, cin_w, kd, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeMismatch(f"input has {cin} channels, kernel expects {cin_w}")
    spec = LayerSpec("conv3d", (kd, kh, kw), stride, padding)
    out_dims = spec.out_dims((d, h, w))
    xp = _pad_spatial(x, padding)
    wmat = weight.reshape(cout, -1)
    k = wmat.shape[1]
    y = np.empty((n, cout, *out_dims), dtype=np.result_type(x, weight))
    for (d0, d1, h0, h1), p in _patch_blocks(xp, spec.kernel, stride, out_dims):
        # a block's (d, h, w) merge into a view, so out= writes into y
        np.matmul(wmat, p.reshape(n, k, -1), out=y[:, :, d0:d1, h0:h1].reshape(n, cout, -1))
    return y


def conv3d_core_input_grad(grad_out, weight, stride, padding, in_dims):
    """Gradient w.r.t. the (unpadded) convolution input."""
    n, cout, do, ho, wo = grad_out.shape
    cout_w, cin, kd, kh, kw = weight.shape
    if cout != cout_w:
        raise ShapeMismatch(f"grad has {cout} channels, kernel expects {cout_w}")
    if tuple(stride) == (1, 1, 1):
        # the adjoint of a unit-stride conv is a unit-stride conv of the
        # gradient with the flipped, channel-swapped kernel at padding
        # k-1-p; an axis where that is negative crops the gradient instead
        adjoint = [k - 1 - p for k, p in zip((kd, kh, kw), padding)]
        crop = tuple(slice(max(0, -a), size - max(0, -a)) for a, size in zip(adjoint, (do, ho, wo)))
        flipped = weight[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        return conv3d_core_forward(
            grad_out[(...,) + crop], flipped, stride, tuple(max(0, a) for a in adjoint)
        )
    d, h, w = in_dims
    pd, ph, pw = padding
    sd, sh, sw = stride
    wmat_t = weight.reshape(cout, -1).T
    gxp = np.zeros(
        (n, cin, d + 2 * pd, h + 2 * ph, w + 2 * pw),
        dtype=np.result_type(grad_out, weight),
    )
    for d0, d1, h0, h1 in _blocks(wmat_t.shape[0], (do, ho, wo), grad_out.itemsize):
        g = grad_out[:, :, d0:d1, h0:h1].reshape(n, cout, -1)
        gp = (wmat_t @ g).reshape(n, cin, kd, kh, kw, d1 - d0, h1 - h0, wo)
        for a in range(kd):
            dsl = slice(d0 * sd + a, (d1 - 1) * sd + a + 1, sd)
            for b in range(kh):
                hsl = slice(h0 * sh + b, (h1 - 1) * sh + b + 1, sh)
                for c in range(kw):
                    wsl = slice(c, c + (wo - 1) * sw + 1, sw)
                    gxp[:, :, dsl, hsl, wsl] += gp[:, :, a, b, c]
    return np.ascontiguousarray(gxp[:, :, pd : pd + d, ph : ph + h, pw : pw + w])


def conv3d_core_weight_grad(x, grad_out, stride, padding, kernel):
    n, cin, d, h, w = x.shape
    n_g, cout, do, ho, wo = grad_out.shape
    if n != n_g:
        raise ShapeMismatch("input and gradient batch sizes differ")
    xp = _pad_spatial(x, padding)
    k = cin * math.prod(kernel)
    gw = np.zeros((cout, k), dtype=np.result_type(x, grad_out))
    # (K, n*L) patches against the (cout, n*L) gradient; with one sample at
    # unit stride a 1x1x1 conv's both are views
    patch_order = (1, 2, 3, 4, 0, 5, 6, 7)
    for (d0, d1, h0, h1), p in _patch_blocks(xp, kernel, stride, (do, ho, wo), patch_order):
        g = grad_out[:, :, d0:d1, h0:h1].transpose(1, 0, 2, 3, 4).reshape(cout, -1)
        gw += g @ p.reshape(k, -1).T
    return gw.reshape(cout, cin, *kernel)


# Layers


class Conv3d(Module):
    """3D cross-correlation with no additive term.

    Every conv but the decoder head feeds a batch norm, whose mean
    subtraction cancels any per-channel offset; the head's offset is a
    ``Decoder`` parameter.

    ``kind`` names the ``LayerSpec`` kind and fixes the weight layout:
    (out_channels, in_channels, kd, kh, kw) here, channel axes swapped for
    ``Deconv3d``. Each class keeps its own ``forward``/``backward``.
    """

    kind = "conv3d"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel,
        stride=1,
        padding=0,
        name: str = "conv",
        seed: int = 0,
        dtype=np.float32,
    ):
        kernel = as_triple(kernel)
        self.spec = LayerSpec(
            self.kind, kernel, as_triple(stride), as_triple(padding),
            in_channels, out_channels,
        )
        fan_in = in_channels * kernel[0] * kernel[1] * kernel[2]
        bound = np.sqrt(6.0 / fan_in)
        rng = ParameterRng(seed, f"{name}.weight")
        w = rng.uniform(out_channels * fan_in, -bound, bound).astype(dtype)
        channels = (in_channels, out_channels)
        if self.kind == "conv3d":
            channels = channels[::-1]
        self.weight = Parameter(w.reshape(*channels, *kernel), f"{name}.weight")
        self._x = None

    def _cache_input(self, x: np.ndarray, remember: bool) -> None:
        _require_rank5(x, self.kind)
        if x.shape[1] != self.spec.in_channels:
            raise ShapeMismatch(
                f"{self.kind} expects {self.spec.in_channels} channels, got {x.shape[1]}"
            )
        self._x = x if remember else None

    def _cached_input(self) -> np.ndarray:
        if self._x is None:
            raise ShapeMismatch(f"{self.kind} backward called without a cached forward")
        return self._x

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        self._cache_input(x, remember)
        return conv3d_core_forward(x, self.weight.value, self.spec.stride, self.spec.padding)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._cached_input()
        self.weight.grad += conv3d_core_weight_grad(
            x, grad_out, self.spec.stride, self.spec.padding, self.spec.kernel
        )
        return conv3d_core_input_grad(
            grad_out, self.weight.value, self.spec.stride, self.spec.padding,
            x.shape[2:],
        )


class Deconv3d(Conv3d):
    """Transposed 3D convolution (the adjoint of Conv3d's forward).

    Weight layout is (in_channels, out_channels, kd, kh, kw), which is
    exactly the conv layout with the channel roles swapped, so forward
    and backward reuse the convolution core with input-gradient and
    forward exchanged.
    """

    kind = "deconv3d"

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        self._cache_input(x, remember)
        out_dims = self.spec.out_dims(x.shape[2:])
        return conv3d_core_input_grad(
            x, self.weight.value, self.spec.stride, self.spec.padding, out_dims
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._cached_input()
        self.weight.grad += conv3d_core_weight_grad(
            grad_out, x, self.spec.stride, self.spec.padding, self.spec.kernel
        )
        return conv3d_core_forward(
            grad_out, self.weight.value, self.spec.stride, self.spec.padding
        )


class BatchNorm3d(Module):
    """Per-channel standardization over (N, D, H, W) with affine output.

    Train mode uses batch statistics and updates running averages with
    momentum ``BN_MOMENTUM``; eval mode applies the stored running
    statistics. The input's buffer takes xhat, and the output too unless
    ``remember`` keeps xhat for the backward or the parameters are wider
    than the input.
    """

    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, name: str = "norm", dtype=np.float32):
        self.channels = channels
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
        per_channel = (None, slice(None), None, None, None)
        mean = x.mean(axis=axes) if self.training else self.running_mean.astype(x.dtype)
        xhat = np.subtract(x, mean[per_channel], out=x)
        squares = None
        if self.training:
            # the mean of the squared deviations is x.var(mean=), bit for bit
            squares = np.square(xhat)
            var = squares.mean(axis=axes)
            self.running_mean = (
                (1.0 - BN_MOMENTUM) * self.running_mean
                + BN_MOMENTUM * mean.astype(np.float64)
            ).astype(np.float32)
            self.running_var = (
                (1.0 - BN_MOMENTUM) * self.running_var
                + BN_MOMENTUM * var.astype(np.float64)
            ).astype(np.float32)
        else:
            var = self.running_var.astype(x.dtype)
        ivar = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= ivar[per_channel]
        gain = self.gain.value[per_channel]
        if np.result_type(xhat, gain) != xhat.dtype:
            y = gain * xhat
        elif remember:
            # xhat stays for the backward; the squares' buffer, if any, is free
            y = np.multiply(gain, xhat, out=squares)
        else:
            y = np.multiply(gain, xhat, out=xhat)
        y += self.shift.value[per_channel]
        self._cache = (xhat, ivar, m) if remember else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeMismatch("norm backward called without a cached forward")
        xhat, ivar, m = self._cache
        axes = (0, 2, 3, 4)
        dshift = grad_out.sum(axis=axes)
        gscale = (self.gain.value * ivar)[None, :, None, None, None]
        out = np.multiply(grad_out, xhat, dtype=np.result_type(grad_out, xhat, gscale))
        dgain = out.sum(axis=axes)
        self.shift.grad += dshift
        self.gain.grad += dgain
        if not self.training:
            return gscale * grad_out
        # gscale * (grad_out - dshift/m - xhat*dgain/m), built in the buffer
        # that held grad_out*xhat
        np.multiply(xhat, (dgain / m)[None, :, None, None, None], out=out)
        np.subtract(grad_out, out, out=out)
        out -= (dshift / m)[None, :, None, None, None]
        out *= gscale
        return out


class ReLU(Module):
    """max(x, 0), written into the input's buffer."""

    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        self._mask = (x > 0) if remember else None
        return np.maximum(x, 0, out=x)

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


def _max_pass(x, arg, axis, kernel, stride, padding, size, scale, remember):
    """Max over one axis's ``kernel`` taps at ``stride``, first of tied taps winning.

    A tap that lands in the padding is skipped for that output: its -inf
    could never win. Strict > never takes NaN, and a window with nothing
    above -inf keeps -inf. With ``remember`` the result carries the winning
    tap's index times ``scale`` (the tap count of the passes before) plus
    ``arg``, the winner's offset from those passes (None in the first).
    Tap t's offsets lie in [t*scale, (t+1)*scale), above every earlier
    tap's, so the winner's is the largest of those its taps won with: a
    maximum over offsets masked to zero, with no branch per element.
    """
    shape = x.shape[:axis] + (size,) + x.shape[axis + 1 :]
    y = np.full(shape, -np.inf, dtype=x.dtype)
    better = np.empty(shape, dtype=bool)
    out_arg = np.zeros(shape, dtype=np.int16) if remember else None
    offset = np.empty(shape, dtype=np.int16) if remember else None
    for t in range(kernel):
        # outputs o whose tap reads o*stride + t - padding inside x
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


class MaxPool3d(Module):
    """Max pooling with -inf padding and first-window-position tie-breaks.

    The forward takes three 1-D passes, along w, then h, then d, each over
    clipped slices of the unpadded input. Every pass keeps the first of
    tied taps and never takes NaN, so the last pass picks the
    lexicographically first (a, b, c) window offset holding the maximum:
    the value and the tie-break of a scan over all kd*kh*kw taps.
    """

    def __init__(self, kernel, stride=None, padding=0):
        kernel = as_triple(kernel)
        stride = kernel if stride is None else as_triple(stride)
        self.spec = LayerSpec("maxpool3d", kernel, stride, as_triple(padding))
        self._cache = None

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        _require_rank5(x, "maxpool3d")
        out_dims = self.spec.out_dims(x.shape[2:])
        kernel = self.spec.kernel
        y, arg = x, None
        for i in (2, 1, 0):
            y, arg = _max_pass(
                y, arg, i + 2, kernel[i], self.spec.stride[i], self.spec.padding[i],
                out_dims[i], math.prod(kernel[i + 1 :]), remember,
            )
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
    The forward gathers with one ``np.take`` per resized axis, innermost
    first: the element-wise gather along w runs before an upsample grows
    the outer axes, and the later gathers copy whole rows and planes (the
    paper's 4x8x8 -> 32^3 resize makes 8 and 32 MiB intermediates, not 16
    and 64). The map is monotone, so the backward pass sums each source
    cell's run of output cells with one ``np.add.reduceat`` per resized
    axis.
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
        y = x
        for axis, idx in reversed(list(enumerate(self._index_maps(x.shape[2:]), start=2))):
            if len(idx) != x.shape[axis]:  # an axis that keeps its size is left alone
                y = np.take(y, idx, axis=axis)
        self._cache = x.shape if remember else None
        return x.copy() if y is x else y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeMismatch("adaptive_resize backward called without a cached forward")
        in_shape = self._cache
        g = grad_out
        for axis, idx in enumerate(self._index_maps(in_shape[2:]), start=2):
            size = in_shape[axis]
            if len(idx) == size:  # floor(i * D / D) = i: nothing to sum
                continue
            sources, starts = np.unique(idx, return_index=True)
            summed = np.add.reduceat(g, starts, axis=axis)
            if len(sources) < size:  # a downsample skips some source cells
                g = np.zeros(summed.shape[:axis] + (size,) + summed.shape[axis + 1 :], g.dtype)
                g[(slice(None),) * axis + (sources,)] = summed
            else:
                g = summed
        return g.copy() if g is grad_out else g


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
