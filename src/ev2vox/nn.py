"""Rank-5 tensor layers with explicit forward and backward passes.

Tensors are plain numpy arrays shaped (N, C, D, H, W); parameters are
float32, and a layer computes in its operands' dtype, so gradient checks
recast them to float64. There is no autodiff tape: a remembered forward
keeps what its backward needs in the ``Module.saved`` slot, which that
backward empties, and a ``Sequential`` chain runs its layers' backwards
in reverse order, so a block writes out only what a chain cannot express
(a residual add, a concatenation).

The convolution engine works channels-first: per sample and output block,
the kernel reshaped to (cout, cin*kd*kh*kw) multiplies a patch matrix with
rows (c, kd, kh, kw) and columns (d, h, w), so the product is already
NCDHW and lands in the output through a view. The patches are copied out
of a ``sliding_window_view`` of the block's slab: the rows of the
zero-padded input that the block reads. No padded input is ever built:
without padding the slab is a view of the input, otherwise each block's
slab is written into one buffer, its halo strips zeroed and its input
cells copied. A 1x1x1 kernel needs no window view; at unit stride its
patches are its slab, used in place. At unit stride the input gradient is
itself such a forward: the output gradient, at padding k-1-p (cropped
where that is negative), convolved with the spatially flipped kernel with
its channel axes swapped. At any other stride it multiplies the transposed
kernel by the output gradient and adds each tap's (d, h, w) block into the
unpadded input gradient with one strided slice addition, clipped to the
outputs whose tap lands inside the input. The weight gradient is one
product per block over all samples. Transposed convolution reuses the
three routines with forward and input gradient swapped. Blocks keep one
sample's patch matrix under a cache-sized byte budget: whole output-depth
planes while they fit, else slabs of h rows of one plane. The forward and
the weight gradient copy every block's slab and patches into buffers made
for the largest, so a call faults in no fresh pages per block and no
buffer outlives its call.

Batch norm and ReLU write into their input's buffer: batch norm puts xhat
there (and, unless it remembers, its output too), ReLU its output. Every
model caller hands them a fresh array that nothing else holds (a conv's
output, a norm's output, a residual sum); a caller that reads its input
again afterwards passes a copy. Batch norm and max pooling work on a
tensor larger than the same byte budget one block at a time, a block
being one sample's slab of whole channels, so no scratch array grows
with the input. Batch norm subtracts the mean in place and squares each
block's deviations into one budget-sized scratch buffer; it sums them per
channel one sample at a time, in sample order, as numpy reduces the
whole tensor, so its statistics are the bytes of ``x.mean`` and
``x.var(mean=)``. Max pooling's backward walks the forward's clipped
taps, each adding what it won into the input slice it read.

The float32 sigmoid is 1 / (1 + expf(-x)) in float32, with expf written
in numpy float64 as glibc's table-driven expf computes it (a 32-entry
table of 2^(i/32) and a cubic in the remainder, one rounding to float32
at the end). Its bytes are those the C expression gives under glibc 2.36
for every input, on any host, with no C library's exp called;
``tests/check_sigmoid_exhaustive.py`` compares all 2^32 inputs with a
compiled sigmoid that calls the host's expf.

Every layer, and every block built from layers, is a ``Module``. A module
holds no registry: its parameters, buffers and submodules are found by
walking its instance attributes (and lists of them) in insertion order.
That order is the checkpoint order, so assigning attributes in a
different order in ``__init__`` changes the bytes of every saved model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng
from .errors import InternalError

# Byte budget of one block, sized for cache. A conv's block is one sample's
# patch matrix: whole output-depth planes while they fit, else slabs of h
# rows of one plane; a call copies its blocks into one buffer of n blocks
# at most, and the padded input rows they read into one slab buffer, both
# freed when it returns. Batch norm and max pooling cut a larger tensor
# into slabs of one sample's channels (see _slabs). 8 MiB was fastest or
# tied on every paper-scale conv shape in a sweep of 2, 4, 8 and 16 MiB.
MAX_PATCH_BYTES = 8 * 2**20

# BatchNorm3d's variance floor and running-statistics momentum
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def as_triple(v) -> tuple[int, int, int]:
    if isinstance(v, int):
        return (v, v, v)
    t = tuple(int(a) for a in v)
    if len(t) != 3:
        raise InternalError(f"expected an int or 3-tuple, got {v!r}")
    return t


def _require_rank5(x: np.ndarray, context: str) -> None:
    if x.ndim != 5:
        raise InternalError(f"{context}: expected rank-5 tensor, got shape {x.shape}")
    if x.size == 0:
        raise InternalError(f"{context}: tensor has a zero-sized axis {x.shape}")


class Parameter:
    """A learnable array paired with its gradient accumulator.

    ``grad`` reads as zeros but costs no memory until something writes it:
    it is allocated with ``np.zeros``, whose pages the OS maps, already
    zeroed, on first write, so a model that only runs forward never pays
    for its gradients.
    """

    def __init__(self, value: np.ndarray, name: str, decay: bool = True):
        self.value = value
        self.grad = np.zeros(value.shape, value.dtype)
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

    ``saved`` holds what a layer's backward needs, put there by a remembered
    forward and emptied by the backward that takes it. It is never a
    parameter, module or list, so the walk passes over it.
    """

    training = True
    buffer_names: tuple[str, ...] = ()
    saved = None

    def save_for_backward(self, value, remember: bool) -> None:
        self.saved = value if remember else None

    def take_saved(self):
        """What the last remembered forward saved, emptying the slot."""
        if self.saved is None:
            raise InternalError(f"{type(self).__name__} backward called without a cached forward")
        value, self.saved = self.saved, None
        return value

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
    raises if any would be non-positive. Only the forwards call it. The
    model pads each kernel of size k by k // 2, and its pool and deconvs
    never shrink a side below one cell, so no model config reaches that
    error; a layer built by hand can.
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
            raise InternalError(f"unknown layer kind {self.kind!r}")

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
            raise InternalError(
                f"{self.kind} with kernel={self.kernel} stride={self.stride} "
                f"padding={self.padding} maps {in_dims} to non-positive dims {out}"
            )
        return out


# Convolution core


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


def _slabs(x: np.ndarray):
    """(samples, channels) index pairs cutting ``x`` into blocks within MAX_PATCH_BYTES.

    A tensor within the budget is one block. Otherwise a block is one
    sample's slab of as many whole channels as fit (at least one), the last
    slab ragged.
    """
    if x.nbytes <= MAX_PATCH_BYTES:
        yield slice(None), slice(None)
        return
    n, c = x.shape[:2]
    step = max(1, MAX_PATCH_BYTES // (x.itemsize * math.prod(x.shape[2:])))
    for i in range(n):
        for c0 in range(0, c, step):
            yield slice(i, i + 1), slice(c0, c0 + step)


def _tap(t, stride, padding, size, o0, o1):
    """Outputs [lo, hi) of [o0, o1) whose tap ``t`` lands inside an axis of ``size``
    input cells, and the slice of the cells they read there."""
    lo = max(o0, -((t - padding) // stride))
    hi = min(o1, (size - 1 - t + padding) // stride + 1)
    start = lo * stride + t - padding
    return lo, hi, slice(start, start + (hi - lo - 1) * stride + 1, stride)


def _fill_slab(slab, x, starts, padding):
    """Write into ``slab`` the zero-padded input's cells from padded index ``starts`` on.

    Only the halo strips (the cells that fall in the padding) are zeroed:
    the rows outside the input along d, then along h within the rest, then
    along w; the input's cells are copied into what remains.
    """
    inner, src = [], []
    for size, start, p, n_in in zip(slab.shape[2:], starts, padding, x.shape[2:]):
        lo = min(size, max(0, p - start))
        hi = max(lo, min(size, n_in + p - start))
        inner.append(slice(lo, hi))
        src.append(slice(start + lo - p, start + hi - p))
    for axis, cut in enumerate(inner):
        lead = (slice(None), slice(None), *inner[:axis])
        slab[(*lead, slice(None, cut.start))] = 0
        slab[(*lead, slice(cut.stop, None))] = 0
    slab[(..., *inner)] = x[(..., *src)]


def _patch_blocks(x, kernel, stride, padding, out_dims, axes=(0, 1, 2, 3, 4, 5, 6, 7)):
    """(block, patches) per output block of a conv over ``x`` zero-padded by ``padding``.

    A block's windows are cut from a slab, the rows of the padded input the
    block reads: a view of ``x`` without padding, else a copy written into
    one buffer made for the first (largest) block and reused by the rest,
    so no padded input is ever built. ``patches`` is the slab's
    (n, c, kd, kh, kw, d, h, w) windows transposed by ``axes``, copied into
    a prefix of one buffer made the same way, except for a 1x1x1
    unit-stride conv: its patches are its slab, so its one block is a view.
    """
    n, c, _, _, w = x.shape
    kd, kh, kw = kernel
    sd, sh, sw = stride
    pointwise = tuple(kernel) == (1, 1, 1) and tuple(stride) == (1, 1, 1)
    if pointwise:
        blocks = [(0, out_dims[0], 0, out_dims[1])]
    else:
        blocks = _blocks(c * kd * kh * kw, out_dims, x.itemsize)
    slab_buf = patch_buf = None
    for block in blocks:
        d0, d1, h0, h1 = block
        d_rows = slice(d0 * sd, (d1 - 1) * sd + kd)
        h_rows = slice(h0 * sh, (h1 - 1) * sh + kh)
        if not any(padding):
            slab = x[:, :, d_rows, h_rows]
        else:
            shape = (n, c, d_rows.stop - d_rows.start, h_rows.stop - h_rows.start,
                     w + 2 * padding[2])
            size = math.prod(shape)
            if slab_buf is None:
                slab_buf = np.empty(size, x.dtype)
            slab = slab_buf[:size].reshape(shape)
            _fill_slab(slab, x, (d_rows.start, h_rows.start, 0), padding)
        if kd == kh == kw == 1:
            win = slab[:, :, None, None, None, ::sd, ::sh, ::sw]
        else:
            win = sliding_window_view(slab, kernel, axis=(2, 3, 4))[:, :, ::sd, ::sh, ::sw]
            win = win.transpose(0, 1, 5, 6, 7, 2, 3, 4)
        win = win.transpose(axes)
        if pointwise:
            yield block, win
            return
        if patch_buf is None:
            patch_buf = np.empty(win.size, win.dtype)
        patches = patch_buf[: win.size].reshape(win.shape)
        np.copyto(patches, win)
        yield block, patches


def conv3d_core_forward(x, weight, stride, padding):
    n, cin, d, h, w = x.shape
    cout, cin_w, kd, kh, kw = weight.shape
    if cin != cin_w:
        raise InternalError(f"input has {cin} channels, kernel expects {cin_w}")
    spec = LayerSpec("conv3d", (kd, kh, kw), stride, padding)
    out_dims = spec.out_dims((d, h, w))
    wmat = weight.reshape(cout, -1)
    k = wmat.shape[1]
    y = np.empty((n, cout, *out_dims), dtype=np.result_type(x, weight))
    for (d0, d1, h0, h1), p in _patch_blocks(x, spec.kernel, stride, padding, out_dims):
        # a block's (d, h, w) merge into a view, so out= writes into y
        np.matmul(wmat, p.reshape(n, k, -1), out=y[:, :, d0:d1, h0:h1].reshape(n, cout, -1))
    return y


def conv3d_core_input_grad(grad_out, weight, stride, padding, in_dims):
    """Gradient w.r.t. the (unpadded) convolution input."""
    n, cout, do, ho, wo = grad_out.shape
    cout_w, cin, kd, kh, kw = weight.shape
    if cout != cout_w:
        raise InternalError(f"grad has {cout} channels, kernel expects {cout_w}")
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
    gx = np.zeros((n, cin, d, h, w), dtype=np.result_type(grad_out, weight))
    # each tap adds only the outputs whose read lands inside the input
    w_taps = [_tap(c, sw, pw, w, 0, wo) for c in range(kw)]
    for d0, d1, h0, h1 in _blocks(wmat_t.shape[0], (do, ho, wo), grad_out.itemsize):
        g = grad_out[:, :, d0:d1, h0:h1].reshape(n, cout, -1)
        gp = (wmat_t @ g).reshape(n, cin, kd, kh, kw, d1 - d0, h1 - h0, wo)
        for a in range(kd):
            a0, a1, dsl = _tap(a, sd, pd, d, d0, d1)
            for b in range(kh):
                b0, b1, hsl = _tap(b, sh, ph, h, h0, h1)
                for c, (c0, c1, wsl) in enumerate(w_taps):
                    if a0 < a1 and b0 < b1 and c0 < c1:
                        gx[:, :, dsl, hsl, wsl] += gp[
                            :, :, a, b, c, a0 - d0 : a1 - d0, b0 - h0 : b1 - h0, c0:c1
                        ]
    return gx


def conv3d_core_weight_grad(x, grad_out, stride, padding, kernel):
    n, cin, d, h, w = x.shape
    n_g, cout, do, ho, wo = grad_out.shape
    if n != n_g:
        raise InternalError("input and gradient batch sizes differ")
    k = cin * math.prod(kernel)
    gw = np.zeros((cout, k), dtype=np.result_type(x, grad_out))
    # (K, n*L) patches against the (cout, n*L) gradient; with one sample at
    # unit stride a 1x1x1 conv's both are views
    patch_order = (1, 2, 3, 4, 0, 5, 6, 7)
    for (d0, d1, h0, h1), p in _patch_blocks(x, kernel, stride, padding, (do, ho, wo), patch_order):
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
    ):
        kernel = as_triple(kernel)
        self.spec = LayerSpec(
            self.kind, kernel, as_triple(stride), as_triple(padding),
            in_channels, out_channels,
        )
        fan_in = in_channels * kernel[0] * kernel[1] * kernel[2]
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(rng.stream_key(seed, f"{name}.weight"), out_channels * fan_in,
                        -bound, bound, np.float32)
        channels = (in_channels, out_channels)
        if self.kind == "conv3d":
            channels = channels[::-1]
        self.weight = Parameter(w.reshape(*channels, *kernel), f"{name}.weight")

    def _check_input(self, x: np.ndarray) -> None:
        _require_rank5(x, self.kind)
        if x.shape[1] != self.spec.in_channels:
            raise InternalError(
                f"{self.kind} expects {self.spec.in_channels} channels, got {x.shape[1]}"
            )

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        self._check_input(x)
        self.save_for_backward(x, remember)
        return conv3d_core_forward(x, self.weight.value, self.spec.stride, self.spec.padding)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self.take_saved()
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
        self._check_input(x)
        self.save_for_backward(x, remember)
        out_dims = self.spec.out_dims(x.shape[2:])
        return conv3d_core_input_grad(
            x, self.weight.value, self.spec.stride, self.spec.padding, out_dims
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self.take_saved()
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
    ``remember`` keeps xhat for the backward; then the output is one fresh
    array. A tensor over ``MAX_PATCH_BYTES`` is normalized in ``_slabs``
    blocks, except with one channel: one pass sums each block's squared
    deviations in a budget-sized scratch buffer, a second scales and shifts
    the block.
    """

    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, name: str = "norm"):
        self.channels = channels
        self.gain = Parameter(np.ones(channels, np.float32), f"{name}.gain", decay=False)
        self.shift = Parameter(np.zeros(channels, np.float32), f"{name}.shift", decay=False)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.name = name

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        _require_rank5(x, "norm")
        if x.shape[1] != self.channels:
            raise InternalError(f"norm expects {self.channels} channels, got {x.shape[1]}")
        axes = (0, 2, 3, 4)
        m = x.shape[0] * x.shape[2] * x.shape[3] * x.shape[4]
        per_channel = (None, slice(None), None, None, None)
        # numpy sums a one-channel batch as one run, so it stays one block
        slabs = list(_slabs(x)) if self.channels > 1 else [(slice(None), slice(None))]
        if self.training:
            mean = x.mean(axis=axes)
            # each channel's squared deviations summed one (D, H, W) run per
            # sample, in sample order, then divided as np.mean divides: the
            # bytes of x.var(mean=)
            var = np.zeros_like(mean)
            squares = np.empty(x[slabs[0]].size, x.dtype)  # the first slab is the largest
            for n, c in slabs:
                xs = x[n, c]
                xs -= mean[c][per_channel]
                sq = np.square(xs, out=squares[: xs.size].reshape(xs.shape))
                var[c] += sq.sum(axis=axes)
            np.true_divide(var, np.intp(m), out=var, casting="unsafe")
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
        y = np.empty_like(x) if remember else x  # xhat stays in x for the backward
        for n, c in slabs:
            xs = x[n, c]
            if not self.training:
                xs -= mean[c][per_channel]
            xs *= ivar[c][per_channel]
            ys = np.multiply(self.gain.value[c][per_channel], xs, out=y[n, c])
            ys += self.shift.value[c][per_channel]
        self.save_for_backward((x, ivar, m), remember)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, ivar, m = self.take_saved()
        axes = (0, 2, 3, 4)
        dshift = grad_out.sum(axis=axes)
        gscale = (self.gain.value * ivar)[None, :, None, None, None]
        out = np.multiply(grad_out, xhat)
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

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        self.save_for_backward((x > 0) if remember else None, remember)
        return np.maximum(x, 0, out=x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self.take_saved()


# glibc's table-driven expf (sysdeps/ieee754/flt-32/e_expf.c, from Arm's
# optimized-routines): 2^(k/32) for k = round(x * 32/ln 2) is the table
# entry of k % 32 with k // 32 added to its exponent bits, and a cubic in
# the remainder r = x * 32/ln 2 - k gives 2^(r/32)
_EXPF_SHIFT = float.fromhex("0x1.8p+52")  # z + SHIFT rounds z to an integer in the low bits
_EXPF_INV_LN2_N = float.fromhex("0x1.71547652b82fep+5")  # RN(32 / ln 2)
_EXPF_C = tuple(float.fromhex(c) for c in ("0x1.c6af84b912394p-20", "0x1.ebfce50fac4f3p-13",
                                           "0x1.62e42ff0c52d6p-6"))
# the bits of RN(2^(i/32)) less i << 47, so adding k << 47 adds k // 32 to the exponent
_EXPF_TABLE = np.array([
    0x3FF0000000000000, 0x3FEFD9B0D3158574, 0x3FEFB5586CF9890F, 0x3FEF9301D0125B51,
    0x3FEF72B83C7D517B, 0x3FEF54873168B9AA, 0x3FEF387A6E756238, 0x3FEF1E9DF51FDEE1,
    0x3FEF06FE0A31B715, 0x3FEEF1A7373AA9CB, 0x3FEEDEA64C123422, 0x3FEECE086061892D,
    0x3FEEBFDAD5362A27, 0x3FEEB42B569D4F82, 0x3FEEAB07DD485429, 0x3FEEA47EB03A5585,
    0x3FEEA09E667F3BCD, 0x3FEE9F75E8EC5F74, 0x3FEEA11473EB0187, 0x3FEEA589994CCE13,
    0x3FEEACE5422AA0DB, 0x3FEEB737B0CDC5E5, 0x3FEEC49182A3F090, 0x3FEED503B23E255D,
    0x3FEEE89F995AD3AD, 0x3FEEFF76F2FB5E47, 0x3FEF199BDD85529C, 0x3FEF3720DCEF9069,
    0x3FEF5818DCFBA487, 0x3FEF7C97337B9B5F, 0x3FEFA4AFA2A490DA, 0x3FEFD0765B6E4540,
], dtype=np.uint64)
# above this expf overflows to inf; below the other it underflows to 0
_EXPF_OVERFLOW = np.float32(float.fromhex("0x1.62e42ep6"))
_EXPF_UNDERFLOW = np.float32(float.fromhex("-0x1.9fe368p6"))


def _expf(a: np.ndarray) -> np.ndarray:
    """exp of a float32 array, with the bytes of glibc's expf for every input."""
    xd = a.astype(np.float64)
    z = _EXPF_INV_LN2_N * xd
    shifted = z + _EXPF_SHIFT
    ki = shifted.view(np.uint64)
    r = z - (shifted - _EXPF_SHIFT)
    s = (_EXPF_TABLE.take(ki & np.uint64(31)) + (ki << np.uint64(47))).view(np.float64)
    c0, c1, c2 = _EXPF_C
    y = ((c0 * r + c1) * (r * r) + (c2 * r + 1.0)) * s
    e = y.astype(np.float32)
    e[a > _EXPF_OVERFLOW] = np.inf
    e[a < _EXPF_UNDERFLOW] = 0.0
    return e


class Sigmoid(Module):
    """1 / (1 + exp(-x)).

    In float32: e = expf(-x) as glibc computes it (``_expf``: k and r from
    -x * 32/ln 2, the table entry of k % 32 scaled by 2^(k // 32), a cubic
    in r, all in float64, one rounding to float32, and glibc's overflow
    and underflow cuts), then 1 + e and its reciprocal in float32. A
    float32 or float64 ``np.exp`` in its place changes the bytes of some
    inputs; ``tests/check_sigmoid_exhaustive.py`` checks all 2^32. Other
    dtypes (the float64 of gradient checks) take ``np.exp``.
    """

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        # inf - inf and overflow past the special cases are overwritten
        with np.errstate(invalid="ignore", over="ignore"):
            e = _expf(-x) if x.dtype == np.float32 else np.exp(-x)
        e += 1
        y = np.divide(1, e, out=e)
        self.save_for_backward(y, remember)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        y = self.take_saved()
        return grad_out * y * (1.0 - y)


def _max_pass(x, arg, axis, kernel, stride, padding, size, scale, remember):
    """Max over one axis's ``kernel`` taps at ``stride``, first of tied taps winning.

    A tap that lands in the padding is skipped for that output: its -inf
    could never win. Strict > never takes NaN, and a window with nothing
    above -inf keeps -inf. With ``remember`` the result carries the winning
    tap's index times ``scale`` (the tap count of the passes before) plus
    ``arg``, the winner's offset from those passes (None in the first).
    Tap t's offsets lie in [t*scale, (t+1)*scale), above every earlier
    tap's, so the winner's is the largest of those its taps won with: a
    maximum over offsets masked to zero, with no branch per element. The
    values are selected the same way, on their bits: y ^ ((y ^ tap) * mask).
    """
    shape = x.shape[:axis] + (size,) + x.shape[axis + 1 :]
    bits = np.dtype(f"i{x.itemsize}")
    y = np.full(shape, -np.inf, dtype=x.dtype)
    better = np.empty(shape, dtype=bool)
    flips = np.empty(shape, dtype=bits)
    out_arg = np.zeros(shape, dtype=np.int16) if remember else None
    offset = np.empty(shape, dtype=np.int16) if remember else None
    for t in range(kernel):
        lo, hi, src = _tap(t, stride, padding, x.shape[axis], 0, size)
        if lo >= hi:
            continue
        into = (slice(None),) * axis + (slice(lo, hi),)
        taps = (slice(None),) * axis + (src,)
        plane, yo, bo = x[taps], y[into], better[into]
        np.greater(plane, yo, out=bo)
        yb = yo.view(bits)
        flip = np.bitwise_xor(yb, plane.view(bits), out=flips[into])
        flip *= bo
        yb ^= flip
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

    The forward takes three 1-D passes, along w, then h, then d, over
    clipped slices of the unpadded input. Each keeps the first of tied taps
    and never takes NaN, so the last picks the first (a, b, c) offset
    holding the maximum, as a scan over all kd*kh*kw taps would. A tensor
    over ``MAX_PATCH_BYTES`` is pooled one ``_slabs`` block at a time into
    one output array (and one int16 argmax array with ``remember``).

    The backward walks the same blocks and, in each, the taps in descending
    order: a tap adds the gradients of the outputs it won, clipped by
    ``_tap`` and selected on their bits, into the input slice it read. Per
    input cell that is ascending outputs, the C order of a scatter-add
    over the outputs, and a lost tap adds +0.0, which changes no bit: the
    scatter's bytes, but for a NaN's sign where +inf meets -inf.
    """

    def __init__(self, kernel, stride=None, padding=0):
        kernel = as_triple(kernel)
        stride = kernel if stride is None else as_triple(stride)
        self.spec = LayerSpec("maxpool3d", kernel, stride, as_triple(padding))

    def forward(self, x: np.ndarray, remember: bool = True) -> np.ndarray:
        _require_rank5(x, "maxpool3d")
        out_dims = self.spec.out_dims(x.shape[2:])
        kernel = self.spec.kernel
        y = np.empty(x.shape[:2] + out_dims, x.dtype)
        arg = np.empty(y.shape, np.int16) if remember else None
        for n, c in _slabs(x):
            ys, args = x[n, c], None
            for i in (2, 1, 0):
                ys, args = _max_pass(
                    ys, args, i + 2, kernel[i], self.spec.stride[i], self.spec.padding[i],
                    out_dims[i], math.prod(kernel[i + 1 :]), remember,
                )
            y[n, c] = ys
            if remember:
                arg[n, c] = args
        self.save_for_backward((arg, x.shape), remember)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        arg, in_shape = self.take_saved()
        axes = [[_tap(t, s, p, size, 0, o) for t in range(k)] for k, s, p, size, o in zip(
            self.spec.kernel, self.spec.stride, self.spec.padding, in_shape[2:], arg.shape[2:])]
        # (flat tap, the outputs it reaches, the input cells they read)
        walk = [(t, (..., *(slice(lo, hi) for lo, hi, _ in r)), (..., *(src for *_, src in r)))
                for t, r in enumerate(itertools.product(*axes)) if all(lo < hi for lo, hi, _ in r)]
        gx = np.zeros(in_shape, grad_out.dtype)
        for n, c in _slabs(gx):
            gs, args, gxs = grad_out[n, c], arg[n, c], gx[n, c]
            won, picked = np.empty(gs.shape, bool), np.empty(gs.shape, f"i{gs.itemsize}")
            for t, outs, ins in reversed(walk):
                np.equal(args[outs], t, out=won[outs])
                np.multiply(gs[outs].view(picked.dtype), won[outs], out=picked[outs])
                gxs[ins] += picked[outs].view(gs.dtype)
        return gx


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
        self.save_for_backward(x.shape, remember)
        return x.copy() if y is x else y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        in_shape = self.take_saved()
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


def split_channels(grad: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Backward of ``np.concatenate(parts, axis=1)``: ``grad`` cut into
    contiguous parts of ``sizes`` channels."""
    if sum(sizes) != grad.shape[1]:
        raise InternalError(
            f"cannot split {grad.shape[1]} channels into {sizes}"
        )
    edges = np.cumsum(sizes)[:-1]
    return [np.ascontiguousarray(p) for p in np.split(grad, edges, axis=1)]
