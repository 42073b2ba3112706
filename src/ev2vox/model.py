"""Encoder-decoder reconstruction network assembled from nn layers.

The encoder is a residual 3D network: a strided stem (plus optional max
pool) and stages of bottleneck blocks (1x1x1 reduce, 3x3x3 spatial, 1x1x1
expand, additive shortcut). Its output, the latent, keeps whatever
volume the strides left. The decoder opens with a nearest-neighbor resize
that pins the volume to a cube of side R, the encoder's ``resolution``,
regardless of how the strides divided the input, and so is the output.
It then runs a small UNet, one level per entry of its channel list: a
1x1x1 entry conv, strided convolutions down, transposed convolutions up
with channel-concatenated skips, and a sigmoid head that emits one
occupancy probability per cell.

A nearest resize only copies cells and a 1x1x1 conv maps each cell on its
own, so the two commute. Inference (``remember`` False) runs the entry
conv on the latent and resizes its output: at paper scale that projects
256 latent cells instead of 32^3, copies 64 channels instead of 2048 and
never builds the 256 MiB resized latent. The bytes are those of resize,
then conv, wherever the BLAS computes a cell's product alike at both cell
counts, as it does for the toy and paper models; a product small enough
for another BLAS kernel can differ in the last bits. Training keeps
resize, then conv: the conv's weight and input gradients would otherwise
sum over other cells in another order, and the trained bytes would change.

The model is float32 only, as a checkpoint's entries are; the gradient
checks recast a built model to float64 (``tests/gradcheck.py``).

Chains of layers are ``nn.Sequential``, whose backward runs its layers
in reverse; the encoder is one such chain. Only the blocks whose data flow
branches write a backward: the bottleneck's residual add, the up block's
concatenation and the decoder's skips. Every block is an ``nn.Module``, so
parameters, running statistics and train/eval mode come from one walk over
its attributes; the order in which a block assigns its layers is the order
of its entries in a checkpoint.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError, DataError, InternalError

EXPANSION = 4
LOSS_CLAMP = 1e-7


def _check_positive(cfg, *names: str) -> None:
    """ConfigError unless every named field (a count, or a tuple of them) is at least 1."""
    for name in names:
        value = getattr(cfg, name)
        if min(value if isinstance(value, tuple) else (value,), default=1) < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class StemConfig:
    kernel: tuple[int, int, int] = (7, 7, 7)
    stride: tuple[int, int, int] = (2, 2, 2)
    channels: int = 64
    pool: bool = True

    def __post_init__(self):
        _check_positive(self, "kernel", "stride", "channels")


@dataclass(frozen=True)
class StageConfig:
    blocks: int
    channels: int  # bottleneck width; blocks emit EXPANSION * channels
    stride: tuple[int, int, int]

    def __post_init__(self):
        _check_positive(self, "blocks", "channels", "stride")


@dataclass(frozen=True)
class EncoderConfig:
    """The encoder; its input always has one channel, the binned frames.
    Its output, and so the model's, is a cube of side ``resolution``."""

    stem: StemConfig
    stages: tuple[StageConfig, ...]
    resolution: int = 32

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("encoder needs at least one stage")
        _check_positive(self, "resolution")

    @property
    def out_channels(self) -> int:
        return self.stages[-1].channels * EXPANSION

    @classmethod
    def paper(cls) -> "EncoderConfig":
        return cls(
            stem=StemConfig(),
            stages=(
                StageConfig(3, 64, (1, 1, 1)),
                StageConfig(8, 128, (2, 2, 2)),
                StageConfig(36, 256, (2, 2, 2)),
                StageConfig(3, 512, (2, 2, 2)),
            ),
            resolution=32,
        )

    @classmethod
    def toy(cls) -> "EncoderConfig":
        return cls(
            stem=StemConfig(kernel=(3, 3, 3), stride=(1, 2, 2), channels=8, pool=False),
            stages=(
                StageConfig(1, 8, (1, 1, 1)),
                StageConfig(1, 16, (2, 2, 2)),
            ),
            resolution=8,
        )


@dataclass(frozen=True)
class DecoderConfig:
    """The decoder; each entry of ``channels`` is one level's width."""

    channels: tuple[int, ...] = (64, 128, 256)

    def __post_init__(self):
        if not self.channels:
            raise ConfigError("decoder needs at least one level")
        _check_positive(self, "channels")

    @classmethod
    def paper(cls) -> "DecoderConfig":
        return cls()

    @classmethod
    def toy(cls) -> "DecoderConfig":
        return cls(channels=(16, 32))


@dataclass(frozen=True)
class ModelConfig:
    """A run config's ``model`` section, and a checkpoint sidecar's ``config``.

    Both are read with ``config.from_json``, so a key that is not a field
    here is refused; a sidecar that carries one describes no model.
    """

    encoder: EncoderConfig
    decoder: DecoderConfig
    seed: int = 0

    def __post_init__(self):
        # each decoder level past the first halves the volume, and the up
        # path doubles it back, so the output side must halve evenly
        levels, resolution = len(self.decoder.channels), self.encoder.resolution
        if resolution % 2 ** (levels - 1):
            raise ConfigError(
                f"model.encoder.resolution {resolution} is not divisible by "
                f"2^{levels - 1}, so the {levels} levels of model.decoder.channels "
                f"could not halve and restore it"
            )


def conv_norm(cin, cout, kernel, stride, padding, name, seed, tag=""):
    """[conv, batch norm], named ``{name}.conv{tag}`` and ``{name}.norm{tag}``."""
    return [
        nn.Conv3d(cin, cout, kernel, stride=stride, padding=padding,
                  name=f"{name}.conv{tag}", seed=seed),
        nn.BatchNorm3d(cout, name=f"{name}.norm{tag}"),
    ]


def conv_norm_relu(cin, cout, kernel, stride, padding, name, seed) -> nn.Sequential:
    """conv -> norm -> relu, the workhorse unit of both halves."""
    layers = conv_norm(cin, cout, kernel, stride, padding, name, seed)
    return nn.Sequential(*layers, nn.ReLU())


class Bottleneck(nn.Module):
    """Residual block: 1-reduce, 3-spatial (carries the stride), 1-expand."""

    def __init__(self, cin, width, stride, name, seed):
        cout = width * EXPANSION
        self.main = nn.Sequential(
            *conv_norm(cin, width, 1, 1, 0, name, seed, tag="1"), nn.ReLU(),
            *conv_norm(width, width, 3, stride, 1, name, seed, tag="2"), nn.ReLU(),
            *conv_norm(width, cout, 1, 1, 0, name, seed, tag="3"),
        )
        project = cin != cout or tuple(stride) != (1, 1, 1)
        self.shortcut = nn.Sequential(
            *(conv_norm(cin, cout, 1, stride, 0, f"{name}.proj", seed) if project else [])
        )
        self.relu = nn.ReLU()

    def forward(self, x, remember=True):
        # main's output is a fresh norm output, so the sum and the ReLU
        # reuse it; x itself is only read
        h = self.main.forward(x, remember)
        h += self.shortcut.forward(x, remember)
        return self.relu.forward(h, remember)

    def backward(self, g):
        g = self.relu.backward(g)
        return self.main.backward(g) + self.shortcut.backward(g)


def build_encoder(cfg: EncoderConfig, seed: int) -> nn.Sequential:
    """Stem, optional max pool, then the bottleneck stages."""
    stem = cfg.stem
    layers = [conv_norm_relu(1, stem.channels, stem.kernel, stem.stride,
                             tuple(k // 2 for k in stem.kernel), "encoder.stem", seed)]
    if stem.pool:
        layers.append(nn.MaxPool3d(3, stride=2, padding=1))
    cin = stem.channels
    for si, stage in enumerate(cfg.stages):
        for bi in range(stage.blocks):
            stride = stage.stride if bi == 0 else (1, 1, 1)
            name = f"encoder.stage{si}.block{bi}"
            layers.append(Bottleneck(cin, stage.channels, stride, name, seed))
            cin = stage.channels * EXPANSION
    return nn.Sequential(*layers)


class UpBlock(nn.Module):
    """deconv up, norm+relu, concat the saved skip, fuse back down."""

    def __init__(self, cin, cout, name, seed):
        self.up = nn.Sequential(
            nn.Deconv3d(cin, cout, 2, stride=2, name=f"{name}.deconv", seed=seed),
            nn.BatchNorm3d(cout, name=f"{name}.norm"),
            nn.ReLU(),
        )
        self.fuse = conv_norm_relu(2 * cout, cout, 3, 1, 1, f"{name}.fuse", seed)

    def forward(self, x, skip, remember=True):
        up = self.up.forward(x, remember)
        return self.fuse.forward(np.concatenate([up, skip], axis=1), remember)

    def backward(self, g):
        g = self.fuse.backward(g)
        half = g.shape[1] // 2
        g_up, g_skip = nn.split_channels(g, [half, half])
        return self.up.backward(g_up), g_skip


class Decoder(nn.Module):
    def __init__(self, cfg: DecoderConfig, in_channels: int, resolution: int, seed: int):
        ch = cfg.channels
        depth = len(ch)
        self.resize = nn.AdaptiveResize3d(resolution)
        self.entry = conv_norm_relu(in_channels, ch[0], 1, 1, 0, "decoder.entry", seed)
        self.downs = [
            conv_norm_relu(ch[i - 1], ch[i], 3, 2, 1, f"decoder.down{i}", seed)
            for i in range(1, depth)
        ]
        self.ups = [
            UpBlock(ch[i], ch[i - 1], f"decoder.up{i}", seed)
            for i in range(depth - 1, 0, -1)
        ]
        self.head = nn.Conv3d(ch[0], 1, 1, name="decoder.head.conv", seed=seed)
        # the head is the one conv that feeds no norm, so it alone needs an
        # offset; assigning it right after the head keeps this entry's CKP1
        # name and position
        self.head_bias = nn.Parameter(np.zeros(1, np.float32), "decoder.head.conv.bias",
                                      decay=False)
        self.sigmoid = nn.Sigmoid()

    def forward(self, latent, remember=True):
        # the entry conv commutes with the resize (see the module docstring):
        # inference projects the latent before the resize copies its cells,
        # training resizes first, the order its gradients are summed in
        conv, *norm_relu = self.entry.layers
        h = latent
        for layer in ([self.resize, conv] if remember else [conv, self.resize]) + norm_relu:
            h = layer.forward(h, remember)
        feats = [h]
        for down in self.downs:
            feats.append(down.forward(feats[-1], remember))
        h = feats[-1]
        for up, skip in zip(self.ups, reversed(feats[:-1])):
            h = up.forward(h, skip, remember)
        logits = self.head.forward(h, remember)
        logits += self.head_bias.value[None, :, None, None, None]
        return self.sigmoid.forward(logits, remember)

    def backward(self, g):
        g = self.sigmoid.backward(g)
        self.head_bias.grad += g.sum(axis=(0, 2, 3, 4))
        g = self.head.backward(g)
        # ups[j] took feats[depth-2-j] as its skip, so walking the ups
        # backward yields skip gradients shallowest first; each down's input
        # also fed one up block, so its gradient gains that skip gradient
        skip_grads = []
        for up in reversed(self.ups):
            g, g_skip = up.backward(g)
            skip_grads.append(g_skip)
        for down, g_skip in zip(reversed(self.downs), reversed(skip_grads)):
            g = down.backward(g) + g_skip
        return self.resize.backward(self.entry.backward(g))


class E2VModel(nn.Module):
    """The full reconstruction network: encoder chain, then UNet decoder.

    forward() takes a batch of event-frame stacks shaped (N, 1, D, H, W)
    and returns per-cell occupancy probabilities shaped (N, R, R, R), R
    being ``config.encoder.resolution``.
    backward() takes gradients of the loss with respect to those
    probabilities and accumulates parameter gradients in place.
    ``config`` is the ModelConfig it was built from, which a checkpoint
    sidecar records.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        enc, seed = config.encoder, config.seed
        self.encoder = build_encoder(enc, seed)
        self.decoder = Decoder(config.decoder, enc.out_channels, enc.resolution, seed)
        names = Counter([p.name for p in self.parameters()] + [n for n, _ in self.buffers()])
        dupes = {n for n, count in names.items() if count > 1}
        if dupes:
            raise ConfigError(f"duplicate state names in model: {sorted(dupes)}")

    def forward(self, frames: np.ndarray, remember: bool = True) -> np.ndarray:
        latent = self.encoder.forward(frames, remember)
        vol = self.decoder.forward(latent, remember)
        return vol[:, 0]

    def backward(self, grad_probs: np.ndarray) -> np.ndarray:
        g = self.decoder.backward(grad_probs[:, None])
        return self.encoder.backward(g)

    def state_entries(self) -> list[tuple[str, np.ndarray]]:
        """Each parameter's and running statistic's name and array, in
        checkpoint order. These are the arrays themselves, so a checkpoint is
        written from them and read back into them."""
        return [(p.name, p.value) for p in self.parameters()] + self.buffers()


def build_model(enc_cfg: EncoderConfig, dec_cfg: DecoderConfig, seed: int = 0) -> E2VModel:
    return E2VModel(ModelConfig(enc_cfg, dec_cfg, seed))


def encode(model: E2VModel, frames: np.ndarray, remember: bool = False) -> np.ndarray:
    """Run only the encoder: frames (N, 1, D, H, W) -> latent (N, C, d, h, w)
    at the encoder's own volume, (1, 2048, 4, 8, 8) for the paper model on
    a 100x256x256 stack."""
    return model.encoder.forward(frames, remember)


def decode(model: E2VModel, latent: np.ndarray, remember: bool = False) -> np.ndarray:
    """Run only the decoder: latent -> probabilities (N, R, R, R). The decoder
    resizes any latent volume to R^3; with ``remember`` False it does so
    after its entry conv, on ``DecoderConfig.channels[0]`` channels."""
    return model.decoder.forward(latent, remember)[:, 0]


def bce_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient with respect to pred.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs so a
    saturated sigmoid cannot produce an infinite loss. The gradient uses
    the clamped value in the same way, (p - v) / (p (1 - p)) / N, computed
    in float64 and returned in pred's dtype, the dtype of the model's backward.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise DataError(
            f"prediction shape {pred.shape} != target shape {target.shape}"
        )
    if pred.size == 0:
        raise InternalError("cannot take a loss over zero voxels")
    p = np.clip(pred.astype(np.float64), LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    v = target.astype(np.float64)
    n = p.size
    loss = -float(np.sum(v * np.log(p) + (1.0 - v) * np.log1p(-p))) / n
    grad = (p - v) / (p * (1.0 - p)) / n
    return loss, grad.astype(pred.dtype, copy=False)


def count_parameters(model: E2VModel) -> int:
    return sum(p.value.size for p in model.parameters())


def frames_to_input(stacks) -> np.ndarray:
    """Stack (D, H, W) frame arrays into a model input batch (N, 1, D, H, W).
    A stack with a zero-sized axis (events that span no frame) is a
    DataError."""
    first = stacks[0].shape
    for a in stacks[1:]:
        if a.shape != first:
            raise InternalError(f"frame stacks disagree in shape: {first} vs {a.shape}")
    if 0 in first:
        raise DataError(f"frame stack has a zero-sized axis {first}")
    return np.stack(stacks)[:, None].astype(np.float32)
