"""Encoder-decoder reconstruction network assembled from nn layers.

The encoder is a residual 3D network: a strided stem (plus optional max
pool), stages of bottleneck blocks (1x1x1 reduce, 3x3x3 spatial, 1x1x1
expand, additive shortcut), then a nearest-neighbor resize that pins the
output to a fixed hidden volume regardless of how the strides divided the
input. The decoder runs a small UNet over that volume: strided
convolutions down, transposed convolutions up with channel-concatenated
skips, and a sigmoid head that emits one occupancy probability per cell.

Chains of layers are ``nn.Sequential``, whose backward runs its layers
in reverse; the encoder is one such chain. Only the blocks whose data flow
branches write a backward: the bottleneck's residual add, the up block's
concatenation and the decoder's skips. Every block is an ``nn.Module``, so
parameters, running statistics and train/eval mode come from one walk over
its attributes; the order in which a block assigns its layers is the order
of its entries in a checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .config import from_json
from .errors import (
    ChannelMismatch,
    CheckpointMismatch,
    ConfigError,
    ResolutionMismatch,
    ShapeMismatch,
)

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
        _check_positive(self, "channels", "stride")


@dataclass(frozen=True)
class EncoderConfig:
    """The encoder; its input always has one channel, the binned frames."""

    stem: StemConfig
    stages: tuple[StageConfig, ...]
    hidden_spatial: tuple[int, int, int] = (32, 32, 32)

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("encoder needs at least one stage")
        if any(s.blocks < 1 for s in self.stages):
            raise ConfigError("every encoder stage needs at least one block")
        if any(d <= 0 for d in self.hidden_spatial):
            raise ConfigError(f"hidden_spatial must be positive, got {self.hidden_spatial}")

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
            hidden_spatial=(32, 32, 32),
        )

    @classmethod
    def toy(cls) -> "EncoderConfig":
        return cls(
            stem=StemConfig(kernel=(3, 3, 3), stride=(1, 2, 2), channels=8, pool=False),
            stages=(
                StageConfig(1, 8, (1, 1, 1)),
                StageConfig(1, 16, (2, 2, 2)),
            ),
            hidden_spatial=(8, 8, 8),
        )


@dataclass(frozen=True)
class DecoderConfig:
    levels: int = 3
    channels: tuple[int, ...] = (64, 128, 256)

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError(f"decoder needs at least one level, got {self.levels}")
        if len(self.channels) != self.levels:
            raise ConfigError(
                f"decoder channel schedule {self.channels} does not match {self.levels} levels"
            )
        _check_positive(self, "channels")

    @classmethod
    def paper(cls) -> "DecoderConfig":
        return cls()

    @classmethod
    def toy(cls) -> "DecoderConfig":
        return cls(levels=2, channels=(16, 32))


@dataclass(frozen=True)
class ModelConfig:
    """A run config's ``model`` section, and a checkpoint sidecar's ``config``."""

    encoder: EncoderConfig
    decoder: DecoderConfig
    seed: int = 0


# keys that sidecars of older versions carry, each with the one value this
# version implements (None: any value, since the key chose nothing)
RETIRED_KEYS = {
    "encoder": {"norm": "batch", "paper_scale": None, "in_channels": 1},
    "decoder": {"norm": "batch"},
}


def read_model_config(d) -> ModelConfig:
    """A sidecar's model config, read once the retired keys are dropped; a
    retired key that asks for what this version lacks is a ConfigError."""
    if isinstance(d, dict):
        d = dict(d)
        for part, retired in RETIRED_KEYS.items():
            section = d.get(part)
            if not isinstance(section, dict):
                continue
            for key, only in retired.items():
                if key in section and only is not None and section[key] != only:
                    raise ConfigError(f"config.{part}.{key} must be {only!r}, got {section[key]!r}")
            d[part] = {k: v for k, v in section.items() if k not in retired}
    return from_json(ModelConfig, d, "config")


def conv_norm(cin, cout, kernel, stride, padding, name, seed, dtype, tag=""):
    """[conv, batch norm], named ``{name}.conv{tag}`` and ``{name}.norm{tag}``."""
    return [
        nn.Conv3d(cin, cout, kernel, stride=stride, padding=padding,
                  name=f"{name}.conv{tag}", seed=seed, dtype=dtype),
        nn.BatchNorm3d(cout, name=f"{name}.norm{tag}", dtype=dtype),
    ]


def conv_norm_relu(cin, cout, kernel, stride, padding, name, seed, dtype) -> nn.Sequential:
    """conv -> norm -> relu, the workhorse unit of both halves."""
    layers = conv_norm(cin, cout, kernel, stride, padding, name, seed, dtype)
    return nn.Sequential(*layers, nn.ReLU())


class Bottleneck(nn.Module):
    """Residual block: 1-reduce, 3-spatial (carries the stride), 1-expand."""

    def __init__(self, cin, width, stride, name, seed, dtype):
        cout = width * EXPANSION
        self.main = nn.Sequential(
            *conv_norm(cin, width, 1, 1, 0, name, seed, dtype, tag="1"), nn.ReLU(),
            *conv_norm(width, width, 3, stride, 1, name, seed, dtype, tag="2"), nn.ReLU(),
            *conv_norm(width, cout, 1, 1, 0, name, seed, dtype, tag="3"),
        )
        project = cin != cout or tuple(stride) != (1, 1, 1)
        self.shortcut = nn.Sequential(
            *(conv_norm(cin, cout, 1, stride, 0, f"{name}.proj", seed, dtype) if project else [])
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


def build_encoder(cfg: EncoderConfig, seed: int, dtype) -> nn.Sequential:
    """Stem, optional max pool, the bottleneck stages, then the resize."""
    layers = [conv_norm_relu(
        1, cfg.stem.channels, cfg.stem.kernel, cfg.stem.stride,
        tuple(k // 2 for k in cfg.stem.kernel), "encoder.stem", seed, dtype,
    )]
    if cfg.stem.pool:
        layers.append(nn.MaxPool3d(3, stride=2, padding=1))
    cin = cfg.stem.channels
    for si, stage in enumerate(cfg.stages):
        for bi in range(stage.blocks):
            stride = stage.stride if bi == 0 else (1, 1, 1)
            layers.append(Bottleneck(
                cin, stage.channels, stride, f"encoder.stage{si}.block{bi}", seed, dtype,
            ))
            cin = stage.channels * EXPANSION
    layers.append(nn.AdaptiveResize3d(cfg.hidden_spatial))
    return nn.Sequential(*layers)


class UpBlock(nn.Module):
    """deconv up, norm+relu, concat the saved skip, fuse back down."""

    def __init__(self, cin, cout, name, seed, dtype):
        self.up = nn.Sequential(
            nn.Deconv3d(cin, cout, 2, stride=2, name=f"{name}.deconv", seed=seed, dtype=dtype),
            nn.BatchNorm3d(cout, name=f"{name}.norm", dtype=dtype),
            nn.ReLU(),
        )
        self.fuse = conv_norm_relu(2 * cout, cout, 3, 1, 1, f"{name}.fuse", seed, dtype)
        self.cout = cout

    def forward(self, x, skip, remember=True):
        up = self.up.forward(x, remember)
        return self.fuse.forward(nn.concat_channels([up, skip]), remember)

    def backward(self, g):
        g_up, g_skip = nn.split_channels(self.fuse.backward(g), [self.cout, self.cout])
        return self.up.backward(g_up), g_skip


class Decoder(nn.Module):
    def __init__(self, cfg: DecoderConfig, in_channels: int, hidden_spatial, seed: int, dtype):
        ch = cfg.channels
        factor = 2 ** (cfg.levels - 1)
        if any(d % factor for d in hidden_spatial):
            raise ConfigError(
                f"hidden volume {hidden_spatial} is not divisible by 2^{cfg.levels - 1}; "
                f"the up path could not restore it"
            )
        self.entry = conv_norm_relu(in_channels, ch[0], 1, 1, 0, "decoder.entry", seed, dtype)
        self.downs = [
            conv_norm_relu(ch[i - 1], ch[i], 3, 2, 1, f"decoder.down{i}", seed, dtype)
            for i in range(1, cfg.levels)
        ]
        self.ups = [
            UpBlock(ch[i], ch[i - 1], f"decoder.up{i}", seed, dtype)
            for i in range(cfg.levels - 1, 0, -1)
        ]
        self.head = nn.Conv3d(ch[0], 1, 1, name="decoder.head.conv", seed=seed, dtype=dtype)
        # the head is the one conv that feeds no norm, so it alone needs an
        # offset; assigning it right after the head keeps this entry's CKP1
        # name and position
        self.head_bias = nn.Parameter(
            np.zeros(1, dtype=dtype), "decoder.head.conv.bias", decay=False
        )
        self.sigmoid = nn.Sigmoid()

    def forward(self, hidden, remember=True):
        feats = [self.entry.forward(hidden, remember)]
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
        # ups[j] took feats[levels-2-j] as its skip, so walking the ups
        # backward yields skip gradients shallowest first; each down's input
        # also fed one up block, so its gradient gains that skip gradient
        skip_grads = []
        for up in reversed(self.ups):
            g, g_skip = up.backward(g)
            skip_grads.append(g_skip)
        for down, g_skip in zip(reversed(self.downs), reversed(skip_grads)):
            g = down.backward(g) + g_skip
        return self.entry.backward(g)


class E2VModel(nn.Module):
    """The full reconstruction network: encoder chain, then UNet decoder.

    forward() takes a batch of event-frame stacks shaped (N, 1, D, H, W)
    and returns per-cell occupancy probabilities shaped (N, R, R, R).
    backward() takes gradients of the loss with respect to those
    probabilities and accumulates parameter gradients in place.
    ``config`` is the ModelConfig it was built from, which a checkpoint
    sidecar records.
    """

    def __init__(self, config: ModelConfig, dtype):
        self.config = config
        self.dtype = np.dtype(dtype)
        enc, seed = config.encoder, config.seed
        self.encoder = build_encoder(enc, seed, dtype)
        self.decoder = Decoder(config.decoder, enc.out_channels, enc.hidden_spatial, seed, dtype)
        names = [p.name for p in self.parameters()] + [n for n, _ in self.buffers()]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ChannelMismatch(f"duplicate state names in model: {sorted(dupes)}")

    def forward(self, frames: np.ndarray, remember: bool = True) -> np.ndarray:
        hidden = self.encoder.forward(frames, remember)
        vol = self.decoder.forward(hidden, remember)
        return vol[:, 0]

    def backward(self, grad_probs: np.ndarray) -> np.ndarray:
        g = self.decoder.backward(grad_probs[:, None].astype(self.dtype, copy=False))
        return self.encoder.backward(g)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def state_entries(self) -> list[tuple[str, np.ndarray]]:
        return [(p.name, p.value) for p in self.parameters()] + self.buffers()

    def load_state(self, entries: dict[str, np.ndarray]):
        """Install parameter and buffer values from a checkpoint dict.

        Checkpoints from before convs lost their bias carry one for every
        conv; a conv's bias b only shifts the batch mean of the norm that
        follows it, so it is folded into that norm's running mean (rm - b).
        """
        entries = dict(entries)
        for seq in self.modules():
            if not isinstance(seq, nn.Sequential):
                continue
            for conv, norm in zip(seq.layers, seq.layers[1:]):
                if not (isinstance(conv, nn.Conv3d) and isinstance(norm, nn.BatchNorm3d)):
                    continue
                bias = conv.weight.name.removesuffix("weight") + "bias"
                mean = f"{norm.name}.running_mean"
                if bias in entries and np.shape(entries[bias]) == np.shape(entries.get(mean)):
                    entries[mean] = entries[mean] - entries.pop(bias)
        own = {p.name: p for p in self.parameters()}
        buf_names = {name for name, _ in self.buffers()}
        expected = set(own) | buf_names
        got = set(entries)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise CheckpointMismatch(
                f"checkpoint does not match model: missing {missing[:4]}, unexpected {extra[:4]}"
            )
        for name, p in own.items():
            value = entries[name]
            if value.shape != p.value.shape:
                raise CheckpointMismatch(
                    f"{name}: checkpoint shape {value.shape} != model shape {p.value.shape}"
                )
            p.value = value.astype(self.dtype)
        for m in self.modules():
            for attr in m.buffer_names:
                name, old = f"{m.name}.{attr}", getattr(m, attr)
                value = entries[name]
                if value.size != old.size:
                    raise CheckpointMismatch(
                        f"{name}: checkpoint has {value.size} values, model expects {old.size}"
                    )
                setattr(m, attr, value.astype(np.float32).reshape(old.shape))


def build_model(enc_cfg: EncoderConfig, dec_cfg: DecoderConfig, seed: int = 0,
                dtype=np.float32) -> E2VModel:
    return E2VModel(ModelConfig(enc_cfg, dec_cfg, seed), dtype)


def encode(model: E2VModel, frames: np.ndarray, remember: bool = False) -> np.ndarray:
    """Run only the encoder: frames (N, 1, D, H, W) -> hidden (N, C, *hidden_spatial)."""
    return model.encoder.forward(frames, remember)


def decode(model: E2VModel, hidden: np.ndarray, remember: bool = False) -> np.ndarray:
    """Run only the decoder: hidden volume -> probabilities (N, R, R, R)."""
    return model.decoder.forward(hidden, remember)[:, 0]


def bce_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient with respect to pred.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs so a
    saturated sigmoid cannot produce an infinite loss. The gradient uses
    the clamped value in the same way, (p - v) / (p (1 - p)) / N.
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ResolutionMismatch(
            f"prediction shape {pred.shape} != target shape {target.shape}"
        )
    if pred.size == 0:
        raise ShapeMismatch("cannot take a loss over zero voxels")
    p = np.clip(pred.astype(np.float64), LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    v = target.astype(np.float64)
    n = p.size
    loss = -float(np.sum(v * np.log(p) + (1.0 - v) * np.log1p(-p))) / n
    grad = (p - v) / (p * (1.0 - p)) / n
    return loss, grad


def count_parameters(model: E2VModel) -> int:
    return sum(p.value.size for p in model.parameters())


def frames_to_input(stacks, dtype=np.float32) -> np.ndarray:
    """Stack FrameStack objects into a model input batch (N, 1, D, H, W)."""
    arrs = [np.asarray(getattr(s, "frames", s)) for s in stacks]
    first = arrs[0].shape
    for a in arrs[1:]:
        if a.shape != first:
            raise ShapeMismatch(f"frame stacks disagree in shape: {first} vs {a.shape}")
    return np.stack(arrs)[:, None].astype(dtype)


def model_from_config_dict(d: dict, dtype=np.float32) -> E2VModel:
    return E2VModel(read_model_config(d), dtype)
