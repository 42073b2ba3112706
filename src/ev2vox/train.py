"""AdamW optimization, the training loop, and per-category evaluation.

A trained model is three files in a run directory, written and read only
here: ``model.ckpt`` (CKP1: the model parameters, the norm running
statistics and the optimizer moments), its JSON sidecar ``model.ckpt.json``
(the model config, seed and epoch) and ``metrics.csv`` (one row per epoch).
``load_training_checkpoint`` builds the model the sidecar describes and a
fresh optimizer state, then reads the checkpoint straight into their
arrays, listed in the order ``_save_training_checkpoint`` writes them, so
a resumed run continues bit-for-bit where the interrupted one stopped.
The shuffle order is drawn from a generator seeded with (seed, epoch),
which is what makes resumption equivalent to never having stopped.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import voxel
from .artifacts import make_dir, read, read_json, write, write_json
from .checkpoint import load_checkpoint, save_checkpoint
from .config import from_json
from .errors import ConfigError, DataError, InternalError
from .model import E2VModel, ModelConfig, bce_loss, build_model, frames_to_input

# samples per inference batch in evaluate()
EVAL_BATCH = 5


@dataclass(frozen=True)
class AdamWConfig:
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight decay must be non-negative, got {self.weight_decay}")

    @classmethod
    def toy(cls) -> "AdamWConfig":
        return cls(lr=1e-3)


class OptState:
    """First and second moment accumulators plus the shared step counter.

    The step counter lives here rather than in the config because it is
    mutable run state that has to survive a checkpoint round trip. It is a
    0-d float32 array, as the moments are float32 arrays, so ``entries()``
    lists the arrays a checkpoint load reads into.
    """

    def __init__(self, params):
        # np.zeros leaves the pages unwritten until a step writes them
        self.m = {p.name: np.zeros(p.value.shape, np.float32) for p in params}
        self.v = {p.name: np.zeros(p.value.shape, np.float32) for p in params}
        self.step = np.zeros((), np.float32)

    def check(self, params):
        for p in params:
            for store, label in ((self.m, "m"), (self.v, "v")):
                got = store.get(p.name)
                if got is None or got.shape != p.value.shape:
                    have = None if got is None else got.shape
                    raise InternalError(
                        f"optimizer {label} for {p.name}: state shape {have} "
                        f"does not match parameter shape {p.value.shape}"
                    )

    def entries(self):
        out = [("opt.step", self.step)]
        for name in self.m:
            out.append((f"opt.m/{name}", self.m[name]))
            out.append((f"opt.v/{name}", self.v[name]))
        return out


@dataclass(frozen=True)
class TrainRun:
    epochs: int = 100
    batch_size: int = 5
    seed: int = 0
    checkpoint_every: int = 25

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be at least 1, got {self.batch_size}")
        if self.checkpoint_every < 1:
            raise ConfigError(f"checkpoint_every must be at least 1, got {self.checkpoint_every}")
        if self.seed < 0:
            # numpy's SeedSequence takes only non-negative entropy
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def adamw_step(params, state: OptState, cfg: AdamWConfig) -> None:
    """One decoupled-weight-decay Adam update; zeroes gradients afterwards.

    Decay applies only to parameters flagged for it (conv/deconv weights);
    norm gains/shifts and the head's logit offset are excluded. The update,
    lr * ((m/c1)/(sqrt(v/c2) + eps) + decay*w), runs its operations in that
    order in two float32 scratch buffers shared by all (float32) parameters,
    which get the formula's bytes without a temporary per operation.
    """
    state.check(params)
    state.step += 1
    t = int(state.step)
    c1 = 1.0 - cfg.beta1 ** t
    c2 = 1.0 - cfg.beta2 ** t
    size = max((p.value.size for p in params), default=0)
    scratch = np.empty((2, size), np.float32)
    for p in params:
        g = p.grad
        m = state.m[p.name]
        v = state.v[p.name]
        a, b = (buf[: g.size].reshape(g.shape) for buf in scratch)
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=a)
        v *= cfg.beta2
        v += np.multiply(1.0 - cfg.beta2, np.square(g, out=a), out=a)
        np.divide(m, c1, out=a)
        np.sqrt(np.divide(v, c2, out=b), out=b)
        b += cfg.eps
        a /= b
        if p.decay and cfg.weight_decay:
            a += np.multiply(cfg.weight_decay, p.value, out=b)
        a *= cfg.lr
        p.value -= a
        p.zero_grad()


def _validate_dataset(dataset):
    if len(dataset) == 0:
        raise DataError("training requires at least one sample")
    first_frames = dataset[0][0].shape
    first_target = dataset[0][1].occupancy.shape
    for i, (frames, target, *_rest) in enumerate(dataset):
        fs = frames.shape
        ts = target.occupancy.shape
        if fs != first_frames or ts != first_target:
            raise DataError(
                f"sample {i} has shapes {fs}/{ts}, expected {first_frames}/{first_target}"
            )


@dataclass
class TrainResult:
    model: E2VModel
    opt_state: OptState
    log: list[tuple[int, float, float]]  # (epoch, mean loss, mean IoU@0.3)
    checkpoint_path: str | None = None


def _save_training_checkpoint(out_dir, model, state, run, epoch_done, log):
    make_dir(out_dir)
    path = os.path.join(out_dir, "model.ckpt")
    save_checkpoint(path, model.state_entries() + state.entries())
    sidecar = {
        "config": asdict(model.config),
        "seed": run.seed,
        "epoch": epoch_done,
    }
    write_json(path + ".json", sidecar)
    # repr round-trips float64 exactly, so a reloaded log matches the
    # in-memory one bit for bit
    rows = "".join(f"{row[0]},{row[1]!r},{row[2]!r}\n" for row in log)
    write(os.path.join(out_dir, "metrics.csv"), "epoch,loss,iou\n" + rows)
    return path


def load_training_checkpoint(
    path, expected: ModelConfig | None = None
) -> tuple[E2VModel, OptState, dict]:
    """The model, optimizer state and JSON sidecar of a checkpoint that
    train() wrote to ``path``; the model is built from the sidecar's config.

    A missing sidecar is an IoFailure and one that is not JSON a
    FormatError. A sidecar that describes no model is a DataError naming
    the sidecar. A model other than ``expected`` (checked before anything
    is built), entries other than the model's and its optimizer state's,
    each at its shape and in the order they are written, or a step that is
    not finite, is a DataError naming ``path``.
    """
    sidecar_path = f"{path}.json"
    sidecar = read_json(sidecar_path)
    try:
        config = from_json(ModelConfig, sidecar["config"], "config")
        if expected is not None and config != expected:
            raise DataError(f"{path}: checkpoint was trained with a different model configuration")
        model = build_model(config.encoder, config.decoder, seed=config.seed)
    except (KeyError, TypeError, ConfigError) as exc:
        raise DataError(f"{sidecar_path}: sidecar does not describe a model ({exc})") from exc
    opt_state = OptState(model.parameters())
    load_checkpoint(path, model.state_entries() + opt_state.entries())
    if not np.isfinite(opt_state.step):
        raise DataError(f"{path}: opt.step must be a finite count, got {opt_state.step}")
    return model, opt_state, sidecar


def load_metric_log(out_dir) -> list[tuple[int, float, float]]:
    path = os.path.join(out_dir, "metrics.csv")
    blob = read(path, b"epoch,loss,iou\n", kind="metric log")
    rows = []
    for line in blob.decode("utf-8").splitlines()[1:]:
        e, l, i = line.split(",")
        rows.append((int(e), float(l), float(i)))
    return rows


def train(
    dataset,
    model: E2VModel,
    run: TrainRun,
    opt: AdamWConfig,
    out_dir: str | os.PathLike | None = None,
    start_epoch: int = 0,
    opt_state: OptState | None = None,
    log: list[tuple[int, float, float]] | None = None,
) -> TrainResult:
    """Optimize the model on samples (frames, label[, category]): a
    (D, H, W) frame array and a ``voxel.VoxelGrid``.

    Each epoch shuffles with a generator seeded by (run.seed, epoch), so
    restarting from a checkpoint at start_epoch continues the exact
    sample order of an uninterrupted run. The logged loss and IoU@0.3
    are sample-weighted means over the epoch's training batches.
    """
    _validate_dataset(dataset)
    params = model.parameters()
    state = opt_state if opt_state is not None else OptState(params)
    state.check(params)
    rows = list(log) if log is not None else []
    n = len(dataset)
    ckpt_path = None

    model.train()
    for epoch in range(start_epoch, run.epochs):
        order = np.random.default_rng((run.seed, epoch)).permutation(n)
        loss_sum = 0.0
        iou_sum = 0.0
        for lo in range(0, n, run.batch_size):
            batch = order[lo:lo + run.batch_size]
            x = frames_to_input([dataset[i][0] for i in batch])
            y = np.stack([dataset[i][1].occupancy for i in batch])
            probs = model.forward(x)
            loss, grad = bce_loss(probs, y)
            model.backward(grad)
            adamw_step(params, state, opt)
            loss_sum += loss * len(batch)
            for j, i in enumerate(batch):
                iou_sum += voxel.iou(voxel.binarize(probs[j], 0.3), dataset[i][1])
        rows.append((epoch, loss_sum / n, iou_sum / n))
        if out_dir is not None and (
            (epoch + 1) % run.checkpoint_every == 0 or epoch == run.epochs - 1
        ):
            ckpt_path = _save_training_checkpoint(out_dir, model, state, run, epoch + 1, rows)

    return TrainResult(model, state, rows, ckpt_path)


@dataclass(frozen=True)
class CategoryRow:
    category: str
    count: int
    iou: float
    fscore: float


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[CategoryRow, ...]
    overall: CategoryRow
    threshold: float
    distance: float

    def text(self) -> str:
        lines = [
            f"IoU@t={self.threshold:g}, F-Score@d={self.distance:g}",
            f"{'category':<16}{'count':>6}{'IoU':>10}{'F':>10}",
        ]
        for row in list(self.rows) + [self.overall]:
            lines.append(
                f"{row.category:<16}{row.count:>6}{row.iou:>10.4f}{row.fscore:>10.4f}"
            )
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        out = ["category,count,iou,fscore"]
        for row in list(self.rows) + [self.overall]:
            out.append(f"{row.category},{row.count},{row.iou:.6f},{row.fscore:.6f}")
        return out


def evaluate(
    model: E2VModel,
    dataset,
    threshold: float,
    distance: float,
) -> EvalReport:
    """Score samples (frames, label[, category]), as ``train`` takes them,
    with the model in inference mode; a sample without a category counts
    as "all". Each prediction is binarized at ``threshold`` and scored
    against its label grid by ``voxel.iou`` and by ``voxel.fscore`` at
    ``distance``, both on the grids themselves. Means are reported per
    category plus a sample-weighted Overall row."""
    _validate_dataset(dataset)
    model.eval()
    cats = [s[2] if len(s) > 2 else "all" for s in dataset]
    per_sample = []
    for lo in range(0, len(dataset), EVAL_BATCH):
        chunk = dataset[lo:lo + EVAL_BATCH]
        x = frames_to_input([s[0] for s in chunk])
        probs = model.forward(x, remember=False)
        for j, sample in enumerate(chunk):
            pred, gt = voxel.binarize(probs[j], threshold), sample[1]
            per_sample.append((voxel.iou(pred, gt), voxel.fscore(pred, gt, distance)))

    by_cat: dict[str, list[tuple[float, float]]] = {}
    for cat, scores in zip(cats, per_sample):
        by_cat.setdefault(cat, []).append(scores)
    rows = tuple(
        CategoryRow(
            cat,
            len(scores),
            float(np.mean([s[0] for s in scores])),
            float(np.mean([s[1] for s in scores])),
        )
        for cat, scores in sorted(by_cat.items())
    )
    overall = CategoryRow(
        "Overall",
        len(per_sample),
        float(np.mean([s[0] for s in per_sample])),
        float(np.mean([s[1] for s in per_sample])),
    )
    return EvalReport(rows, overall, threshold, distance)
