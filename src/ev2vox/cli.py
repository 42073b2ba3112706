"""Command line pipeline: generate, preprocess, train, eval, export.

The five subcommands share a run configuration and a dataset manifest.
The run configuration is a ``RunConfig``: ``--toy`` picks the ``TOY``
preset and its absence the ``FULL`` one, and a JSON file passed with
``--config`` is read onto that preset. The file's sections are
RunConfig's field tree (``binning``, ``model``, ``trainer.optimizer``,
``trainer.run``, ``metrics``, ``generate``); a key it leaves out keeps the
preset's value, and an unknown key is an error. ``generate`` labels at
``model.encoder.resolution``, the model's output resolution. Every
command is deterministic given (config, seed); re-running writes
byte-identical artifacts.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import make_dir, read, read_json, write, write_json
from .config import from_json
from .errors import ConfigError, DataError, FormatError, IoFailure, PipelineError
from .events import (EVT1_MAX_SIZE, BinningConfig, bin_to_frames, read_evt1, read_evt1_header,
                     write_evt1)
from .model import DecoderConfig, EncoderConfig, ModelConfig, build_model, frames_to_input
from .sim import (
    DEFAULT_CONTRAST,
    Box,
    CameraIntrinsics,
    Cylinder,
    Scene,
    Sphere,
    TrajectoryConfig,
    generate_sample,
    scene_from_dict,
    scene_to_dict,
)
from .train import AdamWConfig, TrainRun, evaluate, load_training_checkpoint, train
from .voxel import (
    VOX1_MAX_RESOLUTION, VoxelGrid, binarize, read_vox1, unit_cube_mesh, write_vox1,
)

SPLITS = ("train", "val", "test")


# ---------------------------------------------------------------------------
# manifest

@dataclass(frozen=True)
class ManifestEntry:
    """One sample; the field names are the manifest's JSON keys."""

    id: str
    events: str
    label: str
    split: str
    category: str = "all"


@dataclass(frozen=True)
class _ManifestFile:
    entries: tuple[ManifestEntry, ...]


@dataclass
class Manifest:
    """Dataset index: sample ids with event/label file paths and splits.

    File paths are stored relative to the manifest's directory (``root``).
    """

    root: Path
    entries: list[ManifestEntry]

    def for_split(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]

    def splits_present(self) -> list[str]:
        return [s for s in SPLITS if any(e.split == s for e in self.entries)]


def save_manifest(manifest: Manifest, path: Path) -> None:
    write_json(path, {"entries": [dataclasses.asdict(e) for e in manifest.entries]})


def load_manifest(path: str | os.PathLike) -> Manifest:
    """Load and validate a manifest; fails fast on any missing file."""
    path = Path(path)
    try:
        entries = from_json(_ManifestFile, read_json(path), "manifest").entries
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from exc
    seen = set()
    for entry in entries:
        if entry.id in seen:
            raise DataError(f"{path}: duplicate sample id {entry.id!r}")
        seen.add(entry.id)
        if entry.split not in SPLITS:
            raise DataError(
                f"{path}: entry {entry.id!r} has unknown split {entry.split!r}"
            )
        for rel in (entry.events, entry.label):
            if not (path.parent / rel).is_file():
                raise IoFailure(f"{path}: missing file {path.parent / rel}")
    return Manifest(root=path.parent, entries=list(entries))


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class GenerateConfig:
    count: int = 10
    ratios: tuple[int, int, int] = (8, 1, 1)
    width: int = 64
    height: int = 64
    contrast: float = DEFAULT_CONTRAST
    scenes: tuple[dict, ...] | None = None

    def __post_init__(self):
        for name in ("count", "width", "height"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.contrast > 0:
            raise ConfigError(f"contrast must be positive, got {self.contrast}")
        if len(self.ratios) != 3 or any(r < 0 for r in self.ratios) or sum(self.ratios) == 0:
            raise ConfigError(f"ratios must be three nonnegative weights, got {self.ratios}")
        if self.scenes is not None and self.count != len(self.scenes):
            raise ConfigError(
                f"count {self.count} does not match {len(self.scenes)} explicit scenes"
            )


@dataclass(frozen=True)
class TrainerConfig:
    optimizer: AdamWConfig
    run: TrainRun


@dataclass(frozen=True)
class MetricsConfig:
    threshold: float = 0.3
    distance: float = 0.20

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if not self.distance > 0.0:
            raise ConfigError(f"distance must be positive, got {self.distance}")


@dataclass(frozen=True)
class RunConfig:
    """Settings for binning, model, trainer, metrics and generation; this
    field tree is the layout of a JSON run config."""

    binning: BinningConfig
    model: ModelConfig
    trainer: TrainerConfig
    metrics: MetricsConfig
    generate: GenerateConfig

    @property
    def run(self) -> TrainRun:
        # the benchmark (bench/workload.py) reads cfg.run for its call counts
        return self.trainer.run


TOY = RunConfig(
    binning=BinningConfig(window=0.05, target_height=32, target_width=32),
    # an 8^3 output, so generate labels at 8^3 too
    model=ModelConfig(EncoderConfig.toy(), DecoderConfig.toy()),
    trainer=TrainerConfig(
        AdamWConfig.toy(), TrainRun(epochs=100, batch_size=5, checkpoint_every=50)
    ),
    metrics=MetricsConfig(),
    generate=GenerateConfig(),
)

FULL = RunConfig(
    binning=BinningConfig(window=0.005),
    model=ModelConfig(EncoderConfig.paper(), DecoderConfig.paper()),
    trainer=TrainerConfig(AdamWConfig(), TrainRun()),
    metrics=MetricsConfig(),
    generate=GenerateConfig(),
)


def load_run_config(path: str | None, toy: bool = False, seed: int | None = None) -> RunConfig:
    """The --toy or full preset, with an optional JSON file read onto it
    (a key the file leaves out keeps the preset's value) and --seed."""
    cfg = TOY if toy else FULL
    if path is not None:
        try:
            data = read_json(path)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        cfg = from_json(RunConfig, data, "", cfg)
    if seed is not None:
        run = dataclasses.replace(cfg.trainer.run, seed=seed)
        cfg = dataclasses.replace(cfg, trainer=dataclasses.replace(cfg.trainer, run=run))
    return cfg


# ---------------------------------------------------------------------------
# generation

def split_assignments(ids, ratios, seed: int) -> dict[str, str]:
    """Assign splits by seeded per-sample hashing with exact quotas.

    Samples are ranked by sha256 of "seed:id", so the assignment depends
    only on the id set and seed, never on input order. Quotas follow the
    largest-remainder method, ties resolved in train/val/test order.
    """
    ranked = sorted(ids, key=lambda s: hashlib.sha256(f"{seed}:{s}".encode()).hexdigest())
    total = len(ranked)
    weight = sum(ratios)
    shares = [total * r / weight for r in ratios]
    quotas = [math.floor(s) for s in shares]
    leftovers = sorted(range(3), key=lambda i: (-(shares[i] - quotas[i]), i))
    for i in leftovers[: total - sum(quotas)]:
        quotas[i] += 1
    out = {}
    cursor = 0
    for split, quota in zip(SPLITS, quotas):
        for sid in ranked[cursor:cursor + quota]:
            out[sid] = split
        cursor += quota
    return out


def _procedural_scene(seed: int, index: int) -> tuple[Scene, str]:
    """Sample one desk-scale primitive scene from (seed, index)."""
    rng = np.random.default_rng((seed, index))
    cls = (Sphere, Box, Cylinder)[int(rng.integers(3))]
    center = tuple(rng.uniform(-0.15, 0.15, size=3))
    albedo = float(rng.uniform(0.65, 0.95))
    if cls is Sphere:
        prim = Sphere(center, float(rng.uniform(0.15, 0.32)), albedo)
    elif cls is Box:
        prim = Box(center, tuple(rng.uniform(0.12, 0.3, size=3)), albedo)
    else:
        prim = Cylinder(
            center,
            int(rng.integers(3)),
            float(rng.uniform(0.12, 0.28)),
            float(rng.uniform(0.15, 0.3)),
            albedo,
        )
    return Scene(primitives=[prim]), prim.kind


def _scene_category(scene: Scene) -> str:
    if len(scene.primitives) == 1:
        return scene.primitives[0].kind
    return "mixed"


def cmd_generate(cfg: RunConfig, seed: int, out_dir: str) -> Manifest:
    """Write EVT1/VOX1 pairs, per-sample sidecars, and a split manifest."""
    gen, resolution = cfg.generate, cfg.model.encoder.resolution
    # refused before anything renders: a size its file format cannot store
    for key, value, limit, fmt in (
        ("generate.width", gen.width, EVT1_MAX_SIZE, "EVT1"),
        ("generate.height", gen.height, EVT1_MAX_SIZE, "EVT1"),
        ("model.encoder.resolution", resolution, VOX1_MAX_RESOLUTION, "VOX1"),
    ):
        if value > limit:
            raise ConfigError(f"{key} {value} is more than the {limit} that {fmt} stores")
    if gen.scenes is not None:
        scenes = [scene_from_dict(s, f"generate.scenes[{i}]") for i, s in enumerate(gen.scenes)]
        pairs = [(s, _scene_category(s)) for s in scenes]
    else:
        pairs = [_procedural_scene(seed, i) for i in range(gen.count)]

    out = Path(out_dir)
    make_dir(out)

    traj = TrajectoryConfig()
    cam = CameraIntrinsics(width=gen.width, height=gen.height)
    ids = [f"s{i:04d}" for i in range(gen.count)]
    assignment = split_assignments(ids, gen.ratios, seed)
    entries = []
    for sid, (scene, category) in zip(ids, pairs):
        stream, label = generate_sample(
            scene, traj, cam, contrast=gen.contrast, resolution=resolution
        )
        write_evt1(stream, out / f"{sid}.evt")
        write_vox1(label, out / f"{sid}.vox")
        sidecar = {
            "category": category,
            "scene": scene_to_dict(scene),
            "seed": seed,
            "contrast": gen.contrast,
            "resolution": resolution,
        }
        write_json(out / f"{sid}.json", sidecar)
        entries.append(
            ManifestEntry(sid, f"{sid}.evt", f"{sid}.vox", assignment[sid], category)
        )
    manifest = Manifest(root=out, entries=entries)
    save_manifest(manifest, out / "manifest.json")
    counts = {s: len(manifest.for_split(s)) for s in SPLITS}
    print(f"wrote {len(entries)} samples to {out} "
          f"(train {counts['train']}, val {counts['val']}, test {counts['test']})")
    return manifest


# ---------------------------------------------------------------------------
# preprocessing and dataset loading

def _cache_dir(manifest: Manifest) -> Path:
    return manifest.root / "cache"


def cmd_preprocess(cfg: RunConfig, manifest_path: str, threads: int) -> int:
    """Bin every event file into a cached frame stack plus a JSON sidecar."""
    manifest = load_manifest(manifest_path)
    cache = _cache_dir(manifest)
    make_dir(cache)

    def one(entry: ManifestEntry) -> None:
        events = manifest.root / entry.events
        frames = bin_to_frames(read_evt1(events), cfg.binning)
        npy = io.BytesIO()
        np.lib.format.write_array(npy, frames)
        write(cache / f"{entry.id}.frames.npy", npy.getbuffer())
        meta = {
            "binning": dataclasses.asdict(cfg.binning),
            "shape": list(frames.shape),
            "events_sha256": _sha256(events),
        }
        write_json(cache / f"{entry.id}.frames.json", meta)

    # samples are independent, so worker count cannot change the output
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(one, e) for e in manifest.entries]:
            future.result()
    print(f"cached {len(manifest.entries)} frame stacks in {cache}")
    return len(manifest.entries)


def _sha256(path: Path) -> str:
    return hashlib.sha256(read(path)).hexdigest()


def _frame_shape(cfg: RunConfig, manifest: Manifest, entry: ManifestEntry) -> tuple:
    """The shape of the entry's frame stack, from its EVT1 header alone."""
    return cfg.binning.frame_shape(*read_evt1_header(manifest.root / entry.events))


def _frames(cfg: RunConfig, manifest: Manifest, entry: ManifestEntry) -> np.ndarray:
    """The entry's (D, H, W) uint8 frame stack: the one ``preprocess``
    cached under ``_cache_dir`` if its sidecar records ``cfg.binning`` and
    the digest of the entry's events as they are now, else those events
    binned afresh. A cache that cannot be read, or holds any other array
    than a uint8 stack of the shape ``_frame_shape`` gives, is a
    FormatError."""
    events = manifest.root / entry.events
    cache_dir = _cache_dir(manifest)
    cached = cache_dir / f"{entry.id}.frames.npy"
    try:
        meta = read_json(cache_dir / f"{entry.id}.frames.json")
    except DataError:
        meta = {}
    meta = meta if isinstance(meta, dict) else {}
    current = (meta.get("binning") == dataclasses.asdict(cfg.binning) and cached.is_file()
               and meta.get("events_sha256") == _sha256(events))
    if current:
        try:
            frames = np.lib.format.read_array(io.BytesIO(read(cached)))
        except (ValueError, EOFError) as exc:
            raise FormatError(f"{cached}: damaged frame cache ({exc})") from exc
        shape = _frame_shape(cfg, manifest, entry)
        if frames.dtype != np.uint8 or frames.shape != shape:
            raise FormatError(f"{cached}: damaged frame cache (a {frames.dtype} array of "
                              f"shape {frames.shape}, but {events} bins to {shape} uint8)")
        return frames
    return bin_to_frames(read_evt1(events), cfg.binning)


def _load_dataset(cfg: RunConfig, manifest: Manifest, splits):
    """Assemble (frames, label, category) samples for the given splits. The
    frame stacks' shapes are read from the EVT1 headers before any stack is
    binned, so a sample whose stack or label has another shape than the
    first sample's is a DataError naming both samples' files, raised
    before a stack of the wrong size is built."""
    entries = [e for e in manifest.entries if e.split in splits]
    shapes = [_frame_shape(cfg, manifest, e) for e in entries]
    root = manifest.root
    for e, shape in zip(entries[1:], shapes[1:]):
        if shape != shapes[0]:
            raise DataError(f"{root / e.events} bins to frames of shape {shape}, "
                            f"but {root / entries[0].events} to {shapes[0]}")
    dataset = [(_frames(cfg, manifest, e), read_vox1(root / e.label), e.category)
               for e in entries]
    for e, (_, label, _) in zip(entries[1:], dataset[1:]):
        label0 = dataset[0][1]
        if label.resolution != label0.resolution:
            raise DataError(f"{root / e.label} has resolution {label.resolution}, "
                            f"but {root / entries[0].label} has {label0.resolution}")
    return dataset


# ---------------------------------------------------------------------------
# training and evaluation

def _run_dir(manifest: Manifest, out_dir: str | None) -> Path:
    return Path(out_dir) if out_dir else manifest.root / "run"


def cmd_train(cfg: RunConfig, manifest_path: str, out_dir: str | None) -> None:
    manifest = load_manifest(manifest_path)
    dataset = _load_dataset(cfg, manifest, ("train",))
    if not dataset:
        raise DataError(f"{manifest_path}: no train-split entries")
    # the manifest may come from a run under another config
    resolution, labels = cfg.model.encoder.resolution, dataset[0][1].resolution
    if resolution != labels:
        raise ConfigError(f"model.encoder.resolution {resolution} does not match "
                          f"the train labels' resolution {labels}")
    model = build_model(cfg.model.encoder, cfg.model.decoder, seed=cfg.model.seed)
    run_dir = _run_dir(manifest, out_dir)
    make_dir(run_dir)
    run = cfg.trainer.run
    result = train(dataset, model, run, cfg.trainer.optimizer, out_dir=str(run_dir))
    epoch, loss, iou_val = result.log[-1]
    print(f"trained {run.epochs} epochs on {len(dataset)} samples; "
          f"final loss {loss:.4f}, train IoU {iou_val:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")


def cmd_eval(cfg: RunConfig, manifest_path: str, out_dir: str | None) -> None:
    """Score every split present and write report.txt / report.csv."""
    manifest = load_manifest(manifest_path)
    run_dir = _run_dir(manifest, out_dir)
    ckpt = run_dir / "model.ckpt"
    if not ckpt.is_file():
        raise IoFailure(f"checkpoint not found: {ckpt}")
    model = load_training_checkpoint(ckpt, cfg.model)[0]

    text_parts = []
    csv_lines = ["split,category,count,iou,fscore"]
    for split in manifest.splits_present():
        dataset = _load_dataset(cfg, manifest, (split,))
        report = evaluate(model, dataset, cfg.metrics.threshold, cfg.metrics.distance)
        text_parts.append(f"== {split} ==\n{report.text()}")
        for row in report.csv_rows()[1:]:
            csv_lines.append(f"{split},{row}")
    text = "\n\n".join(text_parts) + "\n"
    write(run_dir / "report.txt", text)
    write(run_dir / "report.csv", "\n".join(csv_lines) + "\n")
    print(text, end="")
    print(f"reports written to {run_dir}")


# ---------------------------------------------------------------------------
# export

def grid_to_obj(grid: VoxelGrid) -> str:
    """One axis-aligned cube (8 vertices, 12 triangles) per occupied voxel.

    Cubes are emitted in row-major cell order with no face culling; the
    redundancy keeps the output trivially checkable and viewers cope.
    """
    res = grid.resolution
    cube = unit_cube_mesh()
    lines = [f"# voxel grid export, resolution {res}, occupied {grid.count()}"]
    occupied = np.argwhere(grid.occupancy)
    for n, cell in enumerate(occupied):
        verts = (cell[None, :] + cube.vertices) / res
        for v in verts:
            lines.append(f"v {v[0]:.8g} {v[1]:.8g} {v[2]:.8g}")
        base = 8 * n + 1
        for tri in cube.triangles:
            lines.append(f"f {base + tri[0]} {base + tri[1]} {base + tri[2]}")
    return "\n".join(lines) + "\n"


def _export_from_checkpoint(cfg: RunConfig, ckpt_path: str, sample_id: str,
                            manifest_path: str | None) -> VoxelGrid:
    if manifest_path is None:
        raise ConfigError("exporting from a checkpoint needs --manifest for the sample")
    manifest = load_manifest(manifest_path)
    matches = [e for e in manifest.entries if e.id == sample_id]
    if not matches:
        raise DataError(f"{manifest_path}: no sample with id {sample_id!r}")
    model = load_training_checkpoint(ckpt_path, cfg.model)[0]
    frames = _frames(cfg, manifest, matches[0])
    model.eval()
    probs = model.forward(frames_to_input([frames]), remember=False)
    return binarize(probs[0], cfg.metrics.threshold)


def cmd_export(cfg: RunConfig, input_path: str, sample_id: str | None,
               manifest_path: str | None, out_path: str | None) -> None:
    if out_path is None:
        raise ConfigError("export needs --out for the OBJ destination")
    if input_path.endswith(".vox"):
        if sample_id is not None:
            raise ConfigError("a sample id only applies when exporting from a checkpoint")
        grid = read_vox1(input_path)
    elif input_path.endswith(".ckpt"):
        if sample_id is None:
            raise ConfigError("exporting from a checkpoint needs a sample id argument")
        grid = _export_from_checkpoint(cfg, input_path, sample_id, manifest_path)
    else:
        raise ConfigError(f"export input must be a .vox or .ckpt file, got {input_path!r}")
    write(out_path, grid_to_obj(grid))
    print(f"exported {grid.count()} voxels to {out_path}")


# ---------------------------------------------------------------------------
# plumbing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ev2vox",
        description="Event-camera to voxel-grid pipeline: synthesize datasets, "
        "train the reconstruction model, and inspect results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    def command(name, help, out_help=None, manifest=True, seed=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        if manifest:
            p.add_argument("--manifest", metavar="PATH", help="dataset manifest")
        if seed:
            p.add_argument("--seed", type=int, metavar="N", help="seed override")
        if out_help:
            p.add_argument("--out", metavar="DIR", help=out_help)
        p.add_argument("--toy", action="store_true",
                       help="desk-scale defaults instead of full-scale ones")
        return p

    command("generate", "synthesize an event/voxel dataset", "dataset output directory",
            manifest=False, seed=True)
    p = command("preprocess", "bin event files into <manifest dir>/cache")
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="worker threads (default 1)")
    command("train", "train the reconstruction model",
            "run directory for checkpoints and logs (default: <manifest dir>/run)", seed=True)
    command("eval", "score a trained checkpoint per split",
            "run directory holding model.ckpt (default: <manifest dir>/run)")
    p = command("export", "write an OBJ cube mesh from a voxel grid", "OBJ output path")
    p.add_argument("input", help="a .vox file, or a .ckpt checkpoint")
    p.add_argument("sample", nargs="?", default=None,
                   help="sample id to reconstruct (checkpoint input only)")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, toy=args.toy, seed=getattr(args, "seed", None))
    if args.command == "generate":
        if args.out is None:
            raise ConfigError("generate needs --out for the dataset directory")
        cmd_generate(cfg, args.seed if args.seed is not None else 0, args.out)
    elif args.command == "preprocess":
        if args.manifest is None:
            raise ConfigError("preprocess needs --manifest")
        if args.threads < 1:
            raise ConfigError(f"thread count must be at least 1, got {args.threads}")
        cmd_preprocess(cfg, args.manifest, args.threads)
    elif args.command == "train":
        if args.manifest is None:
            raise ConfigError("train needs --manifest")
        cmd_train(cfg, args.manifest, args.out)
    elif args.command == "eval":
        if args.manifest is None:
            raise ConfigError("eval needs --manifest")
        cmd_eval(cfg, args.manifest, args.out)
    elif args.command == "export":
        cmd_export(cfg, args.input, args.sample, args.manifest, args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except PipelineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception:
        print(traceback.format_exc(), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
