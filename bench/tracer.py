"""Outside-in span tracer: wraps ev2vox's public functions and layer methods.

Nothing under ``src/`` is edited. ``cli``, ``train`` and ``sim`` import
names with ``from .x import y``, which copies the binding into the
importing module, so replacing ``ev2vox.x.y`` alone would miss every call
made through ``ev2vox.cli.y``. ``Tracer.install`` therefore swaps every
module attribute in the package that *is* the original function; layer
methods are swapped on their class, which every call looks up.

Each span's key names the per-layer metric its self time lands in, so the
self times of all spans plus the gaps between top-level spans add up to
the traced wall time exactly; ``layer_metrics`` checks that.

Spans sit on one stack shared by all threads. That is exact while only one
thread at a time runs traced code, which holds for this benchmark: the only
thread pool is ``preprocess --threads 1``, whose caller blocks on each
result. Spans that interleave raise instead of producing wrong numbers.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

NN_GROUPS = ("conv_k1", "conv_k3", "conv_k7", "deconv_k2")
NN_SIMPLE = ("batchnorm", "relu", "maxpool", "resize", "sigmoid")


def _size_of(path_pos: int, counter: str):
    def after(counts, args, kwargs, result):
        path = args[path_pos] if len(args) > path_pos else kwargs["path"]
        counts[counter] += os.path.getsize(path)
    return after


def _ray_hits(counts, args, kwargs, img):
    # the background is exactly 1.0 and a Lambertian hit stays below it
    counts["sim.rays"] += img.size
    counts["sim.ray_hits"] += int((img < 1.0).sum())


def _events(counts, args, kwargs, stream):
    counts["sim.events_emitted"] += len(stream)


def _conv_flops(counts, args, kwargs, y):
    layer = args[0]
    kd, kh, kw = layer.spec.kernel
    # one multiply and one add per output element, input channel and tap
    counts[layer_group(layer) + ".gflop"] += 2 * y.size * layer.spec.in_channels * kd * kh * kw / 1e9


def _deconv_flops(counts, args, kwargs, y):
    layer, x = args[0], args[1]
    kd, kh, kw = layer.spec.kernel
    # the transposed conv scatters every input element to cout * taps outputs
    counts[layer_group(layer) + ".gflop"] += 2 * x.size * layer.spec.out_channels * kd * kh * kw / 1e9


# (module, function, span key, after-call hook)
FUNCTIONS = (
    ("ev2vox.cli", "main", "cli.self_s", None),
    ("ev2vox.cli", "cmd_generate", "cli.generate_s", None),
    ("ev2vox.cli", "cmd_preprocess", "cli.preprocess_s", None),
    ("ev2vox.cli", "cmd_train", "cli.train_s", None),
    ("ev2vox.cli", "cmd_eval", "cli.eval_s", None),
    ("ev2vox.sim", "generate_sample", "sim.generate_sample.self_s", None),
    ("ev2vox.sim", "render_frame", "sim.render_frame.self_s", _ray_hits),
    ("ev2vox.sim", "video_to_events", "sim.video_to_events_s", _events),
    ("ev2vox.sim", "occupancy_label", "sim.occupancy_label_s", None),
    ("ev2vox.voxel", "voxelize", "voxel.voxelize_s", None),
    ("ev2vox.voxel", "iou", "voxel.iou.self_s", None),
    ("ev2vox.voxel", "fscore", "voxel.fscore_s", None),
    ("ev2vox.voxel", "write_vox1", "voxel.vox1_write_s", _size_of(1, "voxel.vox1_bytes")),
    ("ev2vox.voxel", "read_vox1", "voxel.vox1_read_s", None),
    ("ev2vox.events", "write_evt1", "events.evt1_write_s", _size_of(1, "events.evt1_bytes")),
    ("ev2vox.events", "read_evt1", "events.evt1_read_s", None),
    ("ev2vox.events", "bin_to_frames", "events.bin_to_frames_s", None),
    ("ev2vox.model", "build_model", "model.build_s", None),
    ("ev2vox.rng", "uniform", "rng.uniform_s", None),
    ("ev2vox.model", "encode", "model.encode_s", None),
    ("ev2vox.model", "decode", "model.decode_s", None),
    ("ev2vox.model", "bce_loss", "model.bce_loss_s", None),
    ("ev2vox.train", "train", "train.self_s", None),
    ("ev2vox.train", "adamw_step", "train.adamw_step_s", None),
    ("ev2vox.train", "evaluate", "train.evaluate_s", None),
    ("ev2vox.checkpoint", "save_checkpoint", "checkpoint.save_s", _size_of(0, "checkpoint.bytes")),
    ("ev2vox.checkpoint", "load_checkpoint", "checkpoint.load_s", None),
)

# (module, class, group or None for the method's own key, forward hook)
LAYERS = (
    ("ev2vox.nn", "Conv3d", None, _conv_flops),
    ("ev2vox.nn", "Deconv3d", None, _deconv_flops),
    ("ev2vox.nn", "BatchNorm3d", "nn.batchnorm", None),
    ("ev2vox.nn", "ReLU", "nn.relu", None),
    ("ev2vox.nn", "MaxPool3d", "nn.maxpool", None),
    ("ev2vox.nn", "AdaptiveResize3d", "nn.resize", None),
    ("ev2vox.nn", "Sigmoid", "nn.sigmoid", None),
)

MODEL_METHODS = (("forward", "model.forward_s"), ("backward", "model.backward_s"))

SELF_KEYS = tuple(key for _, _, key, _ in FUNCTIONS) + tuple(
    f"nn.{g}.{d}_s" for g in NN_GROUPS + NN_SIMPLE for d in ("fwd", "bwd")
) + tuple(key for _, key in MODEL_METHODS)


def layer_group(layer) -> str:
    """Metric prefix of an nn layer, e.g. ``nn.conv_k3`` or ``nn.relu``."""
    name = type(layer).__name__
    for _, cls, group, _ in LAYERS:
        if cls == name and group is not None:
            return group
    kd, kh, kw = layer.spec.kernel
    k = str(kd) if kd == kh == kw else f"{kd}x{kh}x{kw}"
    return f"nn.{'deconv' if name == 'Deconv3d' else 'conv'}_k{k}"


def layer_counts(model) -> Counter:
    """How many layer instances of each group a model holds."""
    nn = importlib.import_module("ev2vox.nn")
    classes = tuple(getattr(nn, cls) for _, cls, _, _ in LAYERS)
    seen, groups = set(), Counter()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, classes):
            groups[layer_group(obj)] += 1
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif type(obj).__module__.startswith("ev2vox.") and hasattr(obj, "__dict__"):
            for value in vars(obj).values():
                visit(value)

    visit(model)
    return groups


def _percentile_ms(values, q: float) -> float:
    """Nearest-rank percentile in ms; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e3 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Records (key, parent key, start, end, self seconds) per traced call."""

    def __init__(self):
        self.spans: list[tuple[str, str | None, float, float, float]] = []
        self.counts: Counter = Counter()
        self.bindings: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, key_of, after):
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = key_of if isinstance(key_of, str) else key_of(args)
            frame = [key, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if stack.pop() is not frame:
                    raise RuntimeError(f"span {key} ended out of order; is a pool running "
                                       "traced code on more than one thread?")
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((key, parent, t0, t1, t1 - t0 - frame[1]))
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    def _swap(self, owner, name, new):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ev2vox" or name.startswith("ev2vox."))]
        for modname, attr, key, after in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(original, key, after)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, name, wrapper)
                        self.bindings.append(f"{module.__name__}.{name}")
        for modname, cls, group, fwd_hook in LAYERS:
            klass = getattr(importlib.import_module(modname), cls)
            for method, hook in (("forward", fwd_hook), ("backward", None)):
                suffix = ".fwd_s" if method == "forward" else ".bwd_s"
                key_of = group + suffix if group else (
                    lambda args, sfx=suffix: layer_group(args[0]) + sfx)
                self._swap(klass, method, self._wrap(vars(klass)[method], key_of, hook))
        model_cls = importlib.import_module("ev2vox.model").E2VModel
        for method, key in MODEL_METHODS:
            self._swap(model_cls, method, self._wrap(vars(model_cls)[method], key, None))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def calls(self) -> Counter:
        return Counter(key for key, *_ in self.spans)

    def layer_metrics(self, window_s: float) -> dict[str, float]:
        """Per-layer metrics for a traced window of ``window_s`` seconds.

        Raises if a span's self time has no metric to land in, or if self
        times plus top-level gaps do not add up to the window.
        """
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        top_level = 0.0
        for key, parent, t0, t1, own in self.spans:
            self_s[key] += own
            durations[key].append(t1 - t0)
            if parent is None:
                top_level += t1 - t0
        unmapped = set(self_s) - set(SELF_KEYS)
        if unmapped:
            raise RuntimeError(f"spans without a per-layer metric: {sorted(unmapped)}")
        gap = window_s - top_level
        accounted = sum(self_s.values()) + gap
        if not math.isclose(accounted, window_s, rel_tol=1e-9, abs_tol=1e-9) or gap < 0:
            raise RuntimeError(f"self times plus gaps give {accounted} s of a {window_s} s window")

        calls = self.calls()
        m: dict[str, float] = {key: self_s[key] for key in SELF_KEYS}
        render = "sim.render_frame.self_s"
        m["sim.render_frame.calls"] = calls[render]
        m["sim.render_frame.p50_ms"] = 1e3 * statistics.median(durations[render]) if durations[render] else 0.0
        m["sim.render_frame.p95_ms"] = _percentile_ms(durations[render], 0.95)
        m["sim.generate_sample.calls"] = calls["sim.generate_sample.self_s"]
        rays = self.counts["sim.rays"]
        m["sim.ray_hit_ratio"] = self.counts["sim.ray_hits"] / rays if rays else 0.0
        m["sim.events_emitted"] = self.counts["sim.events_emitted"]
        m["voxel.iou.calls"] = calls["voxel.iou.self_s"]
        for counter in ("voxel.vox1_bytes", "events.evt1_bytes", "checkpoint.bytes"):
            m[counter] = self.counts[counter]
        for g in NN_GROUPS:
            fwd_s = self_s[f"nn.{g}.fwd_s"]
            gflop = self.counts[f"nn.{g}.gflop"]
            m[f"nn.{g}.calls"] = calls[f"nn.{g}.fwd_s"] + calls[f"nn.{g}.bwd_s"]
            m[f"nn.{g}.gflop"] = gflop
            m[f"nn.{g}.fwd_gflops_per_s"] = gflop / fwd_s if fwd_s else 0.0
        m["model.forward.calls"] = calls["model.forward_s"]
        steps = self.train_steps()
        m["train.step.calls"] = len(steps)
        m["train.step.p50_ms"] = 1e3 * statistics.median(steps) if steps else 0.0
        m["train.step.p95_ms"] = _percentile_ms(steps, 0.95)
        m["trace.window_s"] = window_s
        m["trace.gap_s"] = gap
        return m

    def train_steps(self) -> list[float]:
        """Per-step seconds inside train(): forward start to AdamW end."""
        starts = [t0 for key, parent, t0, _, _ in self.spans
                  if key == "model.forward_s" and parent == "train.self_s"]
        ends = [t1 for key, parent, _, t1, _ in self.spans
                if key == "train.adamw_step_s" and parent == "train.self_s"]
        if len(starts) != len(ends):
            raise RuntimeError(f"{len(starts)} training forwards but {len(ends)} AdamW steps")
        return [end - start for start, end in zip(sorted(starts), sorted(ends))]
