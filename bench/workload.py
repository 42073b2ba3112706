"""One benchmark process: set up, run a workload's operations, check them.

bench/run.py starts this file in a fresh interpreter whose environment pins
BLAS to one thread; the pins must be in place before numpy is imported,
which is why nothing here imports numpy at module level.

    python3 bench/workload.py WORKLOAD --seed N --seconds S --mode MODE
                              --spawned-at T --out RESULT.json

MODE is ``setup`` (set up, report the set-up time, exit), ``run`` (set up,
then run operations until the next one would overrun S seconds, at least
one) or ``trace`` (one untraced operation, then the same operation again
under the tracer). The result goes to RESULT.json; progress and failures go
to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE = json.loads((BENCH / "reference.json").read_text())
DEFAULT_SEED = REFERENCE["default_seed"]


def _digest(paths, root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    """Interface: set-up cost, the timed operation, and its output checks."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def build(self) -> None:
        """Set-up beyond imports; it counts toward setup_s."""

    def prepare(self) -> None:
        """Make the benchmark's own inputs from the seed; not timed."""

    def run(self, tag: str):
        """Run one operation; returns (seconds, stage seconds, failed stages, outputs)."""
        raise NotImplementedError

    def check(self, outputs) -> tuple[list[str], str]:
        """Check one operation's outputs; returns (problems, fingerprint)."""
        raise NotImplementedError

    def expected_calls(self, layers) -> dict[str, int]:
        """Traced call count of every span key for one build() plus run()."""
        raise NotImplementedError

    def model_for_counts(self):
        """A model shaped like the one the operation runs, or None without one."""
        return None


class ToyPipeline(Workload):
    """The README's path: generate, preprocess, train and eval on --toy."""

    STAGES = ("generate", "preprocess", "train", "eval")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        from ev2vox import cli
        self.cli = cli

    def run(self, tag):
        data = self.work / f"toy-{tag}"
        shutil.rmtree(data, ignore_errors=True)
        manifest = str(data / "manifest.json")
        argvs = {
            "generate": ["generate", "--toy", "--seed", str(self.seed), "--out", str(data)],
            "preprocess": ["preprocess", "--toy", "--manifest", manifest, "--threads", "1"],
            "train": ["train", "--toy", "--manifest", manifest],
            "eval": ["eval", "--toy", "--manifest", manifest],
        }
        stages, failed = {}, []
        start = time.perf_counter()
        for stage in self.STAGES:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argvs[stage])
            stages[stage] = time.perf_counter() - t0
            if code != 0:
                failed.append(stage)
                print(f"toy_pipeline: {stage} exited {code}", file=sys.stderr)
                break
        return time.perf_counter() - start, stages, failed, data

    def check(self, data):
        problems = []
        try:
            rows = [line.split(",") for line in (data / "run" / "report.csv").read_text().splitlines()]
            overall = [float(r[3]) for r in rows[1:] if r[0] == "train" and r[1] == "Overall"]
            if len(overall) != 1 or not overall[0] >= 0.9:
                problems.append(f"eval: train Overall IoU {overall} is not >= 0.9")
            manifest = self.cli.load_manifest(data / "manifest.json")
            # expected_calls() and summary() derive their counts from these
            self.split_sizes = {s: len(manifest.for_split(s)) for s in self.cli.SPLITS}
        except (OSError, ValueError, IndexError, self.cli.PipelineError) as exc:
            problems.append(f"eval: cannot read the report or manifest: {exc}")
        streams = list(data.glob("*.evt")) + list(data.glob("*.vox"))
        if self.seed == DEFAULT_SEED:
            expected = REFERENCE["toy_pipeline"]["evt_vox_sha256"]
            got = _digest(streams, data)
            if got != expected:
                problems.append(f"generate: EVT1/VOX1 digest {got} != recorded {expected}")
        fingerprint = _digest([p for p in data.rglob("*") if p.is_file()], data)
        shutil.rmtree(data, ignore_errors=True)
        return problems, fingerprint

    def model_for_counts(self):
        from ev2vox import model
        return model.build_model(model.EncoderConfig.toy(), model.DecoderConfig.toy())

    def expected_calls(self, layers):
        from ev2vox import sim
        cfg = self.cli.load_run_config(None, toy=True, seed=self.seed)
        n, run = cfg.generate.count, cfg.run
        traj = sim.TrajectoryConfig()
        sizes = self.split_sizes
        n_train = sizes["train"]
        steps = run.epochs * math.ceil(n_train / run.batch_size)
        # evaluate() runs each present split in batches of its default 5
        eval_batches = sum(math.ceil(k / 5) for k in sizes.values())
        forwards = steps + eval_batches
        saves = sum(1 for e in range(1, run.epochs + 1)
                    if e % run.checkpoint_every == 0 or e == run.epochs)
        calls = {
            "cli.self_s": 4, "cli.generate_s": 1, "cli.preprocess_s": 1,
            "cli.train_s": 1, "cli.eval_s": 1,
            "sim.generate_sample.self_s": n,
            "sim.render_frame.self_s": n * int(traj.duration * traj.fps),
            "sim.video_to_events_s": n, "sim.occupancy_label_s": n,
            "events.evt1_write_s": n, "events.evt1_read_s": n, "events.bin_to_frames_s": n,
            "voxel.vox1_write_s": n, "voxel.vox1_read_s": n_train + n,
            "voxel.iou.self_s": run.epochs * n_train + n, "voxel.fscore_s": n,
            # train and eval each build the model
            "model.build_s": 2,
            "rng.uniform_s": 2 * (layers["nn.conv_k1"] + layers["nn.conv_k3"]
                                  + layers["nn.conv_k7"] + layers["nn.deconv_k2"]),
            "model.forward_s": forwards, "model.backward_s": steps, "model.bce_loss_s": steps,
            "train.self_s": 1, "train.adamw_step_s": steps,
            "train.evaluate_s": sum(1 for k in sizes.values() if k),
            "checkpoint.save_s": saves, "checkpoint.load_s": 1,
        }
        for group, count in layers.items():
            calls[f"{group}.fwd_s"] = count * forwards
            calls[f"{group}.bwd_s"] = count * steps
        return calls

    def summary(self, stages):
        """The issue-level figures of one pipeline: stage times and training rate."""
        cfg = self.cli.load_run_config(None, toy=True, seed=self.seed)
        passes = self.split_sizes["train"] * cfg.run.epochs
        return {"generate_s": stages["generate"], "train_s": stages["train"],
                "train_samples_per_s": passes / stages["train"]}


class FullscaleInfer(Workload):
    """Paper-scale encode + decode of one (1, 1, 100, 256, 256) frame stack."""

    SHAPE = (1, 1, 100, 256, 256)
    DENSITY = 0.05

    def __init__(self, seed, work):
        super().__init__(seed, work)
        from ev2vox import model
        self.mod = model
        self.model = None

    def build(self):
        self.model = None
        gc.collect()
        self.model = self.mod.build_model(self.mod.EncoderConfig.paper(), self.mod.DecoderConfig.paper())
        # batch statistics: fresh running stats saturate the sigmoid to exactly 0 and 1
        self.model.train()

    def prepare(self):
        import numpy as np
        self.x = (np.random.default_rng(self.seed).random(self.SHAPE) < self.DENSITY).astype(np.float32)

    def run(self, tag):
        t0 = time.perf_counter()
        hidden = self.mod.encode(self.model, self.x)
        t1 = time.perf_counter()
        probs = self.mod.decode(self.model, hidden)
        t2 = time.perf_counter()
        return t2 - t0, {"encode": t1 - t0, "decode": t2 - t1}, [], probs

    def check(self, probs):
        import numpy as np
        problems = []
        if probs.shape != (1, 32, 32, 32):
            problems.append(f"output shape {probs.shape} != (1, 32, 32, 32)")
        elif not np.all(np.isfinite(probs)):
            problems.append("output has non-finite values")
        elif not (probs.min() > 0.0 and probs.max() < 1.0):
            problems.append(f"output range [{probs.min()}, {probs.max()}] not inside (0, 1)")
        elif self.seed == DEFAULT_SEED:
            ref = REFERENCE["fullscale_infer"]
            got = self.output_summary(probs)
            for key, value in got.items():
                if abs(value - ref[key]) > ref["atol"]:
                    problems.append(f"output {key} {value} differs from recorded {ref[key]} "
                                    f"by more than {ref['atol']}")
        return problems, hashlib.sha256(np.ascontiguousarray(probs).tobytes()).hexdigest()

    @staticmethod
    def output_summary(probs):
        p = probs.astype("float64")
        return {"mean": float(p.mean()), "std": float(p.std()),
                "min": float(p.min()), "max": float(p.max())}

    def model_for_counts(self):
        return self.model

    def expected_calls(self, layers):
        calls = {"model.build_s": 1, "model.encode_s": 1, "model.decode_s": 1,
                 "rng.uniform_s": layers["nn.conv_k1"] + layers["nn.conv_k3"]
                 + layers["nn.conv_k7"] + layers["nn.deconv_k2"]}
        for group, count in layers.items():
            calls[f"{group}.fwd_s"] = count
        return calls


class MeshSample(Workload):
    """One sample of a seeded rotation of the UV sphere on the triangle raycaster."""

    FRAMES = 2
    RESOLUTION = 32

    def __init__(self, seed, work):
        super().__init__(seed, work)
        from ev2vox import events, sim, voxel
        self.sim, self.voxel, self.events = sim, voxel, events

    def prepare(self):
        import numpy as np
        mesh = self.voxel.uv_sphere_mesh()
        # a uniformly random rotation about the sphere's center (QR of a Gaussian)
        q, r = np.linalg.qr(np.random.default_rng(self.seed).standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        verts = (mesh.vertices - 0.5) @ q.T + 0.5
        self.triangles = len(mesh.triangles)
        self.scene = self.sim.Scene(mesh=self.voxel.TriMesh(verts, mesh.triangles))
        fps = self.sim.TrajectoryConfig().fps
        self.traj = self.sim.TrajectoryConfig(duration=self.FRAMES / fps, fps=fps)
        self.cam = self.sim.CameraIntrinsics(width=64, height=64)

    def run(self, tag):
        t0 = time.perf_counter()
        stream, label = self.sim.generate_sample(self.scene, self.traj, self.cam,
                                                 resolution=self.RESOLUTION)
        return time.perf_counter() - t0, {}, [], (tag, stream, label)

    def check(self, outputs):
        import numpy as np
        tag, stream, label = outputs
        problems = []
        analytic = 4.0 / 3.0 * math.pi * 0.5 ** 3 * self.RESOLUTION ** 3
        if abs(label.count() - analytic) / analytic >= 0.05:
            problems.append(f"label has {label.count()} voxels, analytic sphere {analytic:.0f}")
        evt, vox = self.work / f"mesh-{tag}.evt", self.work / f"mesh-{tag}.vox"
        self.events.write_evt1(stream, evt)
        self.voxel.write_vox1(label, vox)
        back = self.events.read_evt1(evt)
        same = all(np.array_equal(getattr(back, f), getattr(stream, f)) for f in "txyp") and (
            back.sensor_width, back.sensor_height, back.duration
        ) == (stream.sensor_width, stream.sensor_height, stream.duration)
        if not same:
            problems.append("event stream does not round-trip through EVT1")
        digests = {"evt_sha256": hashlib.sha256(evt.read_bytes()).hexdigest(),
                   "vox_sha256": hashlib.sha256(vox.read_bytes()).hexdigest()}
        if self.seed == DEFAULT_SEED:
            for key, value in digests.items():
                expected = REFERENCE["mesh_sample"][key]
                if value != expected:
                    problems.append(f"{key} {value} != recorded {expected}")
        evt.unlink()
        vox.unlink()
        return problems, digests["evt_sha256"] + digests["vox_sha256"]

    def expected_calls(self, layers):
        return {"sim.generate_sample.self_s": 1, "sim.render_frame.self_s": self.FRAMES,
                "sim.video_to_events_s": 1, "sim.occupancy_label_s": 1, "voxel.voxelize_s": 1}


WORKLOADS = {"toy_pipeline": ToyPipeline, "fullscale_infer": FullscaleInfer,
             "mesh_sample": MeshSample}


def _environment() -> dict:
    import numpy as np
    import scipy
    info = {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _record(wl, ops, seconds, stages, failed, problems, fingerprint):
    """Append one operation's record; each CLI stage of toy_pipeline is an operation."""
    for problem in problems:
        print(f"{type(wl).__name__}: check failed: {problem}", file=sys.stderr)
    if isinstance(wl, ToyPipeline):
        attempted = len(wl.STAGES)
        # a problem names the stage it blames; stages after a failed one never ran
        bad = set(failed) | {s for p in problems for s in wl.STAGES if p.startswith(s + ":")}
        if failed:
            bad |= set(wl.STAGES[wl.STAGES.index(failed[0]):])
        n_failed = len(bad) if not problems or bad else attempted
    else:
        attempted, n_failed = 1, int(bool(failed or problems))
    ops.append({"seconds": seconds, "stages": stages, "attempted": attempted,
                "failed": n_failed, "fingerprint": fingerprint})


def _op(wl, tag, ops):
    seconds, stages, failed, outputs = wl.run(tag)
    _record(wl, ops, seconds, stages, failed, *wl.check(outputs))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    unpinned = [v for v in PINNED if os.environ.get(v) != "1"]
    if unpinned or "numpy" in sys.modules:
        print(f"BLAS threads not pinned before numpy import: {unpinned}", file=sys.stderr)
        return 2

    work = Path(args.out).resolve().parent
    wl = WORKLOADS[args.workload](args.seed, work)
    wl.build()
    # time.monotonic is the system-wide CLOCK_MONOTONIC, so it compares with the parent's
    result = {"setup_s": time.monotonic() - args.spawned_at, "env": _environment()}
    if args.mode != "setup":
        wl.prepare()
        ops = []
        try:
            if args.mode == "run":
                _run(wl, args.seconds, ops)
            else:
                result["layers"] = _trace(wl, ops)
        except Exception:
            traceback.print_exc()
            ops.append({"seconds": None, "stages": {}, "attempted": 1, "failed": 1,
                        "fingerprint": None})
        result["ops"] = ops
        if isinstance(wl, ToyPipeline):
            result["summary"] = [wl.summary(op["stages"]) for op in ops if op["failed"] == 0]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))
    return 0


def _run(wl, budget, ops):
    start = time.perf_counter()
    while True:
        _op(wl, f"run{len(ops)}", ops)
        print(f"operation {len(ops)}: {ops[-1]['seconds']:.3f} s", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(ops) > budget:
            return


def _trace(wl, ops):
    from tracer import Tracer, layer_counts

    _op(wl, "untraced", ops)
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        wl.build()
        seconds, stages, failed, outputs = wl.run("traced")
    finally:
        window = time.perf_counter() - t0
        tracer.uninstall()
    problems, fingerprint = wl.check(outputs)
    if fingerprint != ops[0]["fingerprint"]:
        problems.append("traced outputs differ from the untraced run's")
    layers = tracer.layer_metrics(window)
    model = wl.model_for_counts()
    groups = layer_counts(model) if model is not None else {}
    expected = wl.expected_calls(groups)
    got = tracer.calls()
    wrong = {key: (got[key], expected.get(key, 0)) for key in set(got) | set(expected)
             if got[key] != expected.get(key, 0)}
    if wrong:
        problems.append(f"traced call counts (got, expected) differ: {sorted(wrong.items())}")
    print("traced bindings: " + " ".join(tracer.bindings), file=sys.stderr)
    layers["trace.untraced_op_s"] = ops[0]["seconds"]
    layers["trace.traced_op_s"] = seconds
    layers["trace.overhead_s"] = seconds - ops[0]["seconds"]
    _record(wl, ops, seconds, stages, failed, problems, fingerprint)
    return layers


if __name__ == "__main__":
    sys.exit(main())
