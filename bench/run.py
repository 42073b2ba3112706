"""ev2vox benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload toy_pipeline --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ev2vox from ``src/``. Each
run starts fresh Python processes with OpenBLAS, OpenMP and MKL pinned to
one thread, then prints human-readable lines followed by one JSON line:
with ``--trace 0`` the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics. bench/README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("toy_pipeline", "fullscale_infer", "mesh_sample")
# fresh processes timed for setup_s besides the measuring one; paper-scale
# set-up builds a 120M-parameter model, so it gets fewer
EXTRA_SETUPS = {"toy_pipeline": 4, "fullscale_infer": 2, "mesh_sample": 4}
DEADLINE_S = 170.0


def _loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return " ".join(fh.read().split()[:3])


def _child(root: Path, env: dict, workload: str, seed: int, seconds: float, mode: str,
           deadline: float) -> dict:
    out = root / ".bench_work" / f"{workload}-{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "workload.py"), workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--out", str(out)]
    spawned = time.monotonic()
    # stdout to stderr: this process's stdout ends with the result line
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env, cwd=root,
                          stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} process exited {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def _median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ev2vox" / "__init__.py").is_file():
        print(f"no ev2vox sources under {src}; run from the root of an ev2vox checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    (root / ".bench_work").mkdir(exist_ok=True)
    deadline = started + DEADLINE_S
    load_before = _loadavg()
    try:
        setups = []
        if not args.trace:
            for _ in range(EXTRA_SETUPS[args.workload]):
                setups.append(_child(root, env, args.workload, args.seed, args.seconds,
                                     "setup", deadline)["setup_s"])
        mode = "trace" if args.trace else "run"
        main_run = _child(root, env, args.workload, args.seed, args.seconds, mode, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(main_run["setup_s"])
    ops = main_run["ops"]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    env_record = dict(main_run["env"], nproc=len(os.sched_getaffinity(0)),
                      loadavg_before=load_before, loadavg_after=_loadavg())

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    op_seconds = [op["seconds"] for op in ops if op["seconds"] is not None]
    if args.trace:
        metrics = main_run.get("layers") or {}
    else:
        metrics = {"setup_s": _median(setups), "op_s": _median(op_seconds),
                   "peak_rss_mb": main_run["peak_rss_mb"]}
        counts = {"setup_s": len(setups), "op_s": len(op_seconds), "peak_rss_mb": 1}
        # the issue-level names of each workload's figures, with sample counts
        named = {"toy_pipeline": "pipeline_s", "fullscale_infer": "infer_s",
                 "mesh_sample": "sample_s"}[args.workload]
        report = [(named, metrics["op_s"], "s", len(op_seconds))]
        for key, unit in (("generate_s", "s"), ("train_s", "s"), ("train_samples_per_s", "1/s")):
            values = [s[key] for s in main_run.get("summary", [])]
            if values:
                report.append((key, _median(values), unit, len(values)))
        for stage in ("encode", "decode"):
            values = [op["stages"][stage] for op in ops if stage in op["stages"]]
            if values:
                report.append((f"{stage}_s", _median(values), "s", len(values)))
        for m in wanted:
            if metrics.get(m["name"]) is not None:
                report.append((m["name"], metrics[m["name"]], m["unit"], counts[m["name"]]))
        for name, value, unit, n in report:
            print(f"metric {name} {value!r} {unit} median of {n}")
    print(f"operations attempted {attempted} failed {failed}")

    names = [m["name"] for m in wanted]
    missing = [n for n in names if metrics.get(n) is None]
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        print(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
