"""The demos run end to end, each in a fresh interpreter.

Demo 01 takes about a second. Demo 02 trains the toy model for 3 epochs
instead of its default 200 (about half a minute), which still runs every
step and writes a checkpoint. Demo 03 takes a few seconds against a copy
of the toy pipeline's run directory: that run trained on the eight seed-7
samples the demo rebuilds. Demo 04 runs with --skip-forward: it builds
the paper model (about 4 s) but skips the paper-scale forward pass.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_demo(name: str, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, str(REPO / "demos" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_demo_01_simulate_and_bin(tmp_path):
    out = tmp_path / "out"
    proc = run_demo("01_simulate_and_bin.py", tmp_path, str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "orbit.evt").stat().st_size > 0
    assert "frame stack: (100, 64, 64)" in proc.stdout


def test_demo_02_train_toy(tmp_path):
    out = tmp_path / "out"
    proc = run_demo("02_train_toy.py", tmp_path, str(out), "3")
    assert proc.returncode == 0, proc.stderr
    assert "output volume 8^3" in proc.stdout
    assert "trained 3 epochs" in proc.stdout
    assert (out / "model.ckpt").stat().st_size > 0


def test_demo_03_evaluate_and_export(pipeline, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(pipeline["run"], out)
    proc = run_demo("03_evaluate_and_export.py", tmp_path, str(out))
    assert proc.returncode == 0, proc.stderr
    assert "loaded checkpoint from epoch 100" in proc.stdout
    for name in ("recon", "truth"):
        assert (out / f"sample0_{name}.obj").stat().st_size > 0


def test_demo_04_full_scale_shapes(tmp_path):
    proc = run_demo("04_full_scale_shapes.py", tmp_path, "--skip-forward")
    assert proc.returncode == 0, proc.stderr
    assert "parameters: 120,032,257" in proc.stdout
    assert "stage 2: 36 bottleneck blocks, 256->1024 channels" in proc.stdout
