"""The demos run end to end, each in a fresh interpreter.

Demo 01 takes about a second. Demo 03 takes a few seconds against a copy
of the toy pipeline's run directory: that run trained on the eight seed-7
samples the demo rebuilds. Demo 02 is left out because it trains the toy
model for about half a minute; 03 reads the checkpoint format it writes.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_demo(name: str, out_dir: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, str(REPO / "demos" / name), str(out_dir)],
        cwd=out_dir.parent, env=env, capture_output=True, text=True, timeout=300,
    )


def test_demo_01_simulate_and_bin(tmp_path):
    out = tmp_path / "out"
    proc = run_demo("01_simulate_and_bin.py", out)
    assert proc.returncode == 0, proc.stderr
    assert (out / "orbit.evt").stat().st_size > 0
    assert "frame stack: (100, 64, 64)" in proc.stdout


def test_demo_03_evaluate_and_export(pipeline, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(pipeline["run"], out)
    proc = run_demo("03_evaluate_and_export.py", out)
    assert proc.returncode == 0, proc.stderr
    assert "loaded checkpoint from epoch 100" in proc.stdout
    for name in ("recon", "truth"):
        assert (out / f"sample0_{name}.obj").stat().st_size > 0
