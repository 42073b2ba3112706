"""Score a trained checkpoint and export a reconstruction for viewing.

Loads the checkpoint written by 02_train_toy.py (run that first, or pass
the same out_dir), rebuilds the dataset it was trained on, prints the
per-category IoU / F-Score table, and writes one reconstruction plus its
ground truth as OBJ cube meshes for a mesh viewer.

Run:  python3 demos/03_evaluate_and_export.py [out_dir]
"""

import sys
from pathlib import Path

from ev2vox.cli import _procedural_scene, grid_to_obj
from ev2vox.events import BinningConfig, bin_to_frames
from ev2vox.model import frames_to_input
from ev2vox.sim import generate_sample
from ev2vox.train import evaluate, load_training_checkpoint
from ev2vox.voxel import binarize

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_out")
ckpt = out_dir / "model.ckpt"
if not ckpt.is_file():
    sys.exit(f"no checkpoint at {ckpt}; run demos/02_train_toy.py first")

model, _, sidecar = load_training_checkpoint(ckpt)
print(f"loaded checkpoint from epoch {sidecar['epoch']}")

print("rebuilding the training samples...")
binning = BinningConfig(window=0.05, target_height=32, target_width=32)
dataset = []
for i in range(8):
    scene, kind = _procedural_scene(7, i)
    stream, label = generate_sample(scene, resolution=8)
    dataset.append((bin_to_frames(stream, binning), label, kind))

report = evaluate(model, dataset, threshold=0.3, distance=0.20)
print()
print(report.text())

model.eval()
frames, label, kind = dataset[0]
probs = model.forward(frames_to_input([frames]), remember=False)
pred = binarize(probs[0], 0.3)

for name, grid in (("recon", pred), ("truth", label)):
    path = out_dir / f"sample0_{name}.obj"
    path.write_text(grid_to_obj(grid))
    print(f"wrote {path} ({grid.count()} voxels)")
print(f"sample 0 is a {kind}; open both OBJ files side by side to compare")
