"""Overfit the desk-scale model on a handful of synthetic samples.

Eight procedural scenes are rendered to event streams, binned into
(10, 32, 32) frame stacks, and paired with 8^3 occupancy labels. The toy
encoder-decoder (about 47k parameters) then memorizes them with AdamW.
Expect the loss to drop under 0.05 and training IoU to saturate near 1.0
in about a quarter minute of CPU time. An epoch count after the output
directory replaces the 200 epochs, for a quicker run.

Run:  python3 demos/02_train_toy.py [out_dir] [epochs]
"""

import sys
import time
from pathlib import Path

from ev2vox.cli import _procedural_scene
from ev2vox.events import BinningConfig, bin_to_frames
from ev2vox.model import DecoderConfig, EncoderConfig, build_model, count_parameters
from ev2vox.sim import generate_sample
from ev2vox.train import AdamWConfig, TrainRun, train

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_out")
epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 200
out_dir.mkdir(parents=True, exist_ok=True)

print("generating 8 procedural samples...")
binning = BinningConfig(window=0.05, target_height=32, target_width=32)
dataset = []
for i in range(8):
    scene, kind = _procedural_scene(7, i)
    stream, label = generate_sample(scene, resolution=8)
    dataset.append((bin_to_frames(stream, binning).frames, label, kind))
    print(f"  s{i}: {kind:<9} {len(stream):>6} events, "
          f"{label.count():>3} occupied cells")

model = build_model(EncoderConfig.toy(), DecoderConfig.toy(), seed=0)
print(f"\ntoy model: {count_parameters(model)} parameters, "
      f"output volume {model.config.encoder.hidden_spatial}")

run = TrainRun(epochs=epochs, batch_size=5, seed=0, checkpoint_every=100)
t0 = time.perf_counter()
result = train(dataset, model, run, AdamWConfig.toy(), out_dir=str(out_dir))
print(f"trained {run.epochs} epochs in {time.perf_counter() - t0:.1f} s")

print("\nepoch     loss   IoU@0.3")
for epoch, loss, iou in result.log:
    if (epoch + 1) % 25 == 0 or epoch == 0:
        print(f"{epoch + 1:>5} {loss:>8.4f} {iou:>9.4f}")
print(f"\ncheckpoint: {result.checkpoint_path}")
