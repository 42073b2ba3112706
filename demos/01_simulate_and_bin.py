"""Simulate an event camera orbiting a desk-scale scene, then bin the
stream into binary frames.

The camera spirals from (r=4, z=+2) down through the equator at r=6 and
back in to (r=4, z=-2) over half a second at 240 fps. Brightness is
Lambertian under three fixed lights; per-pixel log-intensity crossings of
the contrast threshold become timestamped polarity events.

Run:  python3 demos/01_simulate_and_bin.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from ev2vox.events import BinningConfig, bin_to_frames, write_evt1
from ev2vox.sim import Box, Scene, Sphere, generate_sample

out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_out")
out_dir.mkdir(parents=True, exist_ok=True)

scene = Scene(primitives=[
    Sphere((0.12, 0.0, 0.1), 0.22),
    Box((-0.18, 0.05, -0.12), (0.12, 0.16, 0.1), albedo=0.75),
])

print("rendering 120 frames and synthesizing events...")
stream, label = generate_sample(scene, resolution=32)
print(f"  {len(stream)} events over {stream.duration} s on a "
      f"{stream.sensor_width}x{stream.sensor_height} sensor")
pos = int((stream.p == 1).sum())
print(f"  polarity split: {pos} up, {len(stream) - pos} down")
print(f"  occupancy label: {label.count()} of {label.resolution ** 3} cells")

evt_path = out_dir / "orbit.evt"
write_evt1(stream, evt_path)
print(f"  wrote {evt_path} ({evt_path.stat().st_size} bytes)")

print("\nbinning with a 5 ms uniform window...")
frames = bin_to_frames(stream, BinningConfig(window=0.005))
print(f"  frame stack: {frames.shape} "
      f"(mean fill {frames.mean():.3f})")

# a frame is binary: 1 where the pixel fired at least once in the window;
# a single 5 ms slice is sparse, so show every pixel that ever fired
ever = frames.max(axis=0)
print("\npixels active in any frame, downsampled to 32x32, '#' = active:")
coarse = ever.reshape(32, 2, 32, 2).max(axis=(1, 3))
for row in coarse:
    print("  " + "".join("#" if v else "." for v in row))
