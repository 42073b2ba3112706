"""Walk the full-scale model's tensor shapes without training it.

The full configuration stacks a deep bottleneck encoder (3/8/36/3 blocks,
2048 output channels) on a three-level UNet decoder over a 32^3 volume.
This script builds it, reports the parameter budget, and pushes one
100-frame 256x256 input through to show every resolution the data visits.
The forward pass took about 13 s with one BLAS thread and 11 s with two on
a 2-core x86-64 (AVX-512) machine; pass --skip-forward to only print the
architecture.

Run:  python3 demos/04_full_scale_shapes.py [--skip-forward]
"""

import sys
import time

import numpy as np

from ev2vox.model import (
    DecoderConfig,
    EncoderConfig,
    build_model,
    count_parameters,
    decode,
    encode,
)

t0 = time.perf_counter()
enc_cfg, dec_cfg = EncoderConfig.paper(), DecoderConfig.paper()
model = build_model(enc_cfg, dec_cfg, seed=0)
print(f"built in {time.perf_counter() - t0:.1f} s")

print(f"\nencoder stem: k{enc_cfg.stem.kernel} s{enc_cfg.stem.stride} "
      f"-> {enc_cfg.stem.channels} channels, pooled")
for i, stage in enumerate(enc_cfg.stages):
    print(f"stage {i}: {stage.blocks:>2} bottleneck blocks, "
          f"{stage.channels}->{stage.channels * 4} channels, stride {stage.stride}")
print(f"hidden volume: {enc_cfg.out_channels} x {enc_cfg.hidden_spatial}")
print(f"decoder: {dec_cfg.levels} levels, channels {dec_cfg.channels}")

n_params = count_parameters(model)
print(f"\nparameters: {n_params:,}")

if "--skip-forward" in sys.argv:
    sys.exit(0)

print("\nforward pass on a 1x1x100x256x256 input (this is the slow part)...")
model.eval()
rng = np.random.default_rng(0)
x = (rng.random((1, 1, 100, 256, 256)) < 0.05).astype(np.float32)
t1 = time.perf_counter()
hidden = encode(model, x)
print(f"encode: {x.shape} -> {hidden.shape} in {time.perf_counter() - t1:.1f} s")
t2 = time.perf_counter()
probs = decode(model, hidden)
print(f"decode: {hidden.shape} -> {probs.shape} in {time.perf_counter() - t2:.1f} s")
print(f"output range: [{probs.min():.4f}, {probs.max():.4f}]")
