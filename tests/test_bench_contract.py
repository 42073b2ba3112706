"""The bench tracer's layer contract, checked against the toy model.

``bench/tracer.py`` wraps each nn layer class's own ``forward`` and
``backward`` and finds layers by walking a model's attributes. This test
loads it by file path and checks both against one toy forward and backward.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from ev2vox import model as M

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("ev2vox_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_conv_counts(enc: M.EncoderConfig, dec: M.DecoderConfig) -> Counter:
    """Conv and deconv layers per tracer group, derived from the configs."""
    kd, kh, kw = enc.stem.kernel
    assert kd == kh == kw
    counts = Counter({f"nn.conv_k{kd}": 1})
    cin = enc.stem.channels
    for stage in enc.stages:
        for bi in range(stage.blocks):
            stride = stage.stride if bi == 0 else (1, 1, 1)
            cout = stage.channels * M.EXPANSION
            # reduce and expand, plus a projection when the shortcut is not the identity
            counts["nn.conv_k1"] += 2 + (cin != cout or tuple(stride) != (1, 1, 1))
            counts["nn.conv_k3"] += 1
            cin = cout
    counts["nn.conv_k1"] += 2  # decoder entry and head
    counts["nn.conv_k3"] += 2 * (dec.levels - 1)  # each down and each up's fuse
    counts["nn.deconv_k2"] += dec.levels - 1
    return counts


def test_tracer_sees_every_toy_layer_forward_and_backward():
    tracer_mod = load_tracer()
    enc, dec = M.EncoderConfig.toy(), M.DecoderConfig.toy()
    model = M.build_model(enc, dec, seed=0).train()
    groups = tracer_mod.layer_counts(model)
    convs = {g: n for g, n in groups.items() if g.startswith(("nn.conv", "nn.deconv"))}
    assert convs == expected_conv_counts(enc, dec)

    x = (np.random.default_rng(0).random((2, 1, 10, 32, 32)) < 0.2).astype(np.float32)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        probs = model.forward(x)
        model.backward(np.full(probs.shape, 1.0 / probs.size, dtype=np.float32))
    finally:
        tracer.uninstall()

    calls = tracer.calls()
    assert calls["model.forward_s"] == 1 and calls["model.backward_s"] == 1
    for group, count in groups.items():
        assert (calls[f"{group}.fwd_s"], calls[f"{group}.bwd_s"]) == (count, count), group
