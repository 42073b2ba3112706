"""Fixtures shared by the CLI and demo tests."""

import json

import pytest

from ev2vox import cli


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One full toy run: generate 8 samples, preprocess, train, eval."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"generate": {"count": 8}}))
    cfg = str(cfg)
    data = root / "data"
    manifest = data / "manifest.json"
    codes = {
        "generate": cli.main(
            ["generate", "--toy", "--config", cfg, "--seed", "7", "--out", str(data)]
        ),
        "preprocess": cli.main(
            ["preprocess", "--toy", "--config", cfg, "--manifest", str(manifest)]
        ),
        "train": cli.main(
            ["train", "--toy", "--config", cfg, "--manifest", str(manifest)]
        ),
        "eval": cli.main(
            ["eval", "--toy", "--config", cfg, "--manifest", str(manifest)]
        ),
    }
    return {"root": root, "cfg": cfg, "data": data, "manifest": manifest,
            "run": data / "run", "codes": codes}
