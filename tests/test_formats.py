"""The bytes of every written format, pinned by sha256.

The digests were recorded before the writers were derived from their
dataclasses; a change to any of them is a change of file format. No input
comes from an RNG, so the digests do not depend on the numpy version.
"""

import hashlib

import numpy as np

from posrank.data import RawBehavior, RawImpression, write_behaviors, write_impressions
from posrank.model import build_model, save_checkpoint

from conftest import tiny_config

IMPRESSIONS = [
    RawImpression("r00000001", 0, "regular", "u7", "s1", "q3", "g0", "0", "0", "i42", "c2", 1, 0.1, 1, 0),
    RawImpression("r00000001", 0, "regular", "u7", "s1", "q3", "g0", "0", "0", "i9", "c9", 2, 1e-05, 0, 0),
    RawImpression("r00000002", 3, "randomized", "u12", "s0", "q0", "g4", "23", "3", "i0", "c0", 10, 1.25, 0, 345599),
    RawImpression("r00000003", 4, "regular", "ü", "s0", "q11", "g2", "7", "4", "i119", "c9", 3, 1e16, 1, 370000),
    RawImpression("r00000003", 4, "regular", "ü", "s0", "q11", "g2", "7", "4", "i5", "c5", 4, 0.30000000000000004, 0, 370000),
]

BEHAVIORS = [
    RawBehavior("u7", 0, 1, "i42", "c2", "q3", "g0", "0", "0"),
    RawBehavior("ü", 370000, 3, "i119", "c9", "q11", "g2", "7", "4"),
    RawBehavior("u12", 86400, 10, "i0", "c0", "q0", "g4", "23", "3"),
]

IMPRESSIONS_SHA256 = "38a7536490ea7f5e341cbc1acbf92996127653b065d55f3d35953ad0425a7961"
BEHAVIORS_SHA256 = "414bb69f9d032f4c9f862e1e4278ba783cd7761748d2993aaa7dd5cdb8058a49"
# version 4 role names; each tensor's fill below depends on its sorted-name rank i
CHECKPOINT_SHA256 = "4aca140ffa70199e420d0fc2748f242adb51695ab26999f4a2623dc678e48e9b"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_log_bytes_are_pinned(tmp_path):
    write_impressions(tmp_path / "impressions.tsv", IMPRESSIONS)
    write_behaviors(tmp_path / "behaviors.tsv", BEHAVIORS)
    assert _sha256(tmp_path / "impressions.tsv") == IMPRESSIONS_SHA256
    assert _sha256(tmp_path / "behaviors.tsv") == BEHAVIORS_SHA256


def test_checkpoint_bytes_are_pinned(tmp_path):
    params = build_model(tiny_config(), "DPIN", seed=0)
    for i, name in enumerate(params.names()):
        data = params.tensors[name].data
        data[...] = np.arange(data.size).reshape(data.shape) / 64.0 - i
    save_checkpoint(tmp_path / "model.ckpt", params)
    assert _sha256(tmp_path / "model.ckpt") == CHECKPOINT_SHA256
