"""Shared fixtures: small model configs and synthetic labeled requests."""

import numpy as np
import pytest

from posrank.data import VOCAB_FIELDS
from posrank.model import ModelConfig
from posrank.serving import synthetic_request


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        vocab_sizes={f: 12 for f in VOCAB_FIELDS},
        embed_dim=4,
        mlp_hidden=(8, 6),
        combination_hidden=6,
        d_model=8,
        heads=2,
        blocks=1,
        max_len=4,
        max_position=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def desk_config(vocab_sizes=None, **overrides) -> ModelConfig:
    base = dict(
        vocab_sizes=vocab_sizes or {f: 64 for f in VOCAB_FIELDS},
        embed_dim=8,
        mlp_hidden=(64, 32, 16),
        combination_hidden=16,
        d_model=32,
        heads=2,
        blocks=2,
        max_len=30,
        max_position=10,
    )
    base.update(overrides)
    return ModelConfig(**base)


def labeled_request(config: ModelConfig, seed, click_rate: float = 0.3):
    """A synthetic request whose candidates double as displayed impressions."""
    rng = np.random.default_rng(seed)
    req = synthetic_request(config, config.max_position, seed=seed)
    req.positions = list(range(1, config.max_position + 1))
    req.clicks = [int(rng.random() < click_rate) for _ in req.positions]
    return req


def logged_labels(requests) -> tuple[np.ndarray, np.ndarray]:
    """The requests' logged positions [B*J] and clicks [B*J], as training stacks them."""
    positions = np.array([p for r in requests for p in r.positions], dtype=np.int64)
    clicks = np.array([c for r in requests for c in r.clicks], dtype=np.float64)
    return positions, clicks


@pytest.fixture
def small_config():
    return tiny_config()
