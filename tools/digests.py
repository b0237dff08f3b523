"""Byte-identity digests of every variant: initial tensors, served matrices, trained tensors.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/digests.py --seed 0

Builds each of the eight variants at the desk `ModelConfig` (64 ids per
vocabulary field) and prints one JSON object mapping each variant to
sha256 digests (first 16 hex digits) of:

* `init`: its initial tensors;
* `predict_J1`, `predict_J7`, `predict_J30`: `predict_matrix` on a
  synthetic request with 1, 7 and 30 candidates;
* `trained` and `losses`: its tensors and per-epoch training losses after
  2 epochs of `train` on 24 labelled synthetic requests.

Synthetic requests cut a full click history with the builder logged requests
use (`build_position_behavior_sequences`), so every history slot is filled.
A second set of keys runs on a small simulated world (`WORLD`, desk shapes
at its vocabulary), whose histories are sparse, and empty for a user's first
requests:

* `world_predict`: `predict_matrix` on the first request (no history) and
  on the last;
* `world_scores`: `score_requests` on every request, in batches of many
  requests with unequal histories;
* `world_trained` and `world_losses`: one epoch of `train` on the requests
  before the last day, several requests per batch;
* `world_mixed_scores` and `world_mixed_trained`: the same scoring and
  training after the last impression of every third request is dropped,
  so the log mixes two candidate counts J and batches group requests by J.

`init`, `trained`, `world_trained` and `world_mixed_trained` hash tensors in
sorted-name order, so they also move with the parameter layout (names and
shapes); every other key hashes outputs only.

The package comes from PYTHONPATH, so one copy of this script compares the
sources of any two checkouts: equal digests mean equal bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import replace

import numpy as np

from posrank import world
from posrank.data import VOCAB_FIELDS, Vocabulary, encode_history, group_requests
from posrank.model import VARIANTS, ModelConfig, ParameterSet, build_model, predict_matrix
from posrank.serving import synthetic_request
from posrank.train import TrainConfig, score_requests, train

ITEM_COUNTS = (1, 7, 30)
TRAIN_REQUESTS = 24
TRAIN_CONFIG = dict(batch_size=60, epochs=2, learning_rate=3e-3)
WORLD = dict(n_users=30, n_items=60, requests_per_day=40, days=3, randomized_fraction=0.5)
WORLD_TRAIN_CONFIG = dict(batch_size=40, epochs=1, learning_rate=3e-3, eval_every=0)


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def tensors_digest(params: ParameterSet) -> str:
    return digest(*(params.tensors[name].data for name in params.names()))


def labelled_requests(cfg: ModelConfig, seed: int) -> list:
    """Synthetic requests whose K candidates are displayed at slots 1..K with seeded clicks."""
    requests = []
    for i in range(TRAIN_REQUESTS):
        req = synthetic_request(cfg, cfg.max_position, seed=[seed, 1, i])
        rng = np.random.default_rng([seed, 2, i])
        req.positions = list(range(1, cfg.max_position + 1))
        req.clicks = [int(c) for c in rng.random(cfg.max_position) < 0.3]
        requests.append(req)
    return requests


def world_requests(seed: int) -> tuple[ModelConfig, list]:
    """The desk config at the vocabulary of a small simulated world, and its requests."""
    sim = world.user_dependent_config(**WORLD)
    impressions, behaviors = world.simulate_traffic(world.generate_world(sim, seed))
    vocab = Vocabulary.build(impressions)
    cfg = ModelConfig(vocab_sizes={f: vocab.size(f) for f in VOCAB_FIELDS})
    history = encode_history(behaviors, vocab)
    return cfg, group_requests(impressions, vocab, history, cfg.max_position, cfg.max_len)


def mixed_candidate_counts(requests: list) -> list:
    """Copies of `requests` without the last impression of every third one: J and J - 1 mixed."""
    return [
        replace(r, candidates=r.candidates[:-1], positions=r.positions[:-1], clicks=r.clicks[:-1])
        if i % 3 == 0 and r.num_candidates > 1
        else r
        for i, r in enumerate(requests)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cfg = ModelConfig(vocab_sizes={f: 64 for f in VOCAB_FIELDS})
    requests = labelled_requests(cfg, args.seed)
    world_cfg, logged = world_requests(args.seed)
    last_day = max(r.day for r in logged)
    mixed = mixed_candidate_counts(logged)
    out = {}
    for variant in VARIANTS:
        params = build_model(cfg, variant, args.seed)
        row = {"init": tensors_digest(params)}
        for j in ITEM_COUNTS:
            row[f"predict_J{j}"] = digest(predict_matrix(params, synthetic_request(cfg, j, seed=[args.seed, 0, j])))
        trained, history = train(requests, cfg, variant, TrainConfig(seed=args.seed, **TRAIN_CONFIG))
        row["trained"] = tensors_digest(trained)
        row["losses"] = digest(np.array([e.train_loss for e in history.epochs]))

        params = build_model(world_cfg, variant, args.seed)
        row["world_predict"] = digest(*(predict_matrix(params, r) for r in (logged[0], logged[-1])))
        row["world_scores"] = digest(*score_requests(params, logged))
        fit = [r for r in logged if r.day < last_day]
        trained, history = train(fit, world_cfg, variant, TrainConfig(seed=args.seed, **WORLD_TRAIN_CONFIG))
        row["world_trained"] = tensors_digest(trained)
        row["world_losses"] = digest(np.array([e.train_loss for e in history.epochs]))
        row["world_mixed_scores"] = digest(*score_requests(params, mixed))
        fit = [r for r in mixed if r.day < last_day]
        trained, _ = train(fit, world_cfg, variant, TrainConfig(seed=args.seed, **WORLD_TRAIN_CONFIG))
        row["world_mixed_trained"] = tensors_digest(trained)
        out[variant] = row
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
