"""Training loop: loss math, memorization, determinism, protocols."""

import math

import numpy as np
import pytest

from posrank.autodiff import Tensor, backward, binary_cross_entropy
from posrank.errors import NumericError, UsageError
from posrank.metrics import pauc
from posrank.model import build_model, prepare_batch, save_checkpoint, score_displayed
from posrank.train import (
    TrainConfig,
    evaluate,
    score_requests,
    train,
)

from conftest import labeled_request, tiny_config


def _bce(p, y) -> float:
    return float(binary_cross_entropy(Tensor(np.asarray(p, dtype=np.float64)), np.asarray(y)).data)


class TestCrossEntropy:
    def test_half_probability_costs_ln2(self):
        assert _bce([0.5], [1]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_symmetric_at_half(self):
        assert _bce([0.5], [0]) == _bce([0.5], [1])

    def test_vanishes_as_prediction_approaches_label(self):
        losses = [_bce([p], [1]) for p in (0.9, 0.99, 0.999999)]
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 1e-5

    def test_batch_loss_is_mean_of_samples(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.05, 0.95, size=23)
        y = rng.integers(0, 2, size=23)
        per_sample = [_bce([pi], [yi]) for pi, yi in zip(p, y)]
        assert _bce(p, y) == pytest.approx(np.mean(per_sample), abs=1e-12)


def _toy_requests(cfg, n, seed0=40, click_rate=0.4):
    return [labeled_request(cfg, seed=seed0 + s, click_rate=click_rate) for s in range(n)]


class TestTrainLoop:
    def test_memorization_reduces_loss(self):
        cfg = tiny_config()
        requests = _toy_requests(cfg, 4)  # 12 impressions
        tc = TrainConfig(batch_size=12, epochs=60, learning_rate=3e-3, seed=1, eval_every=0)
        _, history = train(requests, cfg, "DPIN", tc)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_training_is_byte_deterministic(self, tmp_path):
        cfg = tiny_config()
        requests = _toy_requests(cfg, 6)
        tc = TrainConfig(batch_size=6, epochs=3, seed=7, eval_every=0)
        a, _ = train(requests, cfg, "DPIN", tc)
        b, _ = train(requests, cfg, "DPIN", tc)
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(pa, a)
        save_checkpoint(pb, b)
        assert pa.read_bytes() == pb.read_bytes()

    def test_constant_positive_labels_saturate(self):
        cfg = tiny_config()
        requests = _toy_requests(cfg, 4, click_rate=1.1)  # every impression clicked
        tc = TrainConfig(batch_size=12, epochs=80, learning_rate=5e-3, seed=2, eval_every=0)
        params, _ = train(requests, cfg, "DIN", tc)
        scores, clicks, _ = score_requests(params, requests)
        assert clicks.min() == 1.0
        assert scores.mean() > 0.9

    def test_nan_abort_names_the_batch(self):
        cfg = tiny_config()
        requests = _toy_requests(cfg, 4)
        # lr large enough to overflow activations to inf, so the next
        # normalization computes inf - inf and the loss goes NaN
        tc = TrainConfig(batch_size=6, epochs=4, learning_rate=1e200, seed=3, eval_every=0)
        with pytest.raises(NumericError, match="epoch 1, batch 1"):
            with np.errstate(all="ignore"):
                train(requests, cfg, "DPIN", tc)

    def test_test_day_guard(self):
        cfg = tiny_config()
        requests = _toy_requests(cfg, 3)
        for r in requests:
            r.day = 4
        with pytest.raises(UsageError, match="test day"):
            train(requests, cfg, "DPIN", TrainConfig(epochs=1), test_day=4)

    def test_best_validation_checkpoint_is_returned(self):
        cfg = tiny_config()
        train_reqs = _toy_requests(cfg, 6)
        val_reqs = _toy_requests(cfg, 6, seed0=90)
        tc = TrainConfig(batch_size=6, epochs=6, seed=4, eval_every=1)
        params, history = train(train_reqs, cfg, "DPIN", tc, val_requests=val_reqs)
        achieved = evaluate(params, val_reqs).pauc
        assert achieved == pytest.approx(np.nanmax(history.val_pauc), abs=1e-12)

    def test_best_epoch_is_the_returned_one(self):
        cfg = tiny_config()
        train_reqs = _toy_requests(cfg, 6)
        val_reqs = _toy_requests(cfg, 6, seed0=90)
        tc = TrainConfig(batch_size=6, epochs=6, seed=4, eval_every=1)
        _, history = train(train_reqs, cfg, "DPIN", tc, val_requests=val_reqs)
        assert history.best_epoch == history.epochs[int(np.nanargmax(history.val_pauc))]
        _, unvalidated = train(train_reqs, cfg, "DPIN", tc)
        assert unvalidated.best_epoch is None

    def test_grad_norms_are_those_of_the_last_batch(self):
        cfg = tiny_config()
        requests = _toy_requests(cfg, 3)
        tc = TrainConfig(batch_size=100, epochs=1, seed=6, eval_every=0)  # one batch
        _, history = train(requests, cfg, "DPIN", tc)
        fresh = build_model(cfg, "DPIN", tc.seed)
        prep = prepare_batch(requests, cfg)
        backward(binary_cross_entropy(score_displayed(fresh, prep), prep.clicks))
        squares: dict[str, float] = {}
        for name, t in fresh.tensors.items():
            if t.grad is not None:
                group = name.split(".")[0]
                squares[group] = squares.get(group, 0.0) + float((t.grad**2).sum())
        (norms,) = history.grad_norms
        assert set(norms) == set(squares) and "embed" in norms
        for group, sq in squares.items():
            assert norms[group] == pytest.approx(math.sqrt(sq), rel=1e-9), group

    def test_history_tsv_header(self):
        cfg = tiny_config()
        tc = TrainConfig(batch_size=6, epochs=2, seed=6, eval_every=0)
        _, history = train(_toy_requests(cfg, 3), cfg, "DIN", tc)
        lines = history.to_tsv().strip().splitlines()
        assert lines[0] == "epoch\ttrain_loss\tval_auc\tval_pauc\tseconds"
        assert len(lines) == 3


class TestEvaluationProtocols:
    def test_first_position_protocol_for_wide_variant(self):
        cfg = tiny_config()
        requests = _toy_requests(cfg, 5)
        fixed = build_model(cfg, "DIN+PosInWide", seed=8)
        actual = build_model(cfg, "DIN+ActualPosInWide", seed=8)
        rng = np.random.default_rng(9)
        shift = rng.normal(size=(cfg.max_position + 1, 1)) * 2.0
        fixed.tensors["head.position"].data[:] = shift
        actual.tensors["head.position"].data[:] = shift

        s_fixed, clicks, positions = score_requests(fixed, requests)
        s_actual, _, _ = score_requests(actual, requests)
        assert not np.array_equal(s_fixed, s_actual)
        # identical per-position ranking => identical weighted per-position AUC
        assert pauc(s_fixed, clicks, positions).pauc == pauc(s_actual, clicks, positions).pauc
        # the fixed protocol scores every impression as if it sat at slot 1
        mask = positions == 1
        np.testing.assert_array_equal(s_fixed[mask], s_actual[mask])

    def test_din_scores_ignore_position_column(self):
        cfg = tiny_config()
        params = build_model(cfg, "DIN", seed=10)
        requests = _toy_requests(cfg, 4)
        scores, _, positions = score_requests(params, requests)
        by_request = scores.reshape(len(requests), -1)
        # same candidate list scored per request: column order is position order
        assert np.all((by_request > 0) & (by_request < 1))
