"""Training loop: loss math, memorization, determinism, protocols."""

import math
import re

import numpy as np
import pytest

import posrank.train as train_module
from posrank.autodiff import Optimizer, Tensor, backward, binary_cross_entropy
from posrank.errors import NumericError, UsageError
from posrank.metrics import pauc
from posrank.model import build_model, prepare_batch, save_checkpoint, score_displayed
from posrank.serving import synthetic_request
from posrank.train import (
    TrainConfig,
    evaluate,
    score_requests,
    train,
)

from conftest import labeled_request, logged_labels, tiny_config


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
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

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

    @pytest.mark.parametrize(
        "bad",
        [
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": -1.0},
            {"learning_rate": 0.0},
            {"eval_every": -1},
        ],
        ids=["lr_nan", "lr_inf", "lr_negative", "lr_zero", "eval_every_negative"],
    )
    def test_bad_config_rejected_before_training(self, bad):
        cfg = tiny_config()
        field = next(iter(bad))
        with pytest.raises(UsageError, match=field):
            TrainConfig(**bad).validate()
        with pytest.raises(UsageError, match=field):
            train(_toy_requests(cfg, 2), cfg, "DPIN", TrainConfig(epochs=1, **bad))

    def test_best_validation_checkpoint_is_returned(self):
        cfg = tiny_config()
        train_reqs = _toy_requests(cfg, 6)
        val_reqs = _toy_requests(cfg, 6, seed0=90)
        tc = TrainConfig(batch_size=6, epochs=6, seed=4, eval_every=1)
        params, history = train(train_reqs, cfg, "DPIN", tc, val_requests=val_reqs)
        achieved = evaluate(params, val_reqs).pauc
        assert achieved == pytest.approx(np.nanmax([e.val_pauc for e in history.epochs]), abs=1e-12)

    def test_best_epoch_is_the_returned_one(self):
        cfg = tiny_config()
        train_reqs = _toy_requests(cfg, 6)
        val_reqs = _toy_requests(cfg, 6, seed0=90)
        tc = TrainConfig(batch_size=6, epochs=6, seed=4, eval_every=1)
        _, history = train(train_reqs, cfg, "DPIN", tc, val_requests=val_reqs)
        val_pauc = [e.val_pauc for e in history.epochs]
        assert history.best_epoch == history.epochs[int(np.nanargmax(val_pauc))].epoch
        _, unvalidated = train(train_reqs, cfg, "DPIN", tc)
        assert unvalidated.best_epoch is None

    def test_grad_norms_are_those_of_the_last_batch(self):
        cfg = tiny_config()
        requests = _toy_requests(cfg, 3)
        tc = TrainConfig(batch_size=100, epochs=1, seed=6, eval_every=0)  # one batch
        _, history = train(requests, cfg, "DPIN", tc)
        fresh = build_model(cfg, "DPIN", tc.seed)
        positions, clicks = logged_labels(requests)
        backward(binary_cross_entropy(score_displayed(fresh, prepare_batch(requests, cfg), positions), clicks))
        squares: dict[str, float] = {}
        for name, t in fresh.tensors.items():
            if t.grad is not None:
                group = name.split(".")[0]
                squares[group] = squares.get(group, 0.0) + float((t.grad**2).sum())
        assert {g.epoch for g in history.grad_norms} == {1}
        norms = {g.group: g.norm for g in history.grad_norms}
        assert len(norms) == len(history.grad_norms)
        assert set(norms) == set(squares) and "embed" in norms
        for group, sq in squares.items():
            assert norms[group] == pytest.approx(math.sqrt(sq), rel=1e-9), group

    def test_a_parameter_copy_between_steps_keeps_its_bytes(self):
        # `train` snapshots its best epoch with `copy` while the optimizer keeps writing the originals
        params = build_model(tiny_config(), "DPIN", seed=0)
        opt = Optimizer(params.tensors, lr=0.1)
        rng = np.random.default_rng(2)

        def step():
            for t in params.tensors.values():
                t.grad = rng.normal(size=t.shape)
            opt.step()

        def tensor_bytes(p):
            return {name: t.data.tobytes() for name, t in p.tensors.items()}

        step()
        snapshot = params.copy()
        saved = tensor_bytes(snapshot)
        assert saved == tensor_bytes(params)
        step()
        step()
        assert tensor_bytes(snapshot) == saved
        assert all(tensor_bytes(params)[name] != saved[name] for name in saved)


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

    def test_scoring_no_requests_is_a_usage_error(self):
        params = build_model(tiny_config(), "DPIN", seed=3)
        for entry in (score_requests, evaluate):
            with pytest.raises(UsageError, match="at least one request"):
                entry(params, [])

    def test_a_request_without_candidates_is_rejected(self):
        cfg = tiny_config()
        empty = labeled_request(cfg, seed=17)
        empty.candidates, empty.positions, empty.clicks = [], [], []
        requests = [labeled_request(cfg, seed=18), empty]
        params = build_model(cfg, "DPIN", seed=3)
        for call in (
            lambda: train(requests, cfg, "DPIN", TrainConfig(batch_size=6, epochs=1, seed=4, eval_every=0)),
            lambda: score_requests(params, requests),
        ):
            with pytest.raises(UsageError, match="at least one candidate"):
                call()

    def test_unlabelled_requests_are_rejected_with_one_message(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=3)
        unlabelled = [synthetic_request(cfg, cfg.max_position, seed=s) for s in (1, 2)]
        tc = TrainConfig(batch_size=6, epochs=1, seed=4)
        calls = (
            lambda: train(unlabelled, cfg, "DPIN", tc),
            lambda: train(_toy_requests(cfg, 2), cfg, "DPIN", tc, val_requests=unlabelled),
            lambda: score_requests(params, unlabelled),
            lambda: evaluate(params, unlabelled),
        )
        messages = set()
        for call in calls:
            with pytest.raises(UsageError, match="logged positions and clicks") as caught:
                call()
            # the message names whichever unlabelled request its batch met first
            named = [r.request_id for r in unlabelled if repr(r.request_id) in str(caught.value)]
            assert len(named) == 1
            messages.add(str(caught.value).replace(repr(named[0]), "<id>"))
        assert len(messages) == 1


_LABEL_READERS = {
    "train": lambda cfg, requests: train(
        requests, cfg, "DPIN", TrainConfig(batch_size=100, epochs=1, seed=4, eval_every=0)
    ),
    "score_requests": lambda cfg, requests: score_requests(build_model(cfg, "DPIN", seed=3), requests),
}


@pytest.mark.parametrize("reader", list(_LABEL_READERS))
class TestLoggedLabels:
    """Every request of a batch logs one position in [1, K] and one click of 0 or 1 per candidate."""

    def _rejects(self, reader, requests, match):
        cfg = tiny_config()
        with pytest.raises(UsageError, match=match):
            _LABEL_READERS[reader](cfg, requests)

    def test_label_count_must_match_the_candidates(self, reader):
        cfg = tiny_config()
        for cut in ("positions", "clicks"):
            req = labeled_request(cfg, seed=17)
            setattr(req, cut, getattr(req, cut)[:-1])
            named = re.escape(repr(req.request_id))
            self._rejects(reader, [labeled_request(cfg, seed=18), req], named + ".* 3 candidates")

    def test_logged_positions_outside_the_slots_rejected(self, reader):
        cfg = tiny_config()
        for bad in (0, cfg.max_position + 1):
            req = labeled_request(cfg, seed=17)
            req.positions[-1] = bad
            self._rejects(reader, [req], rf"positions in \[1, {cfg.max_position}\]")

    def test_clicks_other_than_0_or_1_rejected(self, reader):
        cfg = tiny_config()
        for bad in (2, -1, 0.5):
            req = labeled_request(cfg, seed=17)
            req.clicks[0] = bad
            self._rejects(reader, [req], "clicks 0 or 1")

    def test_labelled_and_unlabelled_requests_do_not_mix(self, reader):
        cfg = tiny_config()
        unlabelled = synthetic_request(cfg, cfg.max_position, seed=3)
        self._rejects(reader, [labeled_request(cfg, seed=17), unlabelled], re.escape(repr(unlabelled.request_id)))


def _mixed_requests(cfg, counts, seed0=60):
    """Labelled requests displaying `counts[i]` items each, clicks alternating from the first."""
    requests = []
    for i, j in enumerate(counts):
        req = labeled_request(cfg, seed=seed0 + i)
        req.candidates, req.positions = req.candidates[:j], req.positions[:j]
        req.clicks = [(i + n) % 2 for n in range(j)]
        requests.append(req)
    return requests


def _record_batches(monkeypatch) -> list[list]:
    """Patch the `prepare_batch` that train and evaluation call to log each batch."""
    batches = []

    def logged(requests, config):
        batches.append(list(requests))
        return prepare_batch(requests, config)

    monkeypatch.setattr(train_module, "prepare_batch", logged)
    return batches


def _assert_grouped_by_candidate_count(batches, requests, cap):
    """One J and at most cap(J) requests per batch, every request once, at most one unfilled batch per J."""
    index = {id(r): i for i, r in enumerate(requests)}
    assert sorted(index[id(r)] for b in batches for r in b) == list(range(len(requests)))
    unfilled = []
    for b in batches:
        (j,) = {r.num_candidates for r in b}
        assert len(b) <= cap(j)
        if len(b) < cap(j):
            unfilled.append(j)
    assert len(unfilled) == len(set(unfilled))


class TestMixedCandidateCounts:
    def test_evaluation_scores_requests_of_different_candidate_counts(self, monkeypatch):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=3)
        requests = _mixed_requests(cfg, [3, 2, 2, 3, 1, 3, 3, 3])
        alone = [score_requests(params, [r]) for r in requests]
        monkeypatch.setattr(train_module, "SCORE_BATCH_REQUESTS", 2)
        batches = _record_batches(monkeypatch)
        scores, clicks, positions = score_requests(params, requests)
        # request order, and each request's scores bit for bit as scored alone
        for got, want in zip((scores, clicks, positions), zip(*alone)):
            assert got.tobytes() == np.concatenate(want).tobytes()
        _assert_grouped_by_candidate_count(batches, requests, lambda j: 2)
        report = evaluate(params, requests)
        assert report.pauc == pauc(scores, clicks, positions).pauc

    def test_training_batches_hold_one_candidate_count(self, monkeypatch):
        cfg = tiny_config()
        requests = _mixed_requests(cfg, [3, 2, 3, 2, 2, 3, 1, 2, 3])
        batches = _record_batches(monkeypatch)
        train(requests, cfg, "DPIN", TrainConfig(batch_size=6, epochs=1, seed=4, eval_every=0))
        _assert_grouped_by_candidate_count(batches, requests, lambda j: max(1, 6 // j))

    def test_training_validates_on_requests_of_different_candidate_counts(self):
        cfg = tiny_config()
        requests = _mixed_requests(cfg, [3, 2, 3, 2, 2, 3, 1, 2, 3])
        tc = TrainConfig(batch_size=6, epochs=2, learning_rate=3e-3, seed=4, eval_every=1)
        _, history = train(requests, cfg, "DPIN", tc, val_requests=requests[::-1])
        assert all(np.isfinite([e.train_loss, e.val_pauc]).all() for e in history.epochs)

    def test_uniform_candidate_counts_batch_as_fixed_chunks(self, monkeypatch):
        cfg = tiny_config()
        requests = _mixed_requests(cfg, [3] * 7)
        index = {id(r): i for i, r in enumerate(requests)}
        batches = _record_batches(monkeypatch)
        train(requests, cfg, "DPIN", TrainConfig(batch_size=6, epochs=1, seed=4, eval_every=0))
        order = np.random.default_rng([4, 1]).permutation(len(requests)).tolist()
        assert [[index[id(r)] for r in b] for b in batches] == [order[i : i + 2] for i in (0, 2, 4, 6)]
