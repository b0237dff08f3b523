"""Mini-batch training on logged impressions, supervised at actual positions.

Each sample is one displayed (item, position, click) triple. Training and
scoring draw their batches from one source, `_request_batches`: it walks
the requests in the order it is given (the epoch's permutation, or request
order), fills one batch per candidate count J, and yields a batch when it
holds its cap of whole requests, so the per-request interaction stage runs
once for all of a request's impressions and a log that mixes J still fills
its batches. A batch's features come from `prepare_batch`; its logged
positions and clicks are stacked next to them, here and nowhere else, and a
request without a valid label for every candidate is rejected here.
Everything is seeded: the same data and config reproduce the checkpoint
byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .data import Request
from .errors import NumericError, UsageError
from .metrics import PaucReport, pauc
from .model import (
    ModelConfig,
    ParameterSet,
    PreparedBatch,
    build_model,
    evaluation_positions,
    prepare_batch,
    score_displayed,
)


@dataclass
class TrainConfig:
    batch_size: int = 256  # impressions per batch; grouped into whole requests
    epochs: int = 5
    learning_rate: float = 1e-3
    seed: int = 0
    eval_every: int = 1  # epochs between validation passes; 0 disables

    def validate(self) -> None:
        if self.batch_size < 1 or self.epochs < 1:
            raise UsageError("batch_size and epochs must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise UsageError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.eval_every < 0:
            raise UsageError(f"eval_every must be >= 0 (0 disables validation), got {self.eval_every}")


@dataclass
class EpochStats:
    """One epoch: mean training loss, validation AUC/PAUC (NaN when not validated), wall seconds."""

    epoch: int
    train_loss: float
    val_auc: float
    val_pauc: float
    seconds: float


@dataclass
class GradNorm:
    """L2 norm of one parameter group's gradient on an epoch's last batch."""

    epoch: int
    group: str
    norm: float


@dataclass
class TrainHistory:
    """Per-epoch telemetry of one `train` call, as flat rows for `data.write_tsv`.

    `epochs` holds one `EpochStats` per epoch. `grad_norms` holds, per epoch
    and parameter group (a tensor name up to its first `.`), the gradient
    norm on the epoch's last batch. Every variant's attention is group
    `att`, and its logit head with the slot table `head.position` is group
    `head`. `best_epoch` is the epoch with the best validation PAUC, whose
    parameters `train` returns; None when no validation pass scored.
    """

    epochs: list[EpochStats] = field(default_factory=list)
    grad_norms: list[GradNorm] = field(default_factory=list)
    best_epoch: int | None = None


SCORE_BATCH_REQUESTS = 64  # requests per `score_displayed` call when scoring


def _request_batches(
    requests: list[Request], order, cap, config: ModelConfig
) -> Iterator[tuple[list[int], PreparedBatch, np.ndarray, np.ndarray]]:
    """Requests visited in `order`, grouped by candidate count J into batches of `cap(J)` requests.

    One batch per J fills at a time. A batch is yielded when it holds
    `cap(J)` requests, as its request indices, its `prepare_batch` features,
    and its logged positions [B*J] and clicks [B*J]; the unfilled ones
    follow at the end, in the order they were started. Every request must
    log J positions in [1, K] and J clicks of 0 or 1.
    """
    pending: dict[int, list[int]] = {}
    slots = set(range(1, config.max_position + 1))

    def take(j: int) -> tuple[list[int], PreparedBatch, np.ndarray, np.ndarray]:
        index = pending.pop(j)
        batch = [requests[i] for i in index]
        prep = prepare_batch(batch, config)  # first: perfbench's step clock starts at this call
        for req in batch:
            counted = len(req.positions) == len(req.clicks) == j
            if not (counted and set(req.positions) <= slots and set(req.clicks) <= {0, 1}):
                raise UsageError(
                    f"request {req.request_id!r} needs logged positions and clicks for its {j} candidates, "
                    f"positions in [1, {config.max_position}] and clicks 0 or 1; "
                    f"it logs positions {req.positions} and clicks {req.clicks}"
                )
        positions = np.array([p for r in batch for p in r.positions], dtype=np.int64)
        clicks = np.array([c for r in batch for c in r.clicks], dtype=np.float64)
        return index, prep, positions, clicks

    for i in order:
        j = requests[i].num_candidates
        batch = pending.setdefault(j, [])
        batch.append(i)
        if len(batch) == cap(j):
            yield take(j)
    for j in list(pending):
        yield take(j)


def score_requests(params: ParameterSet, requests: list[Request]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score displayed impressions under the variant's evaluation protocol.

    Returns (scores, clicks, logged positions), request-major in request
    order. PAUC groups by the logged position, whatever the scored slot.
    Requests are scored in batches of one candidate count J, each batch's
    rows written to its requests' places in the output.
    """
    if not requests:
        raise UsageError("score_requests needs at least one request")
    starts = np.array([0, *accumulate(r.num_candidates for r in requests)])  # request i: rows starts[i]:starts[i + 1]
    scores, clicks, positions = np.empty(starts[-1]), np.empty(starts[-1]), np.empty(starts[-1], np.int64)
    batches = _request_batches(requests, range(len(requests)), lambda j: SCORE_BATCH_REQUESTS, params.config)
    with ad.no_grad():
        for index, prep, logged, clicked in batches:
            p = score_displayed(params, prep, evaluation_positions(params, logged))
            rows = np.add.outer(starts[index], np.arange(prep.num_items)).ravel()
            scores[rows], clicks[rows], positions[rows] = p.data, clicked, logged
    return scores, clicks, positions


def evaluate(params: ParameterSet, requests: list[Request]) -> PaucReport:
    """AUC/PAUC of a request set under the variant's evaluation protocol."""
    scores, clicks, positions = score_requests(params, requests)
    return pauc(scores, clicks, positions)


def _group_grad_norms(epoch: int, params: dict[str, ad.Tensor]) -> list[GradNorm]:
    """L2 norm of the gradient of each parameter group (name up to the first `.`)."""
    squares: dict[str, float] = {}
    for name, t in params.items():
        group = name.partition(".")[0]
        squares[group] = squares.get(group, 0.0) + float(np.vdot(t.grad, t.grad))
    return [GradNorm(epoch, group, float(np.sqrt(sq))) for group, sq in squares.items()]


def train(
    train_requests: list[Request],
    config: ModelConfig,
    variant: str,
    train_config: TrainConfig,
    val_requests: list[Request] | None = None,
    test_day: int | None = None,
) -> tuple[ParameterSet, TrainHistory]:
    """Fit one variant; returns the best-validation parameters and history.

    Supervision is the logged click at the logged position only. Batches
    shuffle whole requests with a per-epoch seeded permutation. With no
    validation set the final parameters are returned. Passing `test_day`
    asserts that no training request comes from that day or later.
    """
    train_config.validate()
    if not train_requests:
        raise UsageError("train needs a non-empty training set")
    if test_day is not None:
        offending = [r.request_id for r in train_requests if r.day >= test_day]
        if offending:
            raise UsageError(
                f"{len(offending)} training requests are from the test day or later "
                f"(first: {offending[0]})"
            )
    params = build_model(config, variant, train_config.seed)
    opt = ad.Optimizer(params.tensors, lr=train_config.learning_rate)

    history = TrainHistory()
    best: ParameterSet | None = None
    best_pauc = -np.inf

    for epoch in range(1, train_config.epochs + 1):
        t0 = time.perf_counter()
        rng = np.random.default_rng([train_config.seed, epoch])
        losses: list[float] = []
        order = rng.permutation(len(train_requests))
        batches = _request_batches(
            train_requests, order, lambda j: max(1, train_config.batch_size // max(1, j)), config
        )
        for batch_index, (_, prep, positions, clicks) in enumerate(batches):
            params.zero_grads()
            try:
                p = score_displayed(params, prep, positions)
                loss = ad.binary_cross_entropy(p, clicks)
            except NumericError as exc:
                raise NumericError(f"non-finite loss in epoch {epoch}, batch {batch_index}: {exc}") from exc
            ad.backward(loss)
            opt.step()
            losses.append(float(loss.data))

        val_auc = val_pauc = float("nan")
        do_eval = (
            val_requests
            and train_config.eval_every > 0
            and (epoch % train_config.eval_every == 0 or epoch == train_config.epochs)
        )
        if do_eval:
            report = evaluate(params, val_requests)
            val_auc, val_pauc = report.overall_auc, report.pauc
            if report.pauc > best_pauc:
                best_pauc = report.pauc
                best = params.copy()
                history.best_epoch = epoch
        history.epochs.append(EpochStats(epoch, float(np.mean(losses)), val_auc, val_pauc, time.perf_counter() - t0))
        history.grad_norms.extend(_group_grad_norms(epoch, opt.params))

    return (best if best is not None else params), history
