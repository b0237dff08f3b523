"""Mini-batch training on logged impressions, supervised at actual positions.

Each sample is one displayed (item, position, click) triple; batches group
whole requests so the per-request interaction stage runs once for all of a
request's impressions. Everything is seeded: rerunning with the same data
and config reproduces the checkpoint byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import Request
from .errors import NumericError, UsageError
from .metrics import PaucReport, pauc
from .model import (
    ModelConfig,
    ParameterSet,
    build_model,
    evaluation_positions,
    load_checkpoint,
    prepare_batch,
    save_checkpoint,
    score_displayed,
)

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "train",
    "evaluate",
    "score_requests",
    "save_checkpoint",
    "load_checkpoint",
]


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


@dataclass
class TrainHistory:
    """Per-epoch telemetry of one `train` call.

    `grad_norms` holds, per epoch, the L2 norm of the gradient of each
    parameter group (a tensor name up to its first `.`) on the epoch's last
    batch. Every variant's attention is group `att`, and its logit head with
    the slot table `head.position` is group `head`; these replace the
    per-variant `flat_att`/`pos_att` and `wide`/`pal` of checkpoint version 3.
    `best_epoch` is the epoch with the best validation PAUC, whose
    parameters `train` returns; None when no validation pass scored.
    """

    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_auc: list[float] = field(default_factory=list)
    val_pauc: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    grad_norms: list[dict[str, float]] = field(default_factory=list)
    best_epoch: int | None = None

    def append(
        self, epoch: int, loss: float, auc: float, pauc_: float, secs: float, grad_norms: dict[str, float]
    ) -> None:
        self.epochs.append(epoch)
        self.train_loss.append(loss)
        self.val_auc.append(auc)
        self.val_pauc.append(pauc_)
        self.seconds.append(secs)
        self.grad_norms.append(grad_norms)

    def to_tsv(self) -> str:
        lines = ["epoch\ttrain_loss\tval_auc\tval_pauc\tseconds"]
        for i in range(len(self.epochs)):
            auc_txt = f"{self.val_auc[i]:.6f}" if np.isfinite(self.val_auc[i]) else "NA"
            pauc_txt = f"{self.val_pauc[i]:.6f}" if np.isfinite(self.val_pauc[i]) else "NA"
            lines.append(
                f"{self.epochs[i]}\t{self.train_loss[i]:.6f}\t{auc_txt}\t{pauc_txt}\t{self.seconds[i]:.3f}"
            )
        return "\n".join(lines) + "\n"


SCORE_BATCH_REQUESTS = 64  # requests per `score_displayed` call when scoring


def score_requests(params: ParameterSet, requests: list[Request]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score displayed impressions under the variant's evaluation protocol.

    Returns (scores, clicks, logged positions), request-major. PAUC always
    groups by the logged position, whatever slot the score was taken at.
    """
    scores: list[np.ndarray] = []
    clicks: list[np.ndarray] = []
    positions: list[np.ndarray] = []
    with ad.no_grad():
        for start in range(0, len(requests), SCORE_BATCH_REQUESTS):
            chunk = requests[start : start + SCORE_BATCH_REQUESTS]
            prep = prepare_batch(chunk, params.config)
            if prep.positions is None or prep.clicks is None:
                raise UsageError("score_requests needs requests with logged impressions")
            p = score_displayed(params, prep, positions=evaluation_positions(params, prep.positions))
            scores.append(p.data.copy())
            clicks.append(prep.clicks.copy())
            positions.append(prep.positions.copy())
    return np.concatenate(scores), np.concatenate(clicks), np.concatenate(positions)


def evaluate(params: ParameterSet, requests: list[Request]) -> PaucReport:
    """AUC/PAUC of a request set under the variant's evaluation protocol."""
    scores, clicks, positions = score_requests(params, requests)
    return pauc(scores, clicks, positions)


def _group_grad_norms(grads: dict[str, np.ndarray]) -> dict[str, float]:
    """L2 norm of the gradient of each parameter group (name up to the first `.`)."""
    squares: dict[str, float] = {}
    for name, g in grads.items():
        group = name.partition(".")[0]
        squares[group] = squares.get(group, 0.0) + float(np.vdot(g, g))
    return {group: float(np.sqrt(sq)) for group, sq in squares.items()}


def _request_batches(n_requests: int, requests_per_batch: int, rng: np.random.Generator):
    order = rng.permutation(n_requests)
    for start in range(0, n_requests, requests_per_batch):
        yield order[start : start + requests_per_batch]


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
    opt = ad.Optimizer(lr=train_config.learning_rate)
    items_per_request = train_requests[0].num_candidates
    requests_per_batch = max(1, train_config.batch_size // max(1, items_per_request))

    history = TrainHistory()
    best: ParameterSet | None = None
    best_pauc = -np.inf

    for epoch in range(1, train_config.epochs + 1):
        t0 = time.perf_counter()
        rng = np.random.default_rng([train_config.seed, epoch])
        losses: list[float] = []
        for batch_index, idx in enumerate(_request_batches(len(train_requests), requests_per_batch, rng)):
            chunk = [train_requests[i] for i in idx]
            prep = prepare_batch(chunk, config)
            if prep.clicks is None:
                raise UsageError("training requests must carry click labels")
            params.zero_grads()
            try:
                p = score_displayed(params, prep)
                loss = ad.binary_cross_entropy(p, prep.clicks)
            except NumericError as exc:
                raise NumericError(f"non-finite loss in epoch {epoch}, batch {batch_index}: {exc}") from exc
            if not np.isfinite(loss.data):
                raise NumericError(f"non-finite loss in epoch {epoch}, batch {batch_index}")
            ad.backward(loss)
            grads = {
                name: t.grad for name, t in params.tensors.items() if t.grad is not None
            }
            opt.step(params.tensors, grads)
            losses.append(float(loss.data))

        val_auc = float("nan")
        val_pauc = float("nan")
        do_eval = (
            val_requests
            and train_config.eval_every > 0
            and (epoch % train_config.eval_every == 0 or epoch == train_config.epochs)
        )
        if do_eval:
            report = evaluate(params, val_requests)
            val_auc = report.overall_auc if report.overall_auc is not None else float("nan")
            val_pauc = report.pauc
            if report.pauc > best_pauc:
                best_pauc = report.pauc
                best = params.copy()
                history.best_epoch = epoch
        history.append(
            epoch, float(np.mean(losses)), val_auc, val_pauc, time.perf_counter() - t0, _group_grad_norms(grads)
        )

    return (best if best is not None else params), history
