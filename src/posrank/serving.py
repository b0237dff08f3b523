"""Request-time pipeline: predict a CTR matrix, fill slots by expected value.

The allocator walks positions top to bottom and gives each slot the
unassigned candidate with the highest CTR x bid there (ties to the lowest
candidate index). That greedy order is not always the true optimum over
one-to-one assignments.

The benchmark times the full predict-then-allocate path per request,
single-threaded, after warm-up, reporting median and p95 over >= 30 trials.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import (
    CONTEXT_FIELDS, HISTORY_COLUMNS, ITEM_FIELDS, USER_FIELDS, Candidate, Request, build_position_behavior_sequences,
)
from .errors import UsageError
from .model import ModelConfig, ParameterSet, predict_matrix


def synthetic_request(config: ModelConfig, n_items: int, seed) -> Request:
    """A deterministic request at ts 0 with full behavior sequences, for benchmarking.

    Its user's history is K·L `encode_history` rows one minute apart before
    ts 0, click r at position r mod K + 1, cut like any logged history. Its
    id names the seed and the candidate count, so an error that names a
    request tells two synthetic requests apart.
    """
    rng = np.random.default_rng(seed)

    def draw(fields: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(int(rng.integers(0, config.vocab_sizes[f])) for f in fields)

    n = config.max_position * config.max_len
    ids = rng.integers(0, [config.vocab_sizes[f] for f in HISTORY_COLUMNS[:-1]], size=(n, len(HISTORY_COLUMNS) - 1))
    history = np.column_stack([60 * np.arange(-n, 0), np.arange(n) % config.max_position + 1, ids])
    candidates = [Candidate(draw(ITEM_FIELDS), bid=float(np.exp(rng.normal(0.0, 0.3)))) for _ in range(n_items)]
    return Request(
        request_id=f"synthetic seed={seed} J={n_items}",
        day=0,
        traffic="regular",
        ts=0,
        user_ids=draw(USER_FIELDS),
        context_ids=draw(CONTEXT_FIELDS),
        candidates=candidates,
        sequences=build_position_behavior_sequences(history, 0, config.max_position, config.max_len),
    )


@dataclass
class Allocation:
    """Chosen candidate per position (1-based), plus the achieved value."""

    slots: list[tuple[int, int]]  # (position, candidate index)
    total_value: float


def _check_instance(matrix: np.ndarray, bids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    matrix = np.asarray(matrix, dtype=np.float64)
    bids = np.asarray(bids, dtype=np.float64)
    if matrix.ndim != 2 or bids.ndim != 1 or matrix.shape[0] != bids.size:
        raise UsageError(f"allocation needs [J,K] ctrs and [J] bids, got {matrix.shape}/{bids.shape}")
    if not np.all(np.isfinite(matrix)):
        raise UsageError("allocation: ctr matrix must be finite")
    if not np.all(np.isfinite(bids) & (bids > 0)):
        raise UsageError("allocation: bids must be positive and finite")
    return matrix, bids


def greedy_allocate(matrix: np.ndarray, bids: np.ndarray) -> Allocation:
    """Fill positions 1..min(J,K) top-down with the best unassigned candidate."""
    matrix, bids = _check_instance(matrix, bids)
    n_items, n_pos = matrix.shape
    slots: list[tuple[int, int]] = []
    taken = np.zeros(n_items, dtype=bool)
    total = 0.0
    for pos in range(1, min(n_items, n_pos) + 1):
        value = matrix[:, pos - 1] * bids
        value[taken] = -np.inf
        best = int(np.argmax(value))  # argmax returns the lowest index on ties
        taken[best] = True
        slots.append((pos, best))
        total += float(matrix[best, pos - 1] * bids[best])
    return Allocation(slots=slots, total_value=total)


def allocate_request(params: ParameterSet, request: Request) -> tuple[Allocation, np.ndarray]:
    """Predict the request's CTR matrix and allocate greedily on it.

    The returned matrix is exactly the one the allocation used.
    """
    matrix = predict_matrix(params, request)
    bids = np.array([c.bid for c in request.candidates])
    return greedy_allocate(matrix, bids), matrix


# -- latency benchmark ---------------------------------------------------------


@dataclass
class LatencyRow:
    variant: str
    num_items: int
    max_position: int
    median_us: float
    p95_us: float
    trials: int


@dataclass
class LatencyTable:
    rows: list[LatencyRow]

    def median(self, variant: str, num_items: int) -> float:
        for r in self.rows:
            if r.variant == variant and r.num_items == num_items:
                return r.median_us
        raise UsageError(f"no benchmark row for {variant} at J={num_items}")


def benchmark_latency(
    params_by_variant: dict[str, ParameterSet],
    item_counts: list[int],
    trials: int = 30,
    warmup: int = 5,
    seed: int = 0,
) -> LatencyTable:
    """Wall-clock of the predict-then-allocate path per synthetic request.

    All variants must share one ModelConfig so the comparison isolates the
    architecture. Requests are deterministic in (seed, J).
    """
    if trials < 30:
        raise UsageError("benchmark needs at least 30 trials per cell")
    if warmup < 5:
        raise UsageError("benchmark needs at least 5 warm-up evaluations")
    configs = [p.config for p in params_by_variant.values()]
    if not configs or any(c != configs[0] for c in configs):
        raise UsageError("benchmark needs at least one variant, all of one ModelConfig")
    cfg = configs[0]

    rows: list[LatencyRow] = []
    for variant, params in params_by_variant.items():
        for n_items in item_counts:
            request = synthetic_request(cfg, n_items, seed=[seed, n_items])
            for _ in range(warmup):
                allocate_request(params, request)
            samples = np.empty(trials)
            for t in range(trials):
                start = time.perf_counter()
                allocate_request(params, request)
                samples[t] = (time.perf_counter() - start) * 1e6
            rows.append(
                LatencyRow(
                    variant=variant,
                    num_items=n_items,
                    max_position=cfg.max_position,
                    median_us=float(np.median(samples)),
                    p95_us=float(np.percentile(samples, 95)),
                    trials=trials,
                )
            )
    return LatencyTable(rows=rows)
