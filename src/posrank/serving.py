"""Request-time pipeline: predict a CTR matrix, fill slots by expected value.

The allocator walks positions top to bottom and gives each slot the
unassigned candidate with the highest CTR x bid there (ties to the lowest
candidate index). That greedy order is not always the true optimum over
one-to-one assignments, so an exhaustive oracle is included for small
instances; greedy never exceeds it.

The benchmark times the full predict-then-allocate path per request,
single-threaded, after warm-up, reporting median and p95 over >= 30 trials.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .data import HISTORY_COLUMNS, TIME_BUCKETS, Candidate, PositionBehaviorSequences, Request
from .errors import UsageError
from .model import ModelConfig, ParameterSet, predict_matrix

__all__ = [
    "Allocation",
    "greedy_allocate",
    "exhaustive_allocate",
    "allocate_request",
    "synthetic_request",
    "LatencyRow",
    "LatencyTable",
    "benchmark_latency",
]


def synthetic_request(config: ModelConfig, n_items: int, seed) -> Request:
    """A deterministic request with full behavior sequences, for benchmarking."""
    rng = np.random.default_rng(seed)

    def draw(field_name: str):
        return rng.integers(0, config.vocab_sizes[field_name])

    k, seq_len = config.max_position, config.max_len
    highs = [config.vocab_sizes[f] for f in HISTORY_COLUMNS[:-1]] + [TIME_BUCKETS]
    records = rng.integers(0, highs, size=(k * seq_len, len(HISTORY_COLUMNS)))
    # most recent first regardless of position: round-robin over the positions
    recent = np.arange(seq_len)
    sequences = PositionBehaviorSequences(
        records=records,
        lengths=np.full(k, seq_len),
        flat=records[(recent % k) * seq_len + recent // k],
    )
    candidates = [
        Candidate(item_ids=(int(draw("item_id")), int(draw("category"))), bid=float(np.exp(rng.normal(0.0, 0.3))))
        for _ in range(n_items)
    ]
    return Request(
        request_id="bench",
        day=0,
        traffic="regular",
        ts=0,
        user_ids=(int(draw("user_id")), int(draw("segment"))),
        context_ids=(int(draw("query")), int(draw("geo")), int(draw("hour")), int(draw("dow"))),
        candidates=candidates,
        sequences=sequences,
    )


@dataclass
class Allocation:
    """Chosen candidate per position (1-based), plus the achieved value."""

    slots: list[tuple[int, int]]  # (position, candidate index)
    total_value: float

    def to_tsv(self, matrix: np.ndarray, bids: np.ndarray) -> str:
        lines = ["position\tcandidate\tctr\tbid\tecpm"]
        for pos, cand in self.slots:
            ctr = matrix[cand, pos - 1]
            lines.append(f"{pos}\t{cand}\t{ctr:.6f}\t{bids[cand]:.6f}\t{ctr * bids[cand]:.6f}")
        lines.append(f"# total_value={self.total_value:.6f}")
        return "\n".join(lines) + "\n"


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


def exhaustive_allocate(matrix: np.ndarray, bids: np.ndarray) -> Allocation:
    """True maximizer of the summed expected value over injective assignments.

    Guarded to min(J, K) <= 8 slots; intended as a correctness oracle.
    """
    matrix, bids = _check_instance(matrix, bids)
    n_items, n_pos = matrix.shape
    n_slots = min(n_items, n_pos)
    if n_slots > 8:
        raise UsageError(f"exhaustive_allocate is limited to 8 slots, got {n_slots}")
    ecpm = matrix * bids[:, None]
    best_value = -np.inf
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n_items), n_slots):
        value = sum(ecpm[cand, pos] for pos, cand in enumerate(perm))
        if value > best_value:
            best_value = value
            best_perm = perm
    assert best_perm is not None
    slots = [(pos + 1, cand) for pos, cand in enumerate(best_perm)]
    return Allocation(slots=slots, total_value=float(best_value))


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

    def to_tsv(self) -> str:
        lines = ["variant\tJ\tK\tmedian_us\tp95_us\ttrials"]
        for r in self.rows:
            lines.append(
                f"{r.variant}\t{r.num_items}\t{r.max_position}\t{r.median_us:.1f}\t{r.p95_us:.1f}\t{r.trials}"
            )
        return "\n".join(lines) + "\n"

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
    cfg = next(iter(params_by_variant.values())).config
    if any(p.config != cfg for p in params_by_variant.values()):
        raise UsageError("benchmark variants must share one ModelConfig")

    rows: list[LatencyRow] = []
    for variant in params_by_variant:
        params = params_by_variant[variant]
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
