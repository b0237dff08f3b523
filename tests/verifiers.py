"""Independent verifiers the tests compare the package against.

`auc_oracle` counts AUC pairs explicitly; `gradient_check` compares the
tape's gradients with central finite differences; `exhaustive_allocate`
enumerates every slot assignment of a small instance;
`dense_interest_aggregation` is the attention on zero-padded sequences that
`model.interest_aggregation` computes on packed records; `unfused_affine`
and `unfused_attention` are the op compositions that `autodiff.affine` and
`autodiff.attention` fuse. `total_sum` reduces a tensor to the scalar loss
that `backward` and `gradient_check` need. `reference_simulate_traffic` and
`reference_group_requests` build a log and its requests one impression at a
time through the checked public functions (`relevance_probability`,
`examination_probability`, `Vocabulary.encode`), with fresh token strings,
and cut histories with `reference_sequences`: the definitional path of
`world.simulate_traffic`, `data.group_requests` and
`data.build_position_behavior_sequences`; `reference_encode_history` is
that of `data.encode_history`.
"""

import itertools
from typing import Callable, Mapping, Sequence

import numpy as np

from posrank.data import (
    BEHAVIOR_COLUMNS, CONTEXT_FIELDS, HISTORY_COLUMNS, ITEM_FIELDS, USER_FIELDS, Candidate,
    PositionBehaviorSequences, RawBehavior, RawImpression, Request, Vocabulary, time_bucket,
)
from posrank.autodiff import Tensor, backward, bmm, gather_rows, matmul, relu, reshape, softmax, transpose
from posrank.errors import NumericError, UndefinedMetricError, UsageError
from posrank.model import ParameterSet
from posrank.serving import Allocation, _check_instance
from posrank.world import SECONDS_PER_DAY, SyntheticWorld, examination_probability, relevance_probability


def auc_oracle(scores, labels) -> float:
    """Explicit O(n^2) pair counting; the independent verifier for `auc`."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise UndefinedMetricError("auc undefined: only one class present")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def total_sum(a: Tensor) -> Tensor:
    """The sum of every entry of `a` as a scalar tensor: a product with a column of ones."""
    n = a.data.size
    return reshape(matmul(reshape(a, (1, n)), Tensor(np.ones((n, 1)))), ())


def unfused_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as two nodes, `matmul` then `add`: what `autodiff.affine` fuses."""
    return matmul(x, w) + b


def unfused_attention(q: Tensor, k: Tensor, v: Tensor, batch: int, heads: int) -> Tensor:
    """Multi-head attention op by op: what `autodiff.attention` fuses.

    Each [batch·K, d_model] projection is split into [batch·H, K, dk] heads
    (keys as [batch·H, dk, K]); the scores `bmm(q, k)` are scaled by 1/√dk,
    pass a `softmax`, pool the values with a second `bmm`, and the heads are
    merged back side by side.
    """
    rows, dm = q.shape
    n, dk = rows // batch, dm // heads

    def split(proj: Tensor, axes: tuple[int, ...]) -> Tensor:
        parts = transpose(reshape(proj, (batch, n, heads, dk)), axes)
        return reshape(parts, (batch * heads,) + parts.shape[2:])

    scores = bmm(split(q, (0, 2, 1, 3)), split(k, (0, 2, 3, 1))) * (1.0 / np.sqrt(dk))
    attended = bmm(softmax(scores), split(v, (0, 2, 1, 3)))
    return reshape(transpose(reshape(attended, (batch, heads, n, dk)), (0, 2, 1, 3)), (rows, dm))


def gradient_check(
    build_loss: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, Tensor],
    epsilon: float = 1e-6,
    max_coords_per_tensor: int = 64,
    seed: int = 0,
    coords: Mapping[str, np.ndarray] | None = None,
) -> float:
    """Compare analytic gradients against central finite differences.

    Returns the max over sampled coordinates of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    At most `max_coords_per_tensor` coordinates are probed per tensor to
    bound runtime, except that `coords` may name a tensor's flat
    coordinates to probe in place of a sample.
    """
    if not 0.0 < epsilon <= 1e-3:
        raise UsageError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    for p in params.values():
        p.grad = None
    loss = build_loss(params)
    if not np.isfinite(loss.data).all():
        raise NumericError("gradient_check: loss is not finite")
    backward(loss)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in sorted(params):
        p = params[name]
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        n = flat.size
        if coords is not None and name in coords:
            probes = coords[name]
        elif n <= max_coords_per_tensor:
            probes = np.arange(n)
        else:
            probes = rng.choice(n, size=max_coords_per_tensor, replace=False)
        for idx in probes:
            keep = flat[idx]
            flat[idx] = keep + epsilon
            f_plus = float(build_loss(params).data.reshape(()))
            flat[idx] = keep - epsilon
            f_minus = float(build_loss(params).data.reshape(()))
            flat[idx] = keep
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"gradient_check: non-finite loss while perturbing {name!r}")
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = float(analytic.reshape(-1)[idx])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst


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


def dense_interest_aggregation(params: ParameterSet, seq_embeddings: Tensor, mask: np.ndarray, query: Tensor) -> Tensor:
    """Attention pooling over padded sequences, every slot scored: the definitional path.

    seq_embeddings [N, L, D] with mask [N, L] (1 = real record), query
    [N*M, Q] with rows n*M .. n*M+M-1 querying sequence n -> [N*M, D]. Every
    slot, padding too, is projected and scored through the unfused hidden
    layer relu(records + queries) @ `att.score.w`; padding logits then get
    -1e9, and a 0/1 factor zeroes the pooled rows of all-padding sequences.
    """
    n, seq_len, dim = seq_embeddings.shape
    m = query.shape[0] // n
    wa = params.tensors["att.hidden.w"]
    records = matmul(reshape(seq_embeddings, (n * seq_len, dim)), gather_rows(wa, np.arange(dim)))
    queries = matmul(query, gather_rows(wa, np.arange(dim, wa.shape[0]))) + params.tensors["att.hidden.b"]
    h = records.shape[1]
    hidden = relu(reshape(records, (n, 1, seq_len, h)) + reshape(queries, (n, m, 1, h)))
    scores = matmul(reshape(hidden, (n * m * seq_len, h)), params.tensors["att.score.w"]) + params.tensors["att.score.b"]
    logits = reshape(scores, (n, m, seq_len)) + Tensor((1.0 - mask)[:, None, :] * -1e9)
    has_any = (mask.sum(axis=1) > 0).astype(np.float64)[:, None, None]
    return reshape(bmm(softmax(logits), seq_embeddings) * Tensor(has_any), (n * m, dim))


def _reference_request(world: SyntheticWorld, request_index: int) -> list[RawImpression]:
    cfg = world.config
    rng = np.random.default_rng([world.seed, request_index])  # one reproducible stream per request
    day = request_index // cfg.requests_per_day
    within = request_index % cfg.requests_per_day
    ts = day * SECONDS_PER_DAY + (within * SECONDS_PER_DAY) // cfg.requests_per_day
    hour = (ts % SECONDS_PER_DAY) // 3600
    dow = day % 7

    user = int(rng.integers(cfg.n_users))
    query = int(rng.integers(cfg.n_queries))
    geo = int(rng.integers(cfg.n_geos))
    candidates = rng.choice(cfg.n_items, size=min(cfg.candidates_per_request, cfg.n_items), replace=False)
    bids = np.exp(rng.normal(0.0, cfg.bid_sigma, size=candidates.size))

    rel = relevance_probability(world, user, query, candidates)
    order = np.argsort(-rel, kind="stable")

    k_eff = min(cfg.max_position, candidates.size)
    top = order[:k_eff]
    randomized = bool(rng.random() < cfg.randomized_fraction)
    if randomized:
        top = top[rng.permutation(k_eff)]

    traffic = "randomized" if randomized else "regular"
    segment = int(world.user_segments[user])
    slots = np.arange(1, k_eff + 1)
    clicks = rng.random(k_eff) < examination_probability(world, slots, segment) * rel[top]
    return [
        RawImpression(
            request_id=f"r{request_index:08d}",
            day=day,
            traffic=traffic,
            user_id=f"u{user}",
            segment=f"s{segment}",
            query=f"q{query}",
            geo=f"g{geo}",
            hour=str(hour),
            dow=str(dow),
            item_id=f"i{int(candidates[cand_idx])}",
            category=f"c{int(world.item_categories[int(candidates[cand_idx])])}",
            position=slot,
            bid=float(bids[cand_idx]),
            click=int(click),
            ts=ts,
        )
        for slot, (cand_idx, click) in enumerate(zip(top.tolist(), clicks.tolist()), start=1)
    ]


def reference_simulate_traffic(world: SyntheticWorld) -> tuple[list[RawImpression], list[RawBehavior]]:
    """`world.simulate_traffic` request by request, each relevance from `relevance_probability`."""
    n_requests = world.config.days * world.config.requests_per_day
    impressions = [imp for idx in range(n_requests) for imp in _reference_request(world, idx)]
    clicked = (imp for imp in impressions if imp.click)
    behaviors = [RawBehavior(*[getattr(imp, name) for name in BEHAVIOR_COLUMNS]) for imp in clicked]
    return impressions, behaviors


def reference_encode_history(behaviors: Sequence[RawBehavior], vocab: Vocabulary) -> dict[str, np.ndarray]:
    """`data.encode_history`, each token through `Vocabulary.encode`."""
    grouped: dict[str, list[tuple[int, ...]]] = {}
    for b in behaviors:
        ids = tuple(vocab.encode(f, getattr(b, f)) for f in HISTORY_COLUMNS[:-1])
        grouped.setdefault(b.user_id, []).append((b.ts, b.position) + ids)
    history: dict[str, np.ndarray] = {}
    for user, rows in grouped.items():
        events = np.array(rows, dtype=np.int64)
        history[user] = events[np.argsort(events[:, 0], kind="stable")]
    return history


def reference_sequences(history: np.ndarray, reference_ts: int, max_position: int, max_len: int) -> PositionBehaviorSequences:
    """`data.build_position_behavior_sequences` on valid arguments, by a stable sort of the positions."""
    ts = history[:, 0]
    cutoff = int(ts.searchsorted(reference_ts))
    past = history[:cutoff][::-1]  # most recent first
    past = past[(past[:, 1] >= 1) & (past[:, 1] <= max_position)]
    rows = np.empty((len(past), len(HISTORY_COLUMNS)), dtype=np.int64)
    rows[:, :-1] = past[:, 2:]
    rows[:, -1] = time_bucket(reference_ts - past[:, 0])

    # stable sort by position keeps each position's events most recent first
    order = past[:, 1].argsort(kind="stable")
    counts = np.bincount(past[:, 1], minlength=max_position + 1)  # counts[0] == 0
    if counts.max() > max_len:  # keep each position's most recent max_len
        rank = np.arange(len(order)) - (counts.cumsum() - counts).repeat(counts)
        order = order[rank < max_len]
    lengths = np.minimum(counts, max_len)
    lengths[0] = min(len(past), max_len)
    return PositionBehaviorSequences(
        records=rows[np.concatenate([np.arange(lengths[0]), order])],
        lengths=lengths,
        leaked=int(ts.searchsorted(reference_ts, side="right")) - cutoff,
    )


def reference_group_requests(
    raw_impressions: Sequence[RawImpression],
    vocab: Vocabulary,
    history_by_user: dict[str, np.ndarray],
    max_position: int,
    max_len: int,
) -> list[Request]:
    """`data.group_requests` on a valid log, each token through `Vocabulary.encode`; checks nothing."""

    def ids(fields: tuple[str, ...], row) -> tuple[int, ...]:
        return tuple(vocab.encode(f, getattr(row, f)) for f in fields)

    by_request: dict[str, list[RawImpression]] = {}
    for raw in raw_impressions:
        by_request.setdefault(raw.request_id, []).append(raw)
    no_history = np.zeros((0, len(HISTORY_COLUMNS) + 1), dtype=np.int64)
    requests = []
    for rid, raws in by_request.items():
        raws = sorted(raws, key=lambda r: r.position)
        first = raws[0]
        history = history_by_user.get(first.user_id, no_history)
        requests.append(
            Request(
                request_id=rid,
                day=first.day,
                traffic=first.traffic,
                ts=first.ts,
                user_ids=ids(USER_FIELDS, first),
                context_ids=ids(CONTEXT_FIELDS, first),
                candidates=[Candidate(item_ids=ids(ITEM_FIELDS, r), bid=r.bid) for r in raws],
                sequences=reference_sequences(history, first.ts, max_position, max_len),
                positions=[r.position for r in raws],
                clicks=[r.click for r in raws],
            )
        )
    return requests
