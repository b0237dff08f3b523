"""Synthetic click world with controllable position bias.

Clicks follow examined-times-relevant ground truth: the probability that a
displayed item is clicked is the product of an examination probability
(how likely the user looks at slot k) and a relevance probability (how
well the item matches user and query). Examination decays as k**(-eta),
with one exponent per user segment, held as a [segments, max_position]
table. One exponent makes position bias separable; with several, users
are split evenly between segments and position bias is inseparable from
the user.

A configurable share of requests is top-k randomized: the chosen slate is
shuffled before display, which breaks the selection bias of the logging
policy and makes the randomized partition suitable for unbiased
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .autodiff import logistic
from .data import BEHAVIOR_COLUMNS, RawBehavior, RawImpression
from .errors import UsageError

SECONDS_PER_DAY = 86400


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the simulated marketplace."""

    n_users: int = 80
    n_items: int = 120
    n_queries: int = 12
    n_geos: int = 5
    n_categories: int = 10
    max_position: int = 10
    requests_per_day: int = 500
    days: int = 5
    randomized_fraction: float = 0.05
    candidates_per_request: int = 20
    # examination decay exponent per user segment; one exponent is separable
    etas: tuple[float, ...] = (1.2, 0.3)
    base_offset: float = -1.0
    bid_sigma: float = 0.3

    def validate(self) -> None:
        if min(self.n_users, self.n_items, self.n_queries, self.n_geos, self.n_categories) < 1:
            raise UsageError("world entity counts must be >= 1")
        if not 0.0 <= self.randomized_fraction <= 1.0:
            raise UsageError(f"randomized_fraction must be in [0,1], got {self.randomized_fraction}")
        if self.candidates_per_request < 1:
            raise UsageError("candidates_per_request must be >= 1")
        if not self.etas:
            raise UsageError("at least one examination decay exponent is required")
        if not all(np.isfinite(eta) and eta >= 0 for eta in self.etas):
            raise UsageError(f"examination decay exponents must be finite and >= 0, got {self.etas}")
        if not (np.isfinite(self.bid_sigma) and self.bid_sigma >= 0):
            raise UsageError(f"bid_sigma must be finite and >= 0, got {self.bid_sigma}")
        if not np.isfinite(self.base_offset):
            raise UsageError(f"base_offset must be finite, got {self.base_offset}")
        if self.days < 1 or self.requests_per_day < 1 or self.max_position < 1:
            raise UsageError("days, requests_per_day and max_position must be >= 1")


@dataclass
class SyntheticWorld:
    """Latent factors plus the examination table; fully determined by seed."""

    config: SimConfig
    seed: int
    user_factors: np.ndarray  # [n_users, 8]
    item_factors: np.ndarray  # [n_items, 8]
    query_affinity: np.ndarray  # [n_queries, 8]
    user_segments: np.ndarray  # [n_users] int in [0, len(etas))
    item_categories: np.ndarray  # [n_items] int
    examination: np.ndarray  # [len(etas), max_position]: k ** -eta at column k - 1


FACTOR_DIM = 8


def generate_world(config: SimConfig, seed: int) -> SyntheticWorld:
    """Draw latent factors; deterministic in (config, seed)."""
    config.validate()
    rng = np.random.default_rng([seed, 0x5EED])
    scale = 1.0 / np.sqrt(FACTOR_DIM)
    user_factors = rng.normal(0.0, scale, size=(config.n_users, FACTOR_DIM))
    item_factors = rng.normal(0.0, scale, size=(config.n_items, FACTOR_DIM))
    query_affinity = rng.normal(0.0, scale, size=(config.n_queries, FACTOR_DIM))
    segments = rng.permutation(np.arange(config.n_users) % len(config.etas))
    categories = np.arange(config.n_items) % config.n_categories
    # Python's float power, not numpy's, which differs in the last bit
    examination = np.array(
        [[float(k ** -eta) for k in range(1, config.max_position + 1)] for eta in config.etas]
    )
    return SyntheticWorld(
        config=config,
        seed=seed,
        user_factors=user_factors,
        item_factors=item_factors,
        query_affinity=query_affinity,
        user_segments=segments,
        item_categories=categories,
        examination=examination,
    )


def _check_ids(what: str, ids: int | np.ndarray, n: int) -> np.ndarray:
    """`ids` as an integer array; UsageError unless every id lies in [0, n)."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise UsageError(f"{what} ids must be integers, got {ids.dtype}")
    if ids.size and not (ids.min() >= 0 and ids.max() < n):
        raise UsageError(f"{what} ids outside [0, {n})")
    return ids


def _check_id(what: str, value: int, n: int) -> int:
    """`value` as an int; UsageError unless it is one integer id (not a bool) in [0, n)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise UsageError(f"{what} must be one integer id, got {value!r}")
    if not 0 <= value < n:
        raise UsageError(f"{what} id {value} outside [0, {n})")
    return int(value)


def relevance_probability(
    world: SyntheticWorld, user: int, query: int, items: int | np.ndarray
) -> float | np.ndarray:
    """P(item is relevant | user, query) for each of `items`; independent of position.

    Ids index the world's entities: UsageError for one outside [0, n), so a
    negative id never wraps around to the last entity, and for a `user` or
    `query` that is not one integer.
    """
    cfg = world.config
    user = _check_id("user", user, cfg.n_users)
    query = _check_id("query", query, cfg.n_queries)
    factors = world.item_factors[_check_ids("item", items, cfg.n_items)][..., None, :]
    # one dot product per item ([1, 8] @ [8, 1]), which keeps the bits of
    # scoring each item alone; a matrix-vector product does not
    logit = (
        np.matmul(factors, world.user_factors[user][:, None])
        + np.matmul(factors, world.query_affinity[query][:, None])
        + world.config.base_offset
    )
    return logistic(logit[..., 0, 0])[()]


def examination_probability(
    world: SyntheticWorld, positions: int | np.ndarray, segment: int = 0
) -> float | np.ndarray:
    """P(slot k is looked at) for each k of `positions`: k ** (-eta of `segment`).

    UsageError for a `segment` that is not one integer in [0, segments).
    """
    n_segments, max_position = world.examination.shape
    segment = _check_id("segment", segment, n_segments)
    k = np.asarray(positions)
    if not np.issubdtype(k.dtype, np.integer):
        raise UsageError(f"positions must be integers, got {k.dtype}")
    if k.size and not (k.min() >= 1 and k.max() <= max_position):
        raise UsageError(f"positions outside [1, {max_position}]")
    return world.examination[segment, k - 1]


def oracle_ctr(
    world: SyntheticWorld, user: int, query: int, items: int | np.ndarray, positions: int | np.ndarray
) -> float | np.ndarray:
    """Ground-truth click probability: examination times relevance.

    `items` and `positions` broadcast against each other: pass
    ``items[:, None]`` and ``positions[None, :]`` for a [J, K] matrix.
    """
    relevance = relevance_probability(world, user, query, items)  # checks the ids
    segment = int(world.user_segments[user])
    return examination_probability(world, positions, segment) * relevance


# -- traffic simulation -------------------------------------------------------


def _simulate_request(world: SyntheticWorld, request_index: int) -> Iterator[RawImpression]:
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
    for slot, (cand_idx, click) in enumerate(zip(top.tolist(), clicks.tolist()), start=1):
        item = int(candidates[cand_idx])
        yield RawImpression(
            request_id=f"r{request_index:08d}",
            day=day,
            traffic=traffic,
            user_id=f"u{user}",
            segment=f"s{segment}",
            query=f"q{query}",
            geo=f"g{geo}",
            hour=str(hour),
            dow=str(dow),
            item_id=f"i{item}",
            category=f"c{int(world.item_categories[item])}",
            position=slot,
            bid=float(bids[cand_idx]),
            click=int(click),
            ts=ts,
        )


def simulate_traffic(
    world: SyntheticWorld,
    workers: int = 1,
) -> tuple[list[RawImpression], list[RawBehavior]]:
    """Run the full request timeline; returns (impression log, click history).

    Each request displays its `max_position` most relevant candidates.
    Requests run in index order in this process. `workers` is kept for
    callers that pass ``workers=1``; any other value raises UsageError.
    """
    if workers != 1:
        raise UsageError(f"simulate_traffic runs in one process; workers must be 1, got {workers!r}")
    n_requests = world.config.days * world.config.requests_per_day
    impressions = [imp for idx in range(n_requests) for imp in _simulate_request(world, idx)]
    clicked = (imp for imp in impressions if imp.click)
    behaviors = [RawBehavior(*[getattr(imp, name) for name in BEHAVIOR_COLUMNS]) for imp in clicked]
    return impressions, behaviors


def separable_config(**overrides) -> SimConfig:
    """A world where examination depends on position only."""
    return replace(SimConfig(etas=(1.0,)), **overrides)


def user_dependent_config(**overrides) -> SimConfig:
    """A world where shallow browsers (eta 1.2) and deep browsers (eta 0.3) mix."""
    return replace(SimConfig(etas=(1.2, 0.3)), **overrides)
