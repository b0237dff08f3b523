"""Synthetic click world with controllable position bias.

Clicks follow examined-times-relevant ground truth: the probability that a
displayed item is clicked is the product of an examination probability
(how likely the user looks at slot k) and a relevance probability (how
well the item matches user and query). Examination decays as k**(-eta);
in `user-dependent` mode each user segment has its own decay exponent,
which makes position bias inseparable from the user.

A configurable share of requests is top-k randomized: the chosen slate is
shuffled before display, which breaks the selection bias of the logging
policy and makes the randomized partition suitable for unbiased
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import BEHAVIOR_COLUMNS, RawBehavior, RawImpression
from .errors import UsageError

SEPARABLE = "separable"
USER_DEPENDENT = "user-dependent"

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
    examination_mode: str = USER_DEPENDENT
    # decay exponent per segment; separable mode uses only the first entry
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
        if self.examination_mode not in (SEPARABLE, USER_DEPENDENT):
            raise UsageError(f"unknown examination mode {self.examination_mode!r}")
        if not self.etas:
            raise UsageError("at least one examination decay exponent is required")
        if not all(np.isfinite(eta) and eta >= 0 for eta in self.etas):
            raise UsageError(f"examination decay exponents must be finite and >= 0, got {self.etas}")
        if not (np.isfinite(self.bid_sigma) and self.bid_sigma >= 0):
            raise UsageError(f"bid_sigma must be finite and >= 0, got {self.bid_sigma}")
        if self.days < 1 or self.requests_per_day < 1 or self.max_position < 1:
            raise UsageError("days, requests_per_day and max_position must be >= 1")


@dataclass
class SyntheticWorld:
    """Latent factors plus examination parameters; fully determined by seed."""

    config: SimConfig
    seed: int
    user_factors: np.ndarray  # [n_users, 8]
    item_factors: np.ndarray  # [n_items, 8]
    query_affinity: np.ndarray  # [n_queries, 8]
    user_segments: np.ndarray  # [n_users] int, half 0 half 1
    item_categories: np.ndarray = field(default=None)  # [n_items] int

    @property
    def n_segments(self) -> int:
        return len(self.config.etas)


FACTOR_DIM = 8


def generate_world(config: SimConfig, seed: int) -> SyntheticWorld:
    """Draw latent factors; deterministic in (config, seed)."""
    config.validate()
    rng = np.random.default_rng([seed, 0x5EED])
    scale = 1.0 / np.sqrt(FACTOR_DIM)
    user_factors = rng.normal(0.0, scale, size=(config.n_users, FACTOR_DIM))
    item_factors = rng.normal(0.0, scale, size=(config.n_items, FACTOR_DIM))
    query_affinity = rng.normal(0.0, scale, size=(config.n_queries, FACTOR_DIM))
    if config.examination_mode == USER_DEPENDENT and len(config.etas) > 1:
        segments = rng.permutation(np.arange(config.n_users) % len(config.etas))
    else:
        segments = np.zeros(config.n_users, dtype=np.int64)
    categories = np.arange(config.n_items) % config.n_categories
    return SyntheticWorld(
        config=config,
        seed=seed,
        user_factors=user_factors,
        item_factors=item_factors,
        query_affinity=query_affinity,
        user_segments=segments,
        item_categories=categories,
    )


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return float(e / (1.0 + e))


def relevance_probability(world: SyntheticWorld, user: int, query: int, item: int) -> float:
    """P(item is relevant | user, query); independent of position."""
    logit = (
        world.user_factors[user] @ world.item_factors[item]
        + world.query_affinity[query] @ world.item_factors[item]
        + world.config.base_offset
    )
    return _sigmoid(float(logit))


def examination_probability(world: SyntheticWorld, position: int, segment: int = 0) -> float:
    """P(slot `position` is looked at): position ** (-eta_of_segment)."""
    if not 1 <= position <= world.config.max_position:
        raise UsageError(f"position {position} outside [1, {world.config.max_position}]")
    if world.config.examination_mode == SEPARABLE:
        eta = world.config.etas[0]
    else:
        eta = world.config.etas[segment]
    return float(position ** (-eta))


def oracle_ctr(world: SyntheticWorld, user: int, query: int, item: int, position: int) -> float:
    """Ground-truth click probability: examination times relevance."""
    segment = int(world.user_segments[user])
    return examination_probability(world, position, segment) * relevance_probability(
        world, user, query, item
    )


# -- traffic simulation -------------------------------------------------------


def _request_rng(world_seed: int, request_index: int) -> np.random.Generator:
    # one independent, reproducible stream per request
    return np.random.default_rng([world_seed, request_index])


def _simulate_request(
    world: SyntheticWorld, request_index: int
) -> tuple[list[RawImpression], list[RawBehavior]]:
    cfg = world.config
    rng = _request_rng(world.seed, request_index)
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

    rel = np.array([relevance_probability(world, user, query, int(i)) for i in candidates])
    order = np.argsort(-rel, kind="stable")

    k_eff = min(cfg.max_position, candidates.size)
    top = order[:k_eff]
    randomized = bool(rng.random() < cfg.randomized_fraction)
    if randomized:
        top = top[rng.permutation(k_eff)]

    impressions: list[RawImpression] = []
    behaviors: list[RawBehavior] = []
    traffic = "randomized" if randomized else "regular"
    segment = int(world.user_segments[user])
    for slot, cand_idx in enumerate(top, start=1):
        item = int(candidates[cand_idx])
        p_click = oracle_ctr(world, user, query, item, slot)
        click = int(rng.random() < p_click)
        imp = RawImpression(
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
            click=click,
            ts=ts,
        )
        impressions.append(imp)
        if click:
            behaviors.append(RawBehavior(*[getattr(imp, name) for name in BEHAVIOR_COLUMNS]))
    return impressions, behaviors


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
    cfg = world.config
    impressions: list[RawImpression] = []
    behaviors: list[RawBehavior] = []
    for idx in range(cfg.days * cfg.requests_per_day):
        imps, behs = _simulate_request(world, idx)
        impressions.extend(imps)
        behaviors.extend(behs)
    return impressions, behaviors


def separable_config(**overrides) -> SimConfig:
    """A world where examination depends on position only."""
    base = SimConfig(examination_mode=SEPARABLE, etas=(1.0,))
    return replace(base, **overrides)


def user_dependent_config(**overrides) -> SimConfig:
    """A world where shallow browsers (eta 1.2) and deep browsers (eta 0.3) mix."""
    base = SimConfig(examination_mode=USER_DEPENDENT, etas=(1.2, 0.3))
    return replace(base, **overrides)
