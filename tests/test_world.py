"""Ground-truth click world: factorization, decay shapes, simulation laws."""

import pickle

import numpy as np
import pytest

from posrank.errors import UsageError
from posrank.world import (
    SimConfig,
    examination_probability,
    generate_world,
    oracle_ctr,
    relevance_probability,
    separable_config,
    simulate_traffic,
    user_dependent_config,
)


def _tiny(**kw):
    cfg = dict(
        n_users=6, n_items=8, n_queries=3, n_geos=2, n_categories=3,
        max_position=4, requests_per_day=10, days=2, candidates_per_request=6,
    )
    cfg.update(kw)
    return SimConfig(**cfg)


class TestGenerateWorld:
    def test_same_seed_identical(self):
        a = generate_world(_tiny(), seed=7)
        b = generate_world(_tiny(), seed=7)
        assert a.user_factors.tobytes() == b.user_factors.tobytes()
        assert a.item_factors.tobytes() == b.item_factors.tobytes()
        assert np.array_equal(a.user_segments, b.user_segments)

    def test_different_seeds_differ(self):
        a = generate_world(_tiny(), seed=1)
        b = generate_world(_tiny(), seed=2)
        assert a.user_factors.tobytes() != b.user_factors.tobytes()

    def test_examination_defined_for_every_position_and_segment(self):
        world = generate_world(_tiny(max_position=10), seed=0)
        values = [
            examination_probability(world, k, seg) for k in range(1, 11) for seg in (0, 1)
        ]
        assert len(values) == 20 and all(0 < v <= 1 for v in values)

    def test_config_validation(self):
        with pytest.raises(UsageError):
            generate_world(_tiny(randomized_fraction=1.5), seed=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(etas=(-1.0, 0.3)),
            dict(etas=(1.2, float("nan"))),
            dict(etas=(float("inf"),)),
            dict(bid_sigma=-1.0),
            dict(bid_sigma=float("nan")),
            dict(base_offset=float("nan")),
            dict(base_offset=float("inf")),
        ],
        ids=[
            "negative-eta", "nan-eta", "inf-eta", "negative-bid_sigma", "nan-bid_sigma",
            "nan-base_offset", "inf-base_offset",
        ],
    )
    def test_bad_decay_or_bid_spread_rejected(self, overrides):
        with pytest.raises(UsageError, match="exponents|bid_sigma|base_offset"):
            generate_world(_tiny(**overrides), seed=0)


class TestRelevance:
    def test_zero_factors_give_half(self):
        world = generate_world(_tiny(base_offset=0.0), seed=0)
        world.user_factors[:] = 0.0
        world.item_factors[:] = 0.0
        world.query_affinity[:] = 0.0
        assert relevance_probability(world, 0, 0, 0) == 0.5

    def test_monotone_in_affinity(self):
        world = generate_world(_tiny(base_offset=0.0), seed=0)
        world.query_affinity[:] = 0.0
        world.item_factors[1] = np.ones(8)
        previous = -1.0
        for scale in (-2.0, -1.0, 0.0, 1.0, 2.0):
            world.user_factors[2] = scale * np.ones(8) / 8.0
            value = relevance_probability(world, 2, 0, 1)
            assert value > previous
            previous = value

    def test_extreme_offset_kills_relevance_everywhere(self):
        world = generate_world(_tiny(base_offset=-1000.0), seed=0)
        assert relevance_probability(world, 0, 0, 0) == 0.0
        for k in range(1, 5):
            assert oracle_ctr(world, 0, 0, 0, k) == 0.0


class TestEntityIds:
    @pytest.mark.parametrize("score", ["relevance", "oracle"])
    @pytest.mark.parametrize(
        "user, query, items, what",
        [
            (-1, 0, np.array([-1, 119]), "user"),
            (80, 0, 0, "user"),
            (0, -1, 0, "query"),
            (0, 12, 0, "query"),
            (0, 0, np.array([-1, 119]), "item"),
            (0, 0, 120, "item"),
            (0, 0, np.array([[0], [120]]), "item"),
            (0, 0, np.array([1.0]), "item"),
            (np.array([0, 1]), 0, 0, "user must be one integer id"),
            (0, np.array([2]), 0, "query must be one integer id"),
            (0.0, 0, 0, "user must be one integer id"),
            (0, True, 0, "query must be one integer id"),
        ],
        ids=[
            "negative-user", "user-n", "negative-query", "query-n",
            "negative-item", "item-n", "item-grid", "float-item",
            "user-array", "query-array", "float-user", "bool-query",
        ],
    )
    def test_ids_outside_the_world_rejected(self, score, user, query, items, what):
        world = generate_world(SimConfig(), seed=0)  # 80 users, 12 queries, 120 items
        with pytest.raises(UsageError, match=what):
            if score == "relevance":
                relevance_probability(world, user, query, items)
            else:
                oracle_ctr(world, user, query, items, 1)

    def test_last_ids_accepted(self):
        world = generate_world(SimConfig(), seed=0)
        assert relevance_probability(world, 79, 11, np.array([0, 119])).shape == (2,)
        assert oracle_ctr(world, 79, 11, np.array([[0], [119]]), np.array([[1, 10]])).shape == (2, 2)


class TestExamination:
    def test_first_position_is_always_examined(self):
        for cfg in (separable_config(), user_dependent_config()):
            world = generate_world(cfg, seed=0)
            for seg in range(len(cfg.etas)):
                assert examination_probability(world, 1, seg) == 1.0

    def test_separable_decay_arithmetic(self):
        world = generate_world(separable_config(), seed=0)  # eta = 1
        assert examination_probability(world, 2) == pytest.approx(0.5)

    def test_deep_segment_decay_arithmetic(self):
        world = generate_world(user_dependent_config(), seed=0)  # etas (1.2, 0.3)
        assert examination_probability(world, 2, segment=1) == pytest.approx(2 ** -0.3)
        assert examination_probability(world, 2, segment=1) == pytest.approx(0.8123, abs=1e-4)

    def test_non_increasing_in_position(self):
        world = generate_world(user_dependent_config(max_position=10), seed=0)
        for seg in (0, 1):
            curve = [examination_probability(world, k, seg) for k in range(1, 11)]
            assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_position_bounds(self):
        world = generate_world(_tiny(), seed=0)  # K = 4, two exponents
        out_of_range = (0, 99, np.array([1, 0, 2]), np.array([[1, 2], [4, 5]]), np.array([1.0, 2.0]))
        for positions in out_of_range:
            with pytest.raises(UsageError, match="positions"):
                examination_probability(world, positions)
            with pytest.raises(UsageError, match="positions"):
                oracle_ctr(world, 0, 0, np.arange(3)[:, None], positions)
        for segment in (2, -1, True, 0.5, np.array([0, 1]), np.array(1.0)):
            with pytest.raises(UsageError, match="segment"):
                examination_probability(world, np.arange(1, 5), segment)

    def test_one_exponent_puts_every_user_in_segment_zero(self):
        world = generate_world(separable_config(), seed=0)
        assert world.examination.shape == (1, 10)
        assert not world.user_segments.any()


class TestFactorization:
    def test_ctr_is_exactly_the_product(self):
        world = generate_world(user_dependent_config(), seed=3)
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = int(rng.integers(world.config.n_users))
            q = int(rng.integers(world.config.n_queries))
            i = int(rng.integers(world.config.n_items))
            k = int(rng.integers(1, world.config.max_position + 1))
            seg = int(world.user_segments[u])
            expected = examination_probability(world, k, seg) * relevance_probability(world, u, q, i)
            assert oracle_ctr(world, u, q, i, k) == expected

    @pytest.mark.parametrize("config", [separable_config, user_dependent_config])
    def test_array_grid_is_the_definitional_product(self, config):
        cfg = config(n_users=6, n_queries=3, n_items=20)
        world = generate_world(cfg, seed=4)
        k_max = cfg.max_position
        relevance = np.empty((cfg.n_users, cfg.n_queries, cfg.n_items))
        expected = np.empty((cfg.n_users, cfg.n_queries, cfg.n_items, k_max))
        for u in range(cfg.n_users):
            eta = cfg.etas[world.user_segments[u]]
            for q in range(cfg.n_queries):
                for i in range(cfg.n_items):
                    item = world.item_factors[i]
                    x = world.user_factors[u] @ item + world.query_affinity[q] @ item + cfg.base_offset
                    rel = 1.0 / (1.0 + np.exp(-x)) if x >= 0 else np.exp(x) / (1.0 + np.exp(x))
                    relevance[u, q, i] = rel
                    for k in range(1, k_max + 1):
                        expected[u, q, i, k - 1] = float(k ** -eta) * rel
        items = np.arange(cfg.n_items)
        positions = np.arange(1, k_max + 1)
        users, queries = range(cfg.n_users), range(cfg.n_queries)
        flat = np.array([[relevance_probability(world, u, q, items) for q in queries] for u in users])
        grid = np.array([
            [oracle_ctr(world, u, q, items[:, None], positions[None, :]) for q in queries]
            for u in users
        ])
        assert flat.tobytes() == relevance.tobytes()
        assert grid.tobytes() == expected.tobytes()

    def test_position_ratio_ignores_user_and_item_when_separable(self):
        world = generate_world(separable_config(n_users=5, n_items=6, n_queries=2), seed=1)
        ratios = set()
        for u in range(5):
            for i in range(6):
                r = oracle_ctr(world, u, 0, i, 2) / oracle_ctr(world, u, 0, i, 1)
                ratios.add(round(r, 12))
        assert len(ratios) == 1

    def test_position_ratio_depends_only_on_segment_otherwise(self):
        world = generate_world(user_dependent_config(n_users=6, n_items=5), seed=1)
        by_segment = {0: set(), 1: set()}
        for u in range(6):
            for i in range(5):
                r = oracle_ctr(world, u, 0, i, 3) / oracle_ctr(world, u, 0, i, 1)
                by_segment[int(world.user_segments[u])].add(round(r, 12))
        assert len(by_segment[0]) == 1 and len(by_segment[1]) == 1
        assert by_segment[0] != by_segment[1]


class TestSimulation:
    def test_same_seed_gives_identical_logs(self):
        world = generate_world(_tiny(), seed=5)
        imps_a, behs_a = simulate_traffic(world)
        imps_b, behs_b = simulate_traffic(world)
        assert imps_a == imps_b and behs_a == behs_b

    def test_one_more_day_only_appends_to_the_logs(self):
        # held-out days: a world with one more day has the same latent factors and earlier logs
        short, longer = (generate_world(_tiny(days=days), seed=5) for days in (2, 3))
        for name in ("user_factors", "item_factors", "query_affinity", "user_segments", "item_categories"):
            assert getattr(short, name).tobytes() == getattr(longer, name).tobytes()
        (imps, behs), (more_imps, more_behs) = simulate_traffic(short), simulate_traffic(longer)
        assert pickle.dumps(more_imps[: len(imps)]) == pickle.dumps(imps)
        assert pickle.dumps(more_behs[: len(behs)]) == pickle.dumps(behs)
        assert {imp.day for imp in more_imps[len(imps) :]} == {2}

    def test_log_shape_and_positions(self):
        cfg = _tiny()
        world = generate_world(cfg, seed=5)
        imps, behs = simulate_traffic(world)
        assert len(imps) == cfg.days * cfg.requests_per_day * cfg.max_position
        by_request = {}
        for imp in imps:
            by_request.setdefault(imp.request_id, []).append(imp.position)
        assert all(sorted(v) == [1, 2, 3, 4] for v in by_request.values())
        clicked = [i for i in imps if i.click == 1]
        assert len(behs) == len(clicked)

    def test_behaviors_match_click_positions(self):
        world = generate_world(_tiny(), seed=6)
        imps, behs = simulate_traffic(world)
        clicks = {(i.user_id, i.ts, i.position, i.item_id) for i in imps if i.click}
        assert {(b.user_id, b.ts, b.position, b.item_id) for b in behs} == clicks

    def test_uniform_world_click_rate(self):
        # examination forced to 1 (eta=0), relevance forced to 0.5
        cfg = _tiny(
            etas=(0.0,), base_offset=0.0,
            requests_per_day=5000, days=2, max_position=10,
            candidates_per_request=12, n_items=50,
        )
        world = generate_world(cfg, seed=9)
        world.user_factors[:] = 0.0
        world.item_factors[:] = 0.0
        world.query_affinity[:] = 0.0
        imps, _ = simulate_traffic(world)
        assert len(imps) == 100_000
        clicks = np.array([i.click for i in imps], dtype=float)
        positions = np.array([i.position for i in imps])
        for k in range(1, 11):
            rate = clicks[positions == k].mean()
            assert abs(rate - 0.5) < 0.01

    def test_randomized_traffic_recovers_decay(self):
        cfg = _tiny(
            etas=(1.0,), base_offset=0.0,
            randomized_fraction=1.0, requests_per_day=5000, days=2,
            max_position=10, candidates_per_request=12, n_items=50,
        )
        world = generate_world(cfg, seed=10)
        imps, _ = simulate_traffic(world)
        clicks = np.array([i.click for i in imps], dtype=float)
        positions = np.array([i.position for i in imps])
        ctr1 = clicks[positions == 1].mean()
        ctr2 = clicks[positions == 2].mean()
        assert abs(ctr2 / ctr1 - 0.5) < 0.05

    def test_randomized_fraction_is_respected(self):
        cfg = _tiny(randomized_fraction=0.25, requests_per_day=2000, days=1)
        world = generate_world(cfg, seed=11)
        imps, _ = simulate_traffic(world)
        share = np.mean([i.traffic == "randomized" for i in imps])
        assert abs(share - 0.25) < 0.03

    @pytest.mark.parametrize("workers", [0, 2, -1])
    def test_workers_other_than_one_rejected(self, workers):
        world = generate_world(_tiny(requests_per_day=5, days=1), seed=12)
        with pytest.raises(UsageError, match="workers"):
            simulate_traffic(world, workers=workers)
        assert simulate_traffic(world, workers=1) == simulate_traffic(world)
