"""Slot allocation against exhaustive enumeration, plus the latency harness."""

import numpy as np
import pytest

from posrank.data import HISTORY_COLUMNS, TIME_BUCKETS
from posrank.errors import UsageError
from posrank.model import build_model, predict_matrix
from posrank.serving import (
    allocate_request,
    benchmark_latency,
    exhaustive_allocate,
    greedy_allocate,
    synthetic_request,
)

from conftest import tiny_config


class TestGreedy:
    def test_single_item_takes_the_top_slot(self):
        alloc = greedy_allocate(np.array([[0.3, 0.2]]), np.array([1.0]))
        assert alloc.slots == [(1, 0)]
        assert alloc.total_value == pytest.approx(0.3)

    def test_equal_bids_worked_example(self):
        matrix = np.array([[0.4, 0.2], [0.2, 0.15]])
        alloc = greedy_allocate(matrix, np.array([1.0, 1.0]))
        assert alloc.slots == [(1, 0), (2, 1)]
        assert alloc.total_value == pytest.approx(0.55)
        assert exhaustive_allocate(matrix, np.ones(2)).total_value == pytest.approx(0.55)

    def test_bid_weighted_worked_example(self):
        matrix = np.array([[0.4, 0.2], [0.25, 0.15]])
        alloc = greedy_allocate(matrix, np.array([1.0, 4.0]))
        assert alloc.slots == [(1, 1), (2, 0)]
        assert alloc.total_value == pytest.approx(1.2)

    def test_tie_breaks_to_lowest_candidate_index(self):
        matrix = np.array([[0.5, 0.1], [0.5, 0.1], [0.5, 0.1]])
        alloc = greedy_allocate(matrix, np.ones(3))
        assert alloc.slots[0] == (1, 0)
        assert alloc.slots[1] == (2, 1)

    def test_fills_min_of_items_and_positions(self):
        matrix = np.random.default_rng(0).random((2, 5))
        alloc = greedy_allocate(matrix, np.ones(2))
        assert [pos for pos, _ in alloc.slots] == [1, 2]

    def test_rejects_bad_inputs(self):
        with pytest.raises(UsageError):
            greedy_allocate(np.array([[0.1]]), np.array([0.0]))
        with pytest.raises(UsageError):
            greedy_allocate(np.array([[np.inf]]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bid_rejected(self, bad):
        # unchecked, the bad bid wins slot 1 and the total value turns nan/inf
        matrix = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        for allocate in (greedy_allocate, exhaustive_allocate):
            with pytest.raises(UsageError, match="bids must be positive and finite"):
                allocate(matrix, np.array([1.0, bad, 2.0]))

    def test_bid_rescaling_keeps_the_assignment(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            matrix = rng.random((5, 4))
            bids = rng.uniform(0.1, 5.0, size=5)
            base = greedy_allocate(matrix, bids)
            scaled = greedy_allocate(matrix, bids * 37.5)
            assert base.slots == scaled.slots


class TestExhaustiveOracle:
    def test_documented_greedy_suboptimality(self):
        matrix = np.array([[0.3, 0.2], [0.28, 0.1]])
        bids = np.ones(2)
        greedy = greedy_allocate(matrix, bids)
        optimal = exhaustive_allocate(matrix, bids)
        assert greedy.total_value == pytest.approx(0.40)
        assert optimal.total_value == pytest.approx(0.48)
        assert optimal.slots == [(1, 1), (2, 0)]

    def test_single_position_matches_greedy(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            matrix = rng.random((6, 1))
            bids = rng.uniform(0.2, 3.0, size=6)
            assert greedy_allocate(matrix, bids).total_value == pytest.approx(
                exhaustive_allocate(matrix, bids).total_value
            )

    def test_dominance_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n_items = int(rng.integers(1, 7))
            n_pos = int(rng.integers(1, 5))
            matrix = rng.random((n_items, n_pos))
            bids = rng.uniform(0.1, 4.0, size=n_items)
            g = greedy_allocate(matrix, bids)
            e = exhaustive_allocate(matrix, bids)
            assert g.total_value <= e.total_value + 1e-12

    def test_factorial_guard(self):
        with pytest.raises(UsageError):
            exhaustive_allocate(np.random.default_rng(0).random((9, 9)), np.ones(9))

    def test_value_matches_recomputation(self):
        rng = np.random.default_rng(4)
        matrix = rng.random((5, 3))
        bids = rng.uniform(0.5, 2.0, size=5)
        for alloc in (greedy_allocate(matrix, bids), exhaustive_allocate(matrix, bids)):
            recomputed = sum(matrix[c, p - 1] * bids[c] for p, c in alloc.slots)
            assert alloc.total_value == pytest.approx(recomputed, abs=1e-12)
            chosen = [c for _, c in alloc.slots]
            assert len(chosen) == len(set(chosen))


class TestAllocateRequest:
    def test_allocation_uses_the_predicted_matrix_verbatim(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=5)
        req = synthetic_request(cfg, 5, seed=6)
        alloc, matrix = allocate_request(params, req)
        assert matrix.tobytes() == predict_matrix(params, req).tobytes()
        bids = np.array([c.bid for c in req.candidates])
        direct = greedy_allocate(matrix, bids)
        assert alloc.slots == direct.slots
        assert alloc.total_value == direct.total_value

    def test_allocation_tsv(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=5)
        req = synthetic_request(cfg, 4, seed=7)
        alloc, matrix = allocate_request(params, req)
        bids = np.array([c.bid for c in req.candidates])
        lines = alloc.to_tsv(matrix, bids).strip().splitlines()
        assert lines[0] == "position\tcandidate\tctr\tbid\tecpm"
        assert len(lines) == 2 + cfg.max_position


class TestSyntheticRequest:
    def test_history_block_repeats_the_scalar_draw_stream(self):
        # reference: one scalar draw per id, record by record, position by position;
        # equal ids give benchmark requests, and so their matrices, the same bytes
        cfg = tiny_config()
        rng = np.random.default_rng(21)
        highs = [cfg.vocab_sizes[f] for f in HISTORY_COLUMNS[:-1]] + [TIME_BUCKETS]
        per_position = [
            [[int(rng.integers(0, h)) for h in highs] for _ in range(cfg.max_len)] for _ in range(cfg.max_position)
        ]
        item_draws = [
            ((int(rng.integers(0, cfg.vocab_sizes["item_id"])), int(rng.integers(0, cfg.vocab_sizes["category"]))),
             float(np.exp(rng.normal(0.0, 0.3))))
            for _ in range(4)
        ]
        req = synthetic_request(cfg, 4, seed=21)
        for k in range(1, cfg.max_position + 1):
            assert req.sequences.at(k).tolist() == per_position[k - 1]
        # flat: most recent first regardless of position, round-robin over the positions
        flat = [rec for recent in zip(*per_position) for rec in recent][: cfg.max_len]
        assert req.sequences.flat.tolist() == flat
        assert [(c.item_ids, c.bid) for c in req.candidates] == item_draws


class TestBenchmark:
    def test_table_shape_and_sanity(self):
        cfg = tiny_config()
        params = {
            "DPIN": build_model(cfg, "DPIN", seed=8),
            "DPIN+ItemAction": build_model(cfg, "DPIN+ItemAction", seed=8),
        }
        table = benchmark_latency(params, item_counts=[2, 6], trials=30, warmup=5, seed=9)
        assert len(table.rows) == 4
        assert all(r.median_us > 0 and r.p95_us >= r.median_us for r in table.rows)
        assert all(r.trials == 30 for r in table.rows)
        lines = table.to_tsv().strip().splitlines()
        assert lines[0] == "variant\tJ\tK\tmedian_us\tp95_us\ttrials"
        assert table.median("DPIN", 2) > 0
        with pytest.raises(UsageError):
            table.median("DIN", 2)

    def test_minimum_trials_enforced(self):
        cfg = tiny_config()
        params = {"DPIN": build_model(cfg, "DPIN", seed=8)}
        with pytest.raises(UsageError):
            benchmark_latency(params, item_counts=[2], trials=10)

    def test_mixed_configs_rejected(self):
        a = build_model(tiny_config(), "DPIN", seed=8)
        b = build_model(tiny_config(d_model=16), "DPIN+ItemAction", seed=8)
        with pytest.raises(UsageError):
            benchmark_latency({"DPIN": a, "DPIN+ItemAction": b}, item_counts=[2])
