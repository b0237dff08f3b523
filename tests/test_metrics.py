"""AUC and per-position AUC against explicit pair counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posrank.errors import UndefinedMetricError, UsageError
from posrank.metrics import auc, pauc

from verifiers import auc_oracle


def _loop_midrank_auc(scores, labels) -> float:
    """Rank-sum AUC with tie groups found one by one: the reference for `auc`."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int((y == 1).sum())
    n_neg = y.size - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_inverted_ranking(self):
        assert auc([0.1, 0.9], [1, 0]) == 0.0

    def test_tie_rule(self):
        assert auc([0.5, 0.5], [1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc([0.1, 0.9], [1, 1])
        with pytest.raises(UndefinedMetricError):
            auc_oracle([0.1, 0.9], [0, 0])

    def test_bad_labels_rejected(self):
        with pytest.raises(UsageError):
            auc([0.1, 0.9], [1, 2])

    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(2, 400))
            # coarse grid forces plenty of exact ties
            scores = rng.integers(0, 7, size=n) / 7.0
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(auc(scores, labels) - auc_oracle(scores, labels)) < 1e-12

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        grid=st.integers(1, 9),
        cells=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 1)), min_size=2, max_size=80),
    )
    def test_tie_groups_on_coarse_grids(self, grid, cells):
        scores = np.array([min(c, grid) / grid for c, _ in cells])
        labels = np.array([y for _, y in cells])
        labels[:2] = [0, 1]
        got = auc(scores, labels)
        assert got == _loop_midrank_auc(scores, labels)
        assert abs(got - auc_oracle(scores, labels)) < 1e-12

    def test_all_scores_equal_gives_half(self):
        labels = np.array([1, 0, 1, 0, 0])
        scores = np.full(5, 0.3)
        assert auc(scores, labels) == 0.5
        assert auc_oracle(scores, labels) == 0.5

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0.01, 0.99, size=200)
        labels = rng.integers(0, 2, size=200)
        logit = np.log(scores / (1 - scores))
        assert auc(scores, labels) == auc(logit, labels)


class TestPauc:
    def test_worked_weighted_mean(self):
        # position 1: 4 impressions with pairwise concordance 3/4
        # position 2: 2 impressions ranked perfectly
        scores = [0.9, 0.4, 0.6, 0.1, 0.8, 0.2]
        labels = [1, 1, 0, 0, 1, 0]
        positions = [1, 1, 1, 1, 2, 2]
        assert auc_oracle(scores[:4], labels[:4]) == 0.75
        report = pauc(scores, labels, positions)
        assert report.pauc == pytest.approx(5 / 6, abs=1e-12)

    def test_single_position_collapses_to_auc(self):
        rng = np.random.default_rng(2)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        report = pauc(scores, labels, np.ones(50, dtype=int))
        assert report.pauc == auc(scores, labels)

    def test_single_class_position_is_excluded(self):
        scores = [0.9, 0.4, 0.6, 0.1, 0.3, 0.2]
        labels = [1, 1, 0, 0, 0, 0]  # position 2 has no clicks
        positions = [1, 1, 1, 1, 2, 2]
        report = pauc(scores, labels, positions)
        base = pauc(scores[:4], labels[:4], positions[:4])
        assert report.pauc == base.pauc
        excluded = [r for r in report.positions if r.position == 2][0]
        assert np.isnan(excluded.auc)

    def test_all_positions_excluded_rejected(self):
        with pytest.raises(UndefinedMetricError):
            pauc([0.1, 0.2], [0, 0], [1, 1])

    @pytest.mark.parametrize("bad", [1.5, float("nan")])
    def test_non_integer_or_non_finite_position_rejected(self, bad):
        scores = [0.9, 0.4, 0.6, 0.1, 0.8, 0.2]
        labels = [1, 0, 1, 0, 1, 0]
        with pytest.raises(UsageError, match="finite integers"):
            pauc(scores, labels, [bad, bad, 2, 2, 2, 2])

    def test_per_position_shift_invariance(self):
        rng = np.random.default_rng(3)
        n = 300
        scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        positions = rng.integers(1, 6, size=n)
        shifted = scores + positions * 13.7
        a = pauc(scores, labels, positions)
        b = pauc(shifted, labels, positions)
        assert a.pauc == pytest.approx(b.pauc, abs=1e-12)

    def test_report_weighting_invariant(self):
        rng = np.random.default_rng(4)
        n = 500
        scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        positions = rng.integers(1, 8, size=n)
        report = pauc(scores, labels, positions)
        defined = [r for r in report.positions if np.isfinite(r.auc)]
        num = sum(r.impressions * r.auc for r in defined)
        den = sum(r.impressions for r in defined)
        assert report.pauc == pytest.approx(num / den, abs=1e-12)
