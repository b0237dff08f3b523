"""Vocabularies, log file round-trips and behavior sequence construction."""

import math

import numpy as np
import pytest

from posrank.data import (
    HISTORY_COLUMNS,
    IMPRESSION_COLUMNS,
    VOCAB_FIELDS,
    RawBehavior,
    RawImpression,
    Vocabulary,
    build_position_behavior_sequences,
    encode_history,
    group_requests,
    read_behaviors,
    read_impressions,
    time_bucket,
    write_behaviors,
    write_impressions,
)
from posrank.errors import FormatError, UsageError


def _imp(**kw) -> RawImpression:
    base = dict(
        request_id="r1",
        day=0,
        traffic="regular",
        user_id="u1",
        segment="s0",
        query="q1",
        geo="g1",
        hour="12",
        dow="3",
        item_id="iA",
        category="c1",
        position=1,
        bid=1.25,
        click=0,
        ts=1000,
    )
    base.update(kw)
    return RawImpression(**base)


class TestVocabulary:
    def test_empty_log_has_only_the_unknown_id(self):
        vocab = Vocabulary.build([])
        for f in ("user_id", "query", "item_id"):
            assert vocab.size(f) == 1

    def test_duplicates_collapse(self):
        rows = [_imp(item_id="A"), _imp(item_id="B"), _imp(item_id="A")]
        vocab = Vocabulary.build(rows)
        assert vocab.size("item_id") == 3  # unknown + A + B

    def test_unseen_token_maps_to_zero(self):
        vocab = Vocabulary.build([_imp(query="known")])
        assert vocab.encode("query", "known") == 1
        assert vocab.encode("query", "never-seen") == 0

    def test_min_count_filters(self):
        rows = [_imp(item_id="rare"), _imp(item_id="common"), _imp(item_id="common")]
        vocab = Vocabulary.build(rows, min_count=2)
        assert vocab.encode("item_id", "common") == 1
        assert vocab.encode("item_id", "rare") == 0

    def test_first_seen_order_is_deterministic(self):
        rows = [_imp(item_id=t) for t in ("z", "a", "m", "a")]
        vocab = Vocabulary.build(rows)
        assert [vocab.encode("item_id", t) for t in ("z", "a", "m")] == [1, 2, 3]


class TestEncodeImpression:
    """group_requests validates every logged impression and encodes its tokens."""

    def _group(self, raws, vocab=None):
        vocab = vocab or Vocabulary.build(raws)
        return group_requests(raws, vocab, {}, max_position=10, max_len=4)

    def test_valid_row(self):
        (req,) = self._group([_imp(click=1, position=1)])
        assert req.clicks == [1] and req.positions == [1]
        assert req.user_ids == (1, 1)
        assert req.context_ids == (1, 1, 1, 1) and req.candidates[0].item_ids == (1, 1)

    def test_positions_are_one_based(self):
        vocab = Vocabulary.build([_imp()])
        with pytest.raises(UsageError, match="position 0 outside"):
            self._group([_imp(position=0)], vocab)
        with pytest.raises(UsageError, match="position 11 outside"):
            self._group([_imp(position=1), _imp(position=11)], vocab)

    def test_click_must_be_binary(self):
        with pytest.raises(UsageError, match="click must be 0 or 1"):
            self._group([_imp(click=2)])

    def test_bid_and_traffic_are_checked(self):
        with pytest.raises(UsageError, match="bid must be positive"):
            self._group([_imp(bid=0.0)])
        with pytest.raises(UsageError, match="traffic must be one of"):
            self._group([_imp(traffic="organic")])

    @pytest.mark.parametrize("bid", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_bid_from_a_file_rejected(self, tmp_path, bid):
        path = tmp_path / "impressions.tsv"
        write_impressions(path, [_imp(bid=bid)])
        with pytest.raises(UsageError, match="bid must be positive and finite"):
            self._group(read_impressions(path))

    def test_unseen_query_becomes_zero(self):
        vocab = Vocabulary.build([_imp(query="seen")])
        (req,) = self._group([_imp(query="unseen")], vocab)
        assert req.context_ids[0] == 0

    def test_reencoding_decoded_form_is_identity(self):
        rows = [_imp(item_id=f"i{n}", query=f"q{n}") for n in range(5)]
        vocab = Vocabulary.build(rows)
        for f in VOCAB_FIELDS:
            for raw in rows:
                token = getattr(raw, f)
                assert vocab.decode(f, vocab.encode(f, token)) == token
            for idx in range(1, vocab.size(f)):
                assert vocab.encode(f, vocab.decode(f, idx)) == idx


class TestFileRoundTrip:
    def test_impressions_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [
            _imp(
                request_id=f"r{i // 3}",
                position=i % 3 + 1,
                bid=float(np.exp(rng.normal())),
                click=int(rng.integers(0, 2)),
                ts=1000 + i,
            )
            for i in range(100)
        ]
        path = tmp_path / "imps.tsv"
        write_impressions(path, rows)
        assert read_impressions(path) == rows

    def test_behaviors_round_trip_exactly(self, tmp_path):
        rows = [
            RawBehavior(
                user_id=f"u{i % 4}", ts=100 * i, position=i % 5 + 1,
                item_id=f"i{i}", category="c0", query="q1", geo="g2", hour="7", dow="2",
            )
            for i in range(37)
        ]
        path = tmp_path / "behaviors.tsv"
        write_behaviors(path, rows)
        assert read_behaviors(path) == rows

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("\t".join(IMPRESSION_COLUMNS) + "\n", encoding="utf-8")
        assert read_impressions(path) == []

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("foo\tbar\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_impressions(path)
        with pytest.raises(FormatError):
            read_behaviors(path)

    def test_corrupted_row_names_the_line(self, tmp_path):
        path = tmp_path / "corrupt.tsv"
        good = _imp()
        write_impressions(path, [good, good])
        lines = path.read_text().splitlines()
        lines[2] = "only\tthree\tcolumns"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":3"):
            read_impressions(path)


class TestTimeBucket:
    def test_one_minute_gap(self):
        assert time_bucket(60) == 1

    def test_zero_gap(self):
        assert time_bucket(0) == 0

    def test_saturates_at_fifteen(self):
        assert time_bucket(10**9) == 15

    def test_monotone(self):
        gaps = [0, 30, 60, 300, 3600, 86400, 7 * 86400]
        buckets = [time_bucket(g) for g in gaps]
        assert buckets == sorted(buckets)

    def test_arrays_match_the_scalar_definition(self):
        def definition(dt):
            return min(15, int(math.floor(math.log2(1.0 + dt / 60.0))))

        edges = 60 * (2 ** np.arange(1, 16) - 1)
        for gaps in (np.arange(2 * 10**6 + 1), np.concatenate([edges - 1, edges, edges + 1])):
            expected = np.array([definition(dt) for dt in gaps.tolist()])
            np.testing.assert_array_equal(time_bucket(gaps), expected)

    def test_negative_gap_rejected(self):
        with pytest.raises(UsageError):
            time_bucket(np.array([60, -1]))


def _event(ts, position, item=1):
    """An encode_history row: ts, position, item_id, category, query, geo, hour, dow."""
    return (ts, position, item, 11, 12, 13, 14, 15)


def _history(events):
    return np.array(events, dtype=np.int64).reshape(-1, len(HISTORY_COLUMNS) + 1)


class TestSequences:
    def test_no_history_gives_empty_sequences(self):
        seqs = build_position_behavior_sequences(_history([]), reference_ts=1000, max_position=5, max_len=3)
        assert all(len(seqs.at(k)) == 0 for k in range(1, 6))
        assert seqs.flat.shape == (0, len(HISTORY_COLUMNS))

    def test_truncation_keeps_most_recent(self):
        events = [_event(100, 2, item=1), _event(200, 2, item=2), _event(300, 2, item=3)]
        seqs = build_position_behavior_sequences(_history(events), reference_ts=1000, max_position=5, max_len=2)
        assert seqs.at(2)[:, 0].tolist() == [3, 2]  # most recent first
        assert all(len(seqs.at(k)) == 0 for k in (1, 3, 4, 5))

    def test_placement_respects_positions(self):
        events = [_event(t, pos) for t, pos in [(10, 1), (20, 3), (30, 1), (40, 2)]]
        seqs = build_position_behavior_sequences(_history(events), reference_ts=100, max_position=4, max_len=10)
        assert [len(seqs.at(k)) for k in range(1, 5)] == [2, 1, 1, 0]
        assert seqs.lengths.tolist() == [2, 1, 1, 0]

    def test_events_outside_the_positions_are_ignored(self):
        events = [_event(10, 0, item=1), _event(20, 2, item=2), _event(30, 3, item=3)]
        seqs = build_position_behavior_sequences(_history(events), reference_ts=100, max_position=2, max_len=10)
        assert seqs.records[:, 0].tolist() == [2] and seqs.flat[:, 0].tolist() == [2]

    def test_at_checks_its_range(self):
        seqs = build_position_behavior_sequences(_history([]), reference_ts=100, max_position=3, max_len=2)
        for position in (0, 4):
            with pytest.raises(UsageError, match="outside"):
                seqs.at(position)

    def test_leakage_guard_counts_excluded_events(self):
        events = [_event(10, 1), _event(999, 1), _event(1000, 1), _event(1500, 1)]
        seqs = build_position_behavior_sequences(_history(events), reference_ts=1000, max_position=2, max_len=10)
        assert seqs.leaked == 2  # ts >= reference excluded
        assert len(seqs.at(1)) == 2

    def test_bucket_arithmetic_in_records(self):
        events = [_event(940, 1, item=7)]
        seqs = build_position_behavior_sequences(_history(events), reference_ts=1000, max_position=1, max_len=5)
        assert seqs.at(1)[0, -1] == time_bucket(60) == 1
        # the six ids in HISTORY_COLUMNS order, then the recency bucket
        assert seqs.at(1)[0].tolist() == [7, 11, 12, 13, 14, 15, 1]

    def test_flat_merges_by_recency(self):
        # history arrives ts-ascending; flat keeps the most recent across positions
        events = [_event(10, 1, item=1), _event(30, 3, item=3), _event(50, 2, item=2)]
        seqs = build_position_behavior_sequences(_history(events), reference_ts=100, max_position=3, max_len=2)
        assert seqs.flat[:, 0].tolist() == [2, 3]

    def test_sequences_own_their_rows(self):
        # a view would keep a larger buffer (the user's whole history) alive
        history = _history([_event(t, 1 + t % 2, item=t) for t in range(1, 9)])
        seqs = build_position_behavior_sequences(history, reference_ts=100, max_position=2, max_len=3)
        for part in (seqs.records, seqs.flat, seqs.lengths):
            assert part.base is None


class TestSplitAndGrouping:
    def _dataset(self):
        rows = []
        for day in range(3):
            for r in range(4):
                traffic = "randomized" if r == 3 else "regular"
                for pos in (1, 2):
                    rows.append(
                        _imp(
                            request_id=f"d{day}r{r}",
                            day=day,
                            traffic=traffic,
                            position=pos,
                            ts=day * 86400 + r + 100,
                        )
                    )
        return rows

    def test_group_requests_sorted_and_sequenced(self):
        raws = self._dataset()
        vocab = Vocabulary.build(raws)
        history = encode_history(
            [
                RawBehavior(user_id="u1", ts=5, position=1, item_id="iA", category="c1",
                            query="q1", geo="g1", hour="12", dow="3"),
                RawBehavior(user_id="u1", ts=10**7, position=1, item_id="iA", category="c1",
                            query="q1", geo="g1", hour="12", dow="3"),
            ],
            vocab,
        )
        assert history["u1"][:, 0].tolist() == [5, 10**7]  # ts ascending
        requests = group_requests(raws, vocab, history, max_position=4, max_len=8)
        assert len(requests) == 12
        first = requests[0]
        assert first.positions == sorted(first.positions)
        assert len(first.candidates) == 2
        # only the ts=5 event predates the request; the future one must not leak
        assert len(first.sequences.at(1)) == 1
        assert first.sequences.leaked == 1
