"""Model zoo contracts: shapes, variant semantics, bit-level reproducibility."""

import struct
import zlib

import numpy as np
import pytest

import posrank.autodiff as ad
from posrank.autodiff import Tensor
from posrank.data import VOCAB_FIELDS, build_position_behavior_sequences
from posrank.errors import FormatError, UsageError
from posrank.model import (
    VARIANTS,
    ModelConfig,
    PreparedBatch,
    base_module_forward,
    behavior_embedding,
    build_model,
    combination_forward,
    evaluation_positions,
    interest_aggregation,
    load_checkpoint,
    position_interaction,
    predict_matrix,
    prepare_batch,
    save_checkpoint,
    score_displayed,
    transformer_encode,
)
from posrank.serving import synthetic_request
from posrank.train import score_requests

from conftest import desk_config, labeled_request, tiny_config


# the parameter groups beyond `embed` and `base` that each VARIANT_TABLE entry implies
_NAME_GROUPS = {
    "DIN": {"att", "head"},
    "DIN+PosInWide": {"att", "head", "head.position"},
    "DIN+PAL": {"att", "head", "head.position"},
    "DIN+ActualPosInWide": {"att", "head", "head.position"},
    "DIN+Combination": {"att", "comb"},
    "DPIN-Transformer": {"att", "inter", "comb"},
    "DPIN": {"att", "inter", "tf0", "tf1", "comb"},
    "DPIN+ItemAction": {"att", "inter", "tf0", "tf1", "comb"},
}


class TestBuildModel:
    def test_same_seed_same_bytes(self):
        cfg = tiny_config()
        a = build_model(cfg, "DPIN", seed=3)
        b = build_model(cfg, "DPIN", seed=3)
        assert a.names() == b.names()
        for name in a.names():
            assert a.tensors[name].data.tobytes() == b.tensors[name].data.tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_name_groups_follow_the_variant_table(self, variant):
        names = build_model(tiny_config(blocks=2), variant, seed=0).names()
        groups = {n.partition(".")[0] for n in names} | ({"head.position"} & set(names))
        assert groups == {"embed", "base"} | _NAME_GROUPS[variant]

    def test_head_divisibility_enforced(self):
        with pytest.raises(UsageError):
            build_model(tiny_config(d_model=9, heads=2), "DPIN", seed=0)

    @pytest.mark.parametrize(
        "overrides",
        [dict(embed_dim=0), dict(d_model=0), dict(max_len=0), dict(max_position=0), dict(blocks=-1)],
        ids=["embed_dim", "d_model", "max_len", "max_position", "blocks"],
    )
    def test_sizes_below_their_minimum_rejected(self, overrides):
        with pytest.raises(UsageError, match=">= 1"):
            tiny_config(**overrides).validate()

    def test_unknown_variant_lists_valid_tags(self):
        with pytest.raises(UsageError) as err:
            build_model(tiny_config(), "DeepFM", seed=0)
        for tag in VARIANTS:
            assert tag in str(err.value)

    def test_shared_submodules_have_identical_shapes(self):
        cfg = tiny_config()
        shapes = []
        for variant in VARIANTS:
            params = build_model(cfg, variant, seed=0)
            shared = {
                n: params.tensors[n].shape
                for n in params.names()
                if n.startswith(("embed.", "base."))
            }
            shapes.append(shared)
        assert all(s == shapes[0] for s in shapes[1:])

    def test_desk_dpin_parameter_count_matches_closed_form(self):
        sizes = {f: 64 for f in VOCAB_FIELDS}
        cfg = desk_config(vocab_sizes=sizes)
        params = build_model(cfg, "DPIN", seed=0)
        d, dm, k = 8, 32, 10
        embed = 8 * 64 * d + (k + 1) * d + 16 * d
        base = 64 * 64 + 64 + 64 * 32 + 32 + 32 * 16 + 16
        att = 88 * dm + dm + dm * 1 + 1
        inter = 96 * dm + dm
        per_block = 2 * 3 * dm * (dm // 2) + dm * dm + 2 * dm + dm * 4 * dm + 4 * dm + 4 * dm * dm + dm + 2 * dm
        comb = 56 * 16 + 16 + 16 * 1 + 1
        expected = embed + base + att + inter + 2 * per_block + comb
        assert sum(t.data.size for t in params.tensors.values()) == expected


class TestBaseModule:
    def test_single_item_matches_row_in_batch_bitwise(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=1)
        rng = np.random.default_rng(0)
        user = rng.integers(0, 12, size=(1, 2))
        ctx = rng.integers(0, 12, size=(1, 4))
        items = rng.integers(0, 12, size=(1, 5, 2))
        full = base_module_forward(params, user, ctx, items)
        for j in range(5):
            alone = base_module_forward(params, user, ctx, items[:, j : j + 1, :])
            assert alone.data[0].tobytes() == full.data[j].tobytes()

    def test_zero_embeddings_give_zero_representation(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=1)
        for name in params.names():
            if name.startswith("embed."):
                params.tensors[name].data[:] = 0.0
        out = base_module_forward(
            params,
            np.zeros((1, 2), dtype=np.int64),
            np.zeros((1, 4), dtype=np.int64),
            np.zeros((1, 3, 2), dtype=np.int64),
        )
        np.testing.assert_array_equal(out.data, np.zeros((3, cfg.item_rep_dim)))

    def test_items_without_a_request_axis_rejected(self):
        params = build_model(tiny_config(), "DPIN", seed=1)
        user, ctx = np.zeros((1, 2), dtype=np.int64), np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(UsageError, match=r"\[B, J, 2\]"):
            base_module_forward(params, user, ctx, np.zeros((3, 2), dtype=np.int64))

    def test_desk_output_dim(self):
        cfg = desk_config()
        params = build_model(cfg, "DPIN", seed=0)
        out = base_module_forward(
            params,
            np.zeros((1, 2), dtype=np.int64),
            np.zeros((1, 4), dtype=np.int64),
            np.zeros((1, 2, 2), dtype=np.int64),
        )
        assert out.shape == (2, 16)


class TestBehaviorEmbedding:
    def test_dimension_at_embed_dim_8(self):
        params = build_model(desk_config(), "DPIN", seed=0)
        assert behavior_embedding(params, np.zeros((3, 7), dtype=np.int64)).shape == (3, 56)
        # any leading shape: one row per click
        assert behavior_embedding(params, np.zeros((2, 4, 7), dtype=np.int64)).shape == (8, 56)

    def test_identical_records_identical_vectors(self):
        params = build_model(tiny_config(), "DPIN", seed=0)
        out = behavior_embedding(params, np.array([[3, 4, 1, 2, 3, 4, 5], [3, 4, 1, 2, 3, 4, 5]]))
        assert out.data[0].tobytes() == out.data[1].tobytes()

    def test_padding_record_is_id_zero_concat(self):
        params = build_model(tiny_config(), "DPIN", seed=0)
        out = behavior_embedding(params, np.zeros((1, 7), dtype=np.int64))
        d = params.config.embed_dim
        expected = np.concatenate(
            [params.tensors[f"embed.{f}"].data[0] for f in ("item_id", "category", "query", "geo", "hour", "dow")]
            + [params.tensors["embed.time_bucket"].data[0]]
        )
        np.testing.assert_array_equal(out.data[0], expected)
        assert out.shape[1] == 7 * d


class TestInterestAggregation:
    def _setup(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=2)
        rng = np.random.default_rng(1)
        emb = Tensor(rng.normal(size=(2, cfg.max_len, cfg.behavior_dim)))
        query = Tensor(rng.normal(size=(2, cfg.context_dim)))
        return cfg, params, emb, query

    def test_single_record_passes_through(self):
        cfg, params, emb, query = self._setup()
        mask = np.zeros((2, cfg.max_len))
        mask[:, 0] = 1.0
        out = interest_aggregation(params, emb, mask, query)
        np.testing.assert_array_equal(out.data[0], emb.data[0, 0])
        np.testing.assert_array_equal(out.data[1], emb.data[1, 0])

    def test_equal_logits_average(self):
        cfg, params, emb, query = self._setup()
        params.tensors["att.hidden.w"].data[:] = 0.0
        params.tensors["att.score.w"].data[:] = 0.0
        mask = np.zeros((2, cfg.max_len))
        mask[:, :3] = 1.0
        out = interest_aggregation(params, emb, mask, query)
        np.testing.assert_allclose(out.data, emb.data[:, :3].mean(axis=1), atol=1e-15)

    def test_all_padding_pools_to_zero(self):
        cfg, params, emb, query = self._setup()
        mask = np.zeros((2, cfg.max_len))
        out = interest_aggregation(params, emb, mask, query)
        np.testing.assert_array_equal(out.data, np.zeros((2, cfg.behavior_dim)))

    def _many_queries(self, n=3, m=4):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN+ItemAction", seed=2)
        rng = np.random.default_rng(4)
        params.tensors["att.hidden.b"].data[:] = rng.normal(size=cfg.d_model)
        emb = Tensor(rng.normal(size=(n, cfg.max_len, cfg.behavior_dim)))
        query = Tensor(rng.normal(size=(n * m, cfg.context_dim + cfg.item_dim)))
        mask = np.zeros((n, cfg.max_len))
        for i in range(n - 1):  # the last sequence is all padding
            mask[i, : i + 2] = 1.0
        return params, emb, mask, query

    def test_many_queries_equal_single_query_calls_bitwise(self):
        params, emb, mask, query = self._many_queries()
        m = query.shape[0] // emb.shape[0]
        out = interest_aggregation(params, emb, mask, query)
        for q in range(m):
            single = interest_aggregation(params, emb, mask, Tensor(query.data[q::m]))
            assert out.data[q::m].tobytes() == single.data.tobytes()

    def test_matches_the_concatenated_definition(self):
        params, emb, mask, query = self._many_queries()
        m = query.shape[0] // emb.shape[0]
        names = ("att.hidden.w", "att.hidden.b", "att.score.w", "att.score.b")
        wa, ba, wb, bb = (params.tensors[n].data for n in names)
        expected = np.zeros((query.shape[0], emb.shape[2]))
        for r, q in enumerate(query.data):
            seq, real = emb.data[r // m], mask[r // m] > 0
            if not real.any():
                continue
            att_in = np.concatenate([seq, np.tile(q, (len(seq), 1))], axis=1)
            logits = (np.maximum(att_in @ wa + ba, 0.0) @ wb + bb)[:, 0]
            weights = np.where(real, np.exp(logits - logits[real].max()), 0.0)
            expected[r] = weights / weights.sum() @ seq
        out = interest_aggregation(params, emb, mask, query)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-14)

    def test_query_rows_must_split_over_sequences(self):
        params, emb, mask, query = self._many_queries()
        with pytest.raises(UsageError, match="queries"):
            interest_aggregation(params, emb, mask, Tensor(query.data[:-1]))


class TestPositionInteraction:
    def test_output_dim_is_d_model(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=0)
        rng = np.random.default_rng(2)
        out = position_interaction(
            params,
            np.array([1, 2]),
            Tensor(rng.normal(size=(2, cfg.context_dim))),
            Tensor(rng.normal(size=(2, cfg.behavior_dim))),
        )
        assert out.shape == (2, cfg.d_model)

    def test_zero_weights_positive_bias_constant(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=0)
        params.tensors["inter.w"].data[:] = 0.0
        params.tensors["inter.b"].data[:] = 0.7
        rng = np.random.default_rng(3)
        out = position_interaction(
            params,
            np.array([1, 3]),
            Tensor(rng.normal(size=(2, cfg.context_dim))),
            Tensor(rng.normal(size=(2, cfg.behavior_dim))),
        )
        np.testing.assert_array_equal(out.data, np.full((2, cfg.d_model), 0.7))

    def test_position_changes_output(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=0)
        rng = np.random.default_rng(4)
        ctx = Tensor(rng.normal(size=(1, cfg.context_dim)))
        pooled = Tensor(rng.normal(size=(1, cfg.behavior_dim)))
        a = position_interaction(params, np.array([1]), ctx, pooled)
        b = position_interaction(params, np.array([2]), ctx, pooled)
        assert not np.array_equal(a.data, b.data)


def _per_head_transformer(params, v):
    """The per-head loop `transformer_encode` replaces: H attentions over [B, K, dk].

    Head h projects with columns h·dk … (h+1)·dk − 1 of `wq`, `wk` and `wv`,
    and the heads are concatenated in order before `wo`.
    """
    cfg = params.config
    t = params.tensors
    b, k, dm = v.shape
    dk = dm // cfg.heads
    inv_sqrt_dk = 1.0 / np.sqrt(dk)
    x = ad.reshape(v, (b * k, dm))
    for blk in range(cfg.blocks):
        heads = []
        for h in range(cfg.heads):
            q, key, val = (
                ad.reshape(ad.matmul(x, Tensor(t[f"tf{blk}.{w}"].data[:, h * dk : (h + 1) * dk])), (b, k, dk))
                for w in ("wq", "wk", "wv")
            )
            scores = ad.bmm(q, ad.transpose(key, (0, 2, 1))) * inv_sqrt_dk
            heads.append(ad.reshape(ad.bmm(ad.softmax(scores), val), (b * k, dk)))
        mha = ad.matmul(ad.concat(heads, axis=1), t[f"tf{blk}.wo"])
        x = ad.layer_norm(x + mha, t[f"tf{blk}.ln1.gain"], t[f"tf{blk}.ln1.bias"])
        hidden = ad.relu(ad.matmul(x, t[f"tf{blk}.ff1.w"]) + t[f"tf{blk}.ff1.b"])
        ff = ad.matmul(hidden, t[f"tf{blk}.ff2.w"]) + t[f"tf{blk}.ff2.b"]
        x = ad.layer_norm(x + ff, t[f"tf{blk}.ln2.gain"], t[f"tf{blk}.ln2.bias"])
    return ad.reshape(x, (b, k, dm))


class TestTransformer:
    @pytest.mark.parametrize("make_config", [tiny_config, desk_config], ids=["tiny", "desk"])
    @pytest.mark.parametrize("batch", [1, 7])
    def test_heads_as_batch_equal_the_per_head_loop(self, make_config, batch):
        cfg = make_config()
        params = build_model(cfg, "DPIN", seed=4)
        rng = np.random.default_rng(batch)
        for name in params.names():
            if name.startswith("tf"):  # biases and gains off their zero/one init
                params.tensors[name].data[...] = rng.normal(0.0, 0.5, size=params.tensors[name].shape)
        v = rng.normal(size=(batch, cfg.max_position, cfg.d_model))
        with ad.no_grad():
            out = transformer_encode(params, Tensor(v)).data
            ref = _per_head_transformer(params, Tensor(v)).data
        assert out.tobytes() == ref.tobytes()

    def test_wrong_row_count_rejected(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=0)
        with pytest.raises(UsageError):
            transformer_encode(params, Tensor(np.zeros((1, cfg.max_position + 1, cfg.d_model))))

    def test_single_position_runs(self):
        cfg = tiny_config(max_position=1)
        params = build_model(cfg, "DPIN", seed=0)
        rng = np.random.default_rng(5)
        v = Tensor(rng.normal(size=(2, 1, cfg.d_model)))
        out = transformer_encode(params, v)
        assert out.shape == (2, 1, cfg.d_model)
        again = transformer_encode(params, Tensor(v.data.copy()))
        assert out.data.tobytes() == again.data.tobytes()

    def test_duplicate_inputs_get_identical_outputs(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=0)
        rng = np.random.default_rng(6)
        v = rng.normal(size=(1, cfg.max_position, cfg.d_model))
        v[0, 2] = v[0, 0]  # positions 0 and 2 share the same input row
        out = transformer_encode(params, Tensor(v)).data
        assert out[0, 0].tobytes() == out[0, 2].tobytes()

    def test_head_dim_split(self):
        cfg = desk_config(d_model=64, heads=2)
        params = build_model(cfg, "DPIN", seed=0)
        for blk in range(cfg.blocks):
            for w in ("wq", "wk", "wv"):
                assert params.tensors[f"tf{blk}.{w}"].shape == (64, 64)


class TestCombination:
    def test_zero_weights_give_half(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=0)
        for name in ("comb.1.w", "comb.1.b", "comb.2.w", "comb.2.b"):
            params.tensors[name].data[:] = 0.0
        rng = np.random.default_rng(7)
        out = combination_forward(
            params,
            Tensor(rng.normal(size=(4, cfg.item_rep_dim))),
            Tensor(rng.normal(size=(4, cfg.d_model))),
            np.array([1, 2, 3, 1]),
        )
        np.testing.assert_array_equal(out.data, np.full(4, 0.5))

    def test_outputs_strictly_inside_unit_interval(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=0)
        rng = np.random.default_rng(8)
        out = combination_forward(
            params,
            Tensor(rng.normal(size=(64, cfg.item_rep_dim)) * 10),
            Tensor(rng.normal(size=(64, cfg.d_model)) * 10),
            rng.integers(1, cfg.max_position + 1, size=64),
        )
        assert np.all(out.data > 0) and np.all(out.data < 1)


class TestPrepareBatch:
    def test_longer_and_wider_histories_are_cut_to_the_model(self):
        cfg = tiny_config()
        k, seq_len = cfg.max_position, cfg.max_len
        wider = k + 2
        # six clicks at each of positions 1..K+2, item id = click index (ts order)
        history = np.array(
            [(100 + i, i % wider + 1, i, 1, 1, 1, 1, 1) for i in range(6 * wider)], dtype=np.int64
        )
        req = synthetic_request(cfg, 2, seed=0)
        req.sequences = build_position_behavior_sequences(history, 10_000, wider, seq_len + 2)
        prep = prepare_batch([req], cfg)
        for pos in range(1, k + 1):
            recent = [pos - 1 + wider * n for n in (5, 4, 3, 2)]  # the last four clicks at pos
            assert prep.seq_ids[0, pos - 1, :, 0].tolist() == recent[:seq_len]
        assert prep.flat_ids[0, :, 0].tolist() == [6 * wider - 1 - n for n in range(seq_len)]
        assert prep.seq_mask.all() and prep.flat_mask.all()
        exact = build_position_behavior_sequences(history, 10_000, k, seq_len)
        np.testing.assert_array_equal(prep.seq_ids[0].reshape(-1, 7), exact.records)

    def test_masks_follow_the_sequence_lengths(self):
        cfg = tiny_config()
        history = np.array([(100, 2, 5, 1, 1, 1, 1, 1), (200, 2, 6, 1, 1, 1, 1, 1)], dtype=np.int64)
        req = synthetic_request(cfg, 2, seed=0)
        req.sequences = build_position_behavior_sequences(history, 10_000, cfg.max_position, cfg.max_len)
        prep = prepare_batch([req, synthetic_request(cfg, 2, seed=1)], cfg)
        assert prep.seq_mask[0].sum(axis=1).tolist() == [0, 2, 0]
        assert prep.seq_ids[0, 1, :2, 0].tolist() == [6, 5] and not prep.seq_ids[0, 1, 2:].any()
        assert prep.flat_mask[0].tolist() == [1, 1, 0, 0]
        assert prep.seq_mask[1].all() and prep.flat_mask[1].all()

    def test_label_count_must_match_the_candidates(self):
        cfg = tiny_config()
        for cut in ("positions", "clicks"):
            req = labeled_request(cfg, seed=17)
            setattr(req, cut, getattr(req, cut)[:-1])
            with pytest.raises(UsageError, match="candidates"):
                prepare_batch([labeled_request(cfg, seed=18), req], cfg)

    def test_logged_positions_outside_the_slots_rejected(self):
        cfg = tiny_config()
        for bad in (0, cfg.max_position + 1):
            req = labeled_request(cfg, seed=17)
            req.positions[-1] = bad
            with pytest.raises(UsageError, match="positions"):
                prepare_batch([req], cfg)

    def test_labelled_and_unlabelled_requests_do_not_mix(self):
        cfg = tiny_config()
        unlabelled = synthetic_request(cfg, cfg.max_position, seed=3)
        with pytest.raises(UsageError, match="mixes"):
            prepare_batch([labeled_request(cfg, seed=17), unlabelled], cfg)
        assert prepare_batch([unlabelled], cfg).positions is None


def _randomize_slot_table(params):
    """Give the wide or PAL slot table distinct per-slot values (it starts at 0)."""
    if "head.position" in params.tensors:
        table = params.tensors["head.position"].data
        table[:] = np.random.default_rng(20).normal(size=table.shape)


class TestPredictMatrix:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_entries_in_unit_interval(self, variant):
        cfg = tiny_config()
        params = build_model(cfg, variant, seed=9)
        req = synthetic_request(cfg, 5, seed=11)
        m = predict_matrix(params, req)
        assert m.shape == (5, cfg.max_position)
        assert np.all(m > 0) and np.all(m < 1)

    def test_din_columns_identical(self):
        cfg = tiny_config()
        params = build_model(cfg, "DIN", seed=9)
        m = predict_matrix(params, synthetic_request(cfg, 4, seed=12))
        for k in range(1, cfg.max_position):
            np.testing.assert_array_equal(m[:, k], m[:, 0])

    def test_wide_rank_invariance_across_positions(self):
        cfg = tiny_config()
        for variant in ("DIN+PosInWide", "DIN+ActualPosInWide"):
            params = build_model(cfg, variant, seed=9)
            rng = np.random.default_rng(13)
            params.tensors["head.position"].data[:] = rng.normal(size=(cfg.max_position + 1, 1))
            m = predict_matrix(params, synthetic_request(cfg, 6, seed=13))
            base_order = np.argsort(m[:, 0])
            for k in range(cfg.max_position):
                np.testing.assert_array_equal(np.argsort(m[:, k]), base_order)

    def test_pal_is_an_outer_product_of_heads(self):
        cfg = tiny_config()
        params = build_model(cfg, "DIN+PAL", seed=9)
        req = synthetic_request(cfg, 4, seed=14)
        seen = params.tensors["head.position"].data
        seen[:] = 40.0  # sigmoid(40) == 1.0 exactly, so every column is p_click
        assert ad.sigmoid(Tensor(seen)).data.min() == 1.0
        p_click = predict_matrix(params, req)[:, 0]
        seen[:] = np.random.default_rng(14).normal(size=(cfg.max_position + 1, 1))
        p_seen = ad.sigmoid(Tensor(seen[1:, 0])).data
        assert predict_matrix(params, req).tobytes() == np.outer(p_click, p_seen).tobytes()

    @pytest.mark.parametrize("variant", ["DPIN", "DIN", "DPIN+ItemAction"])
    def test_dpin_rows_survive_candidate_removal_bitwise(self, variant):
        cfg = tiny_config()
        params = build_model(cfg, variant, seed=9)
        req = synthetic_request(cfg, 5, seed=15)
        full = predict_matrix(params, req)
        smaller = synthetic_request(cfg, 5, seed=15)
        removed = 2
        smaller.candidates = [c for j, c in enumerate(req.candidates) if j != removed]
        sub = predict_matrix(params, smaller)
        kept = [j for j in range(5) if j != removed]
        assert sub.tobytes() == full[kept].tobytes()

    def test_factorization_fast_path_equals_definitional_path(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=9)
        req = synthetic_request(cfg, 4, seed=16)
        matrix = predict_matrix(params, req)
        from posrank.model import _dpin_position_rep

        prep = prepare_batch([req], cfg)
        with ad.no_grad():
            base = base_module_forward(
                params, prep.user_ids, prep.context_ids, prep.item_ids.reshape(1, 4, -1)
            )
            r_pos = _dpin_position_rep(params, prep)
            for j in range(4):
                for k in range(1, cfg.max_position + 1):
                    single = combination_forward(
                        params,
                        Tensor(base.data[j : j + 1]),
                        Tensor(r_pos.data[k - 1 : k]),
                        np.array([k]),
                    )
                    assert single.data[0] == matrix[j, k - 1]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_score_displayed_matches_matrix_at_logged_positions(self, variant):
        cfg = tiny_config()
        params = build_model(cfg, variant, seed=10)
        requests = [labeled_request(cfg, seed=s) for s in (17, 18, 19)]
        prep = prepare_batch(requests, cfg)
        with ad.no_grad():
            scored = score_displayed(params, prep).data.reshape(len(requests), -1)
        for row, req in zip(scored, requests):
            m = predict_matrix(params, req)
            for j, k in enumerate(req.positions):
                assert row[j] == m[j, k - 1]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_slot_grid_scores_every_candidate_at_every_slot(self, variant):
        cfg = tiny_config()
        params = build_model(cfg, variant, seed=10)
        _randomize_slot_table(params)
        requests = [labeled_request(cfg, seed=s) for s in (17, 18)]
        prep = prepare_batch(requests, cfg)
        grid = np.tile(np.arange(1, cfg.max_position + 1), (prep.size * prep.num_items, 1))
        # a fixed-position variant is served at the slots it is evaluated at
        with ad.no_grad():
            scored = score_displayed(params, prep, evaluation_positions(params, grid)).data
        expected = np.concatenate([predict_matrix(params, r).reshape(-1) for r in requests])
        assert scored.tobytes() == expected.tobytes()

    def test_fixed_position_variant_serves_its_evaluation_score(self):
        cfg = tiny_config()
        params = build_model(cfg, "DIN+PosInWide", seed=10)
        _randomize_slot_table(params)
        requests = [labeled_request(cfg, seed=s) for s in (17, 18)]
        offline, _, _ = score_requests(params, requests)
        served = np.stack([predict_matrix(params, r) for r in requests])
        for k in range(cfg.max_position):
            assert served[:, :, k].tobytes() == offline.tobytes()

    def test_positions_of_the_wrong_length_rejected(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=10)
        prep = prepare_batch([labeled_request(cfg, seed=17)], cfg)
        with pytest.raises(UsageError, match="positions"):
            score_displayed(params, prep, np.ones(cfg.max_position + 1, dtype=np.int64))


def _reseal(blob: bytes) -> bytes:
    """Replace the closing CRC-32 so an edited body reaches the parser."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[8:-4]))


class TestCheckpoints:
    @pytest.mark.parametrize("variant", ["DPIN", "DIN+PAL", "DIN+PosInWide"])
    def test_round_trip_bit_identical(self, tmp_path, variant):
        cfg = tiny_config()
        params = build_model(cfg, variant, seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.variant == variant
        assert loaded.config == cfg
        for name in params.names():
            assert loaded.tensors[name].data.tobytes() == params.tensors[name].data.tobytes()

    def test_round_trip_preserves_predictions(self, tmp_path):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=22)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        for seed in range(5):
            req = synthetic_request(cfg, 3, seed=seed)
            assert predict_matrix(loaded, req).tobytes() == predict_matrix(params, req).tobytes()

    def test_truncated_file_rejected(self, tmp_path):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=23)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "config_edit",
        [
            lambda text: text.replace(b"embed_dim=4", b"embed_dim=x"),
            lambda text: text.replace(b"variant=DPIN", b"variant=\xff\xfe"),
            lambda text: text.replace(b"variant=DPIN", b"variant=DeepFM"),
            lambda text: text.replace(b"heads=2", b"heads=0"),
            lambda text: text.replace(b"d_model=8", b"d_model=0"),
            lambda text: text + b"heads=4\n",
            lambda text: text + b"max_lenn=9\n",
        ],
        ids=[
            "non-integer", "non-utf8", "unknown-variant", "zero-heads", "zero-d_model",
            "repeated-key", "unknown-key",
        ],
    )
    def test_corrupt_config_is_a_format_error(self, tmp_path, config_edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_model(tiny_config(), "DPIN", seed=23))
        blob = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        text = config_edit(blob[12 : 12 + cfg_len])
        path.write_bytes(_reseal(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + cfg_len :]))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_corrupt_tensor_header_is_a_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_model(tiny_config(), "DPIN", seed=23))
        blob = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack_from("<I", blob, 8)
        (name_len,) = struct.unpack_from("<I", blob, 12 + cfg_len)
        struct.pack_into("<I", blob, 16 + cfg_len + name_len, 200)  # the first tensor's rank
        path.write_bytes(_reseal(bytes(blob)))
        with pytest.raises(FormatError, match="shape"):
            load_checkpoint(path)

    def test_repeated_tensor_record_is_a_format_error(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_model(cfg, "DIN", seed=23))
        blob = path.read_bytes()
        name = b"base.0.b"
        start = blob.index(struct.pack("<I", len(name)) + name)
        # name length, name, rank, one dim, then the values
        end = start + 4 + len(name) + 4 + 8 + 8 * cfg.mlp_hidden[0]
        path.write_bytes(_reseal(blob[:end] + blob[start:end] + blob[end:]))
        with pytest.raises(FormatError, match="'base.0.b'"):
            load_checkpoint(path)

    def test_flipped_value_byte_fails_the_checksum(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_model(tiny_config(), "DPIN", seed=23))
        blob = bytearray(path.read_bytes())
        blob[len(blob) - 4 - 3] ^= 0x7F  # inside the last tensor's values
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [1, 4])
    def test_truncated_checksum_rejected(self, tmp_path, cut):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_model(tiny_config(), "DPIN", seed=23))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(FormatError, match="checksum"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_file_rejected(self, tmp_path, version):
        # version 1 had no CRC; version 2 stored per-head wq{h}/wk{h}/wv{h};
        # version 3 named tensors per variant (flat_att/pos_att, wide/pal)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, build_model(tiny_config(), "DPIN", seed=23))
        blob = path.read_bytes()
        body = blob[8:-4] if version == 1 else blob[8:]
        path.write_bytes(blob[:4] + struct.pack("<I", version) + body)
        with pytest.raises(FormatError, match=f"version {version}"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestGradientFidelity:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_end_to_end_gradients(self, variant):
        cfg = tiny_config()
        requests = [labeled_request(cfg, seed=s) for s in (31, 32)]
        prep = prepare_batch(requests, cfg)
        params = build_model(cfg, variant, seed=30)

        def build_loss(tensors):
            return ad.binary_cross_entropy(score_displayed(params, prep), prep.clicks)

        err = ad.gradient_check(build_loss, params.tensors, epsilon=1e-6, max_coords_per_tensor=6)
        assert err < 1e-5, f"{variant}: max relative error {err:.2e}"
        # every history record reaches the loss (the attention logit bias
        # cancels in the softmax, so only its gradient may vanish)
        for name in ("att.hidden.w", "att.hidden.b", "att.score.w", "embed.time_bucket"):
            assert np.any(params.tensors[name].grad != 0), name
