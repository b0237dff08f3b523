"""Model zoo contracts: shapes, variant semantics, bit-level reproducibility."""

import re
import struct
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posrank.autodiff as ad
from posrank import world
from posrank.autodiff import Tensor
from posrank.data import (
    CONTEXT_FIELDS,
    HISTORY_COLUMNS,
    ITEM_FIELDS,
    TIME_BUCKETS,
    USER_FIELDS,
    VOCAB_FIELDS,
    Vocabulary,
    build_position_behavior_sequences,
    encode_history,
    group_requests,
)
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
from posrank.serving import allocate_request, synthetic_request
from posrank.train import score_requests

from conftest import desk_config, labeled_request, logged_labels, tiny_config
from verifiers import dense_interest_aggregation, gradient_check, total_sum, unfused_affine, unfused_attention


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
        [
            dict(embed_dim=0), dict(d_model=0), dict(max_len=0), dict(max_position=0), dict(blocks=-1),
            dict(mlp_hidden=()), dict(vocab_sizes={f: -1 if f == "item_id" else 12 for f in VOCAB_FIELDS}),
        ],
        ids=["embed_dim", "d_model", "max_len", "max_position", "blocks", "mlp_hidden", "vocab_size"],
    )
    def test_sizes_below_their_minimum_rejected(self, overrides):
        with pytest.raises(UsageError, match=">= 1"):
            tiny_config(**overrides).validate()

    def test_unknown_variant_lists_valid_tags(self):
        with pytest.raises(UsageError) as err:
            build_model(tiny_config(), "DeepFM", seed=0)
        for tag in VARIANTS:
            assert tag in str(err.value)

    def test_position_table_only_where_read_and_shared_shapes_agree(self):
        cfg = tiny_config()
        readers = {"DIN+Combination", "DPIN-Transformer", "DPIN", "DPIN+ItemAction"}
        shapes = []
        for variant in VARIANTS:
            params = build_model(cfg, variant, seed=0)
            rows = params.embed_rows
            # position rows exist exactly where read, between the vocabulary fields and the time buckets
            position = ["position"] if variant in readers else []
            assert list(rows) == [*VOCAB_FIELDS, *position, "time_bucket"], variant
            # the fields' blocks tile `embed` in that order
            blocks = list(rows.values())
            assert blocks[0].start == 0 and blocks[-1].stop == params.tensors["embed"].shape[0]
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            sizes = {f: r.stop - r.start for f, r in rows.items()}
            assert sizes.pop("position", cfg.max_position + 1) == cfg.max_position + 1
            shapes.append((sizes, {n: t.shape for n, t in params.tensors.items() if n.startswith("base.")}))
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


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape))


class TestBaseModule:
    def test_single_item_matches_row_in_batch_bitwise(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=1)
        rng = np.random.default_rng(0)
        user = Tensor(rng.normal(size=(1, cfg.user_dim)))
        ctx = Tensor(rng.normal(size=(1, cfg.context_dim)))
        items = rng.normal(size=(5, cfg.item_dim))
        full = base_module_forward(params, user, ctx, Tensor(items))
        for j in range(5):
            alone = base_module_forward(params, user, ctx, Tensor(items[j : j + 1]))
            assert alone.data[0].tobytes() == full.data[j].tobytes()

    def test_zero_embeddings_give_zero_representation(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=1)
        out = base_module_forward(params, _zeros(1, cfg.user_dim), _zeros(1, cfg.context_dim), _zeros(3, cfg.item_dim))
        np.testing.assert_array_equal(out.data, np.zeros((3, cfg.item_rep_dim)))

    def test_items_that_do_not_split_over_the_requests_rejected(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=1)
        user, ctx = _zeros(2, cfg.user_dim), _zeros(2, cfg.context_dim)
        for items in (_zeros(3, cfg.item_dim), _zeros(2, 3, cfg.item_dim)):
            with pytest.raises(UsageError, match=r"\[B\*J, I\]"):
                base_module_forward(params, user, ctx, items)

    def test_desk_output_dim(self):
        cfg = desk_config()
        params = build_model(cfg, "DPIN", seed=0)
        out = base_module_forward(params, _zeros(1, cfg.user_dim), _zeros(1, cfg.context_dim), _zeros(2, cfg.item_dim))
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
        embed, rows = params.tensors["embed"].data, params.embed_rows
        fields = ("item_id", "category", "query", "geo", "hour", "dow", "time_bucket")
        expected = np.concatenate([embed[rows[f].start] for f in fields])
        np.testing.assert_array_equal(out.data[0], expected)
        assert out.shape[1] == 7 * d


def _packed(emb: np.ndarray, lengths) -> Tensor:
    """The first `lengths[n]` rows of each padded sequence n of `emb` [N, L, D], back to back."""
    return Tensor(np.concatenate([seq[:n] for seq, n in zip(emb, lengths)]))


class TestInterestAggregation:
    def _setup(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=2)
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(2, cfg.max_len, cfg.behavior_dim))
        query = Tensor(rng.normal(size=(2, cfg.context_dim)))
        return cfg, params, emb, query

    def test_single_record_passes_through(self):
        cfg, params, emb, query = self._setup()
        out = interest_aggregation(params, _packed(emb, [1, 1]), np.array([1, 1]), query)
        np.testing.assert_array_equal(out.data[0], emb[0, 0])
        np.testing.assert_array_equal(out.data[1], emb[1, 0])

    def test_equal_logits_average(self):
        cfg, params, emb, query = self._setup()
        params.tensors["att.hidden.w"].data[:] = 0.0
        params.tensors["att.score.w"].data[:] = 0.0
        out = interest_aggregation(params, _packed(emb, [3, 3]), np.array([3, 3]), query)
        np.testing.assert_allclose(out.data, emb[:, :3].mean(axis=1), atol=1e-15)

    def test_empty_sequences_pool_to_zero(self):
        cfg, params, emb, query = self._setup()
        out = interest_aggregation(params, _packed(emb, [0, 0]), np.array([0, 0]), query)
        assert out.data.tobytes() == np.zeros((2, cfg.behavior_dim)).tobytes()

    def _many_queries(self, n=3, m=4):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN+ItemAction", seed=2)
        rng = np.random.default_rng(4)
        params.tensors["att.hidden.b"].data[:] = rng.normal(size=cfg.d_model)
        emb = rng.normal(size=(n, cfg.max_len, cfg.behavior_dim))
        query = Tensor(rng.normal(size=(n * m, cfg.context_dim + cfg.item_dim)))
        lengths = np.minimum(np.arange(n) + 2, cfg.max_len)
        lengths[-1] = 0  # the last sequence is empty
        return params, emb, lengths, query

    def test_many_queries_equal_single_query_calls_bitwise(self):
        params, emb, lengths, query = self._many_queries()
        m = query.shape[0] // len(lengths)
        records = _packed(emb, lengths)
        out = interest_aggregation(params, records, lengths, query)
        for q in range(m):
            single = interest_aggregation(params, records, lengths, Tensor(query.data[q::m]))
            assert out.data[q::m].tobytes() == single.data.tobytes()

    def test_matches_the_concatenated_definition(self):
        params, emb, lengths, query = self._many_queries()
        m = query.shape[0] // len(lengths)
        names = ("att.hidden.w", "att.hidden.b", "att.score.w", "att.score.b")
        wa, ba, wb, bb = (params.tensors[n].data for n in names)
        expected = np.zeros((query.shape[0], emb.shape[2]))
        for r, q in enumerate(query.data):
            seq = emb[r // m, : lengths[r // m]]
            if not len(seq):
                continue
            att_in = np.concatenate([seq, np.tile(q, (len(seq), 1))], axis=1)
            logits = (np.maximum(att_in @ wa + ba, 0.0) @ wb + bb)[:, 0]
            weights = np.exp(logits - logits.max())
            expected[r] = weights / weights.sum() @ seq
        out = interest_aggregation(params, _packed(emb, lengths), lengths, query)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.integers(0, 12), min_size=1, max_size=6),
        m=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_equals_the_dense_definition(self, lengths, m, seed):
        # forward bytes as on zero-padded sequences with masked logits; gradients to roundoff.
        # L = 12: from 8 steps on, numpy sums a softmax row pairwise, so its memory order counts
        cfg = tiny_config(max_len=12)
        params = build_model(cfg, "DPIN+ItemAction", seed=3)
        rng = np.random.default_rng(seed)
        params.tensors["att.hidden.b"].data[:] = rng.normal(size=cfg.d_model)
        lengths = np.array(lengths)
        n = len(lengths)
        # the padding slots hold whatever: the dense path masks them
        emb = rng.normal(size=(n, cfg.max_len, cfg.behavior_dim))
        mask = (np.arange(cfg.max_len) < lengths[:, None]).astype(np.float64)
        query = rng.normal(size=(n * m, cfg.context_dim + cfg.item_dim))
        c = rng.normal(size=(n * m, cfg.behavior_dim))
        att = [params.tensors[k] for k in ("att.hidden.w", "att.hidden.b", "att.score.w", "att.score.b")]

        def run(pool, records):
            q = Tensor(query, requires_grad=True)
            for t in [records] + att:
                t.grad = None
            out = pool(records, q)
            ad.backward(total_sum(out * c))
            return out.data, [q.grad] + [t.grad for t in att], records.grad

        packed, packed_grads, g_records = run(
            lambda r, q: interest_aggregation(params, r, lengths, q), Tensor(_packed(emb, lengths).data, requires_grad=True)
        )
        dense, dense_grads, g_grid = run(
            lambda r, q: dense_interest_aggregation(params, r, mask, q), Tensor(emb, requires_grad=True)
        )
        # + 0.0 turns the -0.0 a 0/1 factor may leave on an empty sequence into the packed path's 0.0
        assert packed.tobytes() == (dense + 0.0).tobytes()
        for got, want in zip(packed_grads, dense_grads):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(g_records, g_grid[mask > 0], rtol=1e-10, atol=1e-13)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lengths=st.lists(st.integers(0, 12), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
    @example(lengths=[0, 0, 0], seed=1)
    @example(lengths=[12, 12], seed=2)
    @example(lengths=[3, 0, 5], seed=3)
    def test_per_request_segment_pooling_equals_the_dense_definition(self, lengths, seed):
        # the per-request stage sums in record order where the dense path sums a padded row with BLAS,
        # so its forward holds to roundoff, not to the byte; empty sequences pool to +0.0 bytes
        cfg = tiny_config(max_len=12)
        params = build_model(cfg, "DPIN", seed=3)
        rng = np.random.default_rng(seed)
        params.tensors["att.hidden.b"].data[:] = rng.normal(size=cfg.d_model)
        lengths = np.array(lengths)
        n = len(lengths)
        emb = rng.normal(size=(n, cfg.max_len, cfg.behavior_dim))
        mask = (np.arange(cfg.max_len) < lengths[:, None]).astype(np.float64)
        query = rng.normal(size=(n, cfg.context_dim))
        c = rng.normal(size=(n, cfg.behavior_dim))
        att = [params.tensors[k] for k in ("att.hidden.w", "att.hidden.b", "att.score.w", "att.score.b")]

        def run(pool, records):
            q = Tensor(query, requires_grad=True)
            for t in [records] + att:
                t.grad = None
            out = pool(records, q)
            ad.backward(total_sum(out * c))
            return out.data, [q.grad] + [t.grad for t in att], records.grad

        packed, packed_grads, g_records = run(
            lambda r, q: interest_aggregation(params, r, lengths, q), Tensor(_packed(emb, lengths).data, requires_grad=True)
        )
        dense, dense_grads, g_grid = run(
            lambda r, q: dense_interest_aggregation(params, r, mask, q), Tensor(emb, requires_grad=True)
        )
        np.testing.assert_allclose(packed, dense, rtol=1e-12, atol=1e-14)
        assert packed[lengths == 0].tobytes() == np.zeros((np.sum(lengths == 0), cfg.behavior_dim)).tobytes()
        for got, want in zip(packed_grads, dense_grads):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(g_records, g_grid[mask > 0], rtol=1e-10, atol=1e-13)

    def test_per_request_stage_takes_one_query_per_sequence(self):
        cfg, params, emb, _ = self._setup()
        query = Tensor(np.ones((4, cfg.context_dim)))
        with pytest.raises(UsageError, match="one query per sequence"):
            interest_aggregation(params, _packed(emb, [2, 1]), np.array([2, 1]), query)

    def test_query_rows_must_split_over_sequences(self):
        params, emb, lengths, query = self._many_queries()
        with pytest.raises(UsageError, match="queries"):
            interest_aggregation(params, _packed(emb, lengths), lengths, Tensor(query.data[:-1]))

    @pytest.mark.parametrize(
        "lengths", [[2, 3, 1], [2, 2], [5, 0, 0], [3, 3, -1]], ids=["sum_over", "sum_under", "longer_than_L", "negative"]
    )
    def test_lengths_must_cut_the_records_into_sequences(self, lengths):
        # 5 records, L = 4
        params, emb, _, query = self._many_queries()
        records = _packed(emb, [2, 3, 0])
        with pytest.raises(UsageError, match="interest_aggregation"):
            interest_aggregation(params, records, np.array(lengths), Tensor(query.data[: 4 * len(lengths)]))

    def test_inference_never_holds_the_hidden_layer_whole(self):
        # an evaluation batch of 12 DPIN+ItemAction requests at J = 20 with full
        # histories: 120 position sequences, each queried by its request's 20 candidates
        cfg = desk_config()
        params = build_model(cfg, "DPIN+ItemAction", seed=0)
        n, m = 12 * cfg.max_position, 20
        rng = np.random.default_rng(5)
        records = Tensor(rng.normal(size=(n * cfg.max_len, cfg.behavior_dim)))
        query = Tensor(rng.normal(size=(n * m, cfg.context_dim + cfg.item_dim)))
        hidden_bytes = n * m * cfg.max_len * cfg.d_model * 8
        assert hidden_bytes >= 8 * 2**20
        with ad.no_grad():
            tracemalloc.start()
            try:
                interest_aggregation(params, records, np.full(n, cfg.max_len), query)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < hidden_bytes / 4, f"peak {peak / 2**20:.1f} MiB, hidden layer {hidden_bytes / 2**20:.1f} MiB"


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


def _count_products(monkeypatch) -> dict[str, int]:
    """Rebind `autodiff.matmul` and `bmm` to counting wrappers everywhere they are bound.

    As the benchmark's tracer does, every module of the package, and here
    also `verifiers`, that holds the original function gets the wrapper, so
    by-value imports are counted too. The counts are calls and 2·m·k·n
    flops per product.
    """
    counts = {"matmul.calls": 0, "matmul.flops": 0, "bmm.calls": 0, "bmm.flops": 0}

    def counting(kind, fn):
        def wrapper(a, b):
            counts[f"{kind}.calls"] += 1
            counts[f"{kind}.flops"] += 2 * int(np.prod(np.shape(a.data))) * np.shape(b.data)[-1]
            return fn(a, b)

        return wrapper

    modules = [m for n, m in sys.modules.items() if m is not None and n.partition(".")[0] in ("posrank", "verifiers")]
    for kind in ("matmul", "bmm"):
        original, wrapper = getattr(ad, kind), counting(kind, getattr(ad, kind))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return counts


class TestProductCounters:
    """The fused ops make their products through `matmul` and `bmm`, so traced counters see them."""

    def test_a_dpin_batch_counts_the_products_of_the_unfused_graph(self, monkeypatch):
        cfg = desk_config()
        params = build_model(cfg, "DPIN", seed=0)
        requests = [labeled_request(cfg, seed) for seed in range(3)]
        prep = prepare_batch(requests, cfg)
        positions, _ = logged_labels(requests)
        counts = _count_products(monkeypatch)
        fused = score_displayed(params, prep, positions).data
        fused_counts = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        monkeypatch.setattr(ad, "affine", unfused_affine)
        monkeypatch.setattr(ad, "attention", unfused_attention)
        unfused = score_displayed(params, prep, positions).data
        assert fused_counts["bmm.calls"] == 2 * cfg.blocks
        assert fused_counts == counts  # the calls and flops of the unfused graph
        assert fused.tobytes() == unfused.tobytes()


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


def _sequence(prep: PreparedBatch, b: int, k: int) -> np.ndarray:
    """The packed rows of request b's sequence k."""
    start = int(prep.lengths[:b].sum() + prep.lengths[b, :k].sum())
    return prep.records[start : start + int(prep.lengths[b, k])]


class TestPrepareBatch:
    def test_longer_and_wider_histories_are_rejected(self):
        # histories are cut once, by build_position_behavior_sequences at the model's K and L
        cfg = tiny_config()
        k, seq_len = cfg.max_position, cfg.max_len
        wider = k + 2
        # six clicks at each of positions 1..K+2, item id = click index (ts order)
        history = np.array(
            [(100 + i, i % wider + 1, i, 1, 1, 1, 1, 1) for i in range(6 * wider)], dtype=np.int64
        )
        req = synthetic_request(cfg, 2, seed=0)
        for positions, clicks in ((wider, seq_len), (k, seq_len + 2)):
            req.sequences = build_position_behavior_sequences(history, 10_000, positions, clicks)
            with pytest.raises(UsageError, match="sequences|longer"):
                prepare_batch([req], cfg)

        exact = build_position_behavior_sequences(history, 10_000, k, seq_len)
        req.sequences = exact
        prep = prepare_batch([req], cfg)
        for pos in range(1, k + 1):
            recent = [pos - 1 + wider * n for n in (5, 4, 3, 2)]  # the last four clicks at pos
            assert _sequence(prep, 0, pos)[:, 0].tolist() == recent[:seq_len]
        # sequence 0 keeps the most recent clicks at positions 1..K, whatever the position
        assert _sequence(prep, 0, 0)[:, 0].tolist() == [i for i in range(6 * wider - 1, -1, -1) if i % wider < k][:seq_len]
        assert (prep.lengths == seq_len).all()
        np.testing.assert_array_equal(prep.records, exact.records)

    def test_packed_records_follow_the_sequence_lengths(self):
        cfg = tiny_config()
        history = np.array([(100, 2, 5, 1, 1, 1, 1, 1), (200, 2, 6, 1, 1, 1, 1, 1)], dtype=np.int64)
        req = synthetic_request(cfg, 2, seed=0)
        req.sequences = build_position_behavior_sequences(history, 10_000, cfg.max_position, cfg.max_len)
        prep = prepare_batch([req, synthetic_request(cfg, 2, seed=1)], cfg)
        assert prep.lengths[0].tolist() == [2, 0, 2, 0]
        assert prep.lengths[1].tolist() == [cfg.max_len] * (cfg.max_position + 1)
        # no padding: two sequences of two records, then the full second request
        assert len(prep.records) == 4 + cfg.max_len * (cfg.max_position + 1)
        assert _sequence(prep, 0, 2)[:, 0].tolist() == [6, 5]
        assert _sequence(prep, 0, 0)[:, 0].tolist() == [6, 5]

    def test_a_batch_stacks_each_request_as_prepared_alone(self):
        # unequal and empty histories: the batch's records are the requests' records
        # prepared alone, back to back, and each request's lengths are its own
        cfg = tiny_config()
        rng = np.random.default_rng(5)
        requests = []
        for n_clicks in (0, 3, 11, 0, 1):
            history = np.array(
                [(100 + i, rng.integers(1, cfg.max_position + 2), rng.integers(1, 12), 1, 2, 3, 4, 5)
                 for i in range(n_clicks)],
                dtype=np.int64,
            ).reshape(-1, len(HISTORY_COLUMNS) + 1)
            req = synthetic_request(cfg, 2, seed=n_clicks)
            req.sequences = build_position_behavior_sequences(history, 10_000, cfg.max_position, cfg.max_len)
            requests.append(req)
        batch = prepare_batch(requests, cfg)
        assert batch.lengths.shape == (5, cfg.max_position + 1)
        alone = [prepare_batch([req], cfg) for req in requests]
        assert batch.records.tobytes() == np.concatenate([a.records for a in alone]).tobytes()
        for b, (req, one) in enumerate(zip(requests, alone)):
            assert batch.lengths[b].tobytes() == one.lengths[0].tobytes()
            for k in range(cfg.max_position + 1):
                np.testing.assert_array_equal(_sequence(one, 0, k), req.sequences.at(k))
                np.testing.assert_array_equal(_sequence(batch, b, k), req.sequences.at(k))

    @pytest.mark.parametrize("change", ["too_few", "too_many", "negative"], ids=lambda c: f"record_{c}")
    def test_records_must_fill_the_sequence_lengths(self, change):
        cfg = tiny_config()
        req = labeled_request(cfg, seed=17)
        records = req.sequences.records
        if change == "too_few":
            req.sequences.records = records[:-1]
        elif change == "too_many":
            req.sequences.records = np.concatenate([records, records[:1]])
        else:
            # K = 3, L = 4: as many records as the lengths sum to, one length negative
            req.sequences.lengths = np.array([4, 4, -1, 4])
            req.sequences.records = records[:11]
        with pytest.raises(UsageError, match=re.escape(repr(req.request_id))):
            prepare_batch([labeled_request(cfg, seed=18), req], cfg)


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
        from posrank.model import _dpin_position_rep, _embed_concat

        prep = prepare_batch([req], cfg)
        with ad.no_grad():
            user = _embed_concat(params, USER_FIELDS, prep.user_ids)
            ctx = _embed_concat(params, CONTEXT_FIELDS, prep.context_ids)
            items = _embed_concat(params, ITEM_FIELDS, prep.item_ids)
            base = base_module_forward(params, user, ctx, items)
            r_pos = _dpin_position_rep(params, prep, ctx, items)
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
        positions, _ = logged_labels(requests)
        with ad.no_grad():
            scored = score_displayed(params, prep, positions).data.reshape(len(requests), -1)
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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_request_without_candidates_is_rejected(self, variant):
        cfg = tiny_config()
        params = build_model(cfg, variant, seed=10)
        empty = synthetic_request(cfg, 0, seed=11)
        for serve in (predict_matrix, allocate_request):
            with pytest.raises(UsageError, match="at least one candidate"):
                serve(params, empty)

    def test_positions_of_the_wrong_length_rejected(self):
        cfg = tiny_config()
        params = build_model(cfg, "DPIN", seed=10)
        prep = prepare_batch([labeled_request(cfg, seed=17)], cfg)
        with pytest.raises(UsageError, match="positions"):
            score_displayed(params, prep, np.ones(cfg.max_position + 1, dtype=np.int64))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_slots_outside_the_positions_rejected(self, variant):
        cfg = tiny_config()
        params = build_model(cfg, variant, seed=10)
        prep = prepare_batch([labeled_request(cfg, seed=s) for s in (17, 18)], cfg)
        rows = prep.size * prep.num_items
        for bad in (0, cfg.max_position + 1):
            column = np.ones(rows, dtype=np.int64)
            column[-1] = bad
            grid = np.tile(np.arange(1, cfg.max_position + 1), (rows, 1))
            grid[0, -1] = bad
            for positions in (column, grid, np.full(rows, 1.5)):
                with pytest.raises(UsageError, match=rf"\[1, {cfg.max_position}\]"):
                    score_displayed(params, prep, positions)


def _corrupt_ids(req, cfg: ModelConfig, case: str, variant: str) -> None:
    """Put one id outside its vocabulary into `req`, where `variant` reads it."""
    vocab = cfg.vocab_sizes
    if case == "item_at_vocab_size":
        req.candidates[1].item_ids = (vocab["item_id"], 1)
    elif case == "negative_item":
        req.candidates[1].item_ids = (-1, 1)
    elif case == "user_at_vocab_size":
        req.user_ids = (vocab["user_id"], 1)
    elif case == "context_at_vocab_size":
        req.context_ids = (1, vocab["geo"], 1, 1)
    else:  # one clicked item in the history the variant reads
        history = req.sequences.at(0) if variant == "DIN" else req.sequences.at(1)
        history[0, HISTORY_COLUMNS.index("item_id")] = vocab["item_id"]


@pytest.fixture(scope="module")
def logged_world():
    """Desk shapes at the vocabulary of a small simulated world, and its logged requests."""
    sim = world.user_dependent_config(n_users=30, n_items=60, requests_per_day=40, days=3, randomized_fraction=0.5)
    impressions, behaviors = world.simulate_traffic(world.generate_world(sim, 0))
    vocab = Vocabulary.build(impressions)
    cfg = desk_config(vocab_sizes={f: vocab.size(f) for f in VOCAB_FIELDS})
    history = encode_history(behaviors, vocab)
    return cfg, group_requests(impressions, vocab, history, cfg.max_position, cfg.max_len)


class TestBatchIndependence:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_full_sparse_and_empty_histories_score_as_alone(self, variant, logged_world):
        cfg, logged = logged_world
        k, seq_len = cfg.max_position, cfg.max_len
        empty = next(r for r in logged if not r.sequences.lengths.any())
        sparse = next(r for r in reversed(logged) if 0 < r.sequences.lengths[1:].sum() < k * seq_len // 4)
        assert empty.num_candidates == sparse.num_candidates
        full = synthetic_request(cfg, sparse.num_candidates, seed=8)
        assert (full.sequences.lengths == seq_len).all()
        params = build_model(cfg, variant, seed=4)

        def scores(requests):
            slots = np.tile(np.arange(1, k + 1), (sum(r.num_candidates for r in requests), 1))
            with ad.no_grad():
                return score_displayed(params, prepare_batch(requests, cfg), evaluation_positions(params, slots)).data

        batch = scores([full, sparse, empty])
        alone = np.concatenate([scores([r]) for r in (full, sparse, empty)])
        assert batch.tobytes() == alone.tobytes()


class TestOutOfVocabularyIds:
    @pytest.mark.parametrize(
        "case",
        ["item_at_vocab_size", "negative_item", "user_at_vocab_size", "context_at_vocab_size", "history_at_vocab_size"],
    )
    @pytest.mark.parametrize("variant", ["DIN", "DPIN", "DPIN+ItemAction"])
    def test_an_id_outside_its_vocabulary_is_a_usage_error(self, variant, case):
        cfg = tiny_config()
        params = build_model(cfg, variant, seed=4)
        req = labeled_request(cfg, seed=31)
        positions, _ = logged_labels([req])
        predict_matrix(params, req)
        score_displayed(params, prepare_batch([req], cfg), positions)
        _corrupt_ids(req, cfg, case, variant)
        with pytest.raises(UsageError, match="out of range"):
            predict_matrix(params, req)
        with pytest.raises(UsageError, match="out of range"):
            score_displayed(params, prepare_batch([req], cfg), positions)

    @pytest.mark.parametrize("value", ["vocab_size", "negative"])
    @pytest.mark.parametrize(
        "group,field",
        [("user", f) for f in USER_FIELDS]
        + [("context", f) for f in CONTEXT_FIELDS]
        + [("item", f) for f in ITEM_FIELDS]
        + [("history", f) for f in HISTORY_COLUMNS],
    )
    def test_each_id_is_checked_against_its_own_field(self, group, field, value):
        # unequal vocabularies; in `embed` an id past its field's rows is a row of the next field
        cfg = tiny_config(vocab_sizes={f: 5 + i for i, f in enumerate(VOCAB_FIELDS)})
        params = build_model(cfg, "DPIN", seed=4)
        req = labeled_request(cfg, seed=31)
        positions, _ = logged_labels([req])
        size = TIME_BUCKETS if field == "time_bucket" else cfg.vocab_sizes[field]
        bad = size if value == "vocab_size" else -1
        if group == "history":
            req.sequences.at(1)[0, HISTORY_COLUMNS.index(field)] = bad
        elif group == "item":
            ids = list(req.candidates[1].item_ids)
            ids[ITEM_FIELDS.index(field)] = bad
            req.candidates[1].item_ids = tuple(ids)
        else:
            fields = USER_FIELDS if group == "user" else CONTEXT_FIELDS
            ids = list(getattr(req, f"{group}_ids"))
            ids[fields.index(field)] = bad
            setattr(req, f"{group}_ids", tuple(ids))
        with pytest.raises(UsageError, match=rf"^{field} id out of range \[0, {size}\)$"):
            score_displayed(params, prepare_batch([req], cfg), positions)


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

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_old_version_file_rejected(self, tmp_path, version):
        # version 1 had no CRC; version 2 stored per-head wq{h}/wk{h}/wv{h};
        # version 3 named tensors per variant (flat_att/pos_att, wide/pal);
        # version 4 stored one table per embedded field (embed.{field})
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
    def test_every_declared_parameter_gets_a_gradient(self, variant):
        # the optimizer needs a gradient for every parameter on every step
        cfg = tiny_config()
        requests = [labeled_request(cfg, seed=s) for s in (31, 32)]
        positions, clicks = logged_labels(requests)
        params = build_model(cfg, variant, seed=30)
        ad.backward(ad.binary_cross_entropy(score_displayed(params, prepare_batch(requests, cfg), positions), clicks))
        assert [n for n, t in params.tensors.items() if t.grad is None] == []

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_end_to_end_gradients(self, variant):
        cfg = tiny_config()
        requests = [labeled_request(cfg, seed=s) for s in (31, 32)]
        prep = prepare_batch(requests, cfg)
        positions, clicks = logged_labels(requests)
        params = build_model(cfg, variant, seed=30)

        def build_loss(tensors):
            return ad.binary_cross_entropy(score_displayed(params, prep, positions), clicks)

        # as many probes in each field's rows of `embed` as in any other tensor
        rng, d = np.random.default_rng(0), cfg.embed_dim
        embed_coords = np.concatenate(
            [rng.choice(np.arange(r.start * d, r.stop * d), size=6, replace=False) for r in params.embed_rows.values()]
        )
        err = gradient_check(
            build_loss, params.tensors, epsilon=1e-6, max_coords_per_tensor=6, coords={"embed": embed_coords}
        )
        assert err < 1e-5, f"{variant}: max relative error {err:.2e}"
        # every history record reaches the loss (the attention logit bias
        # cancels in the softmax, so only its gradient may vanish)
        for name in ("att.hidden.w", "att.hidden.b", "att.score.w"):
            assert np.any(params.tensors[name].grad != 0), name
        assert np.any(params.tensors["embed"].grad[params.embed_rows["time_bucket"]] != 0)
