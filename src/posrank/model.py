"""Position-aware CTR models: one shared base plus eight head variants.

The full pipeline has three stages:

* base: embeds user/context/item ids and runs an MLP once per candidate
  item, giving a per-item representation that ignores positions;
* interaction: embeds the user's per-position click history, aggregates
  each position's sequence with context-aware attention, mixes in the
  position embedding, and (optionally) runs transformer blocks across
  positions - once per request, independent of the candidate count;
* combination: a small MLP that pairs every item representation with
  every position representation, producing a candidates x positions
  probability matrix from cheap per-pair work.

`VARIANT_TABLE` is the one place a variant tag is interpreted. Each tag
names a history stage (flat DIN attention, per-position interaction once
per request, or once per candidate as in `DPIN+ItemAction`, the quality
upper bound and latency worst case), a head (plain logit, additive wide
position weight, PAL seen factor, or the combination MLP), whether the
transformer runs, and whether evaluation and serving score every
impression at slot 1.
Training, evaluation and serving all score through `score_displayed`.

Every history stage pools through one attention op, `interest_aggregation`,
which scores each sequence against all of its queries at once: DIN pools a
request's flat history against its J item queries, DPIN each position
sequence against the request context, and `DPIN+ItemAction` each position
sequence against J (context, item) queries - J queries per sequence, not J
copies of the history.

Tensor names say a parameter's role, not its variant. Affine layer `name`
owns weight `name.w` and bias `name.b`: `base.{i}`, the one attention's
`att.hidden` and `att.score`, `inter`, `tf{b}.ff1`/`tf{b}.ff2`, `comb.1`/
`comb.2` and the logit `head`; the wide or PAL slot table is `head.position`.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from types import MappingProxyType
from typing import get_origin, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import CONTEXT_FIELDS, HISTORY_COLUMNS, ITEM_FIELDS, TIME_BUCKETS, USER_FIELDS, Request, VOCAB_FIELDS
from .errors import FormatError, UsageError

# history stages
FLAT_HISTORY = "flat"  # DIN attention over the position-blind click history
PER_REQUEST = "per_request"  # per-position interaction, once per request
PER_CANDIDATE = "per_candidate"  # per-position interaction, rerun per candidate

# heads
LOGIT = "logit"  # sigmoid(logit): position ignored
WIDE = "wide"  # sigmoid(logit + w[k]): additive position weight
PAL = "pal"  # sigmoid(logit) * sigmoid(s[k]): PAL's click x seen factors
COMBINATION = "combination"  # combination MLP over (item, position) pairs


@dataclass(frozen=True)
class VariantSpec:
    """The stages one variant tag selects."""

    history: str
    head: str
    transformer: bool = False
    eval_at_first_slot: bool = False  # fixed-position inference: evaluation and serving score at slot 1


VARIANT_TABLE = MappingProxyType(
    {
        "DIN": VariantSpec(FLAT_HISTORY, LOGIT),
        "DIN+PosInWide": VariantSpec(FLAT_HISTORY, WIDE, eval_at_first_slot=True),
        "DIN+PAL": VariantSpec(FLAT_HISTORY, PAL),
        "DIN+ActualPosInWide": VariantSpec(FLAT_HISTORY, WIDE),
        "DIN+Combination": VariantSpec(FLAT_HISTORY, COMBINATION),
        "DPIN-Transformer": VariantSpec(PER_REQUEST, COMBINATION),
        "DPIN": VariantSpec(PER_REQUEST, COMBINATION, transformer=True),
        "DPIN+ItemAction": VariantSpec(PER_CANDIDATE, COMBINATION, transformer=True),
    }
)
VARIANTS = tuple(VARIANT_TABLE)


def variant_spec(variant: str) -> VariantSpec:
    """The table entry of `variant`; UsageError for an unknown tag."""
    try:
        return VARIANT_TABLE[variant]
    except KeyError:
        raise UsageError(f"unknown variant {variant!r}; valid tags: {', '.join(VARIANTS)}") from None


CHECKPOINT_MAGIC = b"DPIN"
CHECKPOINT_VERSION = 4  # 2: a closing CRC-32; 3: one wq/wk/wv per block; 4: one tensor name per role


@dataclass(frozen=True)
class ModelConfig:
    """Shapes of every stage; identical across variants for fair comparison."""

    vocab_sizes: dict[str, int]
    embed_dim: int = 8
    mlp_hidden: tuple[int, ...] = (64, 32, 16)
    combination_hidden: int = 16
    d_model: int = 32
    heads: int = 2
    blocks: int = 2
    max_len: int = 30
    max_position: int = 10

    def validate(self) -> None:
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise UsageError(f"d_model={self.d_model} must be divisible by heads={self.heads}")
        if any(h < 1 for h in self.mlp_hidden) or self.combination_hidden < 1:
            raise UsageError("hidden sizes must be positive")
        if min(self.embed_dim, self.d_model, self.max_len, self.max_position) < 1 or self.blocks < 0:
            raise UsageError("embed_dim, d_model, max_len and max_position must be >= 1 and blocks >= 0")
        missing = [f for f in VOCAB_FIELDS if f not in self.vocab_sizes]
        if missing:
            raise UsageError(f"vocab_sizes missing fields {missing}")

    @property
    def user_dim(self) -> int:
        return len(USER_FIELDS) * self.embed_dim

    @property
    def context_dim(self) -> int:
        return len(CONTEXT_FIELDS) * self.embed_dim

    @property
    def item_dim(self) -> int:
        return len(ITEM_FIELDS) * self.embed_dim

    @property
    def behavior_dim(self) -> int:
        # clicked item fields + click-time context fields + recency bucket
        return len(HISTORY_COLUMNS) * self.embed_dim

    @property
    def item_rep_dim(self) -> int:
        return self.mlp_hidden[-1]

    @property
    def din_rep_dim(self) -> int:
        return self.item_rep_dim + self.behavior_dim


def paper_scale_config(vocab_sizes: dict[str, int]) -> ModelConfig:
    """The production-scale preset (expensive; desk defaults are elsewhere)."""
    return ModelConfig(
        vocab_sizes=vocab_sizes,
        embed_dim=8,
        mlp_hidden=(1024, 512, 128),
        combination_hidden=128,
        d_model=64,
        heads=2,
        blocks=2,
        max_len=300,
        max_position=25,
    )


@dataclass
class ParameterSet:
    """All named learnable tensors of one model variant."""

    config: ModelConfig
    variant: str
    tensors: dict[str, Tensor]

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def zero_grads(self) -> None:
        for name in self.names():
            self.tensors[name].grad = None

    def copy(self) -> "ParameterSet":
        clone = {
            name: Tensor(t.data.copy(), requires_grad=True, name=name)
            for name, t in self.tensors.items()
        }
        return ParameterSet(config=self.config, variant=self.variant, tensors=clone)


_Spec = tuple[str, str, tuple[int, ...]]  # (tensor name, init kind, shape)


def _dense(name: str, fan_in: int, fan_out: int) -> list[_Spec]:
    """The affine layer `name`: weight `name.w` [fan_in, fan_out], bias `name.b`."""
    return [(f"{name}.w", "weight", (fan_in, fan_out)), (f"{name}.b", "zero", (fan_out,))]


def _param_specs(config: ModelConfig, variant: str) -> list[_Spec]:
    """Every tensor of `variant`, in draw order."""
    d = config.embed_dim
    dm = config.d_model
    specs = [(f"embed.{f}", "embed", (config.vocab_sizes[f], d)) for f in VOCAB_FIELDS]
    specs += [("embed.position", "embed", (config.max_position + 1, d))]
    specs += [("embed.time_bucket", "embed", (TIME_BUCKETS, d))]

    fan_in = config.user_dim + config.context_dim + config.item_dim
    for i, width in enumerate(config.mlp_hidden):
        specs += _dense(f"base.{i}", fan_in, width)
        fan_in = width

    spec = variant_spec(variant)
    # a history record is attended against its item (DIN), the request context, or both
    query_dim = config.item_dim if spec.history == FLAT_HISTORY else config.context_dim
    if spec.history == PER_CANDIDATE:
        query_dim += config.item_dim
    specs += _dense("att.hidden", config.behavior_dim + query_dim, dm) + _dense("att.score", dm, 1)
    if spec.history == FLAT_HISTORY:
        item_rep_dim, position_rep_dim = config.din_rep_dim, 0
    else:
        specs += _dense("inter", d + config.behavior_dim + query_dim, dm)
        item_rep_dim, position_rep_dim = config.item_rep_dim, dm

    if spec.transformer:
        for b in range(config.blocks):
            specs += [(f"tf{b}.{w}", "weight", (dm, dm)) for w in ("wq", "wk", "wv", "wo")]
            specs += [(f"tf{b}.ln1.gain", "one", (dm,)), (f"tf{b}.ln1.bias", "zero", (dm,))]
            specs += _dense(f"tf{b}.ff1", dm, 4 * dm) + _dense(f"tf{b}.ff2", 4 * dm, dm)
            specs += [(f"tf{b}.ln2.gain", "one", (dm,)), (f"tf{b}.ln2.bias", "zero", (dm,))]

    if spec.head == COMBINATION:
        specs += _dense("comb.1", item_rep_dim + position_rep_dim + d, config.combination_hidden)
        specs += _dense("comb.2", config.combination_hidden, 1)
    else:
        specs += _dense("head", item_rep_dim, 1)
    if spec.head in (WIDE, PAL):
        specs.append(("head.position", "zero", (config.max_position + 1, 1)))
    return specs


def build_model(config: ModelConfig, variant: str, seed: int) -> ParameterSet:
    """Initialize every tensor of `variant`; deterministic in seed."""
    config.validate()
    rng = np.random.default_rng([seed, 0xD1A1])
    tensors: dict[str, Tensor] = {}
    for name, kind, shape in _param_specs(config, variant):
        if kind == "embed":
            data = rng.normal(0.0, 0.01, size=shape)
        elif kind == "weight":
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            data = rng.uniform(-limit, limit, size=shape)
        elif kind == "one":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        tensors[name] = Tensor(data, requires_grad=True, name=name)
    return ParameterSet(config=config, variant=variant, tensors=tensors)


# -- batch preparation --------------------------------------------------------


@dataclass
class PreparedBatch:
    """Dense id arrays for a batch of requests with a uniform candidate count."""

    size: int  # number of requests B
    num_items: int  # candidates per request J
    user_ids: np.ndarray  # [B, 2]
    context_ids: np.ndarray  # [B, 4]
    item_ids: np.ndarray  # [B*J, 2], request-major
    seq_ids: np.ndarray  # [B, K, L, 7] in HISTORY_COLUMNS order
    seq_mask: np.ndarray  # [B, K, L] float 0/1
    flat_ids: np.ndarray  # [B, L, 7]
    flat_mask: np.ndarray  # [B, L] float 0/1
    positions: np.ndarray | None = None  # [B*J] logged display positions
    clicks: np.ndarray | None = None  # [B*J] float 0/1


def prepare_batch(requests: list[Request], config: ModelConfig) -> PreparedBatch:
    """Stack requests into dense arrays, cutting histories to the model's K and L.

    Logged labels are kept when every request carries them; a request must
    then have one position in [1, K] and one click per candidate.
    """
    if not requests:
        raise UsageError("prepare_batch needs at least one request")
    k_max = config.max_position
    seq_len = config.max_len
    n_items = requests[0].num_candidates
    if any(r.num_candidates != n_items for r in requests):
        raise UsageError("all requests in a batch must have the same candidate count")
    if any(r.sequences.max_position < k_max for r in requests):
        raise UsageError("request sequences cover fewer positions than the model expects")

    b = len(requests)
    n_cols = len(HISTORY_COLUMNS)
    steps = np.arange(seq_len)
    seq_lengths = np.minimum([r.sequences.lengths[:k_max] for r in requests], seq_len)
    seq_kept = steps < seq_lengths[..., None]  # [B, K, L]: the most recent L of each sequence
    seq_ids = np.zeros((b, k_max, seq_len, n_cols), dtype=np.int64)
    flat_ids = np.zeros((b, seq_len, n_cols), dtype=np.int64)
    for bi, req in enumerate(requests):
        lengths = req.sequences.lengths[:k_max]
        # position k's rows follow those of positions 1..k-1 in `records`
        starts = np.cumsum(lengths) - lengths
        seq_ids[bi][seq_kept[bi]] = req.sequences.records[(starts[:, None] + steps)[seq_kept[bi]]]
        rows = req.sequences.flat[:seq_len]
        flat_ids[bi, : len(rows)] = rows
    flat_lengths = np.minimum([len(r.sequences.flat) for r in requests], seq_len)

    labelled = [bool(r.positions or r.clicks) for r in requests]
    positions = clicks = None
    if any(labelled):
        if not all(labelled):
            raise UsageError("a batch mixes requests with and without logged impressions")
        for req in requests:
            if len(req.positions) != n_items or len(req.clicks) != n_items:
                raise UsageError(
                    f"request {req.request_id!r} logs {len(req.positions)} positions and "
                    f"{len(req.clicks)} clicks for {n_items} candidates"
                )
        positions = np.array([p for r in requests for p in r.positions], dtype=np.int64)
        clicks = np.array([c for r in requests for c in r.clicks], dtype=np.float64)
        if np.any((positions < 1) | (positions > k_max)):
            raise UsageError(f"logged positions must lie in [1, {k_max}]")

    return PreparedBatch(
        size=b,
        num_items=n_items,
        user_ids=np.array([r.user_ids for r in requests], dtype=np.int64),
        context_ids=np.array([r.context_ids for r in requests], dtype=np.int64),
        item_ids=np.array([c.item_ids for r in requests for c in r.candidates], dtype=np.int64).reshape(
            b * n_items, len(ITEM_FIELDS)
        ),
        seq_ids=seq_ids,
        seq_mask=seq_kept.astype(np.float64),
        flat_ids=flat_ids,
        flat_mask=(steps < flat_lengths[:, None]).astype(np.float64),
        positions=positions,
        clicks=clicks,
    )


# -- forward passes -----------------------------------------------------------

_MASK_OFF = -1e9


def _affine(params: ParameterSet, name: str, x: Tensor) -> Tensor:
    """The affine layer `name`: x @ `name.w` + `name.b`."""
    return ad.matmul(x, params.tensors[f"{name}.w"]) + params.tensors[f"{name}.b"]


def _embed_concat(params: ParameterSet, fields: tuple[str, ...], ids: np.ndarray) -> Tensor:
    """Concat per-field embeddings: ids [..., len(fields)] -> [prod(...), len(fields)*d]."""
    flat = ids.reshape(-1, len(fields))
    parts = [ad.embedding(params.tensors[f"embed.{f}"], flat[:, i]) for i, f in enumerate(fields)]
    return ad.concat(parts, axis=1)


def behavior_embedding(params: ParameterSet, ids: np.ndarray) -> Tensor:
    """Embed historical clicks: ids [..., 7] in HISTORY_COLUMNS order -> [N, 7*d].

    Each row concatenates the clicked item's fields, the click-time context
    and the recency bucket.
    """
    return _embed_concat(params, HISTORY_COLUMNS, ids)


def base_module_forward(
    params: ParameterSet, user_ids: np.ndarray, context_ids: np.ndarray, item_ids: np.ndarray
) -> Tensor:
    """Per-item representation from (user, context, item) ids only.

    user_ids [B,2], context_ids [B,4], item_ids [B,J,2] -> [B*J, item_rep_dim].
    Row b*J+j depends only on request b's user/context and its item j.
    """
    if item_ids.ndim != 3 or not user_ids.shape[0] == context_ids.shape[0] == item_ids.shape[0]:
        raise UsageError("base_module_forward needs [B, 2], [B, 4] and [B, J, 2] ids")
    b, j = item_ids.shape[0], item_ids.shape[1]
    u = _embed_concat(params, USER_FIELDS, user_ids)
    c = _embed_concat(params, CONTEXT_FIELDS, context_ids)
    i = _embed_concat(params, ITEM_FIELDS, item_ids)
    uc = ad.repeat_rows(ad.concat([u, c], axis=1), j)
    x = ad.concat([uc, i], axis=1)
    for li in range(len(params.config.mlp_hidden)):
        x = ad.relu(_affine(params, f"base.{li}", x))
    return x


def interest_aggregation(
    params: ParameterSet,
    seq_embeddings: Tensor,
    mask: np.ndarray,
    query: Tensor,
) -> Tensor:
    """Attention-pool each behavior sequence against each of its queries.

    seq_embeddings [N, L, D], mask [N, L] (1 = real record), query [N*M, Q]
    with rows n*M .. n*M+M-1 querying sequence n -> [N*M, D]. A record's
    attention logit is `att.score` of ReLU(`att.hidden` of [record, query]):
    records and queries are projected once each, through their row blocks
    of `att.hidden.w` (the bias rides on the query rows), and meet by
    broadcasting, so no sequence is copied per query. Padding slots get
    zero weight; an all-padding sequence pools to zeros.
    """
    n, seq_len, dim = seq_embeddings.shape
    if query.ndim != 2 or query.shape[0] % n:
        raise UsageError(f"interest_aggregation: {query.shape} queries do not split over {n} sequences")
    m = query.shape[0] // n
    wa, ba = params.tensors["att.hidden.w"], params.tensors["att.hidden.b"]
    record_part = ad.matmul(ad.reshape(seq_embeddings, (n * seq_len, dim)), ad.gather_rows(wa, np.arange(dim)))
    query_part = ad.matmul(query, ad.gather_rows(wa, np.arange(dim, wa.shape[0]))) + ba
    hidden = ad.relu(ad.reshape(record_part, (n, 1, seq_len, -1)) + ad.reshape(query_part, (n, m, 1, -1)))
    logits = _affine(params, "att.score", ad.reshape(hidden, (n * m * seq_len, -1)))
    # padding slots get an additive -1e9 so their softmax weight underflows to 0
    logits = ad.reshape(logits, (n, m, seq_len)) + Tensor((1.0 - mask)[:, None, :] * _MASK_OFF)
    has_any = (mask.sum(axis=1) > 0).astype(np.float64)[:, None, None]
    pooled = ad.bmm(ad.softmax(logits), seq_embeddings) * Tensor(has_any)
    return ad.reshape(pooled, (n * m, dim))


def position_interaction(
    params: ParameterSet,
    position_ids: np.ndarray,
    context: Tensor,
    pooled_behavior: Tensor,
    item_query: Tensor | None = None,
) -> Tensor:
    """Nonlinear mix of position embedding, context and pooled behavior."""
    pos = ad.embedding(params.tensors["embed.position"], position_ids.reshape(-1))
    parts = [pos, context, pooled_behavior]
    if item_query is not None:
        parts.append(item_query)
    x = ad.concat(parts, axis=1)
    return ad.relu(_affine(params, "inter", x))


def transformer_encode(params: ParameterSet, v: Tensor) -> Tensor:
    """Self-attention blocks across the position axis: [B, K, d_model] -> same.

    Heads are a batch axis: each block projects queries, keys and values
    with one [d_model, d_model] matmul each, and head h owns columns
    h·dk … (h+1)·dk − 1 of `wq`, `wk` and `wv` (dk = d_model / heads).
    One attention then runs over all B·H (request, head) pairs.
    """
    cfg = params.config
    if v.ndim != 3 or v.shape[1] != cfg.max_position or v.shape[2] != cfg.d_model:
        raise UsageError(
            f"transformer_encode expects [B, {cfg.max_position}, {cfg.d_model}], got {v.shape}"
        )
    b, k, dm = v.shape
    nh = cfg.heads
    dk = dm // nh
    inv_sqrt_dk = 1.0 / np.sqrt(dk)

    def split_heads(proj: Tensor, axes: tuple[int, ...]) -> Tensor:
        # [B·K, d_model] -> [B, K, H, dk], permuted by `axes`, heads merged into the batch
        split = ad.transpose(ad.reshape(proj, (b, k, nh, dk)), axes)
        return ad.reshape(split, (b * nh,) + split.shape[2:])

    x = ad.reshape(v, (b * k, dm))
    for blk in range(cfg.blocks):
        q = split_heads(ad.matmul(x, params.tensors[f"tf{blk}.wq"]), (0, 2, 1, 3))  # [B·H, K, dk]
        key = split_heads(ad.matmul(x, params.tensors[f"tf{blk}.wk"]), (0, 2, 3, 1))  # [B·H, dk, K]
        val = split_heads(ad.matmul(x, params.tensors[f"tf{blk}.wv"]), (0, 2, 1, 3))
        attended = ad.bmm(ad.softmax(ad.bmm(q, key) * inv_sqrt_dk), val)
        merged = ad.transpose(ad.reshape(attended, (b, nh, k, dk)), (0, 2, 1, 3))
        mha = ad.matmul(ad.reshape(merged, (b * k, dm)), params.tensors[f"tf{blk}.wo"])
        x = ad.layer_norm(x + mha, params.tensors[f"tf{blk}.ln1.gain"], params.tensors[f"tf{blk}.ln1.bias"])
        ff = _affine(params, f"tf{blk}.ff2", ad.relu(_affine(params, f"tf{blk}.ff1", x)))
        x = ad.layer_norm(x + ff, params.tensors[f"tf{blk}.ln2.gain"], params.tensors[f"tf{blk}.ln2.bias"])
    return ad.reshape(x, (b, k, dm))


def combination_forward(
    params: ParameterSet,
    item_rep: Tensor,
    position_rep: Tensor | None,
    position_ids: np.ndarray,
) -> Tensor:
    """Pairwise head: sigmoid(`comb.2` of ReLU(`comb.1` of [item, position, E(k)]))."""
    pos_embed = ad.embedding(params.tensors["embed.position"], position_ids.reshape(-1))
    parts = [item_rep] + ([position_rep] if position_rep is not None else []) + [pos_embed]
    x = ad.concat(parts, axis=1)
    out = ad.sigmoid(_affine(params, "comb.2", ad.relu(_affine(params, "comb.1", x))))
    return ad.reshape(out, (out.shape[0],))


# -- variant pipelines --------------------------------------------------------


def _din_item_rep(params: ParameterSet, prep: PreparedBatch) -> Tensor:
    """Base output concatenated with item-queried pooling of the flat history."""
    cfg = params.config
    b, j = prep.size, prep.num_items
    base = base_module_forward(params, prep.user_ids, prep.context_ids, prep.item_ids.reshape(b, j, -1))
    item_vec = _embed_concat(params, ITEM_FIELDS, prep.item_ids)
    seq_emb = ad.reshape(behavior_embedding(params, prep.flat_ids), (b, cfg.max_len, cfg.behavior_dim))
    agg = interest_aggregation(params, seq_emb, prep.flat_mask, item_vec)
    return ad.concat([base, agg], axis=1)


def _dpin_position_rep(params: ParameterSet, prep: PreparedBatch) -> Tensor:
    """Per-position representations.

    Returns [B*K, d_model], or [B*J*K, d_model] ordered (request, item,
    position) when the variant reruns the interaction stage per candidate:
    each of the B*K position sequences is then pooled against J queries,
    one per candidate, instead of once against its request's context.
    """
    cfg = params.config
    spec = variant_spec(params.variant)
    b, j, k, seq_len = prep.size, prep.num_items, cfg.max_position, cfg.max_len
    m = j if spec.history == PER_CANDIDATE else 1  # queries per position sequence
    # rows run in (request, position, query) order
    ctx_groups = ad.repeat_rows(_embed_concat(params, CONTEXT_FIELDS, prep.context_ids), k * m)
    query, item_groups = ctx_groups, None
    if spec.history == PER_CANDIDATE:
        request, _, candidate = np.unravel_index(np.arange(b * k * m), (b, k, m))
        item_vec = _embed_concat(params, ITEM_FIELDS, prep.item_ids)
        item_groups = ad.gather_rows(item_vec, request * j + candidate)
        query = ad.concat([ctx_groups, item_groups], axis=1)

    seq_emb = ad.reshape(behavior_embedding(params, prep.seq_ids), (b * k, seq_len, cfg.behavior_dim))
    pooled = interest_aggregation(params, seq_emb, prep.seq_mask.reshape(b * k, seq_len), query)
    pos_ids = np.repeat(np.tile(np.arange(1, k + 1), b), m)
    v = position_interaction(params, pos_ids, ctx_groups, pooled, item_query=item_groups)
    # (request, query, position) order: each query's K positions side by side
    v = ad.gather_rows(v, np.arange(b * k * m).reshape(b, k, m).transpose(0, 2, 1).reshape(-1))
    if not spec.transformer:
        return v
    encoded = transformer_encode(params, ad.reshape(v, (b * m, k, cfg.d_model)))
    return ad.reshape(encoded, (b * m * k, cfg.d_model))


def score_displayed(
    params: ParameterSet, prep: PreparedBatch, positions: np.ndarray | None = None
) -> Tensor:
    """Click probability of each candidate at its slot or slots.

    `positions` is [B*J], one slot per candidate (the logged positions when
    omitted), or [B*J, P], P slots per candidate. The result is [B*J*P],
    candidate-major. The item side runs once per candidate and the position
    side once per request (once per candidate for the per-candidate history
    stage); the two are then paired row by row.
    """
    spec = variant_spec(params.variant)
    if positions is None:
        if prep.positions is None:
            raise UsageError("score_displayed needs logged positions")
        positions = prep.positions
    b, j, k = prep.size, prep.num_items, params.config.max_position
    positions = np.asarray(positions)
    if positions.ndim not in (1, 2) or positions.shape[0] != b * j:
        raise UsageError(f"score_displayed needs [{b * j}] or [{b * j}, P] positions, got {positions.shape}")
    slots = 1 if positions.ndim == 1 else positions.shape[1]
    positions = positions.reshape(-1)

    if spec.history == FLAT_HISTORY:
        item_rep, position_rep = _din_item_rep(params, prep), None
    else:
        item_rep = base_module_forward(params, prep.user_ids, prep.context_ids, prep.item_ids.reshape(b, j, -1))
        # the block of K position rows each candidate reads: its own, or its request's
        owner = np.arange(b * j) if spec.history == PER_CANDIDATE else np.repeat(np.arange(b), j)
        row_idx = np.repeat(owner, slots) * k + (positions - 1)
        position_rep = ad.gather_rows(_dpin_position_rep(params, prep), row_idx)

    if spec.head == COMBINATION:
        return combination_forward(params, ad.repeat_rows(item_rep, slots), position_rep, positions)
    logit = ad.reshape(ad.repeat_rows(_affine(params, "head", item_rep), slots), (positions.size,))
    if spec.head == LOGIT:
        return ad.sigmoid(logit)
    slot_term = ad.reshape(ad.embedding(params.tensors["head.position"], positions), (positions.size,))
    if spec.head == WIDE:
        return ad.sigmoid(logit + slot_term)
    return ad.sigmoid(logit) * ad.sigmoid(slot_term)  # PAL: click x seen


def evaluation_positions(params: ParameterSet, logged: np.ndarray) -> np.ndarray:
    """The slots evaluation scores impressions at: logged, or slot 1 for fixed-position inference."""
    return np.ones_like(logged) if variant_spec(params.variant).eval_at_first_slot else logged


def predict_matrix(params: ParameterSet, request: Request) -> np.ndarray:
    """CTR of every candidate at every position: [J, K], entries in (0, 1).

    Row j is independent of the other candidates; for the factorized
    variants the interaction stage runs once regardless of J. Each slot is
    scored as evaluation scores it (`evaluation_positions`), so a
    fixed-position variant serves its slot-1 score in every column.
    """
    prep = prepare_batch([request], params.config)
    j, k = prep.num_items, params.config.max_position
    grid = evaluation_positions(params, np.tile(np.arange(1, k + 1), (j, 1)))
    with ad.no_grad():
        scores = score_displayed(params, prep, grid)
    return scores.data.reshape(j, k).copy()


# -- checkpoints --------------------------------------------------------------


def _config_to_text(config: ModelConfig, variant: str) -> str:
    """`key=value` lines: the variant, each `ModelConfig` size in field order
    (a tuple comma-separated), then one `vocab.<field>` line per vocabulary field."""
    lines = [f"variant={variant}"]
    for f in fields(ModelConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            lines.append(f"{f.name}=" + ",".join(map(str, value)))
        elif not isinstance(value, dict):
            lines.append(f"{f.name}={value}")
    lines += [f"vocab.{f}={config.vocab_sizes[f]}" for f in VOCAB_FIELDS]
    return "\n".join(lines) + "\n"


def _config_from_text(text: str) -> tuple[ModelConfig, str]:
    kv: dict[str, str] = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        if key in kv:
            raise FormatError(f"checkpoint config repeats key {key!r}")
        kv[key] = value
    types = get_type_hints(ModelConfig)
    try:
        variant = kv.pop("variant")
        values = {}
        for f in fields(ModelConfig):
            kind = get_origin(types[f.name])
            if kind is dict:
                values[f.name] = {v: int(kv.pop(f"vocab.{v}")) for v in VOCAB_FIELDS}
            elif kind is tuple:
                values[f.name] = tuple(int(x) for x in kv.pop(f.name).split(","))
            else:
                values[f.name] = int(kv.pop(f.name))
        if kv:
            raise FormatError(f"checkpoint config has unknown keys {sorted(kv)}")
        config = ModelConfig(**values)
    except KeyError as exc:
        raise FormatError(f"checkpoint config is missing key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"checkpoint config has a malformed value: {exc}") from exc
    try:
        variant_spec(variant)
        config.validate()
    except UsageError as exc:
        raise FormatError(f"checkpoint config is invalid: {exc}") from exc
    return config, variant


def save_checkpoint(path, params: ParameterSet) -> None:
    """Binary, bit-exact serialization of config, variant and all tensors.

    The file ends with a CRC-32 of everything after magic and version, which
    `load_checkpoint` checks before it parses anything else.
    """
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    cfg = _config_to_text(params.config, params.variant).encode("utf-8")
    buf.write(struct.pack("<I", len(cfg)))
    buf.write(cfg)
    for name in params.names():
        t = params.tensors[name]
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", t.data.ndim))
        for dim in t.data.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    buf.write(struct.pack("<I", zlib.crc32(buf.getvalue()[8:])))
    Path(path).write_bytes(buf.getvalue())


def load_checkpoint(path) -> ParameterSet:
    raw = Path(path).read_bytes()
    body = raw[:-4]  # the last 4 bytes are a CRC-32 of the body after magic and version
    view = io.BytesIO(body)

    def take(n: int, what: str) -> bytes:
        chunk = view.read(n)
        if len(chunk) != n:
            raise FormatError(f"checkpoint truncated while reading {what}")
        return chunk

    def text(n: int, what: str) -> str:
        try:
            return take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"checkpoint {what} is not UTF-8 text") from exc

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError("not a model checkpoint (bad magic bytes)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if zlib.crc32(body[8:]) != struct.unpack("<I", raw[-4:])[0]:
        raise FormatError("checkpoint checksum mismatch: the file is corrupt or truncated")
    (cfg_len,) = struct.unpack("<I", take(4, "config length"))
    config, variant = _config_from_text(text(cfg_len, "config"))

    expected = {name: shape for name, _, shape in _param_specs(config, variant)}
    tensors: dict[str, Tensor] = {}
    while view.tell() < len(body):
        (name_len,) = struct.unpack("<I", take(4, "tensor name length"))
        name = text(name_len, "tensor name")
        if name not in expected:
            raise FormatError(f"checkpoint tensor {name!r} does not belong to variant {variant!r}")
        if name in tensors:
            raise FormatError(f"checkpoint tensor {name!r} is stored twice")
        (rank,) = struct.unpack("<I", take(4, "tensor rank"))
        shape = tuple(struct.unpack("<Q", take(8, "tensor dim"))[0] for _ in range(rank))
        if shape != expected[name]:
            raise FormatError(f"checkpoint tensor {name!r} has shape {shape}, expected {expected[name]}")
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(8 * count, f"values of {name}"), dtype="<f8").reshape(shape)
        tensors[name] = Tensor(data.copy(), requires_grad=True, name=name)

    if set(expected) != set(tensors):
        raise FormatError("checkpoint tensors do not match the declared variant")
    return ParameterSet(config=config, variant=variant, tensors=tensors)
