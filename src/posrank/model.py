"""Position-aware CTR models: one shared base plus eight head variants.

The full pipeline has three stages:

* base: an MLP over the user, context and item embeddings, run once per
  candidate item, giving a per-item representation that ignores positions;
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
Training, evaluation and serving all score through `score_displayed`. It
embeds each id group (user, context, candidate items) once per batch and
passes the tensors to every stage, so the item side is one path for all
variants: one call of the base module, and the same item embeddings query
DIN's flat history and DPIN+ItemAction's position sequences.

Every embedded field has its rows in one table, `embed` [Σ rows, d]: the
eight `VOCAB_FIELDS`, then `position` (K + 1 rows) where the variant reads
it, then `time_bucket`, each block at a fixed first row. An id group (user,
context, items, history records, positions) is one `autodiff.embedding` of
its ids shifted by their fields' first rows, so one gather forward and one
scatter back, with no concat: 6 lookups per DPIN step. Each id is first
checked against its own field's vocabulary, since past it the table holds
the next field's rows. A field's cells get the same gradient terms as with
one table per field, and the other groups add exact zeros, so every value
keeps its bits.

Every history stage pools through one attention op, `interest_aggregation`,
which scores each sequence against all of its queries at once: DIN pools a
request's flat history against its J item queries, DPIN each position
sequence against the request context, and `DPIN+ItemAction` each position
sequence against J (context, item) queries - J queries per sequence, not J
copies of the history. A batch carries its histories packed, every
request's K + 1 sequences back to back with no padding, and only real
records are embedded, projected and scored: the per-position sequences are
mostly short (clicks pile up at the top slots), so a padded [B, K, L] grid
would be mostly padding. Records and queries meet block by block in
`autodiff.additive_scores`, so the [R, M, d_model] hidden layer of the
attention is never held whole. How the scores pool is the history stage's:
the per-request stage, one query per sequence, takes each sequence's
softmax over its real rows and sums its weighted records on the packed
rows (`autodiff.segment_softmax_pool`). The stages with M queries per
sequence place the scores in padded [N, M, L] logits and the records in an
[N, L, D] grid for a masked softmax and one BLAS `bmm`, which keeps every
pooled row's bits as when the whole grid was scored: a segment sum per
query is tens of times slower than that product on full histories.

Tensor names say a parameter's role, not its variant. Affine layer `name`
owns weight `name.w` and bias `name.b`: `base.{i}`, the one attention's
`att.hidden` and `att.score`, `inter`, `tf{b}.ff1`/`tf{b}.ff2`, `comb.1`/
`comb.2` and the logit `head`; the wide or PAL slot table is `head.position`,
and `embed` holds the rows of every embedded field.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass, field, fields
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
# 2: a closing CRC-32; 3: one wq/wk/wv per block; 4: one tensor name per role; 5: one `embed` table
CHECKPOINT_VERSION = 5


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
        if not self.mlp_hidden or min(*self.mlp_hidden, self.combination_hidden) < 1:
            raise UsageError("mlp_hidden needs >= 1 layer, and every hidden size must be >= 1")
        if min(self.embed_dim, self.d_model, self.max_len, self.max_position) < 1 or self.blocks < 0:
            raise UsageError("embed_dim, d_model, max_len and max_position must be >= 1 and blocks >= 0")
        missing = [f for f in VOCAB_FIELDS if f not in self.vocab_sizes]
        if missing:
            raise UsageError(f"vocab_sizes missing fields {missing}")
        empty = [f for f in VOCAB_FIELDS if self.vocab_sizes[f] < 1]
        if empty:
            raise UsageError(f"vocab_sizes of {empty} must be >= 1")

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


def _embed_vocab(config: ModelConfig, variant: str) -> dict[str, int]:
    """Rows of each field's block of `embed`, in table order."""
    spec = variant_spec(variant)
    sizes = {f: config.vocab_sizes[f] for f in VOCAB_FIELDS}
    # read by the per-position interaction and by the combination head
    if spec.history != FLAT_HISTORY or spec.head == COMBINATION:
        sizes["position"] = config.max_position + 1
    sizes["time_bucket"] = TIME_BUCKETS
    return sizes


_POSITION = ("position",)
# the id groups the model embeds, each in one lookup
_EMBED_GROUPS = (USER_FIELDS, CONTEXT_FIELDS, ITEM_FIELDS, HISTORY_COLUMNS, _POSITION)


@dataclass
class ParameterSet:
    """All named learnable tensors of one model variant."""

    config: ModelConfig
    variant: str
    tensors: dict[str, Tensor]
    embed_rows: dict[str, slice] = field(init=False, repr=False)  # each field's rows of `embed`
    # each id group read: its fields' first rows and vocabulary sizes
    _groups: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = _embed_vocab(self.config, self.variant)
        ends = np.cumsum(list(sizes.values()))
        self.embed_rows = {f: slice(int(e) - n, int(e)) for (f, n), e in zip(sizes.items(), ends)}
        self._groups = {
            g: (np.array([self.embed_rows[f].start for f in g]), np.array([sizes[f] for f in g]))
            for g in _EMBED_GROUPS
            if all(f in sizes for f in g)
        }

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
    spec = variant_spec(variant)
    specs = [("embed", "embed", (sum(_embed_vocab(config, variant).values()), d))]

    fan_in = config.user_dim + config.context_dim + config.item_dim
    for i, width in enumerate(config.mlp_hidden):
        specs += _dense(f"base.{i}", fan_in, width)
        fan_in = width

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
    """Features of a batch of requests with one candidate count: id arrays, histories packed; no labels."""

    size: int  # number of requests B
    num_items: int  # candidates per request J
    user_ids: np.ndarray  # [B, 2]
    context_ids: np.ndarray  # [B, 4]
    item_ids: np.ndarray  # [B*J, 2], request-major
    records: np.ndarray  # [R, 7]: each request's K + 1 sequences back to back, request-major, no padding
    lengths: np.ndarray  # [B, K+1] rows per sequence, each <= L: sequence 0 for DIN, 1..K for DPIN


def prepare_batch(requests: list[Request], config: ModelConfig) -> PreparedBatch:
    """Stack the features of requests with J >= 1 candidates each into arrays.

    Histories must come cut to K + 1 sequences of 0..L rows. Nothing is cut
    or padded here: `build_position_behavior_sequences` cuts a history at
    the model's K and L, and the batch's records are the requests' records
    back to back. Served and logged requests are stacked alike; logged
    positions and clicks are not read.
    """
    if not requests:
        raise UsageError("prepare_batch needs at least one request")
    k_max = config.max_position
    seq_len = config.max_len
    n_items = requests[0].num_candidates
    if any(r.num_candidates != n_items for r in requests):
        raise UsageError("all requests in a batch must have the same candidate count")
    if n_items < 1:
        raise UsageError("a request needs at least one candidate")
    if any(len(r.sequences.lengths) != k_max + 1 for r in requests):
        raise UsageError(f"request histories must hold {k_max + 1} sequences: the position-blind one and K={k_max}")
    lengths = np.array([r.sequences.lengths for r in requests], dtype=np.int64)  # [B, K+1]
    if lengths.max() > seq_len:
        raise UsageError(f"a request history sequence is longer than the model's max_len={seq_len}")
    for req, row in zip(requests, lengths):
        if row.min() < 0 or len(req.sequences.records) != row.sum():
            raise UsageError(
                f"request {req.request_id!r} history holds {len(req.sequences.records)} records "
                f"for sequence lengths {row.tolist()}"
            )

    b = len(requests)
    return PreparedBatch(
        size=b,
        num_items=n_items,
        user_ids=np.array([r.user_ids for r in requests], dtype=np.int64),
        context_ids=np.array([r.context_ids for r in requests], dtype=np.int64),
        item_ids=np.array([c.item_ids for r in requests for c in r.candidates], dtype=np.int64).reshape(
            b * n_items, len(ITEM_FIELDS)
        ),
        records=np.concatenate([r.sequences.records for r in requests]),
        lengths=lengths,
    )


# -- forward passes -----------------------------------------------------------

_MASK_OFF = -1e9


def _affine(params: ParameterSet, name: str, x: Tensor) -> Tensor:
    """The affine layer `name`: x @ `name.w` + `name.b`, one `autodiff.affine` node."""
    return ad.affine(x, params.tensors[f"{name}.w"], params.tensors[f"{name}.b"])


def _embed_concat(params: ParameterSet, fields: tuple[str, ...], ids: np.ndarray) -> Tensor:
    """Per-field embeddings side by side: ids [..., len(fields)] -> [prod(...), len(fields)*d].

    One lookup in `embed` of each id shifted to its field's rows; UsageError
    for an id outside its own field's vocabulary.
    """
    flat = ids.reshape(-1, len(fields))
    starts, sizes = params._groups[fields]
    outside = (flat < 0) | (flat >= sizes)
    if outside.any():
        col = int(np.flatnonzero(outside.any(axis=0))[0])
        raise UsageError(f"{fields[col]} id out of range [0, {sizes[col]})")
    table = params.tensors["embed"]
    return ad.reshape(ad.embedding(table, flat + starts), (flat.shape[0], len(fields) * table.shape[1]))


def behavior_embedding(params: ParameterSet, ids: np.ndarray) -> Tensor:
    """Embed historical clicks: ids [R, 7] in HISTORY_COLUMNS order -> [R, 7*d].

    Each row concatenates the clicked item's fields, the click-time context
    and the recency bucket.
    """
    return _embed_concat(params, HISTORY_COLUMNS, ids)


def _history(prep: PreparedBatch, per_position: bool) -> tuple[np.ndarray, np.ndarray]:
    """The records [R', 7] and lengths of sequences 1..K of every request, or of sequence 0."""
    lengths = prep.lengths
    # whether each record belongs to a sequence 0
    flat = np.repeat(np.arange(lengths.size) % lengths.shape[1] == 0, lengths.reshape(-1))
    if per_position:
        return prep.records[~flat], lengths[:, 1:].reshape(-1)
    return prep.records[flat], lengths[:, 0]


def base_module_forward(params: ParameterSet, user: Tensor, context: Tensor, items: Tensor) -> Tensor:
    """Per-item representation from (user, context, item) embeddings only.

    user [B, user_dim], context [B, context_dim], items [B*J, item_dim],
    request-major -> [B*J, item_rep_dim]. Row b*J+j depends only on request
    b's user/context and its item j.
    """
    shapes = (user.shape, context.shape, items.shape)
    if any(len(s) != 2 for s in shapes) or user.shape[0] != context.shape[0] or items.shape[0] % user.shape[0]:
        raise UsageError(f"base_module_forward needs [B, U], [B, C] and [B*J, I] embeddings, got {shapes}")
    uc = ad.repeat_rows(ad.concat([user, context], axis=1), items.shape[0] // user.shape[0])
    x = ad.concat([uc, items], axis=1)
    for li in range(len(params.config.mlp_hidden)):
        x = ad.relu(_affine(params, f"base.{li}", x))
    return x


def _attention_logits(params: ParameterSet, records: Tensor, segment: np.ndarray, query: Tensor, n: int) -> Tensor:
    """`att.score` of ReLU(`att.hidden` of [record, query]): packed [R, M] logits (see `interest_aggregation`).

    The projections die as the scores are made, and the packed scores with
    the call, before the softmax and the pooling allocate theirs.
    """
    dim, m = records.shape[1], query.shape[0] // n
    wa, ba = params.tensors["att.hidden.w"], params.tensors["att.hidden.b"]
    scores = ad.additive_scores(
        ad.matmul(records, ad.gather_rows(wa, np.arange(dim))),
        ad.reshape(ad.matmul(query, ad.gather_rows(wa, np.arange(dim, wa.shape[0]))) + ba, (n, m, -1)),
        segment,
        params.tensors["att.score.w"],
    )
    # the bias goes on as an affine layer adds it, to one logit per row
    return ad.reshape(ad.reshape(scores, (scores.shape[0] * m, 1)) + params.tensors["att.score.b"], (-1, m))


def _padded_logits(logits: Tensor, place: np.ndarray | None, n: int, seq_len: int) -> Tensor:
    """Packed [R, M] logits in padded [N, M, L] order; `place` is each record's row of the [N*L] grid."""
    m = logits.shape[1]
    if place is not None:
        # padding steps get -1e9, so their softmax weight underflows to 0
        logits = ad.scatter_rows(logits, place, n * seq_len, _MASK_OFF)
    if m > 1:
        # [N, L, M] -> [N, M, L], copied: the softmax must meet each row contiguous to sum it as before
        logits = ad.reshape(ad.transpose(ad.reshape(logits, (n, seq_len, m)), (0, 2, 1)), (-1,))
    return ad.reshape(logits, (n, m, seq_len))


def interest_aggregation(params: ParameterSet, records: Tensor, lengths: np.ndarray, query: Tensor) -> Tensor:
    """Attention-pool each behavior sequence against each of its queries.

    records [R, D] holds N sequences back to back, `lengths[n]` <= L rows
    for sequence n; query [N*M, Q] with rows n*M .. n*M+M-1 querying
    sequence n -> [N*M, D]. A record's attention logit is `att.score` of
    ReLU(`att.hidden` of [record, query]): records and queries are projected
    once each, through their row blocks of `att.hidden.w` (the bias rides on
    the query rows), and meet block by block in `autodiff.additive_scores`,
    so no sequence is copied per query, the [R, M, d_model] hidden layer is
    never held whole and no padding slot is embedded, projected or scored.
    An empty sequence pools to zeros.

    How the logits are pooled is the variant's history stage, never the
    batch. The per-request stage (DPIN, DPIN-Transformer) has one query per
    sequence (M = 1, else UsageError): `autodiff.segment_softmax_pool` takes
    each sequence's softmax over its real rows and sums its weighted records
    on the packed rows. The stages with M queries per sequence (DIN,
    `DPIN+ItemAction`) place the scores in [N, M, L] logits, padding at -1e9
    so its softmax weight underflows to 0, and the records in an [N, L, D]
    zero grid, and pool with one row-stable `bmm`: a segment sum per query is
    tens of times slower than that BLAS product on full histories. Either
    way a pooled row's bits depend only on its own sequence and query.
    """
    lengths = np.asarray(lengths)
    seq_len = params.config.max_len
    if (
        records.ndim != 2
        or lengths.ndim != 1
        or not lengths.size
        or not np.issubdtype(lengths.dtype, np.integer)
        or lengths.min() < 0
        or lengths.max() > seq_len
        or lengths.sum() != records.shape[0]
    ):
        raise UsageError(
            f"interest_aggregation needs [R, D] records in sequences of 0..{seq_len} rows, "
            f"got records {records.shape} and lengths {lengths.tolist()}"
        )
    n = lengths.size
    if query.ndim != 2 or query.shape[0] % n:
        raise UsageError(f"interest_aggregation: {query.shape} queries do not split over {n} sequences")
    m, (r, dim) = query.shape[0] // n, records.shape
    per_request = variant_spec(params.variant).history == PER_REQUEST
    if per_request and m != 1:
        raise UsageError(f"interest_aggregation: the per-request stage pools one query per sequence, got {m}")
    segment = np.repeat(np.arange(n), lengths)
    if per_request:
        logits = ad.reshape(_attention_logits(params, records, segment, query, n), (r,))
        return ad.segment_softmax_pool(logits, records, lengths)
    # each record's row of the padded [N*L, ...] grids: its sequence's block, then its step;
    # with no padding the packed rows are the grids
    place = None if r == n * seq_len else np.flatnonzero(np.arange(seq_len) < lengths[:, None])
    weights = ad.softmax(_padded_logits(_attention_logits(params, records, segment, query, n), place, n, seq_len))
    grid = records if place is None else ad.scatter_rows(records, place, n * seq_len)
    return ad.reshape(ad.bmm(weights, ad.reshape(grid, (n, seq_len, dim))), (n * m, dim))


def position_interaction(
    params: ParameterSet,
    position_ids: np.ndarray,
    context: Tensor,
    pooled_behavior: Tensor,
    item_query: Tensor | None = None,
) -> Tensor:
    """Nonlinear mix of position embedding, context and pooled behavior."""
    parts = [_embed_concat(params, _POSITION, position_ids), context, pooled_behavior]
    if item_query is not None:
        parts.append(item_query)
    x = ad.concat(parts, axis=1)
    return ad.relu(_affine(params, "inter", x))


def transformer_encode(params: ParameterSet, v: Tensor) -> Tensor:
    """Self-attention blocks across the position axis: [B, K, d_model] -> same.

    Heads are a batch axis: each block projects queries, keys and values
    with one [d_model, d_model] matmul each, and head h owns columns
    h·dk … (h+1)·dk − 1 of `wq`, `wk` and `wv` (dk = d_model / heads).
    One `autodiff.attention` node then runs all B·H (request, head) pairs
    and merges the heads back before `wo`.
    """
    cfg = params.config
    if v.ndim != 3 or v.shape[1] != cfg.max_position or v.shape[2] != cfg.d_model:
        raise UsageError(
            f"transformer_encode expects [B, {cfg.max_position}, {cfg.d_model}], got {v.shape}"
        )
    b, k, dm = v.shape
    x = ad.reshape(v, (b * k, dm))
    t = params.tensors
    for blk in range(cfg.blocks):
        q, key, val = (ad.matmul(x, t[f"tf{blk}.{w}"]) for w in ("wq", "wk", "wv"))
        mha = ad.matmul(ad.attention(q, key, val, b, cfg.heads), t[f"tf{blk}.wo"])
        x = ad.layer_norm(x + mha, t[f"tf{blk}.ln1.gain"], t[f"tf{blk}.ln1.bias"])
        ff = _affine(params, f"tf{blk}.ff2", ad.relu(_affine(params, f"tf{blk}.ff1", x)))
        x = ad.layer_norm(x + ff, t[f"tf{blk}.ln2.gain"], t[f"tf{blk}.ln2.bias"])
    return ad.reshape(x, (b, k, dm))


def combination_forward(
    params: ParameterSet,
    item_rep: Tensor,
    position_rep: Tensor | None,
    position_ids: np.ndarray,
) -> Tensor:
    """Pairwise head: sigmoid(`comb.2` of ReLU(`comb.1` of [item, position, E(k)]))."""
    pos_embed = _embed_concat(params, _POSITION, position_ids)
    parts = [item_rep] + ([position_rep] if position_rep is not None else []) + [pos_embed]
    x = ad.concat(parts, axis=1)
    out = ad.sigmoid(_affine(params, "comb.2", ad.relu(_affine(params, "comb.1", x))))
    return ad.reshape(out, (out.shape[0],))


# -- variant pipelines --------------------------------------------------------


def _dpin_position_rep(params: ParameterSet, prep: PreparedBatch, context: Tensor, items: Tensor) -> Tensor:
    """Per-position representations from context [B, context_dim] and items [B*J, item_dim].

    Returns [B*K, d_model], or [B*J*K, d_model] ordered (request, item,
    position) when the variant reruns the interaction stage per candidate:
    each of the B*K position sequences is then pooled against J queries,
    one per candidate, instead of once against its request's context.
    """
    cfg = params.config
    spec = variant_spec(params.variant)
    b, j, k = prep.size, prep.num_items, cfg.max_position
    m = j if spec.history == PER_CANDIDATE else 1  # queries per position sequence
    # rows run in (request, position, query) order
    ctx_groups = ad.repeat_rows(context, k * m)
    query, item_groups = ctx_groups, None
    if spec.history == PER_CANDIDATE:
        request, _, candidate = np.unravel_index(np.arange(b * k * m), (b, k, m))
        item_groups = ad.gather_rows(items, request * j + candidate)
        query = ad.concat([ctx_groups, item_groups], axis=1)

    # sequences 1..K of each request: its per-position histories
    records, lengths = _history(prep, per_position=True)
    pooled = interest_aggregation(params, behavior_embedding(params, records), lengths, query)
    pos_ids = np.repeat(np.tile(np.arange(1, k + 1), b), m)
    v = position_interaction(params, pos_ids, ctx_groups, pooled, item_query=item_groups)
    # (request, query, position) order: each query's K positions side by side
    v = ad.reshape(ad.transpose(ad.reshape(v, (b, k, m, cfg.d_model)), (0, 2, 1, 3)), (b * m * k, cfg.d_model))
    if not spec.transformer:
        return v
    encoded = transformer_encode(params, ad.reshape(v, (b * m, k, cfg.d_model)))
    return ad.reshape(encoded, (b * m * k, cfg.d_model))


def score_displayed(params: ParameterSet, prep: PreparedBatch, positions: np.ndarray) -> Tensor:
    """Click probability of each candidate at its slot or slots.

    `positions` is required: [B*J], one slot per candidate (training passes
    the logged positions), or [B*J, P], P slots per candidate. The result
    is [B*J*P], candidate-major. The item side runs once per candidate and
    the position side once per request (once per candidate for the
    per-candidate history stage); the two are then paired row by row.
    """
    spec = variant_spec(params.variant)
    cfg = params.config
    b, j, k = prep.size, prep.num_items, cfg.max_position
    positions = np.asarray(positions)
    if positions.ndim not in (1, 2) or positions.shape[0] != b * j:
        raise UsageError(f"score_displayed needs [{b * j}] or [{b * j}, P] positions, got {positions.shape}")
    slots = 1 if positions.ndim == 1 else positions.shape[1]
    positions = positions.reshape(-1)
    if not np.issubdtype(positions.dtype, np.integer) or np.any((positions < 1) | (positions > k)):
        raise UsageError(f"score_displayed slots must be integers in [1, {k}]")

    user = _embed_concat(params, USER_FIELDS, prep.user_ids)
    context = _embed_concat(params, CONTEXT_FIELDS, prep.context_ids)
    items = _embed_concat(params, ITEM_FIELDS, prep.item_ids)
    item_rep = base_module_forward(params, user, context, items)
    position_rep = None
    if spec.history == FLAT_HISTORY:
        # DIN: the position-blind history, sequence 0, pooled against each candidate's item embedding
        records, lengths = _history(prep, per_position=False)
        pooled = interest_aggregation(params, behavior_embedding(params, records), lengths, items)
        item_rep = ad.concat([item_rep, pooled], axis=1)
    else:
        # the block of K position rows each candidate reads: its own, or its request's
        owner = np.arange(b * j) if spec.history == PER_CANDIDATE else np.repeat(np.arange(b), j)
        row_idx = np.repeat(owner, slots) * k + (positions - 1)
        position_rep = ad.gather_rows(_dpin_position_rep(params, prep, context, items), row_idx)

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
