"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything runs on numpy. Forward matrix products are bitwise
reproducible per row: a row computed inside a large batch is identical to
the same row computed alone. Several contracts elsewhere in the package
(per-candidate independence, fast path == definitional path) rely on this.
A plain BLAS GEMM does not keep it, because it picks its blocking, its
micro-kernel edge cases and its thread split from the whole matrix shape,
so one output row is summed in a different order depending on how many
rows share the call.

``matmul`` and ``bmm`` therefore share one kernel, ``a[..., m, k] @
b[..., k, n]`` over leading batch axes (none for ``matmul``, one for
``bmm``), and one vector-Jacobian product. The kernel zero-pads the rows of
the left operand to a multiple of 8 and makes one BLAS GEMM call per 8-row
block against the matrix of the row's batch element: every call has the
shape [8, k] @ [k, n] whatever the batch, so a row's sum runs in an order
fixed by (k, n) alone, and the padding rows are dropped afterwards. When
n == 1 it keeps one dot product per row, which is faster there
(3,750×32×1: 28 µs per row against 67 µs in blocks). The choice between
the two is a function of n alone, never of the row count or the batch.

Why 8 rows (one BLAS thread): at desk shapes (up to about 30 rows, k and
n up to 136) 8-row blocks run as fast as 4-row blocks and beat 16- to
64-row blocks, which pay for up to 63 padding rows (5×104×64: 2.9 µs at 8
rows, 3.8 at 16, 9.8 at 64). At paper-scale widths 8 beats 4 (50×1000×1024:
7.6 ms at 4 rows, 4.3 ms at 8, against 12.4 ms for one gemv per row), and
only there would larger blocks win (1.7 ms at 64). That blocks of a fixed
shape keep every row's bits is measured behaviour of OpenBLAS 0.3.31 with
one or two threads, not a documented BLAS guarantee; ``TestRowStableKernels``
guards it up to k = 1,200, n = 700 and 90 rows.

``additive_scores`` is one fused op for DIN's activation unit, ``relu(r[:,
None] + q[segment]) @ w`` over packed records r [R, h], each belonging to
the sequence ``segment[r]``, and queries q [n, m, h], m per sequence. Only
real records come in: a caller keeps its sequences back to back, with no
padding. Built whole, the hidden layer [R, m, h] dwarfs everything else the
attention holds (a paper-scale DPIN+ItemAction request at J = 50 has 192 MB
of it). The op builds it in blocks of whole records of at most
``_SCORE_BLOCK`` floats in one reused buffer: it gathers each record's
queries into the buffer (``np.take`` in "clip" mode, since "raise" fills a
copy and then the buffer, 4x the cost), adds the records and ReLUs in place,
and scores the block with the per-row (n == 1) kernel above, so every score
keeps the bits of the unfused product; a record larger than a block is a
block of its own. Why 2^17 floats (1 MiB): scoring a 64-request desk
DPIN+ItemAction batch with full histories (J = 12, 341 records per block)
took 136-140 ms at 2^15 to 2^19, 147 ms at 2^13, 149 ms at 2^21 and 188 ms
at 2^11 (medians over 20 interleaved rounds, one BLAS thread); 2^17 is the
middle of the fast sizes and keeps the buffer at 1 MiB, which the
inference memory bound of the attention needs. The VJP rebuilds the hidden
layer whole once; it sums each sequence's query gradients in record order
with one ``_scatter_add_rows``.

``segment_softmax_pool`` is the pooling of a history stage with one query
per sequence: packed logits [R] and records [R, D] in, each sequence's
softmax-weighted record sum [N, D] out, with no padded grid and no mask.
Every sequence takes its max, its exponentials and every sum over its own
rows in record order from zero (``np.bincount`` for the softmax, one
``_scatter_add_rows`` for the weighted records), so its bits never depend on
the other sequences of the call. On a training step of real, sparse
histories (L = 30) this costs no BLAS call at all. On long full sequences it
is slower than a BLAS product: 25 sequences of 300 rows (D = 56, one BLAS
thread) take about 0.5 ms for the weighted records and 1.1 ms for their
in-order sum, where the grid's ``bmm`` pools them in 0.4 ms.

``affine`` and ``attention`` fuse the two compositions a DPIN step is
mostly made of, because at desk shapes a tape node costs more in Python
(its closure, its ``Tensor``, its turn in ``backward``) than in arithmetic.
``affine`` is ``x @ w + b`` in one node instead of two. ``attention`` takes
the [B·K, d_model] query, key and value projections of a transformer block
to its merged heads in one node instead of 16: three head splits of three
nodes each, two ``bmm``, the 1/√dk scale, the softmax and a three-node
merge. A desk DPIN training step records 77 nodes instead of 117. Both ops
run the same numpy operations on the same arrays as the unfused
composition, forward and backward, so every value and gradient keeps its
bits. Both make their products through the public ``matmul`` and ``bmm`` on
untracked tensors, so every product takes the one row-stable kernel and its
shape checks, and a wrapper of those two functions (a tracer counting flops)
still sees each one.

Gradients are built lazily: each op records its parents and a vector-
Jacobian closure; ``backward`` walks the tape in reverse topological
order. Wrap inference code in ``no_grad()`` to skip tape construction.

Accumulation contract: ``backward`` adds a tensor's incoming gradients in
tape order, each sum starting from the first contribution, so every
gradient is the same sum in the same order as zero-filling first and adding
in place. The first contribution is stored as it arrives, not copied: an
op's VJP may hand one array to several parents (``add`` passes its output
gradient to both operands) or return a view of its input. A leaf's ``grad``
may therefore share memory with another tensor's ``grad``; copy it before
mutating it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NumericError, UsageError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the context (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


# rows per BLAS call in matmul and bmm (see the module docstring)
_BLOCK = 8
# floats of hidden layer per block in additive_scores (see the module docstring)
_SCORE_BLOCK = 1 << 17


def _row_stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., m, k] @ b[..., k, n] with equal leading (batch) axes, row-stable."""
    # Contiguous operands give every call the same BLAS kernel whatever the
    # caller's layout: a transposed view takes another kernel or numpy's own
    # loop and sums in another order.
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    lead = a.shape[:-2]
    m, k = a.shape[-2:]
    n = b.shape[-1]
    if lead:
        # [..., 1, k, n]: the row blocks of each batch element meet its own
        # matrix (numpy broadcasts a 2-D b over them by itself)
        b = b.reshape(lead + (1, k, n))
    if n == 1:
        # [..., m, 1, k] @ [..., 1, k, 1]: one dot per row
        return np.matmul(a.reshape(lead + (m, 1, k)), b).reshape(lead + (m, 1))
    rows = -(-m // _BLOCK) * _BLOCK
    if rows != m:
        padded = np.zeros(lead + (rows, k))
        padded[..., :m, :] = a
        a = padded
    # [..., m/8, 8, k] @ [..., 1, k, n]: numpy makes one [8,k] @ [k,n] gemm per block
    out = np.matmul(a.reshape(lead + (rows // _BLOCK, _BLOCK, k)), b).reshape(lead + (rows, n))[..., :m, :]
    # a batched slice would pin every element's padding rows: copy it out
    return out.copy() if lead and rows != m else out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """A numpy float64 array plus an optional gradient tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


# -- elementwise ops ------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return _make(data, (a,), vjp)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) on a numpy array, split by sign for stability at large |x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    out = logistic(a.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), vjp)


# -- shape ops ------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(old),)

    return _make(data, (a,), vjp)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute the axes of `a`: output axis i is input axis ``axes[i]`` (a view)."""
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise UsageError(f"transpose: axes {axes} are not a permutation of {a.ndim} axes")
    data = np.transpose(a.data, axes)
    inverse = tuple(axes.index(ax) for ax in range(a.ndim))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _make(data, (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not parts:
        raise UsageError("concat of an empty sequence")
    parts = tuple(_coerce(p) for p in parts)
    data = np.concatenate([p.data for p in parts], axis=axis)

    def vjp(g):
        lead = (slice(None),) * (axis % g.ndim)
        views, start = [], 0
        for p in parts:
            stop = start + p.data.shape[axis]
            views.append(g[lead + (slice(start, stop),)])
            start = stop
        return tuple(views)

    return _make(data, parts, vjp)


def repeat_rows(a: Tensor, times: int) -> Tensor:
    """Repeat each row `times` times consecutively: [r0,r0,..,r1,r1,..]."""
    if a.ndim != 2:
        raise UsageError(f"repeat_rows needs a matrix, got shape {a.shape}")
    n = a.shape[0]
    data = np.repeat(a.data, times, axis=0)

    def vjp(g):
        return (g.reshape(n, times, -1).sum(axis=1),)

    return _make(data, (a,), vjp)


# -- linear algebra -------------------------------------------------------


def _product(a: Tensor, b: Tensor) -> Tensor:
    data = _row_stable_matmul(a.data, b.data)

    def vjp(g):
        # gradient accumulation has no per-row bit contract, BLAS is fine
        return g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g

    return _make(data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise UsageError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise UsageError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    return _product(a, b)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: [B,n,m] @ [B,m,p] -> [B,n,p]."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise UsageError(f"bmm: incompatible shapes {a.shape} and {b.shape}")
    return _product(a, b)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b in one node: x [m, k], w [k, n], b [n] -> [m, n].

    The product is `matmul`'s, made on untracked tensors, and the bias is
    added as `add` adds it. The VJP returns the unfused gradients: g @ wᵀ,
    xᵀ @ g and g summed over the rows.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if w.ndim != 2 or b.shape != w.shape[1:]:
        raise UsageError(f"affine needs a [k, n] weight and an [n] bias, got {w.shape} and {b.shape}")
    data = matmul(Tensor(x.data), Tensor(w.data)).data + b.data

    def vjp(g):
        return g @ w.data.swapaxes(-1, -2), x.data.swapaxes(-1, -2) @ g, g.sum(axis=0)

    return _make(data, (x, w, b), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, batch: int, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over `batch` sequences, in one node.

    q, k, v [batch·K, d_model] are the query, key and value projections of
    `batch` sequences of K rows each, sequence-major; head h owns columns
    h·dk … (h+1)·dk − 1 (dk = d_model / heads). Each (sequence, head) pair
    attends over its K rows with the softmax of q·kᵀ/√dk, and the heads'
    pooled values are merged back side by side: [batch·K, d_model]. The two
    products are `bmm`'s, made on untracked tensors, and forward and VJP run
    the same numpy operations on the same arrays as the unfused composition
    split → `bmm` → ×1/√dk → `softmax` → `bmm` → merge, so every value and
    gradient keeps its bits.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape:
        raise UsageError(f"attention needs equal [rows, d_model] q, k and v, got {q.shape}, {k.shape} and {v.shape}")
    rows, dm = q.shape
    if batch < 1 or rows % batch:
        raise UsageError(f"attention: {rows} rows do not split into {batch} sequences")
    if heads < 1 or dm % heads:
        raise UsageError(f"attention: d_model={dm} does not split into {heads} heads")
    n, dk = rows // batch, dm // heads
    scale = 1.0 / np.sqrt(dk)

    def split(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        # [batch·K, d_model] -> [batch, K, H, dk], permuted by `axes`, heads merged into the batch
        parts = np.transpose(a.reshape(batch, n, heads, dk), axes)
        return parts.reshape((batch * heads,) + parts.shape[2:])

    def merge(a: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
        # the inverse of `split`: [batch·H, ...] of `shape` per sequence and head -> [batch·K, d_model]
        return np.transpose(a.reshape((batch, heads) + shape), axes).reshape(rows, dm)

    qh, kh, vh = split(q.data, (0, 2, 1, 3)), split(k.data, (0, 2, 3, 1)), split(v.data, (0, 2, 1, 3))
    weights = _softmax(bmm(Tensor(qh), Tensor(kh)).data * scale, "attention scores")
    data = merge(bmm(Tensor(weights), Tensor(vh)).data, (n, dk), (0, 2, 1, 3))

    def vjp(g):
        g_att = split(g, (0, 2, 1, 3))
        g_scores = _softmax_vjp(weights, g_att @ vh.swapaxes(-1, -2)) * scale
        return (
            merge(g_scores @ kh.swapaxes(-1, -2), (n, dk), (0, 2, 1, 3)),
            merge(qh.swapaxes(-1, -2) @ g_scores, (dk, n), (0, 3, 1, 2)),
            merge(weights.swapaxes(-1, -2) @ g_att, (n, dk), (0, 2, 1, 3)),
        )

    return _make(data, (q, k, v), vjp)


def _scatter_add_rows(rows: np.ndarray, g: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum the rows of `g` ([rows.size, dim] in C order) into [n_rows, dim] at `rows`.

    One ``np.bincount`` over cell indices ``row * dim + col``: it adds its
    weights in input order into a zeroed buffer, as an unbuffered ufunc
    scatter-add into a zero matrix does, so every cell is the same sum.
    """
    dim = g.shape[-1]
    cells = (rows.reshape(-1, 1).astype(np.intp, copy=False) * dim + np.arange(dim)).reshape(-1)
    out = np.bincount(cells, weights=g.reshape(-1), minlength=n_rows * dim)
    # with no rows at all, bincount returns integer zeros
    return out.reshape(n_rows, dim).astype(np.float64, copy=False)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows of a matrix by integer index (rows may repeat)."""
    a = _coerce(a)
    idx = np.asarray(idx)
    if a.ndim != 2:
        raise UsageError(f"gather_rows needs a matrix, got shape {a.shape}")
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise UsageError("gather_rows index must be a 1-D integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise UsageError(f"gather_rows index out of range [0, {a.shape[0]})")
    data = a.data[idx]

    def vjp(g):
        return (_scatter_add_rows(idx, g, a.shape[0]),)

    return _make(data, (a,), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Look up rows of `table` ([vocab, dim]) by integer ids (any shape)."""
    table = _coerce(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise UsageError("embedding ids must be integers")
    if table.ndim != 2:
        raise UsageError(f"embedding table must be a matrix, got shape {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise UsageError(
            f"embedding id out of range [0, {table.shape[0]}): min={ids.min()}, max={ids.max()}"
        )
    data = table.data[ids]

    def vjp(g):
        return (_scatter_add_rows(ids, g, table.shape[0]),)

    return _make(data, (table,), vjp)


# -- neural-net specific ops ----------------------------------------------


def _softmax(x: np.ndarray, op: str) -> np.ndarray:
    """Softmax of `x` along its last axis, with max subtraction; `op` names the caller's input in errors."""
    if x.size == 0 or x.shape[-1] == 0:
        raise UsageError(f"{op} of an empty vector")
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{op} input contains NaN/Inf")
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a softmax's input from its output `out` and output gradient `g`."""
    dot = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - dot)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max subtraction."""
    out = _softmax(a.data, "softmax")
    return _make(out, (a,), lambda g: (_softmax_vjp(out, g),))


def scatter_rows(a: Tensor, rows, n_rows: int, fill: float = 0.0) -> Tensor:
    """Place the rows of a matrix at distinct rows of an [n_rows, dim] matrix of `fill`.

    Row i of `a` lands on row ``rows[i]``; the other rows hold `fill` and get
    no gradient. The VJP gathers the placed rows back. The rows must be
    distinct: a repeated row keeps only its last value.
    """
    a = _coerce(a)
    rows = np.asarray(rows)
    if a.ndim != 2:
        raise UsageError(f"scatter_rows needs a matrix, got shape {a.shape}")
    if rows.shape != a.shape[:1] or not np.issubdtype(rows.dtype, np.integer):
        raise UsageError(f"scatter_rows needs one integer row per input row, got {rows.shape} for {a.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise UsageError(f"scatter_rows index out of range [0, {n_rows})")
    data = np.full((n_rows, a.shape[1]), fill)
    data[rows] = a.data

    def vjp(g):
        return (g[rows],)

    return _make(data, (a,), vjp)


def additive_scores(records: Tensor, queries: Tensor, segment, w: Tensor) -> Tensor:
    """relu(records[:, None] + queries[segment]) @ w, never holding the hidden layer whole.

    records [R, h] are the rows of n sequences, grouped by sequence: record
    r belongs to sequence ``segment[r]``, a non-decreasing index in [0, n).
    queries [n, m, h], w [h, 1] -> [R, m]: entry (r, j) scores record r
    against query j of its sequence. The [R, m, h] hidden layer is built,
    ReLU'd in place and scored in blocks of whole records of at most
    `_SCORE_BLOCK` floats (see the module docstring), each through the
    per-row kernel of `matmul` with w, so every score has the bits of the
    unfused `matmul(relu(r + q), w)`. The VJP rebuilds the hidden layer
    whole once and returns the unfused gradients: the records' are its sums
    over m, the queries' its sums over each sequence's records, w's the
    single product hidden.T @ g.
    """
    records, queries, w = _coerce(records), _coerce(queries), _coerce(w)
    segment = np.asarray(segment)
    shapes = f"records {records.shape}, queries {queries.shape}, segment {segment.shape}, w {w.shape}"
    if records.ndim != 2 or queries.ndim != 3 or queries.shape[2] != records.shape[1]:
        raise UsageError(f"additive_scores needs [R, h] records and [n, m, h] queries, got {shapes}")
    if w.shape != (records.shape[1], 1):
        raise UsageError(f"additive_scores needs an [h, 1] weight, got {shapes}")
    if segment.shape != records.shape[:1] or not np.issubdtype(segment.dtype, np.integer):
        raise UsageError(f"additive_scores needs one integer segment per record, got {shapes}")
    r_count, h = records.shape
    n, m = queries.shape[:2]
    if r_count and (segment[0] < 0 or segment[-1] >= n or np.any(segment[1:] < segment[:-1])):
        raise UsageError(f"additive_scores segments must be non-decreasing in [0, {n}), got {shapes}")

    def hidden(lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        # the segments are checked above: "clip" never clips, and unlike
        # "raise" it writes straight into `out` instead of through a buffer
        out = np.take(queries.data, segment[lo:hi], axis=0, out=out, mode="clip")
        out += records.data[lo:hi, None]
        return np.maximum(out, 0.0, out=out)

    data = np.empty((r_count, m))
    per_record = m * h
    step = max(1, _SCORE_BLOCK // max(1, per_record))
    buf = np.empty(min(step, r_count) * per_record)  # every block reuses this memory
    for lo in range(0, r_count, step):
        nb = min(step, r_count - lo)
        block = hidden(lo, lo + nb, buf[: nb * per_record].reshape(nb, m, h))
        data[lo : lo + nb] = _row_stable_matmul(block.reshape(-1, h), w.data).reshape(nb, m)

    def vjp(g):
        hid = hidden(0, r_count)
        # one product per element, as the k = 1 matmul g @ w.T makes it, without its slow path
        g_hid = g[:, :, None] * w.data[:, 0]
        g_hid *= hid > 0.0
        return (
            _unbroadcast(g_hid, (r_count, 1, h)).reshape(records.shape),
            _scatter_add_rows(segment, g_hid.reshape(r_count, per_record), n).reshape(queries.shape),
            hid.reshape(-1, h).swapaxes(-1, -2) @ g.reshape(-1, 1),
        )

    return _make(data, (records, queries, w), vjp)


def segment_softmax_pool(logits: Tensor, records: Tensor, lengths) -> Tensor:
    """Each sequence's softmax-weighted record sum: logits [R], records [R, D], lengths [N] -> [N, D].

    The records are N sequences back to back, ``lengths[n]`` rows for
    sequence n, each with one logit. Sequence n's weights are the softmax of
    its own logits, and row n of the result is the sum of its records times
    their weights; an empty sequence gives a row of +0.0. Every sum, forward
    and in the VJP, runs over one sequence's rows in record order from zero,
    so a row's bits never depend on the other sequences of the call. The
    VJP gathers each record's output gradient g: records get w·g, and logits
    w·(g_w − Σ w·g_w) with g_w the row-dot of g and the record, summed over
    the record's sequence.
    """
    logits, records = _coerce(logits), _coerce(records)
    lengths = np.asarray(lengths)
    if (
        logits.ndim != 1
        or records.ndim != 2
        or records.shape[0] != logits.shape[0]
        or lengths.ndim != 1
        or not np.issubdtype(lengths.dtype, np.integer)
        or (lengths.size and lengths.min() < 0)
        or lengths.sum() != records.shape[0]
    ):
        raise UsageError(
            f"segment_softmax_pool needs [R] logits and [R, D] records in sequences of the given lengths, "
            f"got logits {logits.shape}, records {records.shape} and {lengths.size} lengths summing to {lengths.sum()}"
        )
    if not np.all(np.isfinite(logits.data)):
        raise NumericError("segment_softmax_pool logits contain NaN/Inf")
    n = lengths.size
    segment = np.repeat(np.arange(n), lengths)
    filled = np.flatnonzero(lengths)
    peak = np.zeros(n)
    if filled.size:
        # the rows from one non-empty sequence's first record to the next one's are its own
        peak[filled] = np.maximum.reduceat(logits.data, (np.cumsum(lengths) - lengths)[filled])
    e = np.exp(logits.data - peak[segment])
    w = e / np.bincount(segment, weights=e, minlength=n)[segment]
    data = _scatter_add_rows(segment, w[:, None] * records.data, n)

    def vjp(g):
        g_rows = g[segment]
        g_w = (g_rows * records.data).sum(axis=1)
        g_logits = w * (g_w - np.bincount(segment, weights=w * g_w, minlength=n)[segment])
        return g_logits, w[:, None] * g_rows

    return _make(data, (logits, records), vjp)


LAYER_NORM_EPS = 1e-6  # added to the variance before its square root


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    d = x.shape[-1]
    if d < 2:
        raise UsageError(f"layer_norm needs at least 2 features, got {d}")
    if gain.shape != (d,) or bias.shape != (d,):
        raise UsageError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match feature dim {d}"
        )
    # numpy's `mean` is this sum and this division, without the dispatch
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        g_gain = (g * xhat).sum(axis=lead)
        g_bias = g.sum(axis=lead)
        gx_hat = g * gain.data
        gx = inv / d * (
            d * gx_hat
            - gx_hat.sum(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).sum(axis=-1, keepdims=True)
        )
        return gx, g_gain, g_bias

    return _make(out, (x, gain, bias), vjp)


def binary_cross_entropy(p: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of -(y*ln p + (1-y)*ln(1-p)) with p clamped to [1e-12, 1-1e-12]."""
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise UsageError(f"binary_cross_entropy: shapes {p.shape} vs {y.shape}")
    pc = np.clip(p.data, 1e-12, 1.0 - 1e-12)
    n = pc.size
    data = np.asarray(-(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)).sum() / n)
    if not np.isfinite(data):
        raise NumericError("binary_cross_entropy produced a non-finite loss")

    def vjp(g):
        return (g * (pc - y) / (pc * (1.0 - pc) * n),)

    return _make(data, (p,), vjp)


# -- reverse pass ----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar `loss` into every reachable tensor."""
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if not parent.requires_grad or g is None:
                continue
            # never `+=`: the stored array may be shared (see the module docstring)
            parent.grad = g if parent.grad is None else parent.grad + g


# -- optimizers -------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Optimizer:
    """Bias-corrected adaptive-moment (Adam) updates of a fixed set of named tensors.

    The tensors are bound at construction, and each step updates every one
    of them from its `grad`. A step works on a single flat vector: binding
    copies the tensors' values into one flat array, laid out in the
    binding's order, and rebinds each tensor's `data` to its view of it, so
    the step writes every parameter back with one subtract. The gradients
    are concatenated once, and the moments live in flat arrays of the same
    layout. The arithmetic runs in place in two reused scratch buffers, so a
    step allocates no array of the model's size. A tensor whose `data` is
    rebound after binding no longer receives the updates.
    """

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        if len({id(p) for p in self.params.values()}) != len(self.params):
            raise UsageError("Optimizer: a tensor is bound under two names")
        self._slices: dict[str, slice] = {}  # name -> its part of the flat vectors
        start = 0
        for name, p in self.params.items():
            self._slices[name] = slice(start, start + p.data.size)
            start += p.data.size
        # every bound tensor's values; each `data` becomes a view of its part
        self._flat = np.concatenate([p.data.reshape(-1) for p in self.params.values()] or [np.empty(0)])
        for name, p in self.params.items():
            p.data = self._flat[self._slices[name]].reshape(p.shape)
        self._m, self._v = np.zeros(start), np.zeros(start)
        self._g, self._upd, self._tmp = np.empty(start), np.empty(start), np.empty(start)

    def step(self) -> None:
        """Apply one update. Validates all gradients before touching any parameter."""
        for name, p in self.params.items():
            if p.grad is None:
                raise UsageError(f"no gradient for parameter {name!r}")
            if p.grad.shape != p.shape:
                raise UsageError(f"gradient shape mismatch for {name!r}")
        g = self._g
        if self._slices:
            np.concatenate([p.grad.reshape(-1) for p in self.params.values()], out=g)
        if not np.isfinite(g).all():
            bad = next(n for n, sl in self._slices.items() if not np.isfinite(g[sl]).all())
            raise NumericError(f"non-finite gradient for parameter {bad!r}")
        self.step_count += 1
        # the same operations in the same order as the textbook per-tensor
        # update, so every parameter gets the same bits
        upd, tmp, m, v = self._upd, self._tmp, self._m, self._v
        np.subtract(g, m, out=upd)
        upd *= 1.0 - ADAM_BETA1
        m += upd
        np.multiply(g, g, out=upd)
        upd -= v
        upd *= 1.0 - ADAM_BETA2
        v += upd
        np.divide(m, 1.0 - ADAM_BETA1**self.step_count, out=upd)
        upd *= self.lr
        np.divide(v, 1.0 - ADAM_BETA2**self.step_count, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        upd /= tmp
        self._flat -= upd
