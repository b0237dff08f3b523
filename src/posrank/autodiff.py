"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything runs on numpy. Forward matrix products are bitwise
reproducible per row: a row computed inside a large batch is identical to
the same row computed alone. Several contracts elsewhere in the package
(per-candidate independence, fast path == definitional path) rely on this.
A plain BLAS GEMM does not keep it, because it picks its blocking, its
micro-kernel edge cases and its thread split from the whole matrix shape,
so one output row is summed in a different order depending on how many
rows share the call.

``matmul`` and ``bmm`` therefore zero-pad the rows of the left operand to a
multiple of 8 and make one BLAS GEMM call per 8-row block: every call has
the shape [8, k] @ [k, n] whatever the batch, so a row's sum runs in an
order fixed by (k, n) alone, and the padding rows are dropped afterwards.
When n == 1 they keep one dot product per row, which is faster there
(3,750×32×1: 28 µs per row against 67 µs in blocks). The choice between
the two is a function of n alone, never of the row count.

Why 8 rows (one BLAS thread): at desk shapes (up to about 30 rows, k and
n up to 136) 8-row blocks run as fast as 4-row blocks and beat 16- to
64-row blocks, which pay for up to 63 padding rows (5×104×64: 2.9 µs at 8
rows, 3.8 at 16, 9.8 at 64). At paper-scale widths 8 beats 4 (50×1000×1024:
7.6 ms at 4 rows, 4.3 ms at 8, against 12.4 ms for one gemv per row), and
only there would larger blocks win (1.7 ms at 64). That blocks of a fixed
shape keep every row's bits is measured behaviour of OpenBLAS 0.3.31 with
one or two threads, not a documented BLAS guarantee; ``TestRowStableKernels``
guards it up to k = 1,200, n = 700 and 90 rows.

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


def _row_stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Contiguous operands give every call the same BLAS kernel whatever the
    # caller's layout: a transposed view takes another kernel or numpy's own
    # loop and sums in another order.
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    m, k = a.shape
    n = b.shape[1]
    if n == 1:
        # [m,1,k] @ [k,1]: one dot per row
        return np.matmul(a[:, None, :], b)[:, 0, :]
    rows = -(-m // _BLOCK) * _BLOCK
    if rows != m:
        padded = np.zeros((rows, k))
        padded[:m] = a
        a = padded
    # [m/8,8,k] @ [k,n]: numpy makes one [8,k] @ [k,n] gemm per block
    return np.matmul(a.reshape(rows // _BLOCK, _BLOCK, k), b).reshape(rows, n)[:m]


def _row_stable_bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the same kernels, against the matrix of each row's batch element
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    nb, m, k = a.shape
    n = b.shape[2]
    if n == 1:
        return np.matmul(a[:, :, None, :], b[:, None, :, :])[:, :, 0, :]
    rows = -(-m // _BLOCK) * _BLOCK
    if rows != m:
        padded = np.zeros((nb, rows, k))
        padded[:, :m] = a
        a = padded
    out = np.matmul(a.reshape(nb, rows // _BLOCK, _BLOCK, k), b[:, None, :, :])
    return out.reshape(nb, rows, n)[:, :m]


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

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
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


# -- reductions -----------------------------------------------------------


def total_sum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def vjp(g):
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(data, (a,), vjp)


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise UsageError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise UsageError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    data = _row_stable_matmul(a.data, b.data)

    def vjp(g):
        # gradient accumulation has no per-row bit contract, BLAS is fine
        return g @ b.data.T, a.data.T @ g

    return _make(data, (a, b), vjp)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: [B,n,m] @ [B,m,p] -> [B,n,p]."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise UsageError(f"bmm: incompatible shapes {a.shape} and {b.shape}")
    data = _row_stable_bmm(a.data, b.data)

    def vjp(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return _make(data, (a, b), vjp)


def _scatter_add_rows(rows: np.ndarray, g: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum the rows of `g` ([rows.size, dim] in C order) into [n_rows, dim] at `rows`.

    One ``np.bincount`` over cell indices ``row * dim + col``: it adds its
    weights in input order into a zeroed buffer, as an unbuffered ufunc
    scatter-add into a zero matrix does, so every cell is the same sum.
    """
    dim = g.shape[-1]
    cells = (rows.reshape(-1, 1).astype(np.intp, copy=False) * dim + np.arange(dim)).reshape(-1)
    out = np.bincount(cells, weights=g.reshape(-1), minlength=n_rows * dim)
    return out.reshape(n_rows, dim)


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


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max subtraction."""
    x = a.data
    if x.size == 0 or x.shape[-1] == 0:
        raise UsageError("softmax of an empty vector")
    if not np.all(np.isfinite(x)):
        raise NumericError("softmax input contains NaN/Inf")
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), vjp)


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
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
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
    """Bias-corrected adaptive-moment (Adam) updates over named tensors.

    One step works on a single flat vector: the gradients are concatenated
    once, and the moments live in flat arrays laid out in the same order.
    The layout covers the names that have a gradient and is rebuilt only
    when that set changes; a name without a gradient is skipped and keeps
    its moments for a later step. The arithmetic runs in place in two
    reused scratch buffers, so a step allocates no array of the model's size.
    """

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0
        self._names: tuple[str, ...] = ()
        self._slices: list[slice] = []
        self._m = self._v = np.zeros(0)
        # moments of names outside the current layout, as views of old arrays
        self._parked: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._g = self._upd = self._tmp = np.zeros(0)

    def _relayout(self, params: Mapping[str, Tensor], names: tuple[str, ...]) -> None:
        for name, sl in zip(self._names, self._slices):
            self._parked[name] = (self._m[sl], self._v[sl])
        self._slices, start = [], 0
        for name in names:
            stop = start + params[name].data.size
            self._slices.append(slice(start, stop))
            start = stop
        self._m, self._v = np.zeros(start), np.zeros(start)
        for name, sl in zip(names, self._slices):
            if name in self._parked:
                self._m[sl], self._v[sl] = self._parked.pop(name)
        self._g, self._upd, self._tmp = np.empty(start), np.empty(start), np.empty(start)
        self._names = names

    def step(self, params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray]) -> None:
        """Apply one update. Validates all gradients before touching any parameter."""
        for name in grads:
            if name not in params:
                raise UsageError(f"gradient for unknown parameter {name!r}")
        names = tuple(name for name in params if grads.get(name) is not None)
        for name in names:
            if grads[name].shape != params[name].shape:
                raise UsageError(f"gradient shape mismatch for {name!r}")
        if names != self._names:
            self._relayout(params, names)
        g = self._g
        if names:
            np.concatenate([grads[name].reshape(-1) for name in names], out=g)
        if not np.isfinite(g).all():
            bad = next(n for n, sl in zip(names, self._slices) if not np.isfinite(g[sl]).all())
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
        for name, sl in zip(names, self._slices):
            p = params[name].data
            p -= upd[sl].reshape(p.shape)


# -- finite-difference gradient checking ------------------------------------


def gradient_check(
    build_loss: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, Tensor],
    epsilon: float = 1e-6,
    max_coords_per_tensor: int = 64,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central finite differences.

    Returns the max over sampled coordinates of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    At most `max_coords_per_tensor` coordinates are probed per tensor to
    bound runtime.
    """
    if not 0.0 < epsilon <= 1e-3:
        raise UsageError(f"epsilon must be in (0, 1e-3], got {epsilon}")
    for p in params.values():
        p.grad = None
    loss = build_loss(params)
    if not np.isfinite(loss.data).all():
        raise NumericError("gradient_check: loss is not finite")
    backward(loss)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in sorted(params):
        p = params[name]
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_tensor:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_tensor, replace=False)
        for idx in coords:
            keep = flat[idx]
            flat[idx] = keep + epsilon
            f_plus = build_loss(params).item()
            flat[idx] = keep - epsilon
            f_minus = build_loss(params).item()
            flat[idx] = keep
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"gradient_check: non-finite loss while perturbing {name!r}")
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = float(analytic.reshape(-1)[idx])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst
