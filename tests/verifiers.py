"""Independent verifiers the tests compare the package against.

`auc_oracle` counts AUC pairs explicitly; `gradient_check` compares the
tape's gradients with central finite differences; `exhaustive_allocate`
enumerates every slot assignment of a small instance;
`dense_interest_aggregation` is the attention on zero-padded sequences that
`model.interest_aggregation` computes on packed records; `unfused_affine`
and `unfused_attention` are the op compositions that `autodiff.affine` and
`autodiff.attention` fuse. `total_sum` reduces a tensor to the scalar loss
that `backward` and `gradient_check` need.
"""

import itertools
from typing import Callable, Mapping

import numpy as np

from posrank.autodiff import Tensor, backward, bmm, gather_rows, matmul, relu, reshape, softmax, transpose
from posrank.errors import NumericError, UndefinedMetricError, UsageError
from posrank.model import ParameterSet
from posrank.serving import Allocation, _check_instance


def auc_oracle(scores, labels) -> float:
    """Explicit O(n^2) pair counting; the independent verifier for `auc`."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise UndefinedMetricError("auc undefined: only one class present")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def total_sum(a: Tensor) -> Tensor:
    """The sum of every entry of `a` as a scalar tensor: a product with a column of ones."""
    n = a.data.size
    return reshape(matmul(reshape(a, (1, n)), Tensor(np.ones((n, 1)))), ())


def unfused_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as two nodes, `matmul` then `add`: what `autodiff.affine` fuses."""
    return matmul(x, w) + b


def unfused_attention(q: Tensor, k: Tensor, v: Tensor, batch: int, heads: int) -> Tensor:
    """Multi-head attention op by op: what `autodiff.attention` fuses.

    Each [batch·K, d_model] projection is split into [batch·H, K, dk] heads
    (keys as [batch·H, dk, K]); the scores `bmm(q, k)` are scaled by 1/√dk,
    pass a `softmax`, pool the values with a second `bmm`, and the heads are
    merged back side by side.
    """
    rows, dm = q.shape
    n, dk = rows // batch, dm // heads

    def split(proj: Tensor, axes: tuple[int, ...]) -> Tensor:
        parts = transpose(reshape(proj, (batch, n, heads, dk)), axes)
        return reshape(parts, (batch * heads,) + parts.shape[2:])

    scores = bmm(split(q, (0, 2, 1, 3)), split(k, (0, 2, 3, 1))) * (1.0 / np.sqrt(dk))
    attended = bmm(softmax(scores), split(v, (0, 2, 1, 3)))
    return reshape(transpose(reshape(attended, (batch, heads, n, dk)), (0, 2, 1, 3)), (rows, dm))


def gradient_check(
    build_loss: Callable[[Mapping[str, Tensor]], Tensor],
    params: Mapping[str, Tensor],
    epsilon: float = 1e-6,
    max_coords_per_tensor: int = 64,
    seed: int = 0,
    coords: Mapping[str, np.ndarray] | None = None,
) -> float:
    """Compare analytic gradients against central finite differences.

    Returns the max over sampled coordinates of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    At most `max_coords_per_tensor` coordinates are probed per tensor to
    bound runtime, except that `coords` may name a tensor's flat
    coordinates to probe in place of a sample.
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
        if coords is not None and name in coords:
            probes = coords[name]
        elif n <= max_coords_per_tensor:
            probes = np.arange(n)
        else:
            probes = rng.choice(n, size=max_coords_per_tensor, replace=False)
        for idx in probes:
            keep = flat[idx]
            flat[idx] = keep + epsilon
            f_plus = float(build_loss(params).data.reshape(()))
            flat[idx] = keep - epsilon
            f_minus = float(build_loss(params).data.reshape(()))
            flat[idx] = keep
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"gradient_check: non-finite loss while perturbing {name!r}")
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            a = float(analytic.reshape(-1)[idx])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst


def exhaustive_allocate(matrix: np.ndarray, bids: np.ndarray) -> Allocation:
    """True maximizer of the summed expected value over injective assignments.

    Guarded to min(J, K) <= 8 slots; intended as a correctness oracle.
    """
    matrix, bids = _check_instance(matrix, bids)
    n_items, n_pos = matrix.shape
    n_slots = min(n_items, n_pos)
    if n_slots > 8:
        raise UsageError(f"exhaustive_allocate is limited to 8 slots, got {n_slots}")
    ecpm = matrix * bids[:, None]
    best_value = -np.inf
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n_items), n_slots):
        value = sum(ecpm[cand, pos] for pos, cand in enumerate(perm))
        if value > best_value:
            best_value = value
            best_perm = perm
    assert best_perm is not None
    slots = [(pos + 1, cand) for pos, cand in enumerate(best_perm)]
    return Allocation(slots=slots, total_value=float(best_value))


def dense_interest_aggregation(params: ParameterSet, seq_embeddings: Tensor, mask: np.ndarray, query: Tensor) -> Tensor:
    """Attention pooling over padded sequences, every slot scored: the definitional path.

    seq_embeddings [N, L, D] with mask [N, L] (1 = real record), query
    [N*M, Q] with rows n*M .. n*M+M-1 querying sequence n -> [N*M, D]. Every
    slot, padding too, is projected and scored through the unfused hidden
    layer relu(records + queries) @ `att.score.w`; padding logits then get
    -1e9, and a 0/1 factor zeroes the pooled rows of all-padding sequences.
    """
    n, seq_len, dim = seq_embeddings.shape
    m = query.shape[0] // n
    wa = params.tensors["att.hidden.w"]
    records = matmul(reshape(seq_embeddings, (n * seq_len, dim)), gather_rows(wa, np.arange(dim)))
    queries = matmul(query, gather_rows(wa, np.arange(dim, wa.shape[0]))) + params.tensors["att.hidden.b"]
    h = records.shape[1]
    hidden = relu(reshape(records, (n, 1, seq_len, h)) + reshape(queries, (n, m, 1, h)))
    scores = matmul(reshape(hidden, (n * m * seq_len, h)), params.tensors["att.score.w"]) + params.tensors["att.score.b"]
    logits = reshape(scores, (n, m, seq_len)) + Tensor((1.0 - mask)[:, None, :] * -1e9)
    has_any = (mask.sum(axis=1) > 0).astype(np.float64)[:, None, None]
    return reshape(bmm(softmax(logits), seq_embeddings) * Tensor(has_any), (n * m, dim))
