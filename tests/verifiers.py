"""Independent verifiers the tests compare the package against.

`auc_oracle` counts AUC pairs explicitly; `gradient_check` compares the
tape's gradients with central finite differences.
"""

from typing import Callable, Mapping

import numpy as np

from posrank.autodiff import Tensor, backward
from posrank.errors import NumericError, UndefinedMetricError, UsageError


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
