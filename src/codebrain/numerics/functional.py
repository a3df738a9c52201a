"""Dropout and the finite-difference gradient checker, built on tensor primitives."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor, _dropout_mask, backward

__all__ = [
    "dropout",
    "finite_diff_check",
]


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout: zero with probability p, rescale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    return x * _dropout_mask(x.shape, p, rng, x.dtype)


def finite_diff_check(
    fn: Callable[[Tensor], Tensor], point, eps: float = 1e-3, scale_relative: bool = False
) -> float:
    """Max relative disagreement between reverse-mode and central differences.

    `fn` must be a pure scalar-valued function of one tensor. The point is
    promoted to float64 before either evaluation so the comparison is made
    at full precision; relative error is |a - n| / (|a| + |n| + 1e-8) taken
    coordinate-wise.

    With `scale_relative` the denominator is instead the largest gradient
    magnitude across all coordinates. Use this for deep composites, where
    coordinates with near-zero gradients otherwise amplify the O(eps^2)
    truncation error of the central difference into a large quotient.
    """
    base = np.array(point.data if isinstance(point, Tensor) else point, dtype=np.float64)
    probe = Tensor(base.copy(), requires_grad=True, dtype=np.float64)
    out = fn(probe)
    if out.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued function")
    backward(out)
    if probe.grad is None:
        raise ValueError("function output does not depend on the probe point")
    analytic = probe.grad.reshape(-1).astype(np.float64)

    flat = base.reshape(-1)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        hi = float(fn(Tensor(base.copy(), dtype=np.float64)).data.reshape(()))
        flat[i] = saved - eps
        lo = float(fn(Tensor(base.copy(), dtype=np.float64)).data.reshape(()))
        flat[i] = saved
        numeric[i] = (hi - lo) / (2.0 * eps)

    if scale_relative:
        denom = np.abs(analytic).max() + np.abs(numeric).max() + 1e-12
        return float(np.abs(analytic - numeric).max() / denom)
    rel = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-8)
    return float(rel.max())
