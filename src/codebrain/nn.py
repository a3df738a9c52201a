"""Shared trainable layers built on the autodiff tensor.

Every layer exposes `named_params()` (trainable tensors) and, where relevant,
`named_buffers()` (non-trainable running state). Names are slash-separated so
owners can prefix them into a flat state dict.
"""

from __future__ import annotations

import numpy as np

from .numerics import Tensor, attention, layer_norm, linear

__all__ = [
    "Linear",
    "LayerNorm",
    "BatchNorm1d",
    "SelfAttention",
    "TransformerLayer",
    "TransformerEncoder",
    "load_params",
    "prefix_params",
]


def prefix_params(prefix: str, items: dict[str, Tensor]) -> dict[str, Tensor]:
    return {f"{prefix}/{k}": v for k, v in items.items()}


def load_params(params: dict[str, Tensor], state: dict[str, np.ndarray]) -> None:
    """Copy `state[name]` into each named parameter, keeping its dtype.

    Every name is checked before any parameter changes: a missing name
    raises KeyError and a shape that differs raises ValueError. Extra names
    in `state` (buffers, optimizer moments) are ignored.
    """
    for k, t in params.items():
        if k not in state:
            raise KeyError(f"missing parameter {k!r} in state")
        if state[k].shape != t.data.shape:
            raise ValueError(f"shape mismatch for {k!r}: {state[k].shape} vs {t.data.shape}")
    for k, t in params.items():
        t.data = state[k].astype(t.data.dtype).copy()


class Linear:
    """Affine map on the last axis; weights (in, out) and a bias."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, w_std: float | None = None):
        std = (1.0 / np.sqrt(d_in)) if w_std is None else w_std
        self.w = Tensor(rng.normal(0.0, std, size=(d_in, d_out)).astype(np.float32), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)

    def named_params(self) -> dict[str, Tensor]:
        return {"w": self.w, "b": self.b}


class LayerNorm:
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)

    def named_params(self) -> dict[str, Tensor]:
        return {"gamma": self.gamma, "beta": self.beta}


class BatchNorm1d:
    """Batch normalization over (B, C, L): stats per channel.

    Training mode normalizes by batch statistics and updates the running
    estimates; eval mode uses the stored running estimates.
    """

    MOMENTUM = 0.1
    EPS = 1e-5

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        if x.ndim != 3:
            raise ValueError(f"BatchNorm1d expects (B, C, L), got {x.shape}")
        if train:
            mu = x.mean(axis=(0, 2), keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=(0, 2), keepdims=True)
            m = self.MOMENTUM
            self.running_mean = ((1 - m) * self.running_mean + m * mu.data.reshape(-1)).astype(np.float32)
            self.running_var = ((1 - m) * self.running_var + m * var.data.reshape(-1)).astype(np.float32)
            xn = centered / (var + self.EPS) ** 0.5
        else:
            mu = Tensor(self.running_mean.reshape(1, -1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1))
            xn = (x - mu) / (var + self.EPS) ** 0.5
        g = self.gamma.reshape(1, -1, 1)
        b = self.beta.reshape(1, -1, 1)
        return xn * g + b

    def named_params(self) -> dict[str, Tensor]:
        return {"gamma": self.gamma, "beta": self.beta}

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def load_buffers(self, bufs: dict[str, np.ndarray]) -> None:
        self.running_mean = bufs["running_mean"].astype(np.float32).copy()
        self.running_var = bufs["running_var"].astype(np.float32).copy()


class SelfAttention:
    """Multi-head scaled dot-product self-attention over (B, S, H)."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.q = Linear(dim, dim, rng)
        self.k = Linear(dim, dim, rng)
        self.v = Linear(dim, dim, rng)
        self.o = Linear(dim, dim, rng)

    def _split(self, t: Tensor, b: int, s: int) -> Tensor:
        hd = self.dim // self.heads
        return t.reshape(b, s, self.heads, hd).transpose(0, 2, 1, 3)

    def __call__(self, x: Tensor) -> Tensor:
        b, s, _ = x.shape
        hd = self.dim // self.heads
        q = self._split(self.q(x), b, s)
        k = self._split(self.k(x), b, s)
        v = self._split(self.v(x), b, s)
        out = attention(q, k, v, 1.0 / np.sqrt(hd))
        out = out.transpose(0, 2, 1, 3).reshape(b, s, self.dim)
        return self.o(out)

    def named_params(self) -> dict[str, Tensor]:
        out = {}
        for name, lin in (("q", self.q), ("k", self.k), ("v", self.v), ("o", self.o)):
            out.update(prefix_params(name, lin.named_params()))
        return out


class TransformerLayer:
    """Pre-norm block: x + attn(ln(x)); x + mlp(ln(x))."""

    def __init__(self, dim: int, heads: int, mlp_dim: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(dim)
        self.attn = SelfAttention(dim, heads, rng)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, mlp_dim, rng)
        self.fc2 = Linear(mlp_dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.fc2(self.fc1(self.ln2(x)).relu())

    def named_params(self) -> dict[str, Tensor]:
        out = {}
        out.update(prefix_params("ln1", self.ln1.named_params()))
        out.update(prefix_params("attn", self.attn.named_params()))
        out.update(prefix_params("ln2", self.ln2.named_params()))
        out.update(prefix_params("fc1", self.fc1.named_params()))
        out.update(prefix_params("fc2", self.fc2.named_params()))
        return out


class TransformerEncoder:
    def __init__(self, dim: int, layers: int, heads: int, mlp_dim: int, rng: np.random.Generator):
        self.layers = [TransformerLayer(dim, heads, mlp_dim, rng) for _ in range(layers)]
        self.ln = LayerNorm(dim)

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return self.ln(x)

    def named_params(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(prefix_params(f"layer{i}", layer.named_params()))
        out.update(prefix_params("ln", self.ln.named_params()))
        return out
