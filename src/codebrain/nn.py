"""Shared trainable layers built on the autodiff tensor.

Every layer and model is a `Module`: its state is its attributes, and the
base class derives the flat parameter and buffer maps, the state dict and
the one checked state loader from that tree. Flat names join the path with
slashes, e.g. `encoder/layer0/attn/q/w`.
"""

from __future__ import annotations

import numpy as np

from .numerics import Tensor, attention, layer_norm, linear

__all__ = [
    "Module",
    "Linear",
    "LayerNorm",
    "BatchNorm1d",
    "SelfAttention",
    "TransformerLayer",
    "TransformerEncoder",
    "prefix_params",
]


def prefix_params(prefix: str, items: dict[str, Tensor]) -> dict[str, Tensor]:
    return {f"{prefix}/{k}": v for k, v in items.items()}


class Module:
    """A layer or model whose state is the tree `children()` returns.

    `children()` maps names, in order, to trainable Tensors, buffers (numpy
    arrays of running state that are saved but not trained) and child
    Modules. By default it reads the attributes in first-assignment order:
    a Tensor is a parameter, an array a buffer, a Module a child, and a
    list `xs` holds child Modules named `x0, x1, ...`; other values (sizes,
    rates, configs) are not state. It is read at every call, so a layer may
    replace its arrays between calls. The order of `named_params()` is the
    tree's order; the optimizer and gradient clipping iterate in it.
    `pretrain.AdamW` overrides `children()` to name its step count and
    moments as buffers, so they load through the same checked
    `load_state_dict`.
    """

    def children(self) -> dict[str, Tensor | np.ndarray | Module]:
        out = {}
        for name, value in vars(self).items():
            if isinstance(value, (Tensor, np.ndarray, Module)):
                out[name] = value
            elif isinstance(value, list):
                out.update((f"{name[:-1]}{i}", item) for i, item in enumerate(value))
        return out

    def _leaves(self) -> dict[str, Tensor | np.ndarray]:
        out = {}
        for name, child in self.children().items():
            if isinstance(child, Module):
                out.update(prefix_params(name, child._leaves()))
            else:
                out[name] = child
        return out

    def named_params(self) -> dict[str, Tensor]:
        return {k: v for k, v in self._leaves().items() if isinstance(v, Tensor)}

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {k: v for k, v in self._leaves().items() if not isinstance(v, Tensor)}

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameter arrays, then copies of the buffers.

        The parameters are not copied: the optimizer replaces a parameter's
        array rather than writing into it, so a held state dict stays a
        snapshot. Buffers can change in place (code usage counts)."""
        out = {k: v.data for k, v in self.named_params().items()}
        out.update({k: v.copy() for k, v in self.named_buffers().items()})
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy `state` into every parameter and buffer, keeping dtypes.

        Every name is checked before anything changes: a missing name raises
        KeyError and a shape that differs raises ValueError. Extra names in
        `state` (a checkpoint holds the model's and the optimizer's) are
        ignored. Buffers are written in place.
        """
        params, buffers = self.named_params(), self.named_buffers()
        current = {**{k: v.data for k, v in params.items()}, **buffers}
        for k, arr in current.items():
            if k not in state:
                raise KeyError(f"missing {k!r} in state")
            if state[k].shape != arr.shape:
                raise ValueError(f"shape mismatch for {k!r}: {state[k].shape} vs {arr.shape}")
        for k, t in params.items():
            t.data = state[k].astype(t.data.dtype)
        for k, buf in buffers.items():
            buf[...] = state[k]


class Linear(Module):
    """Affine map on the last axis; weights (in, out) and a bias."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, w_std: float | None = None):
        std = (1.0 / np.sqrt(d_in)) if w_std is None else w_std
        self.w = Tensor(rng.normal(0.0, std, size=(d_in, d_out)).astype(np.float32), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class BatchNorm1d(Module):
    """Batch normalization over (B, C, L): stats per channel.

    Training mode normalizes by the batch statistics through the one-node
    `layer_norm`, reduced over the batch and sequence axes, and updates the
    running estimates from the same float32 mean and biased variance,
    computed off the tape; eval mode uses the stored running estimates.
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
        g = self.gamma.reshape(1, -1, 1)
        b = self.beta.reshape(1, -1, 1)
        if train:
            xd = x.data
            mu = xd.mean(axis=(0, 2), keepdims=True, dtype=np.float64).astype(xd.dtype)
            c = xd - mu
            var = (c * c).mean(axis=(0, 2), dtype=np.float64).astype(xd.dtype)
            m = self.MOMENTUM
            self.running_mean = ((1 - m) * self.running_mean + m * mu.reshape(-1)).astype(np.float32)
            self.running_var = ((1 - m) * self.running_var + m * var).astype(np.float32)
            return layer_norm(x, g, b, self.EPS, axis=(0, 2))
        # the running statistics need no gradient, so the denominator is a plain array
        den = (self.running_var.reshape(1, -1, 1) + self.EPS) ** 0.5
        return (x - self.running_mean.reshape(1, -1, 1)) / den * g + b


class SelfAttention(Module):
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


class TransformerLayer(Module):
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


class TransformerEncoder(Module):
    def __init__(self, dim: int, layers: int, heads: int, mlp_dim: int, rng: np.random.Generator):
        self.layers = [TransformerLayer(dim, heads, mlp_dim, rng) for _ in range(layers)]
        self.ln = LayerNorm(dim)

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return self.ln(x)
