"""Reverse-mode automatic differentiation over numpy arrays.

A `Tensor` wraps an ndarray plus an optional gradient buffer. Each recorded
operation is a `_Node` apart from the Tensor it produced: the node holds the
closure that maps the output gradient to parent gradients, its parents'
gradient slots (their nodes, or leaf Tensors), its own gradient and a weak
reference to its Tensor. So the tape holds no Tensor's values for it: an
intermediate the caller does not hold is freed once its last forward
consumer has run, unless an adjoint reads its values, and every closure
keeps only the arrays whose values it reads (shapes, dtypes and
requires-grad flags it keeps as plain values). Calling `backward` on a
scalar walks the recorded nodes once in reverse topological order and
accumulates into `.grad`. The walk consumes the tape as it goes: each node
drops its closure and its parents once its gradient has been passed on, so
what an adjoint kept is freed as soon as the walk has passed it, and a
second `backward` through the same graph raises instead of silently reusing
stale closures.

Storage is float32 by default; float64 inputs stay float64 end to end, which
is what the finite-difference checker relies on. Reductions (`sum`, `mean`)
and the transform primitives always accumulate in 64-bit before casting back.
A gradient has its tensor's dtype: in a graph of one dtype every adjoint
returns gradients of that dtype (a mean divides by its count as a Python
int), so a float32 model runs its whole backward in float32. Where dtypes
mix, `backward` casts the first gradient a node or leaf gets to its dtype
and adds later ones as they come.

Only the primitives this package needs are implemented. Convolution,
spectral convolution, dense and windowed attention and the layers every
model repeats (the affine map `linear`, `layer_norm` and `rms_norm`) are
single tape nodes rather than compositions: they dominate runtime and
memory. Each fused op evaluates, forward and backward, the array
expressions of the primitive chain it replaces, in the chain's order and
with the dtype cast each inner node's first gradient gets, so it matches
the chain bit for bit. Dense attention whose weights pass a fixed budget
keeps only each softmax row's max and sum, and its adjoint recomputes the
weights chunk by chunk with the same expressions.
"""

from __future__ import annotations

import contextlib
import math
import weakref
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import fourier

__all__ = [
    "Tensor",
    "MissingGradientError",
    "backward",
    "no_grad",
    "concat",
    "stack",
    "take_rows",
    "softmax",
    "attention",
    "window_attention",
    "linear",
    "layer_norm",
    "rms_norm",
    "cross_entropy",
    "conv1d",
    "fft_convolve",
    "repeat_last",
    "pad_axis",
]


class MissingGradientError(RuntimeError):
    """Raised when backward is asked to differentiate a detached graph."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Context that disables graph recording; outputs come back detached."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data, dtype=None) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if dtype is not None:
            return data.astype(dtype, copy=False)
        if data.dtype in (np.float32, np.float64):
            return data
        return data.astype(np.float32)
    arr = np.asarray(data, dtype=np.float64 if dtype is None else dtype)
    if dtype is None:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """An ndarray with an optional gradient and, when an operation that
    needs a gradient produced it, the tape node that records that operation."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    # ---- basic introspection -------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return _add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _sub(self, _wrap(other))

    def __rsub__(self, other):
        return _sub(_wrap(other), self)

    def __mul__(self, other):
        return _mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _div(self, _wrap(other))

    def __rtruediv__(self, other):
        return _div(_wrap(other), self)

    def __neg__(self):
        return _from_op(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        d = self.data
        out = d**p

        def vjp(g):
            return (g * p * d ** (p - 1),)

        return _from_op(out, (self,), vjp)

    def __matmul__(self, other):
        return _matmul(self, _wrap(other))

    def __getitem__(self, key):
        d = self.data
        out = d[key]
        shape = d.shape
        # an integer array or list can pick an element twice, and `+=` would
        # keep only one of its gradients; basic keys and masks write disjointly
        parts = key if isinstance(key, tuple) else (key,)
        repeats = any(isinstance(k, list) or (isinstance(k, np.ndarray) and k.dtype != bool) for k in parts)

        def vjp(g):
            buf = np.zeros(shape, dtype=g.dtype)
            if repeats:
                np.add.at(buf, key, g)
            else:
                buf[key] += g
            return (buf,)

        return _from_op(out, (self,), vjp)

    # ---- pointwise functions -------------------------------------------

    def exp(self):
        out = np.exp(self.data)
        return _from_op(out, (self,), lambda g: (g * out,))

    def log(self):
        d = self.data
        return _from_op(np.log(d), (self,), lambda g: (g / d,))

    def sqrt(self):
        out = np.sqrt(self.data)
        return _from_op(out, (self,), lambda g: (g / (2.0 * out),))

    def tanh(self):
        out = np.tanh(self.data)
        return _from_op(out, (self,), lambda g: (g * (1.0 - out * out),))

    def sigmoid(self):
        d = self.data
        # evaluate the numerically safe branch on each side of zero
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(d)
            out = np.where(d >= 0, 1.0 / (1.0 + np.exp(-d)), e / (1.0 + e)).astype(d.dtype)
        return _from_op(out, (self,), lambda g: (g * out * (1.0 - out),))

    def relu(self):
        out = np.maximum(self.data, 0.0)  # positive exactly where the input is
        return _from_op(out, (self,), lambda g: (g * (out > 0),))

    def elu(self, alpha: float = 1.0):
        if alpha < 0:  # the adjoint reads the input's sign from the output
            raise ValueError(f"elu needs a non-negative alpha, got {alpha}")
        d = self.data
        neg = alpha * np.expm1(np.minimum(d, 0.0))
        out = np.where(d > 0, d, neg).astype(d.dtype)

        def vjp(g):
            # out > 0 exactly where d > 0, and out equals neg elsewhere
            return (g * np.where(out > 0, 1.0, out + alpha),)

        return _from_op(out, (self,), vjp)

    def abs(self):
        d = self.data
        return _from_op(np.abs(d), (self,), lambda g: (g * np.sign(d),))

    # ---- reductions (64-bit accumulation) --------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        d = self.data
        out = d.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(d.dtype)
        shape = d.shape

        def vjp(g):
            return (_spread(g, shape, axis, keepdims),)

        return _from_op(out, (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False):
        d = self.data
        out = d.mean(axis=axis, keepdims=keepdims, dtype=np.float64).astype(d.dtype)
        count = math.prod([d.shape[a] for a in _axes(axis, d.ndim)])
        shape = d.shape

        def vjp(g):
            return (_spread(g, shape, axis, keepdims) / count,)

        return _from_op(out, (self,), vjp)

    # ---- shape ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        before = self.data.shape
        return _from_op(self.data.reshape(shape), (self,), lambda g: (g.reshape(before),))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self.data.transpose(axes)  # checks the axes
        inv = [0] * len(axes)
        for i, a in enumerate(axes):
            inv[a] = i
        return _from_op(out, (self,), lambda g: (g.transpose(inv),))


# ---- graph plumbing ------------------------------------------------------


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    """One recorded operation.

    `parents` holds one gradient slot per operand, in the operand order the
    closure returns gradients in: the operand's node when an operation
    produced it, the operand itself when it is a leaf that needs a
    gradient, and None when it needs none. `out` is a weak reference to the
    Tensor the operation produced, which `backward` hands its gradient when
    the caller still holds it. A consumed node has no `vjp`.
    """

    __slots__ = ("vjp", "parents", "grad", "dtype", "out")

    def __init__(self, vjp: Callable[[np.ndarray], tuple], parents: tuple, dtype, out: Tensor):
        self.vjp: Callable[[np.ndarray], tuple] | None = vjp
        self.parents = parents
        self.grad: np.ndarray | None = None
        self.dtype = dtype
        self.out = weakref.ref(out)


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._node = None
    out.requires_grad = False
    if _grad_enabled:
        slots = tuple([p._node or (p if p.requires_grad else None) for p in parents])
        if slots.count(None) < len(slots):
            out.requires_grad = True
            out._node = _Node(vjp, slots, data.dtype, out)
    return out


def _axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def _spread(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction gradient back over the reduced axes."""
    if axis is not None and not keepdims:
        for a in sorted(_axes(axis, len(shape))):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape).copy()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` (the adjoint of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbroadcast(g, sa) if ra else None, _unbroadcast(g, sb) if rb else None)

    return _from_op(out, (a, b), vjp)


def _sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbroadcast(g, sa) if ra else None, _unbroadcast(-g, sb) if rb else None)

    return _from_op(out, (a, b), vjp)


# `_mul` and `_matmul` keep each factor only for the other factor's adjoint,
# and `_div` its numerator only for the denominator's


def _mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    sa, sb = a.shape, b.shape
    fa = a.data if b.requires_grad else None
    fb = b.data if a.requires_grad else None

    def vjp(g):
        return (
            _unbroadcast(g * fb, sa) if fb is not None else None,
            _unbroadcast(g * fa, sb) if fa is not None else None,
        )

    return _from_op(out, (a, b), vjp)


def _div(a: Tensor, b: Tensor) -> Tensor:
    db = b.data
    out = a.data / db
    sa, ra = a.shape, a.requires_grad
    num = a.data if b.requires_grad else None

    def vjp(g):
        ga = _unbroadcast(g / db, sa) if ra else None
        gb = _unbroadcast(-g * num / (db * db), db.shape) if num is not None else None
        return (ga, gb)

    return _from_op(out, (a, b), vjp)


def _matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D; reshape vectors first")
    out = a.data @ b.data
    sa, sb = a.shape, b.shape
    fa = a.data if b.requires_grad else None
    fb = b.data if a.requires_grad else None

    def vjp(g):
        ga = _unbroadcast(g @ fb.swapaxes(-1, -2), sa) if fb is not None else None
        gb = _unbroadcast(fa.swapaxes(-1, -2) @ g, sb) if fa is not None else None
        return (ga, gb)

    return _from_op(out, (a, b), vjp)


# ---- structural ops -------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _from_op(out, tuple(tensors), vjp)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ValueError("stack needs at least one tensor")
    out = np.stack([t.data for t in tensors], axis=axis)
    n = len(tensors)

    def vjp(g):
        parts = np.split(g, n, axis=axis)
        return tuple(p.squeeze(axis=axis) for p in parts)

    return _from_op(out, tuple(tensors), vjp)


def take_rows(table: Tensor, idx) -> Tensor:
    """Row gather `table[idx]`; the adjoint scatter-adds duplicate rows."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError("row index out of range")
    out = table.data[idx]
    shape = table.shape

    def vjp(g):
        buf = np.zeros(shape, dtype=g.dtype)
        np.add.at(buf, idx, g)
        return (buf,)

    return _from_op(out, (table,), vjp)


def _zero_pad(d: np.ndarray, axis: int, before: int, after: int) -> tuple[np.ndarray, tuple]:
    """`d` with `before` and `after` zeros along `axis`, in a new C-ordered
    array, and the index of `d` inside it."""
    axis %= d.ndim
    shape = list(d.shape)
    shape[axis] += before + after
    out = np.zeros(shape, dtype=d.dtype)
    inner = (slice(None),) * axis + (slice(before, before + d.shape[axis]),)
    out[inner] = d
    return out, inner


def pad_axis(t: Tensor, axis: int, before: int, after: int) -> Tensor:
    if before < 0 or after < 0:
        raise ValueError("padding must be non-negative")
    out, inner = _zero_pad(t.data, axis, before, after)
    return _from_op(out, (t,), lambda g: (g[inner],))


def repeat_last(t: Tensor, counts) -> Tensor:
    """`np.repeat(t, counts, axis=-1)`: each column of the last axis repeated
    `counts` times, one int for every column or one count per column.

    The adjoint sums each run of columns that share a count over a
    (columns, count) view of its slice of the gradient, so a run rounds as
    a repeat by that count alone does; `np.add.reduceat` sums in another
    order and rounds differently."""
    counts = np.broadcast_to(np.asarray(counts), t.shape[-1:])
    if (counts < 1).any():
        raise ValueError("repeat counts must be >= 1")
    out = np.repeat(t.data, counts, axis=-1)
    starts = np.flatnonzero(np.diff(counts, prepend=0))  # the first column of each run
    widths, reps = np.diff(starts, append=counts.size), counts[starts]
    cuts = np.cumsum(widths * reps)[:-1]

    def vjp(g):
        runs = np.split(g, cuts, axis=-1)
        parts = [u.reshape(u.shape[:-1] + (w, r)).sum(axis=-1) for u, w, r in zip(runs, widths, reps)]
        return (np.concatenate(parts, axis=-1),)

    return _from_op(out, (t,), vjp)


# ---- fused numerical ops ---------------------------------------------------


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    d = t.data
    shifted = d - d.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = (e / e.sum(axis=axis, keepdims=True)).astype(d.dtype)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _from_op(s, (t,), vjp)


# Bytes of attention weights formed at once when they do not all fit: one
# float32 (S, S) slice at S = 1024.
_ATTENTION_CHUNK_BYTES = 4 << 20


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(q @ kᵀ * scale) @ v over (..., S, d) heads, as one tape node.

    Forward and adjoint evaluate the same array expressions, in the same
    order, as the chain matmul, scale, softmax, matmul, so outputs and
    gradients match it bit for bit. The scores and their gradients never
    reach the tape.

    When all (..., S, S) weights fit in `_ATTENTION_CHUNK_BYTES`, they are
    formed at once and kept for the adjoint. Otherwise they are formed in
    chunks of as many whole (S, S) slices as fit (at least one), one batch
    index and a run of heads at a time, and only each row's max and sum are
    kept: the adjoint recomputes a chunk's weights from them with the same
    expressions and frees them before the next chunk. That moves no bits.
    Each chunk's matmul is the per-slice BLAS call the batched matmul
    makes, every softmax reduction still runs over a whole row, and the key
    and value gradients still sum over every query inside one slice's
    matmul.
    """
    qd, kd, vd = q.data, k.data, v.data
    sc = _as_array(scale)  # the 0-d float32 array the chain multiplies by
    lead, sq, sk = qd.shape[:-2], qd.shape[-2], kd.shape[-2]
    pt = np.result_type(qd, kd)  # the weights' dtype
    slice_bytes = sq * sk * pt.itemsize
    keep = math.prod(lead) * slice_bytes <= _ATTENTION_CHUNK_BYTES
    if keep or not lead:
        chunks = [...]
    else:
        run = max(1, _ATTENTION_CHUNK_BYTES // slice_bytes)
        chunks = [i + (slice(h, h + run),) for i in np.ndindex(*lead[:-1]) for h in range(0, lead[-1], run)]

    def weights(c, stats=None):
        # the chain's scale and softmax; `stats` are the row max and sum
        p = qd[c] @ kd[c].swapaxes(-1, -2)
        p *= sc
        mx = p.max(axis=-1, keepdims=True) if stats is None else stats[0]
        p -= mx
        np.exp(p, out=p)
        total = p.sum(axis=-1, keepdims=True) if stats is None else stats[1]
        p /= total
        return p, (mx, total)

    # each chunk's results go straight into arrays laid out as the chain's
    out = np.empty(lead + (sq, vd.shape[-1]), np.result_type(pt, vd))

    def forward(c):
        p, stats = weights(c)
        np.matmul(p, vd[c], out=out[c])
        return p if keep else stats

    saved = [forward(c) for c in chunks]
    rq, rk, rv = q.requires_grad, k.requires_grad, v.requires_grad

    def vjp(g):
        gq = gkt = gv = None  # gkt: the key gradient as formed, (..., d, S)
        gs_type = np.result_type(g, vd)
        if rv:
            gv = np.empty(vd.shape, np.result_type(pt, g))
        if rq:
            gq = np.empty(qd.shape, np.result_type(gs_type, kd))
        if rk:
            gkt = np.empty(kd.swapaxes(-1, -2).shape, np.result_type(qd, gs_type))

        def adjoint(c, p):
            if gv is not None:
                np.matmul(p.swapaxes(-1, -2), g[c], out=gv[c])
            if gq is not None or gkt is not None:
                gs = g[c] @ vd[c].swapaxes(-1, -2)  # softmax and scale adjoints, in place
                gs -= (gs * p).sum(axis=-1, keepdims=True)
                gs *= p
                gs *= sc
                if gq is not None:
                    np.matmul(gs, kd[c], out=gq[c])
                if gkt is not None:
                    np.matmul(qd[c].swapaxes(-1, -2), gs, out=gkt[c])

        for c, kept in zip(chunks, saved):
            adjoint(c, kept if keep else weights(c, kept)[0])
        return (gq, None if gkt is None else gkt.swapaxes(-1, -2), gv)

    return _from_op(out, (q, k, v), vjp)


def _dropout_mask(shape, p: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability p, 1/(1-p) elsewhere."""
    return (rng.random(shape) >= p).astype(dtype) / (1.0 - p)


def window_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    half: int,
    p_drop: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Attention over (B, S, F) where row i of `q` attends to rows
    i - half .. i + half of `k` and `v`, as one tape node. `q` comes scaled.

    Keys and values are read through a (B, S, W, F) window view of the
    sequence padded with `half` zero rows at each end, W = 2 * half + 1, so
    scores and the weighted sum are two batched matmuls over the W offsets.
    Offsets outside the sequence get an additive -1e9 before the softmax,
    which underflows to an exact zero weight. With `p_drop` > 0 the weights
    go through inverted dropout.

    Forward and adjoint evaluate the array expressions of the chain band,
    matmul, bias add, softmax, dropout, matmul, in its order, so outputs and
    gradients match it bit for bit. The key and value gradients are formed
    offset by offset in padded buffers, the same products summed in the same
    order as the band adjoint's overlap-add, so no (B, S, W, F) gradient is
    built. The parents are ordered (k, q, v): so `backward` walks the maps
    that produce them in the chain's order, and an input they share (a
    block's normed sequence) adds up its three parts as through the chain.
    """
    if not 0.0 <= p_drop < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p_drop}")
    qd, kd, vd = q.data, k.data, v.data
    b, s, f = qd.shape
    w = 2 * half + 1
    keys, values = (
        np.lib.stride_tricks.sliding_window_view(_zero_pad(d, 1, half, half)[0], w, axis=1).swapaxes(-1, -2)
        for d in (kd, vd)
    )
    pos = np.arange(s)[:, None] + np.arange(-half, half + 1)
    bias = np.where((0 <= pos) & (pos < s), 0.0, -1e9).astype(np.float32)
    z = (keys @ qd.reshape(b, s, f, 1)).reshape(b, s, w) + bias
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = (e / e.sum(axis=-1, keepdims=True)).astype(z.dtype)
    mask = _dropout_mask(p.shape, p_drop, rng, p.dtype) if p_drop > 0 else None
    pd = p if mask is None else p * mask
    out = (pd.reshape(b, s, 1, w) @ values).reshape(b, s, f)
    rq, rk, rv = q.requires_grad, k.requires_grad, v.requires_grad
    out_type, k_type, v_type = out.dtype, kd.dtype, vd.dtype

    def overlap_add(weights, rows, dtype):
        # row i: weights[:, i + half - j, j] * rows[:, i + half - j], j = 0 .. W-1 in order
        buf = np.zeros((b, s + 2 * half, f), dtype=dtype)
        for j in range(w):
            buf[:, j : j + s] += weights[:, :, j, None] * rows
        return buf[:, half : half + s]

    def vjp(g):
        gk = gq = gv = None
        g = np.asarray(g, dtype=out_type)
        if rv:
            gv = overlap_add(pd, g, v_type)
        if rq or rk:
            gp = (g.reshape(b, s, 1, f) @ values.swapaxes(-1, -2)).reshape(b, s, w)
            if mask is not None:
                gp = gp * mask
            gz = p * (gp - (gp * p).sum(axis=-1, keepdims=True))  # softmax adjoint
            if rq:
                gq = (keys.swapaxes(-1, -2) @ gz.reshape(b, s, w, 1)).reshape(b, s, f)
            if rk:
                gk = overlap_add(gz, qd, k_type)
        return (gk, gq, gv)

    return _from_op(out, (k, q, v), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` over the last axis of `x`, as one tape node.

    The chain is reshape to 2-D, matmul, add, reshape back. Its add takes
    the incoming gradient as is for a 2-D `x`, and cast to the sum's dtype
    after the reshape otherwise; the matmul adjoints read it cast to the
    product's dtype.
    """
    xd, wd = x.data, w.data
    d_out = wd.shape[1]
    flat = xd if xd.ndim == 2 else xd.reshape(-1, wd.shape[0])
    mm_dtype = np.result_type(flat, wd)
    out = flat @ wd + b.data
    out_type = out.dtype
    if xd.ndim != 2:
        out = out.reshape(xd.shape[:-1] + (d_out,))
    nd, x_shape, x_type, b_shape, rb = xd.ndim, xd.shape, xd.dtype, b.shape, b.requires_grad
    fx = flat if w.requires_grad else None  # the input, for the weight's adjoint only
    fw = wd if x.requires_grad else None

    def vjp(g):
        gx = gw = gb = None
        if nd != 2:
            g = np.asarray(g.reshape(-1, d_out), dtype=out_type)
        if rb:
            gb = _unbroadcast(g, b_shape)
        if fx is not None or fw is not None:
            g = np.asarray(g, dtype=mm_dtype)
            if fw is not None:
                gx = g @ fw.swapaxes(-1, -2)
                if nd != 2:
                    gx = np.asarray(gx, dtype=x_type).reshape(x_shape)
            if fx is not None:
                gw = fx.swapaxes(-1, -2) @ g
        return (gx, gw, gb)

    return _from_op(out, (x, w, b), vjp)


def _mean64(a: np.ndarray, axis, count) -> np.ndarray:
    """`a.mean(axis, keepdims=True, dtype=np.float64)` given the count of the
    reduced elements: the sum and in-place division that method runs."""
    m = np.add.reduce(a, axis=axis, dtype=np.float64, keepdims=True)
    m /= count
    return m


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5, axis=-1) -> Tensor:
    """Normalize `x` to zero mean and unit variance over `axis` (an int or a
    tuple; the last axis by default), then scale by `gamma` and shift by
    `beta`, as one tape node. `LayerNorm` reduces over the features;
    `BatchNorm1d` passes `axis=(0, 2)` and (1, C, 1) views of its parameters,
    so it normalizes each channel over the batch and the sequence.

    The chain is `c = x - x.mean(axis)`, then
    `c / ((c * c).mean(axis) + eps) ** 0.5 * gamma + beta`, and its mean
    adjoints keep the data's dtype. The parents are
    (x, x, gamma, beta): `x` gets two gradients, through the centring
    subtraction and then through the mean, and `backward` adds them in that
    order after any it already holds (a residual branch's), as for the chain.
    """
    xd, gd, bd = x.data, gamma.data, beta.data
    dt = xd.dtype
    axes = _axes(axis, xd.ndim)
    count = math.prod([xd.shape[a] for a in axes])
    mu = _mean64(xd, axes, count).astype(dt)
    c = xd - mu
    ve = _mean64(c * c, axes, count).astype(dt) + _as_array(eps)
    r = ve**0.5
    out = c / r * gd + bd
    x_shape, mu_shape, b_shape = xd.shape, mu.shape, bd.shape
    rx, rg, rb = x.requires_grad, gamma.requires_grad, beta.requires_grad

    def vjp(g):
        gc = gmu = ggamma = gbeta = None
        if rb:
            gbeta = _unbroadcast(g, b_shape)
        if rx or rg:
            gh = np.asarray(g, dtype=np.result_type(dt, gd))
            if rg:
                # recomputed, not kept; named so that numpy cannot reuse its
                # buffer for the product, which would change the product's
                # memory order, and so the order of the sum, from the chain's
                xn = c / r
                ggamma = _unbroadcast(gh * xn, gd.shape)
            if rx:
                gxn = np.asarray(gh * gd, dtype=dt)
                gr = _unbroadcast(-gxn * c / (r * r), r.shape)
                gve = gr * 0.5 * ve**-0.5
                gsq = _spread(gve, c.shape, axis, True) / count
                t = gsq * c  # both factors of c * c
                gc = gxn / r + t
                gc = gc + t
                gmu = _spread(_unbroadcast(-gc, mu_shape), x_shape, axis, True) / count
        return (gc, gmu, ggamma, gbeta)

    return _from_op(out, (x, x, gamma, beta), vjp)


def rms_norm(x: Tensor, scale: Tensor, eps: float = 1e-8) -> Tensor:
    """Scale `x` by the reciprocal root-mean-square of its last axis, and by
    `scale`, as one tape node.

    A zero vector maps to a zero vector; `eps` keeps the division defined.
    The chain is `x * scale / ((x * x).mean(-1) + eps) ** 0.5`, and the
    mean's adjoint divides by its count in the data's dtype. The parents
    are (x, scale, x, x): `x` gets three gradients, through `x * scale` and
    then through each factor of `x * x`, and `backward` adds them in that
    order after any it already holds (a residual branch's), as for the chain.
    """
    xd, sd = x.data, scale.data
    dt = xd.dtype
    count = xd.shape[-1]
    ms = _mean64(xd * xd, -1, count).astype(dt)
    mse = ms + _as_array(eps)
    den = mse**0.5
    out = xd * sd / den
    rx, rs = x.requires_grad, scale.requires_grad

    def vjp(g):
        gx = gs = t = None
        gnum = np.asarray(g / den, dtype=np.result_type(dt, sd))
        if rs:
            gs = _unbroadcast(gnum * xd, sd.shape)
        if rx:
            gx = gnum * sd
            num = xd * sd  # recomputed rather than kept from the forward pass
            gden = np.asarray(_unbroadcast(-g * num / (den * den), den.shape), dtype=dt)
            gsq = _spread(gden * 0.5 * mse**-0.5, xd.shape, -1, True) / count
            t = gsq * xd  # both factors of x * x
        return (gx, gs, t, t)

    return _from_op(out, (x, scale, x, x), vjp)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-row negative log-likelihood of integer targets.

    `logits` has shape (..., K) and `targets` shape (...); the result has
    shape (...). Computed from shifted logits in float64 so the uniform-logit
    value is exact to ~1e-7 even in float32 storage. The shifted logits are
    exponentiated and normalised in one float64 buffer, and the adjoint,
    which runs once, forms the gradient in the kept probabilities where the
    output gradient's dtype allows. Non-integer targets raise TypeError,
    unless there are none.
    """
    idx = np.asarray(targets)
    d = logits.data
    k = d.shape[-1]
    if idx.dtype.kind not in "iu":
        if idx.size:
            raise TypeError(f"cross_entropy targets must be integer class indices, got dtype {idx.dtype}")
        idx = idx.astype(np.intp)  # an empty list reads as float64
    if idx.shape != d.shape[:-1]:
        raise ValueError(f"targets shape {idx.shape} does not match logits {d.shape[:-1]}")
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ValueError(f"target index out of range for {k} classes")
    e = (d - d.max(axis=-1, keepdims=True)).astype(np.float64, copy=False)
    rows, flat_idx = np.arange(idx.size), idx.reshape(-1)
    picked = e.reshape(-1, k)[rows, flat_idx]
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    lse = np.log(total[..., 0])
    out = (lse - picked.reshape(lse.shape)).astype(d.dtype)
    prob = np.divide(e, total, out=e).astype(d.dtype, copy=False)
    shape = d.shape

    def vjp(g):
        nonlocal prob
        gr, prob = prob.reshape(-1, k), None  # written in place, so a second call fails
        gr[rows, flat_idx] -= 1.0
        gr, g = gr.reshape(shape), np.expand_dims(g, -1)
        return (np.multiply(gr, g, out=gr) if np.result_type(gr, g) == gr.dtype else gr * g,)

    return _from_op(out, (logits,), vjp)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of (B, Cin, L) with filters (Cout, Cin, k), with
    `pad` zeros at each end of L and a step of `stride`, as one tape node.

    The forward is one matmul, `(Cout, Cin·k) @ (Cin·k, B·L)`, over a
    C-ordered copy of the input's windows for every channel count. The
    filters' adjoint rebuilds that copy for `(Cin·k, B·L) @ (B·L, Cout)`
    rather than keep it on the tape, and the input's adjoint makes one
    `(Cin, Cout) @ (Cout, B·L)` per filter tap.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 3 or wd.ndim != 3:
        raise ValueError("conv1d expects (B, Cin, L) input and (Cout, Cin, k) filters")
    if xd.shape[1] != wd.shape[1]:
        raise ValueError("channel mismatch between input and filters")
    if stride < 1:
        raise ValueError(f"conv1d stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"conv1d pad must be >= 0, got {pad}")
    (o, c, k), bs = wd.shape, xd.shape[0]
    xp, inner = _zero_pad(xd, 2, pad, pad) if pad else (xd, ...)
    if xp.shape[2] < k:
        raise ValueError("input shorter than filter after padding")
    lout = (xp.shape[2] - k) // stride + 1
    s0, s1, s2 = xp.strides
    win = as_strided(xp, (bs, c, lout, k), (s0, s1, s2 * stride, s2), writeable=False)
    cols = np.ascontiguousarray(win.transpose(1, 3, 0, 2)).reshape(c * k, bs * lout)
    out = (wd.reshape(o, c * k) @ cols).reshape(o, bs, lout).transpose(1, 0, 2)
    parents: tuple[Tensor, ...]
    if b is not None:
        out = out + b.data[:, None]
        parents = (x, w, b)
    else:
        parents = (x, w)
    out = out.astype(np.result_type(xd, wd), copy=False)
    # the windows of the padded input, for the filters' adjoint only
    xw = win if w.requires_grad else None
    fw = wd if x.requires_grad else None
    padded = xp.shape
    biased, rb = b is not None, b is not None and b.requires_grad

    def vjp(g):
        dx = dw = None
        if fw is not None:
            gt = g.transpose(1, 0, 2).reshape(o, bs * lout)
            taps = fw.transpose(2, 1, 0)  # taps[t] is fw[:, :, t].T
            dxp = np.zeros(padded, dtype=g.dtype)
            for t in range(k):
                dxp[:, :, t : t + stride * lout : stride] += (taps[t] @ gt).reshape(c, bs, lout).transpose(1, 0, 2)
            dx = dxp[inner]
        if xw is not None:
            gl = g.transpose(0, 2, 1).reshape(bs * lout, o)
            cols = np.ascontiguousarray(xw.transpose(1, 3, 0, 2)).reshape(c * k, bs * lout)
            dw = (cols @ gl).reshape(c, k, o).transpose(2, 0, 1)
        if biased:
            return (dx, dw, g.sum(axis=(0, 2)) if rb else None)
        return (dx, dw)

    return _from_op(out, parents, vjp)


def fft_convolve(u: Tensor, k: Tensor) -> Tensor:
    """Differentiable causal convolution of equal-length sequences.

    Leading axes broadcast. The adjoints are correlations, realized as
    flip-convolve-flip so the whole backward pass stays on the fast
    transform path. The node keeps each operand's forward spectrum only
    where the other operand's adjoint reads it, and the adjoint transforms
    the flipped gradient once for both: six real transforms a step where
    both operands need gradients, three forward and three backward.
    """
    u, k = _wrap(u), _wrap(k)
    out, fu, fk = fourier.fft_convolve_arrays(u.data, k.data, spectra=True)
    su, sk = u.shape, k.shape
    fu = fu if k.requires_grad else None  # each operand's spectrum, for the other's adjoint only
    fk = fk if u.requires_grad else None

    def vjp(g):
        gf = g[..., ::-1]
        du = dk = None
        if fk is not None:
            du, gf, _ = fourier.fft_convolve_arrays(gf, fk, spectra=True)  # gf: now its spectrum
            du = _unbroadcast(du[..., ::-1], su)
        if fu is not None:
            dk = _unbroadcast(fourier.fft_convolve_arrays(gf, fu)[..., ::-1], sk)
        return (du, dk)

    return _from_op(out, (u, k), vjp)


# ---- backward -----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar `loss` into every reachable tensor.

    The walk pops each node off the topological order, hands its gradient
    to its Tensor if the caller still holds that, passes it on to its
    parents' slots, then drops its closure and its parents. So the graph is
    released as it is walked: what a closure kept is freed as soon as the
    walk has passed it, a held intermediate keeps its `.grad`, and leaves
    keep theirs, each its own copy. A loss that is itself a leaf gets a
    gradient of one.

    Raises ValueError for non-scalar losses, MissingGradientError when the
    loss is detached from all gradient-requiring tensors, and RuntimeError,
    before any gradient changes, when the loss or any node behind it was
    already consumed by a previous call.
    """
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise MissingGradientError(
            "loss is detached from every gradient-requiring tensor; nothing to differentiate"
        )
    root = loss._node

    # leaves end the walk and run no closure, so only nodes are ordered
    topo: list[_Node] = []
    seen: set[int] = set()
    stack_: list[tuple[_Node, bool]] = [(root, False)] if root is not None else []
    while stack_:
        node, expanded = stack_.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.vjp is None:
            raise RuntimeError(
                "backward was already run through this graph; rerun the forward pass to record a fresh tape"
            )
        seen.add(id(node))
        stack_.append((node, True))
        for p in node.parents:
            if type(p) is _Node and id(p) not in seen:
                stack_.append((p, False))

    loss.grad = np.ones_like(loss.data)
    if root is not None:
        root.grad = loss.grad
    while topo:
        node = topo.pop()
        held = node.out()
        if held is not None:
            held.grad = node.grad
        grads = node.vjp(node.grad)
        for parent, g in zip(node.parents, grads):
            if parent is None or g is None:
                continue
            if parent.grad is None:
                # a leaf owns its gradient (clip_grad_norm scales it in
                # place); a node only reads it, so a view will do
                if type(parent) is _Node:
                    parent.grad = np.asarray(g, dtype=parent.dtype)
                else:
                    parent.grad = np.array(g, dtype=parent.data.dtype, copy=True)
            else:
                parent.grad = parent.grad + g
        node.parents = ()  # release the graph behind this node
        node.vjp = None
