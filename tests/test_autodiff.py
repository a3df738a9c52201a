"""Gradient correctness for every primitive, checked against central differences."""

import dataclasses
import itertools
import tracemalloc
import types
import weakref
import zlib

import numpy as np
import pytest

from codebrain import ssm
from codebrain.nn import BatchNorm1d, SelfAttention, TransformerLayer
from codebrain.numerics import (
    MissingGradientError,
    Tensor,
    attention,
    backward,
    concat,
    conv1d,
    cross_entropy,
    dropout,
    fft_convolve,
    finite_diff_check,
    layer_norm,
    linear,
    no_grad,
    pad_axis,
    repeat_last,
    rms_norm,
    softmax,
    stack,
    take_rows,
    window_attention,
)
from codebrain.numerics import fourier
from codebrain.numerics.tensor import _ATTENTION_CHUNK_BYTES, _from_op, _Node, _unbroadcast
from codebrain.pretrain import clip_grad_norm, masked_token_loss
from codebrain.signal import patch, preprocess, synth_generate
from codebrain.ssm import EegssmModel
from codebrain.tokenizer import TokenizerModel, make_stage1_batch, stage1_losses
from test_acceptance import DESK_MODEL, DESK_SPEC, DESK_TOKENIZER

TOL = 1e-4  # primitive-level relative tolerance vs central differences


def check(fn, shape, seed, points=10, eps=1e-3, tol=TOL, scale=1.0):
    """Run finite_diff_check at several random points and assert the bound."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        x = rng.normal(scale=scale, size=shape)
        worst = max(worst, finite_diff_check(fn, Tensor(x), eps=eps))
    assert worst < tol, f"worst relative gradient error {worst}"


class TestGraphSemantics:
    def test_simple_quadratic_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = (x * x * x).sum()  # d/dx x^3 = 3x^2 = 27
        backward(y)
        np.testing.assert_allclose(x.grad, [27.0], rtol=1e-6)

    def test_fanout_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (x * x + x).sum()  # dy/dx = 2x + 1 = 5
        backward(y)
        np.testing.assert_allclose(x.grad, [5.0], rtol=1e-6)

    def test_second_backward_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = (x * x).sum()
        backward(y)
        with pytest.raises(RuntimeError):
            backward(y)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            backward(x * 2.0)

    def test_detached_graph_raises_missing_gradient(self):
        x = Tensor(np.ones(3))  # no requires_grad anywhere
        y = (x * x).sum()
        with pytest.raises(MissingGradientError):
            backward(y)

    def test_detach_blocks_gradient_flow(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (x.detach() * x).sum()  # only one factor carries gradient
        backward(y)
        np.testing.assert_allclose(x.grad, [2.0], rtol=1e-6)

    def test_no_grad_context_produces_constants(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._node is None

    def test_grad_shape_matches_data(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        backward((x * x).sum())
        assert x.grad.shape == (2, 3)

    def test_float64_input_stays_float64(self):
        x = Tensor(np.ones(4, dtype=np.float64), requires_grad=True)
        y = (x.exp() + x).sum()
        assert y.dtype == np.float64
        backward(y)
        assert x.grad.dtype == np.float64

    def test_broadcast_addition_gradients(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        backward((a + b).sum())
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.full(3, 2.0))


    def test_leaves_fed_by_one_add_own_their_gradients(self):
        # add hands both parents the same array; each leaf must get its own
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        backward((a + b).sum())
        assert not np.shares_memory(a.grad, b.grad)
        clip_grad_norm({"a": a}, 1e-3)
        np.testing.assert_array_equal(b.grad, np.ones(3, dtype=np.float32))


class TestReleasedTape:
    def test_unheld_intermediate_no_adjoint_reads_freed_before_backward(self):
        # exp's adjoint reads its output, and the product's only the constant
        x = Tensor(np.arange(4.0), requires_grad=True)
        mid = x * 2.0
        freed = weakref.ref(mid.data)
        loss = mid.exp().sum()
        del mid
        assert freed() is None
        backward(loss)
        assert loss._node.parents == () and loss._node.vjp is None
        np.testing.assert_array_equal(x.grad, 2.0 * np.exp(2.0 * x.data))

    def test_unheld_intermediate_an_adjoint_reads_freed_by_backward(self):
        x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
        mid = x * 2.0
        freed = weakref.ref(mid.data)
        loss = mid.log().sum()
        del mid
        assert freed() is not None  # log's adjoint divides by it
        backward(loss)
        assert freed() is None
        np.testing.assert_array_equal(x.grad, 2.0 / (2.0 * x.data))

    def test_held_intermediate_keeps_its_grad(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        mid = x * x
        backward((mid * 3.0).sum())
        np.testing.assert_array_equal(mid.grad, np.full(3, 3.0))
        np.testing.assert_array_equal(x.grad, 6.0 * x.data)

    def test_backward_on_consumed_inner_node_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        s = (x * x).sum()
        backward(s * 2.0)
        with pytest.raises(RuntimeError):
            backward(s)

    def test_new_graph_on_consumed_inner_node_raises_before_any_gradient(self):
        # the walk used to stop silently at the consumed `s`, leaving x.grad
        # None and adding the new gradient to the stale one in s.grad
        x = Tensor(np.arange(3.0), requires_grad=True)
        s = (x * x).sum()
        backward(s * 2.0)
        x.grad = None
        loss = s * 3.0
        with pytest.raises(RuntimeError, match="already run"):
            backward(loss)
        assert x.grad is None and loss.grad is None
        assert s.grad == 2.0

    @pytest.mark.parametrize("stage", ["stage1", "stage2", "stage2_dropout"])
    def test_full_tape_closures_keep_no_tensor(self, stage):
        # every adjoint keeps arrays and plain values, never a Tensor: a kept
        # Tensor would keep its values alive whether or not the adjoint reads them
        spec = dataclasses.replace(DESK_SPEC, records_per_class=1)
        grids = [patch(preprocess(r), patch_seconds=1.0) for r in synth_generate(spec, seed=0)[:2]]
        rng = np.random.default_rng(0)
        if stage == "stage1":
            model = TokenizerModel(DESK_TOKENIZER, rng)
            loss = stage1_losses(model, make_stage1_batch(grids), train=True)["total"]
        else:
            config = dataclasses.replace(DESK_MODEL, p_drop=0.1 if stage == "stage2_dropout" else 0.0)
            model = EegssmModel(config, rng)
            x = np.stack([g.patches.reshape(-1, config.patch_len) for g in grids]).astype(np.float32)
            mask = rng.random(x.shape[:2]) < 0.5
            tokens = [rng.integers(0, config.codebook_size, size=x.shape[:2]) for _ in range(2)]
            loss = masked_token_loss(model.forward(x, mask, train=True, rng=rng), tokens, mask)
        nodes = [n for n in _tape(loss) if isinstance(n, _Node)]
        assert len(nodes) > 50
        held = [(n.vjp.__qualname__, type(v).__name__) for n in nodes for v in closure_values(n.vjp) if isinstance(v, Tensor)]
        assert held == []


def _tape(*roots: Tensor) -> list:
    """Every node reachable from `roots` through recorded parent slots, and
    every leaf that needs a gradient among those slots. A root that is a
    leaf stands for itself."""
    seen, todo, out = set(), [t if t._node is None else t._node for t in roots], []
    while todo:
        item = todo.pop()
        if item is not None and id(item) not in seen:
            seen.add(id(item))
            out.append(item)
            if isinstance(item, _Node):
                todo.extend(item.parents)
    return out


def closure_values(fn) -> list:
    """Every value the closure `fn` keeps, looking through the closures,
    tuples and lists it keeps."""
    seen, todo, out = set(), [fn], []
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, types.FunctionType):
            todo.extend(cell.cell_contents for cell in value.__closure__ or ())
        elif isinstance(value, (tuple, list)):
            todo.extend(value)
        else:
            out.append(value)
    return out


def tape_arrays(tape: list) -> list[np.ndarray]:
    """Every array the adjoints of the nodes on `tape` keep."""
    return [v for n in tape if isinstance(n, _Node) for v in closure_values(n.vjp) if isinstance(v, np.ndarray)]


# binary ops whose vjp skips the adjoint of a constant operand
CONSTANT_OPERAND_OPS = {
    "mul": (lambda a, b: a * b, (3, 4), (3, 4)),
    "div": (lambda a, b: a / b, (3, 4), (3, 4)),
    "matmul": (lambda a, b: a @ b, (3, 4), (4, 2)),
    "add": (lambda a, b: a + b, (3, 4), (4,)),
    "sub": (lambda a, b: a - b, (3, 4), (4,)),
    "conv1d": (lambda a, b: conv1d(a, b, stride=2, pad=1), (2, 3, 9), (4, 3, 3)),
    "fft_convolve": (lambda a, b: fft_convolve(a, b), (3, 8), (8,)),
}


class TestConstantOperands:
    @pytest.mark.parametrize("const", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("name", list(CONSTANT_OPERAND_OPS))
    def test_constant_operand_gets_no_gradient(self, name, const):
        fn, shape_a, shape_b = CONSTANT_OPERAND_OPS[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        a0 = rng.uniform(0.5, 1.5, size=shape_a).astype(np.float32)
        b0 = rng.uniform(0.5, 1.5, size=shape_b).astype(np.float32)
        probe = rng.normal(size=fn(Tensor(a0), Tensor(b0)).shape).astype(np.float32)

        both = [Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)]
        backward((fn(*both) * Tensor(probe)).sum())

        ops = [Tensor(a0, requires_grad=const != 0), Tensor(b0, requires_grad=const != 1)]
        out = fn(*ops)
        assert out._node.vjp(np.ones_like(out.data))[const] is None
        backward((out * Tensor(probe)).sum())
        assert ops[const].grad is None
        np.testing.assert_array_equal(ops[1 - const].grad, both[1 - const].grad)


def _attention_chain(q, k, v, scale):
    """The composed graph that `attention` replaces."""
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    return softmax(scores, axis=-1) @ v


class TestAttention:
    @pytest.mark.parametrize(
        "dims,split_heads,dtype",
        [
            pytest.param((2, 3, 7, 4), False, np.float32, id="leaves"),
            pytest.param((2, 3, 7, 4), True, np.float32, id="split_heads"),
            # weights past the chunk budget, formed in chunks of 4 + 2 heads
            # (float32) or of 2 heads (float64)
            pytest.param((2, 6, 512, 8), True, np.float32, id="chunked-f32"),
            pytest.param((2, 6, 512, 8), True, np.float64, id="chunked-f64"),
        ],
    )
    def test_bit_equal_to_composed_chain(self, dims, split_heads, dtype):
        # split_heads feeds (B, H, S, hd) views of (B, S, H*hd) leaves, as
        # SelfAttention does
        rng = np.random.default_rng(41)
        b, h, s, hd = dims
        chunked = b * h * s * s * np.dtype(dtype).itemsize > _ATTENTION_CHUNK_BYTES
        assert chunked == (s == 512)
        shape = (b, s, h * hd) if split_heads else (b, h, s, hd)
        arrays = [rng.normal(size=shape) for _ in range(3)]
        probe = Tensor(rng.normal(size=(b, h, s, hd)), dtype=dtype)
        results = []
        for op in (attention, _attention_chain):
            leaves = [Tensor(x, requires_grad=True, dtype=dtype) for x in arrays]
            heads = [t.reshape(b, s, h, hd).transpose(0, 2, 1, 3) for t in leaves] if split_heads else leaves
            out = op(*heads, 1.0 / np.sqrt(hd))
            backward((out * probe).sum())
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
    @pytest.mark.parametrize("s", [7, 512], ids=["kept", "chunked"])
    def test_one_operand_gradient(self, s, which):
        # the adjoint forms only the gradient asked for, equal to the one a
        # run with all three gradients forms
        rng = np.random.default_rng(44)
        arrays = [rng.normal(size=(2, 6, s, 8)).astype(np.float32) for _ in range(3)]
        g = rng.normal(size=(2, 6, s, 8)).astype(np.float32)
        full = attention(*(Tensor(x, requires_grad=True) for x in arrays), 0.5)._node.vjp(g)
        one = attention(*(Tensor(x, requires_grad=i == which) for i, x in enumerate(arrays)), 0.5)._node.vjp(g)
        assert [i for i, grad in enumerate(one) if grad is not None] == [which]
        np.testing.assert_array_equal(one[which], full[which])

    def test_long_sequence_keeps_no_weights(self):
        # past the chunk budget only per-row statistics stay on the tape,
        # less than one (S, S) float32 slice; the (1, 2, S, S) weights a
        # node that keeps them holds are 8 MiB
        rng = np.random.default_rng(49)
        qkv = [Tensor(rng.normal(size=(1, 2, 1024, 16)).astype(np.float32), requires_grad=True) for _ in range(3)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = attention(*qkv, 0.25)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held < 1024 * 1024 * 4

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
    def test_gradient(self, which):
        rng = np.random.default_rng(42)
        qkv = [rng.normal(size=(2, 2, 5, 3)) for _ in range(3)]
        probe = rng.normal(size=(2, 2, 5, 3))

        def fn(x):
            args = [Tensor(a, dtype=np.float64) for a in qkv]
            args[which] = x
            return (attention(*args, 0.5) * Tensor(probe, dtype=np.float64)).sum()

        assert finite_diff_check(fn, qkv[which], eps=1e-5) < 1e-6

    @pytest.mark.parametrize("s,kept", [(9, [(2, 2, 9, 9)]), (1024, [])], ids=["kept", "chunked"])
    def test_self_attention_tape_holds_no_scores(self, s, kept):
        # the scores and their scaled copy stay off the tape: the core is one
        # node between the head split and the merge, and of all the arrays
        # the tape's adjoints keep, only the core's weights are (S, S), and
        # only while they fit the chunk budget
        rng = np.random.default_rng(43)
        dim, heads = 8, 2
        x = Tensor(rng.normal(size=(2, s, dim)).astype(np.float32), requires_grad=True)
        tape = _tape(SelfAttention(dim, heads, rng)(x))
        lin = 3  # w, b, the linear node
        assert len(tape) == 1 + 4 * lin + 3 * 2 + 1 + 2  # x, q/k/v/o, head splits, core, merge
        leaves = [t.data for t in tape if isinstance(t, Tensor)]
        assert len(leaves) == 1 + 4 * 2
        assert [a.shape for a in leaves + tape_arrays(tape) if a.shape[-2:] == (s, s)] == kept

    def test_transformer_layer_tape_size(self):
        # every Linear and LayerNorm is one node beside its parameters
        rng = np.random.default_rng(45)
        x = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32), requires_grad=True)
        tape = _tape(TransformerLayer(8, 2, 16, rng)(x))
        attn = 4 * 3 + 3 * 2 + 1 + 2  # q/k/v/o, head splits, core, merge
        norm, lin = 3, 3  # gamma, beta, node; w, b, node
        # x, ln1, attn, add, ln2, fc1, relu, fc2, add
        assert len(tape) == 1 + norm + attn + 1 + norm + lin + 1 + lin + 1


def band(t, half):
    """Windows of a (B, S, F) sequence: out[:, i, j] = t[:, i + j - half].

    Returns a read-only (B, S, 2*half + 1, F) view of the sequence padded
    with `half` zero rows at each end, so out-of-range rows read as zeros.
    The adjoint overlap-adds the window slices.
    """
    d = t.data
    b, s, f = d.shape
    w = 2 * half + 1
    padded = np.pad(d, ((0, 0), (half, half), (0, 0)))
    s0, s1, s2 = padded.strides
    out = np.lib.stride_tricks.as_strided(padded, (b, s, w, f), (s0, s1, s1, s2), writeable=False)

    def vjp(g):
        buf = np.zeros(padded.shape, dtype=g.dtype)
        for j in range(w):
            buf[:, j : j + s] += g[:, :, j]
        return (buf[:, half : half + s],)

    return _from_op(out, (t,), vjp)


def _window_attention_chain(q, k, v, half, p_drop=0.0, rng=None):
    """The composed graph that `window_attention` replaces."""
    b, s, f = q.shape
    w = 2 * half + 1
    keys = band(k, half)  # (B, S, W, F)
    values = band(v, half)
    scores = (keys @ q.reshape(b, s, f, 1)).reshape(b, s, w)
    pos = np.arange(s)[:, None] + np.arange(-half, half + 1)
    bias = np.where((0 <= pos) & (pos < s), 0.0, -1e9).astype(np.float32)
    p = softmax(scores + Tensor(bias), axis=-1)  # (B, S, W)
    if p_drop > 0:
        p = dropout(p, p_drop, rng)
    return (p.reshape(b, s, 1, w) @ values).reshape(b, s, f)


class TestWindowAttention:
    @pytest.mark.parametrize("p_drop", [0.0, 0.1], ids=["no_drop", "drop"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize(
        "b,s,half", [(1, 9, 0), (2, 9, 3), (3, 5, 7)], ids=["w1", "b2", "w_over_2s"]
    )
    def test_bit_equal_to_composed_chain(self, b, s, half, dtype, p_drop):
        rng = np.random.default_rng(47)
        arrays = [rng.normal(size=(b, s, 4)) for _ in range(3)]
        probe = Tensor(rng.normal(size=(b, s, 4)), dtype=dtype)
        results = []
        for op in (window_attention, _window_attention_chain):
            leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
            drop_rng = np.random.default_rng(48)
            out = op(*leaves, half, p_drop, drop_rng)
            backward((out * probe).sum())
            # the same draws from the dropout stream, and the same results
            results.append([out.data] + [t.grad for t in leaves] + [drop_rng.random(3)])
        for got, want in zip(*results):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert results[0][0].dtype == dtype

    @pytest.mark.parametrize("p_drop", [0.0, 0.1], ids=["no_drop", "drop"])
    @pytest.mark.parametrize("window", [1, 5, 31], ids=["w1", "w5", "w_over_2s"])
    def test_block_gradients_bit_equal_to_chain(self, monkeypatch, window, p_drop):
        # the block input reaches the node three times, through the q, k and v
        # Linears; `backward` must add those parts in the chain's order
        results = []
        for op in (window_attention, _window_attention_chain):
            monkeypatch.setattr(ssm, "window_attention", op)
            rng = np.random.default_rng(49)
            block = ssm.EegssmBlock.create(8, 16, 4, window, rng, p_drop=p_drop)
            x = Tensor(rng.normal(size=(2, 12, 8)).astype(np.float32), requires_grad=True)
            probe = Tensor(rng.normal(size=(2, 12, 8)).astype(np.float32))
            y, skip = block(x, train=True, rng=rng)
            backward(((y + skip) * probe).sum())
            grads = [t.grad for t in block.named_params().values()]  # rms_scale's first
            results.append([y.data, skip.data, x.grad] + grads + [rng.random(3)])
        for got, want in zip(*results):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
    def test_gradient(self, which):
        rng = np.random.default_rng(50)
        qkv = [rng.normal(size=(2, 6, 3)) for _ in range(3)]
        probe = rng.normal(size=(2, 6, 3))

        def fn(x):
            args = [Tensor(a, dtype=np.float64) for a in qkv]
            args[which] = x
            return (window_attention(*args, 2) * Tensor(probe, dtype=np.float64)).sum()

        assert finite_diff_check(fn, qkv[which], eps=1e-5) < 1e-6

    def test_invalid_dropout_raises(self):
        t = Tensor(np.zeros((1, 3, 2)))
        with pytest.raises(ValueError):
            window_attention(t, t, t, 1, 1.0, np.random.default_rng(0))


def _linear_chain(x, w, b):
    """The composed graph that `linear` replaces."""
    d_in, d_out = w.shape
    flat = x.reshape(-1, d_in) if x.ndim != 2 else x
    out = flat @ w + b
    return out.reshape(*x.shape[:-1], d_out) if x.ndim != 2 else out


def _layer_norm_chain(x, gamma, beta, eps=1e-5):
    """The composed graph that `layer_norm` replaces."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps) ** 0.5 * gamma + beta


def _batch_norm_chain(x, gamma, beta, eps=1e-5):
    """The 11-node graph `BatchNorm1d` trained through before it used
    `layer_norm`, with the batch mean and biased variance it kept."""
    mu = x.mean(axis=(0, 2), keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=(0, 2), keepdims=True)
    out = centered / (var + eps) ** 0.5 * gamma.reshape(1, -1, 1) + beta.reshape(1, -1, 1)
    return out, mu.data.reshape(-1), var.data.reshape(-1)


def _rms_norm_chain(x, scale, eps=1e-8):
    """The composed graph that `rms_norm` replaces."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * scale / (ms + eps) ** 0.5


# op, the chain it replaces, and the rank of each parameter over the last axis
FUSED_LAYERS = {
    "linear": (linear, _linear_chain, [2, 1]),
    "layer_norm": (layer_norm, _layer_norm_chain, [1, 1]),
    "rms_norm": (rms_norm, _rms_norm_chain, [1]),
}

# the shape an input is drawn in and the axes it is viewed through; "model"
# is a non-C-ordered view of model size, above numpy's 256 KiB
# temporary-elision size, where a product that reuses a temporary takes
# another memory order and so sums in another order
INPUT_LAYOUTS = {
    "2d": ((5, 6), (0, 1)),
    "3d": ((2, 4, 6), (0, 1, 2)),
    "model": ((1024, 2, 64), (1, 0, 2)),
}


class TestFusedLayers:
    @pytest.mark.parametrize("downstream", ["plain", "transposed", "float64_grad"])
    @pytest.mark.parametrize("residual", [False, True], ids=["alone", "residual"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("layout", list(INPUT_LAYOUTS))
    @pytest.mark.parametrize("name", list(FUSED_LAYERS))
    def test_bit_equal_to_composed_chain(self, name, layout, dtype, residual, downstream):
        # `residual` feeds x to x + op(x), so x's gradient parts must be added
        # in the chain's order; "transposed" hands the node a non-contiguous
        # gradient, and "float64_grad" a float64 one: its output's second
        # gradient comes from a product with a float64 tensor
        op, chain, param_ranks = FUSED_LAYERS[name]
        drawn, axes = INPUT_LAYOUTS[layout]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x0 = rng.normal(size=drawn).transpose(axes)
        shape, d = x0.shape, x0.shape[-1]
        arrays = [x0] + [rng.normal(size=(d,) * r) for r in param_ranks]
        probe = rng.normal(size=shape[::-1] if downstream == "transposed" else shape)
        mix = Tensor(rng.normal(size=shape), dtype=np.float64)
        results = []
        for fn in (op, chain):
            leaves = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
            x = leaves[0] * 1.0  # an inner node, as a residual stream is
            out = fn(x, *leaves[1:])
            y = out - out * mix if downstream == "float64_grad" else out
            if residual:
                y = x + y
            if downstream == "transposed":
                y = y.transpose(*range(y.ndim)[::-1])
            backward((y * Tensor(probe, dtype=dtype)).sum())
            want = np.float64 if downstream == "float64_grad" else dtype
            assert out.grad.dtype == want
            results.append([out.data, out.grad] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_batch_norm_bit_equal_to_composed_chain(self, dtype):
        # a tokenizer conv-stack shape, fed by conv1d as there: the conv's
        # output is not C-ordered, and big enough for numpy to reuse
        # temporaries, so a product that takes a different memory order
        # sums in a different order
        rng = np.random.default_rng(47)
        arrays = [rng.normal(size=(1024, 1, 200)), rng.normal(size=(8, 1, 15)), rng.normal(size=8)]
        gamma0, beta0 = rng.uniform(0.5, 1.5, size=8), rng.normal(size=8)
        probe = Tensor(rng.normal(size=(1024, 8, 25)), dtype=dtype)
        results = []
        for use_layer in (True, False):
            patches, w, b = (Tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
            x = conv1d(patches, w, b, stride=8, pad=7)
            bn = BatchNorm1d(8)
            bn.gamma, bn.beta = Tensor(gamma0, requires_grad=True, dtype=dtype), Tensor(beta0, requires_grad=True, dtype=dtype)
            if use_layer:
                out = bn(x, train=True)
                stats = [bn.running_mean, bn.running_var]
            else:
                out, mu, var = _batch_norm_chain(x, bn.gamma, bn.beta, BatchNorm1d.EPS)
                m = BatchNorm1d.MOMENTUM
                stats = [((1 - m) * run + m * new).astype(np.float32)
                         for run, new in ((bn.running_mean, mu), (bn.running_var, var))]
            backward((out.relu() * probe).sum())
            results.append([out.data, *stats, x.grad, bn.gamma.grad, bn.beta.grad, patches.grad, w.grad, b.grad])
        for got, want in zip(*results):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_batch_norm_eval_bit_equal_to_op_chain(self, dtype):
        # eval mode against the eight ops it ran before its denominator became
        # a plain array, on a conv output as in the tokenizer
        rng = np.random.default_rng(49)
        arrays = [rng.normal(size=(256, 1, 200)), rng.normal(size=(8, 1, 15)), rng.normal(size=8)]
        bn = BatchNorm1d(8)
        bn.running_mean = rng.normal(size=8).astype(np.float32)
        bn.running_var = rng.uniform(0.5, 2.0, size=8).astype(np.float32)
        gamma0, beta0 = rng.uniform(0.5, 1.5, size=8), rng.normal(size=8)
        probe = Tensor(rng.normal(size=(256, 8, 25)), dtype=dtype)
        results = []
        for use_layer in (True, False):
            patches, w, b = (Tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
            x = conv1d(patches, w, b, stride=8, pad=7)
            bn.gamma, bn.beta = Tensor(gamma0, requires_grad=True, dtype=dtype), Tensor(beta0, requires_grad=True, dtype=dtype)
            if use_layer:
                out = bn(x, train=False)
            else:
                mu, var = Tensor(bn.running_mean.reshape(1, -1, 1)), Tensor(bn.running_var.reshape(1, -1, 1))
                out = (x - mu) / (var + BatchNorm1d.EPS) ** 0.5 * bn.gamma.reshape(1, -1, 1) + bn.beta.reshape(1, -1, 1)
            backward((out.relu() * probe).sum())
            results.append([out.data, x.grad, bn.gamma.grad, bn.beta.grad, patches.grad, w.grad, b.grad])
        for got, want in zip(*results):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_batch_norm_adds_three_tape_nodes(self):
        rng = np.random.default_rng(48)
        x = Tensor(rng.normal(size=(4, 3, 10)).astype(np.float32), requires_grad=True)
        tape = _tape(BatchNorm1d(3)(x, train=True))
        assert sum(isinstance(t, _Node) for t in tape) == 3  # two reshapes and the norm

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["x", "w", "b"])
    def test_linear_gradient(self, which):
        rng = np.random.default_rng(46)
        args = [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)]
        probe = rng.normal(size=(2, 3, 5))

        def fn(t):
            ts = [Tensor(a, dtype=np.float64) for a in args]
            ts[which] = t
            return (linear(*ts) * Tensor(probe, dtype=np.float64)).sum()

        assert finite_diff_check(fn, args[which], eps=1e-5) < 1e-6


class TestPointwisePrimitives:
    @pytest.mark.parametrize(
        "name,fn",
        [
            ("add", lambda x: (x + 3.0 * x).sum()),
            ("sub", lambda x: (x - x * 0.5 + 1.0).sum()),
            ("mul", lambda x: (x * x).sum()),
            ("div", lambda x: (x / (x * x + 2.0)).sum()),
            ("neg_pow", lambda x: ((-x) ** 2).sum()),
            ("exp", lambda x: x.exp().sum()),
            ("tanh", lambda x: x.tanh().sum()),
            ("sigmoid", lambda x: x.sigmoid().sum()),
            ("sqrt_of_square", lambda x: ((x * x + 1.0).sqrt()).sum()),
            ("mean", lambda x: (x * x).mean()),
            ("mean_axis", lambda x: ((x * x).mean(axis=0) * 2.0).sum()),
            ("reshape", lambda x: (x.reshape(-1) * 2.0).sum()),
            ("slice", lambda x: (x[1:, :2] * x[:-1, 1:]).sum()),
        ],
    )
    def test_primitive_gradients(self, name, fn):
        # str hashes are salted per process; crc32 gives every run the same points
        check(fn, (4, 3), seed=zlib.crc32(name.encode()))

    def test_log_gradient_on_positive_inputs(self):
        check(lambda x: ((x * x) + 0.5).log().sum(), (5,), seed=1)

    def test_relu_gradient_away_from_kink(self):
        # evaluate at points bounded away from zero so the subgradient is clean
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 4))
        x = np.where(np.abs(x) < 0.1, 0.5, x)
        err = finite_diff_check(lambda t: (t.relu() * 2.0).sum(), Tensor(x), eps=1e-4)
        assert err < TOL

    def test_elu_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4))
        x = np.where(np.abs(x) < 0.1, 0.5, x)
        err = finite_diff_check(lambda t: t.elu().sum(), Tensor(x), eps=1e-4)
        assert err < TOL

    def test_elu_rejects_negative_alpha(self):
        # the adjoint reads the input's sign from the output, which a
        # negative alpha would flip below zero
        with pytest.raises(ValueError):
            Tensor(np.ones(3), requires_grad=True).elu(alpha=-0.5)

    def test_abs_gradient_away_from_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6,))
        x = np.where(np.abs(x) < 0.1, 0.7, x)
        err = finite_diff_check(lambda t: t.abs().sum(), Tensor(x), eps=1e-4)
        assert err < TOL


class TestStructuralPrimitives:
    def test_matmul_gradient(self):
        check(lambda x: (x @ x.transpose(1, 0)).sum(), (3, 4), seed=5)

    def test_batched_matmul_gradient(self):
        rng = np.random.default_rng(6)
        b = rng.normal(size=(2, 4, 3))

        def fn(x):
            return (x @ Tensor(b)).sum()

        check(fn, (2, 3, 4), seed=7)

    def test_matmul_broadcast_batch_gradient(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(4, 5))

        def fn(x):
            return ((x @ Tensor(w)) * 0.5).sum()

        check(fn, (3, 2, 4), seed=9)

    @pytest.mark.parametrize("axes", [(1, 2, 0), (2, 0, 1), (-1, 0, 1)])
    def test_transpose_gradient(self, axes):
        # a three-cycle is not its own inverse; a negative axis counts from the end
        probe = Tensor(np.random.default_rng(12).normal(size=np.empty((2, 3, 4)).transpose(axes).shape))
        check(lambda x: (x.transpose(*axes) * probe).sum(), (2, 3, 4), seed=13)

    def test_concat_gradient(self):
        def fn(x):
            y = concat([x, x * 2.0], axis=1)
            return (y * y).sum()

        check(fn, (2, 3), seed=10)

    def test_stack_gradient(self):
        def fn(x):
            y = stack([x, x * x], axis=0)
            return (y * 3.0).sum()

        check(fn, (2, 3), seed=11)

    def test_pad_axis_gradient(self):
        def fn(x):
            return (pad_axis(x, 1, 2, 1) * 2.0).sum()

        check(fn, (2, 3), seed=12)

    @pytest.mark.parametrize("half", [0, 1, 3, 4])
    def test_band_equals_zero_filled_shifted_rows(self, half):
        # half = 4 = S - 1: every window but the centre one reaches past an end
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 5, 3)).astype(np.float32)
        out = band(Tensor(x), half).data
        assert out.shape == (2, 5, 2 * half + 1, 3)
        for i in range(5):
            for j in range(2 * half + 1):
                r = i + j - half
                want = x[:, r] if 0 <= r < 5 else np.zeros((2, 3), np.float32)
                np.testing.assert_array_equal(out[:, i, j], want)

    def test_band_gradient(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=(2, 5, 5, 3))

        def fn(x):
            return (band(x, 2) * Tensor(w)).sum()

        check(fn, (2, 5, 3), seed=16)

    def test_repeat_last_gradient(self):
        def fn(x):
            return (repeat_last(x, 3) ** 2).sum()

        check(fn, (2, 4), seed=13)

    @pytest.mark.parametrize(
        "counts",
        [3, [1, 1, 1, 1, 1, 1], [1, 1, 2, 2, 4, 4], [2, 1, 1, 3, 3, 1], [5]],
        ids=["int", "all_ones", "growing_runs", "unequal_runs", "one_column"],
    )
    def test_repeat_last_matches_np_repeat(self, counts):
        width = len(counts) if isinstance(counts, list) else 6
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(3, 2, width)).astype(np.float32), requires_grad=True)
        out = repeat_last(x, counts)
        np.testing.assert_array_equal(out.data, np.repeat(x.data, counts, axis=-1))
        g = rng.normal(size=out.shape).astype(np.float32)
        backward((out * Tensor(g)).sum())
        # each run of equal counts summed over its own (columns, count) view
        want, at = [], 0
        for r, run in itertools.groupby(np.broadcast_to(counts, (width,)).tolist()):
            w = len(list(run))
            want.append(g[..., at : at + w * r].reshape(3, 2, w, r).sum(axis=-1))
            at += w * r
        assert x.grad.tobytes() == np.concatenate(want, axis=-1).tobytes()

    def test_repeat_last_per_column_gradient(self):
        def fn(x):
            return (repeat_last(x, [1, 2, 2, 4]) ** 2).sum()

        check(fn, (2, 4), seed=18)

    @pytest.mark.parametrize("counts", [0, [1, 0, 2], [2, -1, 1]])
    def test_repeat_last_rejects_counts_below_one(self, counts):
        with pytest.raises(ValueError, match=">= 1"):
            repeat_last(Tensor(np.ones((2, 3), np.float32)), counts)

    def test_take_rows_gradient_accumulates_duplicates(self):
        table = Tensor(np.arange(6, dtype=np.float32).reshape(3, 2), requires_grad=True)
        rows = take_rows(table, np.array([0, 0, 2]))
        backward(rows.sum())
        np.testing.assert_allclose(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize(
        "key,want",
        [
            (np.array([0, 0, 1]), [2.0, 1.0, 0.0]),
            ([2, 0, 2, 2], [1.0, 0.0, 3.0]),
            (np.array([[1, 1], [1, 0]]), [1.0, 3.0, 0.0]),
            (np.array([True, False, True]), [1.0, 0.0, 1.0]),
        ],
        ids=["int_array", "int_list", "int_array_2d", "bool_mask"],
    )
    def test_getitem_gradient_counts_repeated_indices(self, key, want):
        x = Tensor(np.arange(3.0), requires_grad=True)
        backward(x[key].sum())
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize(
        "key",
        [
            (slice(1, None), np.array([0, 2, 0, 0])),
            np.array([[True, False, True, True], [False, True, False, False], [True, True, False, True]]),
            (np.array([2, 0, 2]), slice(None, None, 2)),
            np.array([True, False, True]),
            (slice(None), np.array([False, True, True, False])),
        ],
        ids=["slice_and_repeats", "bool_mask", "repeats_and_slice", "bool_rows", "slice_and_bool"],
    )
    def test_getitem_gradient_advanced_keys(self, key):
        rng = np.random.default_rng(17)
        w = rng.normal(size=np.zeros((3, 4))[key].shape)
        check(lambda x: ((x[key] ** 2) * Tensor(w)).sum(), (3, 4), seed=18)

    def test_take_rows_out_of_range(self):
        table = Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            take_rows(table, np.array([3]))


class TestFusedOps:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(14)
        s = softmax(Tensor(rng.normal(size=(5, 7))))
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_softmax_gradient(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=7)

        def fn(x):
            return (softmax(x) * Tensor(w)).sum()

        check(fn, (3, 7), seed=16)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(4, 6))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    @pytest.mark.parametrize("k", [2, 16, 4096])
    def test_uniform_logits_give_log_k(self, k):
        loss = cross_entropy(Tensor(np.zeros((1, k))), np.array([0]))
        assert abs(float(loss.data[0]) - np.log(k)) < 1e-5

    def test_large_logit_shift_is_stable(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(3, 9))
        t = np.array([1, 4, 8])
        a = cross_entropy(Tensor(x, dtype=np.float64), t).data
        b = cross_entropy(Tensor(x + 30.0, dtype=np.float64), t).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_cross_entropy_matches_direct_formula(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(20, 11))
        t = rng.integers(0, 11, size=20)
        got = cross_entropy(Tensor(x, dtype=np.float64), t).data
        # oracle: direct log-sum-exp in float64
        want = np.log(np.exp(x).sum(axis=-1)) - x[np.arange(20), t]
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_cross_entropy_gradient(self):
        t = np.array([2, 0, 1])

        def fn(x):
            return cross_entropy(x, t).sum()

        check(fn, (3, 5), seed=20)

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def _conv1d_einsum(xd, wd, bd, g, stride, pad):
    """Output and input, filter and bias gradients of the conv, through the
    `np.einsum` contractions that `conv1d` makes as matmuls."""
    k = wd.shape[2]
    xp = np.pad(xd, ((0, 0), (0, 0), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride]
    out = np.einsum("bclk,ock->bol", win, wd, optimize=True) + bd[:, None]
    lout = out.shape[2]
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    for t in range(k):
        dxp[:, :, t : t + stride * lout : stride] += np.einsum("bol,oc->bcl", g, wd[:, :, t], optimize=True)
    dw = np.einsum("bol,bclk->ock", g, win, optimize=True)
    return out, dxp[:, :, pad : pad + xd.shape[2]], dw, g.sum(axis=(0, 2))


# (Cin, Cout, k, stride, pad, L): the tokenizer's first conv and its inner
# ones, and each with the other input-channel count
CONV_GEOMETRIES = {
    "first": (1, 8, 15, 8, 7, 200),
    "first_many_channels": (4, 8, 15, 8, 7, 200),
    "inner": (8, 4, 3, 1, 1, 25),
    "inner_one_channel": (1, 4, 3, 1, 1, 25),
}


class TestConvPrimitives:
    def test_conv1d_matches_manual_small_case(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(1, 1, 6))
        w = Tensor(np.array([[[1.0, -1.0]]], dtype=np.float32))
        out = conv1d(x, w)
        np.testing.assert_allclose(out.data[0, 0], [-1.0] * 5, atol=1e-6)

    def test_conv1d_stride_and_padding_geometry(self):
        x = Tensor(np.zeros((2, 1, 200), dtype=np.float32))
        w = Tensor(np.zeros((8, 1, 15), dtype=np.float32))
        out = conv1d(x, w, stride=8, pad=7)
        assert out.shape == (2, 8, 25)

    @pytest.mark.parametrize(
        "stride, pad, message",
        [(0, 0, "stride must be >= 1, got 0"), (-1, 0, "stride must be >= 1, got -1"), (1, -1, "pad must be >= 0, got -1")],
    )
    def test_conv1d_rejects_bad_stride_or_pad(self, stride, pad, message):
        # a negative stride used to return the windows in reverse order
        x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 1, 8))
        w = Tensor(np.ones((1, 1, 3), dtype=np.float32))
        with pytest.raises(ValueError, match=message):
            conv1d(x, w, stride=stride, pad=pad)

    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64], ids=["f32_grad", "f64_grad"])
    @pytest.mark.parametrize("rows", [32, 64, 128, 2048, 4096])
    @pytest.mark.parametrize("geometry", list(CONV_GEOMETRIES))
    def test_conv1d_bit_equal_to_einsum(self, geometry, rows, grad_dtype):
        # the output and both adjoints, against the einsum contractions
        # conv1d's matmuls reproduce; the upstream gradient reaches the
        # adjoint float32, or float64 as a float64 operand downstream hands it on
        c, o, k, stride, pad, length = CONV_GEOMETRIES[geometry]
        rng = np.random.default_rng(rows * k + c)
        xd = rng.normal(size=(rows, c, length)).astype(np.float32)
        wd = rng.normal(size=(o, c, k)).astype(np.float32)
        bd = rng.normal(size=o).astype(np.float32)
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        out = conv1d(x, w, b, stride=stride, pad=pad)
        g = rng.normal(size=out.shape).astype(grad_dtype)
        got = [out.data, *out._node.vjp(g)]
        results = zip(got, _conv1d_einsum(xd, wd, bd, g, stride, pad), strict=True)
        if geometry == "first" and grad_dtype == np.float32:
            # einsum lays one channel's columns out transposed, so BLAS sums
            # some products in another order: each result must then be as
            # close to the float64 contraction as float32 einsum's
            exact = _conv1d_einsum(*(a.astype(np.float64) for a in (xd, wd, bd, g)), stride, pad)
            for (have, want), oracle in zip(results, exact, strict=True):
                assert have.dtype == want.dtype and have.shape == want.shape
                assert np.abs(have - oracle).max() <= np.abs(want - oracle).max()
            return
        for have, want in results:
            assert have.dtype == want.dtype and have.shape == want.shape
            np.testing.assert_array_equal(have, want)

    def test_conv1d_gradients(self):
        rng = np.random.default_rng(21)
        x0 = rng.normal(size=(2, 3, 10))
        w0 = rng.normal(size=(4, 3, 3))
        b0 = rng.normal(size=4)

        def fn_x(x):
            return (conv1d(x, Tensor(w0), Tensor(b0), stride=2, pad=1) ** 2).sum()

        assert finite_diff_check(fn_x, Tensor(x0)) < TOL

        def fn_w(w):
            return (conv1d(Tensor(x0), w, Tensor(b0), stride=2, pad=1) ** 2).sum()

        assert finite_diff_check(fn_w, Tensor(w0)) < TOL

        def fn_b(b):
            return (conv1d(Tensor(x0), Tensor(w0), b, stride=2, pad=1) ** 2).sum()

        assert finite_diff_check(fn_b, Tensor(b0)) < TOL

    def test_fft_convolve_gradients_both_arguments(self):
        rng = np.random.default_rng(22)
        u0 = rng.normal(size=16)
        k0 = rng.normal(size=16)

        def fn_u(u):
            return (fft_convolve(u, Tensor(k0)) ** 2).sum()

        assert finite_diff_check(fn_u, Tensor(u0)) < TOL

        def fn_k(k):
            return (fft_convolve(Tensor(u0), k) ** 2).sum()

        assert finite_diff_check(fn_k, Tensor(k0)) < TOL

    def test_fft_convolve_broadcast_kernel_gradient(self):
        rng = np.random.default_rng(23)
        u0 = rng.normal(size=(3, 8))

        def fn_k(k):
            return (fft_convolve(Tensor(u0), k) ** 2).sum()

        assert finite_diff_check(fn_k, Tensor(rng.normal(size=8))) < TOL


def _fft_convolve_chain(ud, kd, g):
    """Output and both adjoints of the causal convolution as three calls on
    arrays: the forward, then flip-convolve-flip against each operand."""
    gf = g[..., ::-1]
    du = _unbroadcast(fourier.fft_convolve_arrays(gf, kd)[..., ::-1], ud.shape)
    dk = _unbroadcast(fourier.fft_convolve_arrays(gf, ud)[..., ::-1], kd.shape)
    return fourier.fft_convolve_arrays(ud, kd), du, dk


def _cross_entropy_chain(d, idx, g):
    """Cross entropy and its adjoint with a fresh array for every step."""
    k = d.shape[-1]
    shifted = (d - d.max(axis=-1, keepdims=True)).astype(np.float64)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    lse = np.log(total[..., 0])
    flat_idx = idx.reshape(-1)
    picked = shifted.reshape(-1, k)[np.arange(flat_idx.size), flat_idx]
    out = (lse - picked.reshape(lse.shape)).astype(d.dtype)
    gr = (e / total).astype(d.dtype).copy().reshape(-1, k)
    gr[np.arange(flat_idx.size), flat_idx] -= 1.0
    return out, gr.reshape(d.shape) * np.expand_dims(g, -1)


class TestTransformOracles:
    # SGConv's layout: (B, F, S) as a transposed view of (B, S, F), and one
    # (F, S) kernel broadcast over the batch
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b,f,s", [(4, 64, 1024), (4, 64, 32)], ids=["long", "desk"])
    def test_fft_convolve_bit_equal_to_array_calls(self, b, f, s, dtype):
        rng = np.random.default_rng(45)
        ud = rng.normal(size=(b, s, f)).astype(dtype).transpose(0, 2, 1)
        kd = rng.normal(size=(f, s)).astype(dtype)
        g = rng.normal(size=(b, f, s)).astype(dtype)
        want = _fft_convolve_chain(ud, kd, g)
        out = fft_convolve(Tensor(ud, requires_grad=True), Tensor(kd, requires_grad=True))
        got = (out.data, *out._node.vjp(g))
        for a, w in zip(got, want):
            assert a.dtype == w.dtype == dtype
            np.testing.assert_array_equal(a, w)

    @pytest.mark.parametrize("which", [0, 1], ids=["u", "k"])
    def test_fft_convolve_keeps_only_the_spectrum_read(self, which):
        # the input's adjoint reads the kernel's spectrum and the kernel's
        # adjoint the input's; nothing else stays on the tape
        rng = np.random.default_rng(46)
        ud = rng.normal(size=(4, 64, 1024)).astype(np.float32)
        kd = rng.normal(size=(64, 1024)).astype(np.float32)
        g = rng.normal(size=ud.shape).astype(np.float32)
        out = fft_convolve(Tensor(ud, requires_grad=which == 0), Tensor(kd, requires_grad=which == 1))
        other = kd if which == 0 else ud
        assert [a.shape for a in closure_values(out._node.vjp) if isinstance(a, np.ndarray)] == [
            other.shape[:-1] + (1025,)
        ]
        (spec,) = [c.cell_contents for c in out._node.vjp.__closure__ if isinstance(c.cell_contents, fourier.Spectrum)]
        np.testing.assert_array_equal(spec.data, np.fft.rfft(other.astype(np.float64), 2048))
        grads = out._node.vjp(g)
        assert grads[1 - which] is None
        np.testing.assert_array_equal(grads[which], _fft_convolve_chain(ud, kd, g)[1 + which])

    @pytest.mark.parametrize("g_dtype", [None, np.float64], ids=["same", "float64-grad"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 1024, 256), (4, 32, 4096)], ids=["long", "paper"])
    def test_cross_entropy_bit_equal_to_fresh_arrays(self, shape, dtype, g_dtype):
        rng = np.random.default_rng(47)
        d = (rng.normal(size=shape) * 3.0).astype(dtype)
        idx = rng.integers(0, shape[-1], size=shape[:-1])
        g = rng.normal(size=shape[:-1]).astype(g_dtype or dtype)
        want = _cross_entropy_chain(d, idx, g)
        out = cross_entropy(Tensor(d, requires_grad=True), idx)
        got = (out.data, *out._node.vjp(g))
        for a, w in zip(got, want):
            assert a.dtype == w.dtype
            np.testing.assert_array_equal(a, w)

    @pytest.mark.parametrize(
        "targets", [np.array([0.7, 1.2]), np.array([1.0, 2.0]), np.array([True, False])], ids=["float", "whole-float", "bool"]
    )
    def test_cross_entropy_rejects_non_integer_targets(self, targets):
        with pytest.raises(TypeError, match=str(targets.dtype)):
            cross_entropy(Tensor(np.zeros((2, 3))), targets)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.int64])
    def test_cross_entropy_takes_any_integer_targets(self, dtype):
        x = np.random.default_rng(48).normal(size=(3, 5))
        t = np.array([4, 0, 2])
        want = cross_entropy(Tensor(x), t).data
        np.testing.assert_array_equal(cross_entropy(Tensor(x), t.astype(dtype)).data, want)

    @pytest.mark.parametrize("targets", [[], np.zeros(0, np.int64)], ids=["list", "int64"])
    def test_cross_entropy_takes_no_targets(self, targets):
        x = Tensor(np.zeros((0, 3)), requires_grad=True)
        backward(cross_entropy(x, targets).sum())
        assert x.grad.shape == (0, 3)


class TestComposites:
    def test_rms_norm_hand_example(self):
        out = rms_norm(Tensor(np.array([3.0, 4.0])), Tensor(np.ones(2)))
        # rms of [3,4] is sqrt(12.5); 3/sqrt(12.5), 4/sqrt(12.5)
        want = np.array([3.0, 4.0]) / np.sqrt(12.5)
        np.testing.assert_allclose(out.data, want, atol=1e-6)

    def test_rms_norm_zero_vector_maps_to_zero(self):
        out = rms_norm(Tensor(np.zeros(4)), Tensor(np.ones(4)))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_rms_norm_constant_vector_is_unit_scale(self):
        out = rms_norm(Tensor(np.full(8, -2.5)), Tensor(np.ones(8)))
        np.testing.assert_allclose(out.data, np.full(8, -1.0), atol=1e-6)

    def test_rms_norm_gradient(self):
        scale = np.ones(6) * 1.5
        w = np.random.default_rng(99).normal(size=(3, 6))

        # note: sum(rms_norm(x)^2) is nearly constant in x (the norm cancels),
        # so probe with a random linear functional instead
        def fn(x):
            return (rms_norm(x, Tensor(scale)) * Tensor(w)).sum()

        check(fn, (3, 6), seed=24, eps=1e-4)

    def test_layer_norm_gradient(self):
        g = np.ones(5)
        b = np.zeros(5)

        def fn(x):
            return (layer_norm(x, Tensor(g), Tensor(b)) ** 3).sum()

        check(fn, (2, 5), seed=25)

    def test_dropout_eval_mode_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        rng = np.random.default_rng(0)
        assert dropout(x, 0.5, rng, train=False) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(26)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, rng, train=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_finite_diff_check_flags_wrong_gradient(self):
        # a deliberately broken function: forward x^2 but gradient of x^3
        from codebrain.numerics.tensor import _from_op

        def bad_square(t):
            d = t.data
            return _from_op(d * d, (t,), lambda g: (g * 3.0 * d * d,))

        err = finite_diff_check(lambda t: bad_square(t).sum(), Tensor(np.full(3, 2.0)))
        assert err > 0.1
