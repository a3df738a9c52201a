"""Backbone tests: kernel assembly, causal convolution, windowed attention,
gated blocks, and the benchmark report. Oracles are direct O(n^2) convolution
and dense masked attention."""

import tracemalloc

import numpy as np
import pytest

from codebrain import cli, nn
from codebrain.numerics import Tensor, backward, concat, finite_diff_check, repeat_last
from codebrain.ssm import (
    BenchRow,
    EegssmBlock,
    EegssmConfig,
    EegssmModel,
    GateParams,
    SgconvSpec,
    SwaParams,
    bench_backbones,
    build_kernel,
    gate,
    sgconv_forward,
    sgconv_param_count,
    swa_forward,
)
from codebrain.numerics.tensor import _Node
from test_autodiff import _tape


def make_spec(features, length, base, rng, alpha=0.5, normalize=True):
    return SgconvSpec.create(features, length, base, rng, alpha=alpha, normalize=normalize)


def convolve_direct(u, k):
    # causal truncated convolution, O(n^2) reference
    n = u.shape[-1]
    out = np.zeros_like(u, dtype=np.float64)
    for t in range(n):
        for tau in range(t + 1):
            out[..., t] += u[..., t - tau] * k[..., tau]
    return out


def dense_attention_oracle(x, params, window):
    # full score matrix with a banded mask
    q = x @ params.q.w.data.astype(np.float64) + params.q.b.data.astype(np.float64)
    k = x @ params.k.w.data.astype(np.float64) + params.k.b.data.astype(np.float64)
    v = x @ params.v.w.data.astype(np.float64) + params.v.b.data.astype(np.float64)
    s = x.shape[0]
    f = x.shape[1]
    scores = q @ k.T / np.sqrt(f)
    idx = np.arange(s)
    banned = np.abs(idx[:, None] - idx[None, :]) > window // 2
    scores[banned] = -np.inf
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    p = e / e.sum(axis=-1, keepdims=True)
    out = p @ v
    return out @ params.o.w.data.astype(np.float64) + params.o.b.data.astype(np.float64)


def tape_size(*roots):
    """Number of nodes and gradient-needing leaves reachable from `roots`."""
    return len(_tape(*roots))


class TestBuildKernel:
    def test_hand_example(self):
        # L=8, d=2, alpha=1/2, all sub-kernel taps 1, no normalization:
        # sub-kernels [1,1], [0.5,0.5], then [0.25,0.25] upsampled x2
        w = Tensor(np.ones((1, 3, 2), dtype=np.float32))
        spec = SgconvSpec(alpha=0.5, weights=w, normalize=False)
        k = build_kernel(spec)
        expected = np.array([1, 1, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25], dtype=np.float32)
        np.testing.assert_allclose(k.data[0], expected, rtol=0, atol=1e-7)

    def test_hand_example_normalized(self):
        w = Tensor(np.ones((1, 3, 2), dtype=np.float32))
        spec = SgconvSpec(alpha=0.5, weights=w, normalize=True)
        k = build_kernel(spec)
        raw = np.array([1, 1, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(k.data[0], raw / raw.sum(), rtol=1e-6)

    def test_degenerate_single_subkernel(self):
        # d == L: one sub-kernel, kernel is w_0 itself (up to normalization)
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 1, 16)).astype(np.float32)
        spec = SgconvSpec(alpha=0.5, weights=Tensor(w), normalize=False)
        np.testing.assert_allclose(build_kernel(spec).data, w[:, 0, :], rtol=0, atol=0)

    @pytest.mark.parametrize("length,base,n", [(1024, 16, 7), (8, 2, 3), (16, 16, 1), (64, 8, 4)])
    def test_subkernel_count_and_span(self, length, base, n):
        rng = np.random.default_rng(1)
        spec = make_spec(2, length, base, rng)
        assert (spec.n_subkernels, spec.base, spec.length) == (n, base, length)
        lengths = [base * (2 ** max(i - 1, 0)) for i in range(n)]
        assert sum(lengths) == length
        assert build_kernel(spec).shape == (2, length)

    def test_l1_norm_is_one(self):
        rng = np.random.default_rng(2)
        spec = make_spec(5, 256, 8, rng)
        k = build_kernel(spec).data.astype(np.float64)
        np.testing.assert_allclose(np.abs(k).sum(axis=-1), np.ones(5), atol=1e-6)

    def test_magnitude_decays_across_subkernels(self):
        # equal-scale sub-kernels with alpha <= 1: per-section max never grows
        rng = np.random.default_rng(3)
        w = np.ones((1, 5, 4), dtype=np.float32)
        spec = SgconvSpec(alpha=0.7, weights=Tensor(w))
        k = build_kernel(spec).data[0]
        bounds = np.cumsum([0] + [4 * (2 ** max(i - 1, 0)) for i in range(5)])
        maxima = [np.abs(k[bounds[i] : bounds[i + 1]]).max() for i in range(5)]
        assert all(maxima[i + 1] <= maxima[i] + 1e-9 for i in range(4))

    def test_nearest_upsample_replicates(self):
        w = np.array([[[1.0, 2.0], [3.0, 5.0], [4.0, 8.0]]], dtype=np.float32)
        spec = SgconvSpec(alpha=1.0, weights=Tensor(w), normalize=False)
        k = build_kernel(spec).data[0]
        np.testing.assert_allclose(k, [1, 2, 3, 5, 4, 4, 8, 8], atol=1e-7)

    def test_invalid_geometry_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SgconvSpec.create(1, 12, 2, rng)  # 12/2 not a power of 2
        with pytest.raises(ValueError):
            SgconvSpec.create(1, 8, 3, rng)

    @pytest.mark.parametrize("shape", [(3, 2), (1, 0, 2), (1, 3, 0)])
    def test_weights_without_a_geometry_raise(self, shape):
        with pytest.raises(ValueError, match="weights"):
            SgconvSpec(alpha=0.5, weights=Tensor(np.ones(shape, "f4")))

    def test_param_count_closed_form(self):
        assert sgconv_param_count(1, 1024, 16) == 16 * 7
        assert sgconv_param_count(64, 1024, 16) == 64 * 16 * 7
        assert sgconv_param_count(3, 8, 2) == 3 * 2 * 3
        assert sgconv_param_count(2, 16, 16) == 2 * 16

    def test_kernel_gradient(self):
        rng = np.random.default_rng(11)
        w0 = rng.normal(size=(2, 3, 2))
        probe = rng.normal(size=(2, 8))

        def fn(wt):
            spec = SgconvSpec(alpha=0.5, weights=wt)
            return (build_kernel(spec) * Tensor(probe)).sum()

        err = finite_diff_check(fn, w0, eps=1e-4)
        assert err < 1e-4

    @pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("base", [1, 2, 16])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_subkernel_chain(self, n, base, normalize):
        # forward and weight gradient bit for bit against the chain of one
        # slice, repeat and scale per sub-kernel, then a concat
        rng = np.random.default_rng([n, base])
        w = rng.normal(size=(3, n, base)).astype(np.float32)
        g = rng.normal(size=(3, base << (n - 1))).astype(np.float32)
        got = SgconvSpec(alpha=0.5, weights=Tensor(w, requires_grad=True), normalize=normalize)
        ref = SgconvSpec(alpha=0.5, weights=Tensor(w, requires_grad=True), normalize=normalize)
        k = build_kernel(got)
        k_ref = per_subkernel_kernel(ref)
        assert k.data.tobytes() == k_ref.data.tobytes()
        backward((k * Tensor(g)).sum())
        backward((k_ref * Tensor(g)).sum())
        assert got.weights.grad.tobytes() == ref.weights.grad.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_three_nodes_for_any_subkernel_count(self, n):
        # the weights' (features, N·d) view, the repeat and the scale
        w = Tensor(np.ones((2, n, 2), np.float32), requires_grad=True)
        k = build_kernel(SgconvSpec(alpha=0.5, weights=w, normalize=False))
        assert sum(isinstance(item, _Node) for item in _tape(k)) == 3


def per_subkernel_kernel(spec):
    """The kernel as one slice, repeat and scale per sub-kernel, then a
    concat and the L1 normalisation."""
    parts = []
    for i in range(spec.n_subkernels):
        w_i = spec.weights[:, i, :]
        reps = 2 ** max(i - 1, 0)
        up = repeat_last(w_i, reps) if reps > 1 else w_i
        parts.append(up * float(spec.alpha**i))
    kernel = concat(parts, axis=-1)
    if spec.normalize:
        z = kernel.abs().sum(axis=-1, keepdims=True)
        kernel = kernel / (z + 1e-12)
    return kernel


class TestSgconvForward:
    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(20)
        spec = make_spec(3, 32, 4, rng)
        u = rng.normal(size=(2, 32, 3))
        y = sgconv_forward(u, spec).data
        k = build_kernel(spec).data.astype(np.float64)
        ref = convolve_direct(u.transpose(0, 2, 1), k).transpose(0, 2, 1)
        np.testing.assert_allclose(y, ref, atol=1e-5)

    def test_short_sequence_uses_kernel_prefix(self):
        rng = np.random.default_rng(21)
        spec = make_spec(2, 64, 4, rng)
        u = rng.normal(size=(1, 10, 2))
        y = sgconv_forward(u, spec).data
        k = build_kernel(spec).data.astype(np.float64)[:, :10]
        ref = convolve_direct(u.transpose(0, 2, 1), k).transpose(0, 2, 1)
        np.testing.assert_allclose(y, ref, atol=1e-5)

    def test_causality_future_perturbation(self):
        # flipping u[t+1:] must leave y[:t+1] unchanged at working precision:
        # the spectral path computes in float64, so its rounding noise
        # (~1e-15) sits far below one float32 ulp and the cast absorbs it
        rng = np.random.default_rng(23)
        spec = make_spec(2, 64, 4, rng)
        u = rng.normal(size=(1, 64, 2)).astype(np.float32)
        t = 40
        u2 = u.copy()
        u2[:, t + 1 :, :] += (rng.normal(size=(1, 63 - t, 2)) * 10).astype(np.float32)
        y1 = sgconv_forward(u, spec).data[:, : t + 1]
        y2 = sgconv_forward(u2, spec).data[:, : t + 1]
        assert y1.dtype == np.float32
        np.testing.assert_array_equal(y1, y2)

    def test_too_long_sequence_raises(self):
        rng = np.random.default_rng(24)
        spec = make_spec(2, 16, 4, rng)
        with pytest.raises(ValueError):
            sgconv_forward(np.zeros((1, 17, 2)), spec)

    def test_feature_mismatch_raises(self):
        rng = np.random.default_rng(25)
        spec = make_spec(2, 16, 4, rng)
        with pytest.raises(ValueError):
            sgconv_forward(np.zeros((1, 16, 3)), spec)

    def test_gradient_through_convolution(self):
        rng = np.random.default_rng(26)
        spec = make_spec(2, 8, 2, rng)
        u0 = rng.normal(size=(1, 8, 2))
        probe = rng.normal(size=(1, 8, 2))

        def fn(ut):
            return (sgconv_forward(ut, spec) * Tensor(probe)).sum()

        assert finite_diff_check(fn, u0, eps=1e-4) < 1e-4

    def test_impulse_reproduces_kernel(self):
        rng = np.random.default_rng(27)
        spec = make_spec(1, 16, 4, rng)
        u = np.zeros((1, 16, 1))
        u[0, 0, 0] = 1.0
        y = sgconv_forward(u, spec).data[0, :, 0]
        np.testing.assert_allclose(y, build_kernel(spec).data[0], atol=1e-6)


class TestSwaForward:
    @pytest.mark.parametrize("window", [1, 3, 5, 8, 31])
    def test_matches_banded_dense_oracle(self, window):
        rng = np.random.default_rng(30)
        params = SwaParams(6, rng)
        x = rng.normal(size=(12, 6))
        y = swa_forward(x[None], params, window).data[0]
        ref = dense_attention_oracle(x, params, window)
        np.testing.assert_allclose(y, ref, atol=1e-5)

    def test_window_one_is_value_projection(self):
        rng = np.random.default_rng(31)
        params = SwaParams(4, rng)
        x = rng.normal(size=(9, 4)).astype(np.float32)
        y = swa_forward(x[None], params, 1).data[0]
        ref = params.o(params.v(Tensor(x))).data
        np.testing.assert_allclose(y, ref, atol=1e-6)

    def test_huge_window_equals_dense(self):
        rng = np.random.default_rng(32)
        params = SwaParams(5, rng)
        x = rng.normal(size=(7, 5))
        y = swa_forward(x[None], params, 2 * 7).data[0]
        ref = dense_attention_oracle(x, params, 10**9)
        np.testing.assert_allclose(y, ref, atol=1e-5)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(33)
        params = SwaParams(3, rng)
        x = rng.normal(size=(4, 10, 3)).astype(np.float32)
        y = swa_forward(x, params, 5).data
        for b in range(4):
            np.testing.assert_allclose(y[b], swa_forward(x[b][None], params, 5).data[0], atol=1e-6)

    def test_locality(self):
        # perturbing a token outside the window leaves an output unchanged
        rng = np.random.default_rng(34)
        params = SwaParams(4, rng)
        x = rng.normal(size=(16, 4))
        x2 = x.copy()
        x2[10] += 3.0  # position 10 is outside window 5 centered at 0..7
        y1 = swa_forward(x[None], params, 5).data[0]
        y2 = swa_forward(x2[None], params, 5).data[0]
        np.testing.assert_allclose(y1[:8], y2[:8], atol=1e-7)
        assert np.abs(y1[10] - y2[10]).max() > 1e-4

    def test_invalid_window_raises(self):
        rng = np.random.default_rng(35)
        params = SwaParams(2, rng)
        with pytest.raises(ValueError):
            swa_forward(np.zeros((1, 4, 2)), params, 0)

    def test_tape_size_independent_of_window(self):
        # the window is one node, not a graph node per offset
        rng = np.random.default_rng(37)
        params = SwaParams(4, rng)
        x = Tensor(rng.normal(size=(2, 40, 4)).astype(np.float32), requires_grad=True)
        assert tape_size(swa_forward(x, params, 7)) == tape_size(swa_forward(x, params, 31))

    def test_backward_builds_no_window_sized_gradient(self):
        # the key and value adjoints are overlap-added offset by offset, so
        # the backward pass never holds a (B, S, W, F) array
        rng = np.random.default_rng(38)
        b, s, f, window = 2, 256, 16, 31
        params = SwaParams(f, rng)
        x = Tensor(rng.normal(size=(b, s, f)).astype(np.float32), requires_grad=True)
        loss = swa_forward(x, params, window).sum()
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b * s * window * f * np.dtype(np.float32).itemsize

    def test_gradient(self):
        rng = np.random.default_rng(36)
        params = SwaParams(3, rng)
        x0 = rng.normal(size=(1, 6, 3))
        probe = rng.normal(size=(1, 6, 3))

        def fn(xt):
            return (swa_forward(xt, params, 3) * Tensor(probe)).sum()

        assert finite_diff_check(fn, x0, eps=1e-4) < 1e-4


class TestGateAndBlock:
    def test_gate_formula(self):
        rng = np.random.default_rng(40)
        params = GateParams(3, rng)
        a = rng.normal(size=(2, 5, 3)).astype(np.float32)
        b = rng.normal(size=(2, 5, 3)).astype(np.float32)
        z, y1, y2 = gate(Tensor(a), Tensor(b), params)
        cat = np.concatenate([a, b], axis=-1).astype(np.float64)
        zf = np.tanh(cat @ params.wf.w.data.astype(np.float64) + params.wf.b.data)
        zg = 1 / (1 + np.exp(-(cat @ params.wg.w.data.astype(np.float64) + params.wg.b.data)))
        np.testing.assert_allclose(z.data, zf * zg, atol=1e-5)
        np.testing.assert_allclose(
            y1.data, z.data.astype(np.float64) @ params.out1.w.data + params.out1.b.data, atol=1e-5
        )

    def test_gate_shape_mismatch_raises(self):
        rng = np.random.default_rng(41)
        params = GateParams(3, rng)
        with pytest.raises(ValueError):
            gate(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), params)

    def test_zeroed_gate_outputs_make_block_identity(self):
        rng = np.random.default_rng(42)
        block = EegssmBlock.create(4, 16, 4, 3, rng)
        block.gate.out1.w.data[:] = 0
        block.gate.out1.b.data[:] = 0
        x = Tensor(rng.normal(size=(2, 16, 4)).astype(np.float32))
        x_next, _ = block(x)
        np.testing.assert_array_equal(x_next.data, x.data)

    def test_block_tape_size(self):
        # RMSNorm and each of the eight Linears are one node beside their
        # parameters
        rng = np.random.default_rng(45)
        block = EegssmBlock.create(4, 16, 4, 3, rng)
        x = Tensor(rng.normal(size=(2, 16, 4)).astype(np.float32), requires_grad=True)
        # weights; the kernel (reshape, repeat, scale); L1 normalisation
        # (abs, sum, add, divide); then transpose, fft_convolve, transpose
        sgconv = 1 + 3 + 4 + 3
        lin = 3  # w, b, the linear node
        # q/k/v/o; query scale; the window attention node
        swa = 4 * lin + 1 + 1
        gate = 4 * lin + 4  # wf/wg/out1/out2; concat, tanh, sigmoid, product
        # x, the norm and its scale, the three mixers, the residual add
        assert tape_size(*block(x)) == 1 + 2 + sgconv + swa + gate + 1

    def test_block_gradient(self):
        rng = np.random.default_rng(43)
        block = EegssmBlock.create(3, 8, 2, 3, rng)
        x0 = rng.normal(size=(1, 8, 3))
        probe = rng.normal(size=(1, 8, 3))

        def fn(xt):
            x_next, skip = block(xt)
            return ((x_next + skip) * Tensor(probe)).sum()

        assert finite_diff_check(fn, x0, eps=1e-3) < 1e-3

    def test_no_dead_parameters(self):
        # every parameter gets a finite, somewhere-nonzero gradient at init,
        # with one structural exception: the stack output is the sum of skip
        # branches, so the LAST block's residual conv (out1) cannot reach it.
        # Assert the dead set is exactly that conv and nothing else.
        rng = np.random.default_rng(44)
        model = stack_model(2, rng, features=4, kernel_len=16, kernel_base=4)
        patches = rng.normal(size=(2, 16, 8)).astype(np.float32)
        backward((model.features(patches) ** 2).sum())
        structurally_dead = {"gate/out1/w", "gate/out1/b"}
        for i, blk in enumerate(model.blocks):
            last = i == len(model.blocks) - 1
            for name, p in blk.named_params().items():
                if last and name in structurally_dead:
                    assert p.grad is None, f"block{i}/{name} unexpectedly live"
                    continue
                assert p.grad is not None, f"block{i}/{name} missing grad"
                assert np.all(np.isfinite(p.grad)), f"block{i}/{name} non-finite grad"
                assert np.abs(p.grad).max() > 0, f"block{i}/{name} dead at init"


def stack_model(blocks, rng, features=3, kernel_len=8, kernel_base=2):
    """A backbone of `blocks` blocks over 8-sample patches, without dropout."""
    cfg = EegssmConfig(
        patch_len=8, features=features, blocks=blocks, kernel_len=kernel_len,
        kernel_base=kernel_base, window=3, codebook_size=4, p_drop=0.0,
    )
    return EegssmModel(cfg, rng)


def sum_of_skips(blocks, x, train=False, rng=None):
    """The stack written out: each block feeds the next, and their skip
    branches add up in block order."""
    out = None
    for block in blocks:
        x, skip = block(x, train, rng)
        out = skip if out is None else out + skip
    return out


class TestStack:
    def test_single_block_output_is_its_skip(self):
        rng = np.random.default_rng(50)
        model = stack_model(1, rng)
        patches = rng.normal(size=(1, 8, 8)).astype(np.float32)
        _, skip = model.blocks[0](model.embed(Tensor(patches)))
        np.testing.assert_array_equal(model.features(patches).data, skip.data)

    def test_output_is_sum_of_skips(self):
        rng = np.random.default_rng(51)
        model = stack_model(3, rng)
        patches = rng.normal(size=(1, 8, 8)).astype(np.float32)
        ref = sum_of_skips(model.blocks, model.embed(Tensor(patches)))
        np.testing.assert_array_equal(model.features(patches).data, ref.data)

    def test_order_sensitivity(self):
        rng = np.random.default_rng(52)
        model = stack_model(2, rng)
        patches = rng.normal(size=(1, 8, 8)).astype(np.float32)
        fwd = model.features(patches).data
        model.blocks = model.blocks[::-1]
        rev = model.features(patches).data
        assert np.abs(fwd - rev).max() > 1e-6


class TestEegssmModel:
    def test_forward_shapes(self):
        rng = np.random.default_rng(60)
        cfg = EegssmConfig(
            patch_len=16, features=8, blocks=2, kernel_len=32, kernel_base=4,
            window=5, codebook_size=12, p_drop=0.0,
        )
        model = EegssmModel(cfg, rng)
        patches = rng.normal(size=(2, 32, 16))
        out = model.forward(patches)
        assert out.features.shape == (2, 32, 8)
        assert out.logits_t.shape == (2, 32, 12)
        assert out.logits_f.shape == (2, 32, 12)

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_features_are_forward_without_heads(self, masked, train):
        rng = np.random.default_rng(66)
        cfg = EegssmConfig(
            patch_len=16, features=8, blocks=2, kernel_len=32, kernel_base=4,
            window=5, codebook_size=12, p_drop=0.1,
        )
        model = EegssmModel(cfg, rng)
        patches = rng.normal(size=(3, 32, 16)).astype(np.float32)
        mask = rng.random((3, 32)) < 0.5 if masked else None
        out = model.forward(patches, mask, train, np.random.default_rng(7))
        feats = model.features(patches, mask, train, np.random.default_rng(7))
        np.testing.assert_array_equal(out.features.data, feats.data)
        # the composition forward stood for before `features` split off
        e = model.embed(Tensor(patches))
        if masked:
            m = Tensor(mask.astype(np.float32)[..., None])
            e = e * (1.0 - m) + model.mask_embed * m
        ref = sum_of_skips(model.blocks, e, train, np.random.default_rng(7))
        np.testing.assert_array_equal(feats.data, ref.data)
        np.testing.assert_array_equal(out.logits_t.data, model.head_t(ref).data)
        np.testing.assert_array_equal(out.logits_f.data, model.head_f(ref).data)

    def test_mask_substitution_blocks_identity_leak(self):
        # with masking, changing a masked patch's content cannot change logits
        rng = np.random.default_rng(61)
        cfg = EegssmConfig(
            patch_len=8, features=6, blocks=1, kernel_len=16, kernel_base=4,
            window=3, codebook_size=7, p_drop=0.0,
        )
        model = EegssmModel(cfg, rng)
        patches = rng.normal(size=(1, 16, 8))
        mask = np.zeros((1, 16), dtype=bool)
        mask[0, 5] = True
        out1 = model.forward(patches, mask).logits_t.data
        patches2 = patches.copy()
        patches2[0, 5] += 10.0
        out2 = model.forward(patches2, mask).logits_t.data
        np.testing.assert_array_equal(out1, out2)

    def test_initial_logits_near_uniform(self):
        rng = np.random.default_rng(62)
        cfg = EegssmConfig(
            patch_len=8, features=6, blocks=1, kernel_len=16, kernel_base=4,
            window=3, codebook_size=50, p_drop=0.0,
        )
        model = EegssmModel(cfg, rng)
        out = model.forward(rng.normal(size=(1, 16, 8)))
        spread = out.logits_t.data.max() - out.logits_t.data.min()
        assert spread < 0.1  # near-uniform start over the vocabulary

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(63)
        cfg = EegssmConfig(
            patch_len=8, features=6, blocks=2, kernel_len=16, kernel_base=4,
            window=3, codebook_size=7, p_drop=0.0,
        )
        m1 = EegssmModel(cfg, rng)
        m2 = EegssmModel(cfg, np.random.default_rng(999))
        m2.load_state_dict(m1.state_dict())
        patches = rng.normal(size=(1, 16, 8))
        np.testing.assert_array_equal(
            m1.forward(patches).logits_t.data, m2.forward(patches).logits_t.data
        )

    def test_bad_mask_or_patch_len_raises(self):
        rng = np.random.default_rng(64)
        cfg = EegssmConfig(
            patch_len=8, features=6, blocks=1, kernel_len=16, kernel_base=4,
            window=3, codebook_size=7,
        )
        model = EegssmModel(cfg, rng)
        with pytest.raises(ValueError):
            model.forward(rng.normal(size=(1, 16, 9)))
        with pytest.raises(ValueError):
            model.forward(rng.normal(size=(1, 16, 8)), np.zeros((1, 4), bool))

    def test_full_scale_defaults_run_570_tokens(self):
        # 19 channels x 30 one-second patches -> 570-position sequence
        rng = np.random.default_rng(65)
        cfg = EegssmConfig()  # the full-scale default geometry
        assert cfg.blocks == 8 and cfg.kernel_len >= 570
        model = EegssmModel(cfg, rng)
        patches = rng.normal(size=(1, 570, cfg.patch_len)).astype(np.float32)
        out = model.forward(patches)
        assert out.features.shape == (1, 570, cfg.features)
        assert out.logits_t.shape == (1, 570, cfg.codebook_size)
        assert np.all(np.isfinite(out.features.data))

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            EegssmConfig(kernel_len=24, kernel_base=16)
        with pytest.raises(ValueError):
            EegssmConfig(blocks=0)
        with pytest.raises(ValueError):
            EegssmConfig(window=0)

    @pytest.mark.parametrize("name", ["features", "patch_len", "codebook_size"])
    def test_empty_width_raises(self, name):
        with pytest.raises(ValueError, match=name):
            EegssmConfig(**{name: 0})

    @pytest.mark.parametrize("p_drop", [1.5, 1.0, -0.1])
    def test_dropout_out_of_range_raises(self, p_drop):
        with pytest.raises(ValueError, match="dropout"):
            EegssmConfig(p_drop=p_drop)


class TestBench:
    def test_rows_and_param_counts(self):
        rows = bench_backbones([256, 512], features=2, base=16, repeats=1)
        by_key = {(r.backbone, r.seq_len): r for r in rows}
        assert ("sgconv", 256) in by_key and ("dense_attention", 512) in by_key
        assert by_key[("sgconv", 256)].params == 2 * 16 * 5  # log2(256/16)+1 = 5
        assert by_key[("direct_conv", 512)].params == 2 * 512
        assert by_key[("dense_attention", 256)].params == 4 * 2 * 2
        for r in rows:
            assert r.wall_ms > 0 and r.peak_bytes > 0

    def test_attention_capped_by_max_len(self):
        rows = bench_backbones([256, 512], features=1, base=16, repeats=1, attention_max_len=256)
        kinds = {(r.backbone, r.seq_len) for r in rows}
        assert ("dense_attention", 256) in kinds
        assert ("dense_attention", 512) not in kinds

    def test_non_power_of_two_raises(self):
        with pytest.raises(ValueError):
            bench_backbones([100], features=1)

    def test_attention_memory_quadruples(self):
        rows = bench_backbones([1024, 2048], features=4, base=16, repeats=1)
        att = {r.seq_len: r.peak_bytes for r in rows if r.backbone == "dense_attention"}
        ratio = att[2048] / att[1024]
        assert 3.2 <= ratio <= 4.8  # within 20% of 4x

    def test_csv_output(self, tmp_path):
        rows = [BenchRow("sgconv", 64, 1, 80, 1.25, 4096)]
        path = tmp_path / "bench.csv"
        cli._write_csv(path, *cli._bench_table(rows))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "backbone,seq_len,features,params,wall_ms,peak_bytes"
        assert lines[1] == "sgconv,64,1,80,1.2500,4096"
