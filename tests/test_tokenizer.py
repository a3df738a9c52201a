"""Tokenizer tests: quantization against brute-force search, contrastive and
reconstruction losses against hand values, straight-through gradients,
tokenization determinism, and the usage/dominance analytics."""

import numpy as np
import pytest

from codebrain import cli, nn
from codebrain.numerics import Tensor, backward, conv1d, finite_diff_check, no_grad
from codebrain.signal import PatchGrid, freq_features
from codebrain.tokenizer import (
    Codebook,
    Stage1Batch,
    TokenGrid,
    TokenizerConfig,
    TokenizerModel,
    class_specific_ratio,
    contrastive_loss,
    make_stage1_batch,
    stage1_losses,
    tokenize,
)
from codebrain.tokenizer import _quantize_st
from test_autodiff import _tape


def tiny_config(**kw):
    base = dict(
        patch_len=16,
        hidden=8,
        enc_layers=1,
        dec_layers=1,
        heads=2,
        mlp_dim=16,
        codebook_size=8,
        code_dim=4,
        max_positions=64,
        conv_channels=(4, 4),
        conv_kernels=(5, 3),
        conv_strides=(2, 1),
        conv_pads=(2, 1),
    )
    base.update(kw)
    return TokenizerConfig(**base)


def tiny_batch(rng, b=2, c=1, n=4, t=16):
    s = c * n
    return Stage1Batch(
        patches=rng.normal(size=(b, s, t)).astype(np.float32),
        freq_in=rng.normal(size=(b, s, t // 2 + 1)).astype(np.float32),
        amp_target=rng.normal(size=(b, s, t)).astype(np.float32),
        phase_target=rng.normal(size=(b, s, t)).astype(np.float32),
        positions=np.broadcast_to(np.arange(s), (b, s)).copy(),
        windows_per_channel=n,
    )


def nearest_bruteforce(queries, codes):
    # exhaustive float64 search, first index wins ties
    q = queries.astype(np.float64)
    c = codes.astype(np.float64)
    d2 = ((q[:, None, :] - c[None, :, :]) ** 2).sum(axis=-1)
    return d2.argmin(axis=1)


class TestConfig:
    @pytest.mark.parametrize(
        "kw, message",
        [
            *[({name: 0}, name) for name in ("hidden", "heads", "mlp_dim", "max_positions")],
            ({"hidden": 8, "heads": 3}, "not divisible"),
        ],
        ids=["hidden", "heads", "mlp_dim", "max_positions", "indivisible_heads"],
    )
    def test_invalid_width_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**kw)


class TestQuantize:
    def test_obvious_nearest(self):
        rng = np.random.default_rng(0)
        cb = Codebook(2, 2, rng)
        cb.codes.data = np.array([[0, 0], [1, 1]], dtype=np.float32)
        assert cb.nearest(np.array([0.9, 1.2], dtype=np.float32)).tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(1)
        cb = Codebook(2, 2, rng)
        cb.codes.data = np.array([[0, 0], [1, 1]], dtype=np.float32)
        assert cb.nearest(np.array([0.5, 0.5], dtype=np.float32)).tolist() == [0]

    @pytest.mark.parametrize("k", [16, 256])
    def test_bruteforce_oracle(self, k):
        rng = np.random.default_rng(2)
        cb = Codebook(k, 8, rng)
        cb.codes.data = rng.normal(size=(k, 8)).astype(np.float32)
        q = rng.normal(size=(1000, 8)).astype(np.float32)
        np.testing.assert_array_equal(cb.nearest(q), nearest_bruteforce(q, cb.codes.data))

    def test_clustered_codes_far_from_origin(self):
        # a tight cluster around a large offset: the expansion ‖c‖² − 2 q·cᵀ
        # cancels most of the digits that separate the codes, so only the
        # exact re-rank of near rows keeps the brute-force answer
        rng = np.random.default_rng(12)
        for _ in range(200):
            k, d = int(rng.integers(2, 33)), int(rng.integers(2, 17))
            offset = rng.normal(size=d)
            offset *= 10 ** rng.uniform(1, 4) / np.linalg.norm(offset)
            spread = 10 ** rng.uniform(-4, -1)
            cb = Codebook(k, d, rng)
            cb.codes.data = (offset + spread * rng.normal(size=(k, d))).astype(np.float32)
            q = (offset + spread * rng.normal(size=(40, d))).astype(np.float32)
            np.testing.assert_array_equal(cb.nearest(q), nearest_bruteforce(q, cb.codes.data))

    def test_planted_duplicate_codes_tie_low(self):
        # identical code rows force exact ties; the lower index must win
        rng = np.random.default_rng(3)
        cb = Codebook(16, 4, rng)
        codes = rng.normal(size=(16, 4)).astype(np.float32)
        codes[11] = codes[3]
        codes[9] = codes[5]
        cb.codes.data = codes
        q = np.concatenate([codes[3:4], codes[11:12], codes[5:6], codes[9:10]])
        np.testing.assert_array_equal(cb.nearest(q), [3, 3, 5, 5])

    def test_usage_counts_sum_to_calls(self):
        # each loss evaluation counts its B*S lookups in both codebooks
        cfg = tiny_config()
        rng = np.random.default_rng(4)
        model = TokenizerModel(cfg, rng)
        batch = tiny_batch(rng, b=2, n=4)
        with no_grad():
            e_d = model.down(model.encode(batch.patches, batch.freq_in, batch.positions))
        flat = e_d.data.reshape(-1, cfg.code_dim)
        stage1_losses(model, batch)
        for cb in (model.codebook_t, model.codebook_f):
            np.testing.assert_array_equal(cb.usage, np.bincount(cb.nearest(flat), minlength=cb.size))
        stage1_losses(model, batch)
        assert model.codebook_t.usage.sum() == model.codebook_f.usage.sum() == 2 * 8

    def test_empty_codebook_rejected(self):
        with pytest.raises(ValueError):
            Codebook(0, 4, np.random.default_rng(5))

    def test_query_width_mismatch(self):
        cb = Codebook(4, 4, np.random.default_rng(6))
        with pytest.raises(ValueError):
            cb.nearest(np.zeros(3, dtype=np.float32))


def encode_one(model, patch, amp, position):
    """Eval-mode embedding of a single patch at `position`."""
    t, bins = model.config.patch_len, model.config.freq_bins
    with no_grad():
        out = model.encode(
            patch.reshape(1, 1, t), amp[:bins].reshape(1, 1, bins), np.array([[position]])
        )
    return out.data[0, 0]


class TestEncodePatch:
    def test_paper_defaults_embedding_length(self):
        cfg = TokenizerConfig()  # paper-scale defaults
        assert cfg.hidden == 200
        assert cfg.conv_out_len() == 25  # floor((200+14-15)/8)+1 stays 25 through k3 s1 p1
        rng = np.random.default_rng(7)
        model = TokenizerModel(cfg, rng)
        patch = rng.normal(size=200).astype(np.float32)
        amp = rng.normal(size=200).astype(np.float32)
        e = encode_one(model, patch, amp, position=0)
        assert e.shape == (200,)
        assert np.all(np.isfinite(e))

    def test_identical_patches_identical_embeddings(self):
        cfg = tiny_config()
        rng = np.random.default_rng(8)
        model = TokenizerModel(cfg, rng)
        patch = rng.normal(size=16).astype(np.float32)
        amp = rng.normal(size=16).astype(np.float32)
        e1 = encode_one(model, patch, amp, position=3)
        e2 = encode_one(model, patch, amp, position=3)
        np.testing.assert_array_equal(e1, e2)

    def test_conv_arithmetic_oracle(self):
        # output length oracle: floor((L + 2p - k)/s) + 1 per stage
        cfg = TokenizerConfig()
        length = 200
        for k, s, p in zip(cfg.conv_kernels, cfg.conv_strides, cfg.conv_pads):
            length = (length + 2 * p - k) // s + 1
        assert cfg.conv_out_len() == length == 25


class TestContrastiveLoss:
    def test_orthogonal_pairs_hand_value(self):
        h = Tensor(np.array([[1, 0], [0, 1]], dtype=np.float32))
        ht = Tensor(np.array([[1, 0], [0, 1]], dtype=np.float32))
        loss = contrastive_loss(h, ht, temperature=0.5)
        expected = np.log(1 + 2 * np.exp(-2.0))  # per-anchor value, same for all four
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-5)

    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_identical_embeddings_log_2b_minus_1(self, b):
        v = np.tile(np.array([0.3, -0.7, 0.2], dtype=np.float32), (b, 1))
        loss = contrastive_loss(Tensor(v.copy()), Tensor(v.copy()), 0.5)
        np.testing.assert_allclose(loss.item(), np.log(2 * b - 1), rtol=1e-5)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(10)
        h = rng.normal(size=(3, 6)).astype(np.float32)
        ht = rng.normal(size=(3, 6)).astype(np.float32)
        l1 = contrastive_loss(Tensor(h.copy()), Tensor(ht.copy()), 0.5).item()
        h2 = h.copy()
        h2[1] *= 37.0
        ht2 = ht * 0.01
        l2 = contrastive_loss(Tensor(h2), Tensor(ht2), 0.5).item()
        np.testing.assert_allclose(l1, l2, rtol=1e-4)

    def test_formula_oracle_random(self):
        rng = np.random.default_rng(11)
        b, d, tau = 4, 5, 0.7
        h = rng.normal(size=(b, d))
        ht = rng.normal(size=(b, d))
        loss = contrastive_loss(Tensor(h), Tensor(ht), tau).item()
        u = np.concatenate([h, ht])
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        sims = u @ u.T / tau
        total = 0.0
        for i in range(2 * b):
            j = (i + b) % (2 * b)
            negs = [sims[i, m] for m in range(2 * b) if m != i]
            total += -sims[i, j] + np.log(np.sum(np.exp(negs)))
        np.testing.assert_allclose(loss, total / (2 * b), rtol=1e-5)

    def test_single_pair_raises(self):
        with pytest.raises(ValueError):
            contrastive_loss(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))), 0.5)

    def test_gradient(self):
        rng = np.random.default_rng(12)
        h0 = rng.normal(size=(3, 4))
        ht = Tensor(rng.normal(size=(3, 4)))

        def fn(x):
            return contrastive_loss(x, ht, 0.5)

        assert finite_diff_check(fn, h0, eps=1e-4) < 1e-4


class TestLosses:
    def test_zero_head_zero_target_gives_zero_freq_loss(self):
        cfg = tiny_config()
        rng = np.random.default_rng(13)
        model = TokenizerModel(cfg, rng)
        model.f_head_amp.w.data[:] = 0
        model.f_head_amp.b.data[:] = 0
        model.f_head_phase.w.data[:] = 0
        model.f_head_phase.b.data[:] = 0
        batch = tiny_batch(rng)
        batch.amp_target[:] = 0
        batch.phase_target[:] = 0
        assert stage1_losses(model, batch)["freq_recon"].item() == 0.0

    def test_off_by_one_amplitude_gives_patch_len(self):
        # head pinned to constant 1, target 0: sum over T of 1^2 == T
        cfg = tiny_config(patch_len=200, conv_channels=(4,), conv_kernels=(15,),
                          conv_strides=(8,), conv_pads=(7,))
        rng = np.random.default_rng(14)
        model = TokenizerModel(cfg, rng)
        model.f_head_amp.w.data[:] = 0
        model.f_head_amp.b.data[:] = 1.0
        model.f_head_phase.w.data[:] = 0
        model.f_head_phase.b.data[:] = 0
        batch = tiny_batch(rng, t=200)
        batch.amp_target[:] = 0
        batch.phase_target[:] = 0
        np.testing.assert_allclose(stage1_losses(model, batch)["freq_recon"].item(), 200.0, rtol=1e-6)

    def test_perfect_reconstruction_temporal_equals_contrastive(self):
        cfg = tiny_config()
        rng = np.random.default_rng(15)
        model = TokenizerModel(cfg, rng)
        model.t_head.w.data[:] = 0
        model.t_head.b.data[:] = 0
        batch = tiny_batch(rng)
        batch.patches[:] = 0  # input and reconstruction target both zero
        losses = stage1_losses(model, batch)
        assert losses["temporal_recon"].item() == 0.0
        assert (losses["contrastive"] + losses["temporal_recon"]).item() == losses["contrastive"].item()

    def test_temporal_recon_matches_direct_evaluation(self):
        cfg = tiny_config()
        rng = np.random.default_rng(16)
        model = TokenizerModel(cfg, rng)
        batch = tiny_batch(rng)
        losses = stage1_losses(model, batch)
        with no_grad():
            e = model.encode(batch.patches, batch.freq_in, batch.positions, train=False)
            e_d = model.down(e)
            _, st = _quantize_st(e_d, model.codebook_t)
            y = model.t_head(model.t_decoder(model.up_t(st)))
        direct = ((y.data.astype(np.float64) - batch.patches) ** 2).sum(axis=-1).mean()
        np.testing.assert_allclose(losses["temporal_recon"].item(), direct, rtol=1e-5)

    def test_total_equals_sum_of_parts(self):
        cfg = tiny_config()
        rng = np.random.default_rng(17)
        model = TokenizerModel(cfg, rng)
        batch = tiny_batch(rng)
        losses = stage1_losses(model, batch)
        parts = (
            losses["freq_recon"].item()
            + losses["codebook_sg"].item()
            + losses["contrastive"].item()
            + losses["temporal_recon"].item()
        )
        np.testing.assert_allclose(losses["total"].item(), parts, rtol=1e-6)

    def test_codes_equal_to_embeddings_zero_sg_terms(self):
        cfg = tiny_config(codebook_size=8)
        rng = np.random.default_rng(19)
        model = TokenizerModel(cfg, rng)
        batch = tiny_batch(rng, b=2, n=4)  # 8 embeddings, 8 codes
        with no_grad():
            e_d = model.down(model.encode(batch.patches, batch.freq_in, batch.positions))
        flat = e_d.data.reshape(8, cfg.code_dim)
        model.codebook_t.codes.data = flat.copy()
        model.codebook_f.codes.data = flat.copy()
        losses = stage1_losses(model, batch)
        assert losses["codebook_sg"].item() == 0.0

    def test_sg_terms_do_not_touch_encoder(self):
        cfg = tiny_config()
        rng = np.random.default_rng(20)
        model = TokenizerModel(cfg, rng)
        batch = tiny_batch(rng)
        losses = stage1_losses(model, batch)
        backward(losses["codebook_sg"])
        assert model.codebook_t.codes.grad is not None
        assert np.abs(model.codebook_t.codes.grad).max() > 0
        for name, p in model.named_params().items():
            if not name.startswith("codebook"):
                assert p.grad is None, f"{name} received gradient from stop-gradient terms"

    def test_straight_through_gradient_identity(self):
        cfg = tiny_config()
        rng = np.random.default_rng(21)
        model = TokenizerModel(cfg, rng)
        e_d = Tensor(rng.normal(size=(2, 3, cfg.code_dim)).astype(np.float32), requires_grad=True)
        probe = rng.normal(size=(2, 3, cfg.code_dim)).astype(np.float32)
        _, st = _quantize_st(e_d, model.codebook_t)
        backward((st * Tensor(probe)).sum())
        np.testing.assert_allclose(e_d.grad, probe, rtol=1e-6)
        assert model.codebook_t.codes.grad is None  # forward substitution is detached

    def test_commitment_flag_adds_weighted_term(self):
        rng = np.random.default_rng(22)
        model0 = TokenizerModel(tiny_config(), rng)
        batch = tiny_batch(np.random.default_rng(23))
        base = stage1_losses(model0, batch)["total"].item()
        model1 = TokenizerModel(tiny_config(commitment_beta=0.25), np.random.default_rng(22))
        model1.load_state_dict(model0.state_dict())
        losses = stage1_losses(model1, batch)
        assert losses["total"].item() > base  # positive commitment distance

    def test_freq_loss_gradient_through_decoder(self):
        # FD only makes sense downstream of the quantizer: the forward value
        # of the straight-through path is the code itself, so encoder-side
        # numeric derivatives are zero by construction while the ST gradient
        # is intentionally nonzero. Decoder-side parameters are unaffected.
        cfg = tiny_config()
        rng = np.random.default_rng(24)
        model = TokenizerModel(cfg, rng)
        batch = tiny_batch(rng)
        w0 = model.up_f.w.data.copy()

        def fn(wt):
            model.up_f.w = wt
            return stage1_losses(model, batch)["freq_recon"]

        try:
            err = finite_diff_check(fn, w0, eps=1e-4, scale_relative=True)
        finally:
            model.up_f.w = Tensor(w0, requires_grad=True)
        assert err < 1e-4

    def test_temporal_loss_gradient_through_head(self):
        cfg = tiny_config()
        rng = np.random.default_rng(25)
        model = TokenizerModel(cfg, rng)
        batch = tiny_batch(rng)
        w0 = model.t_head.w.data.copy()

        def fn(wt):
            model.t_head.w = wt
            losses = stage1_losses(model, batch)
            return losses["contrastive"] + losses["temporal_recon"]

        try:
            err = finite_diff_check(fn, w0, eps=1e-4, scale_relative=True)
        finally:
            model.t_head.w = Tensor(w0, requires_grad=True)
        assert err < 1e-4


DESK = TokenizerConfig(
    patch_len=200, hidden=64, enc_layers=2, dec_layers=1, heads=4,
    mlp_dim=256, codebook_size=256, code_dim=16, commitment_beta=0.25,
)


def desk_step(windows=8):
    """A desk-width tokenizer and a batch of 4 records of 4 channels."""
    rng = np.random.default_rng(30)
    model = TokenizerModel(DESK, rng)
    grids = [PatchGrid(patches=rng.normal(size=(4, windows, 200)).astype(np.float32)) for _ in range(4)]
    return model, make_stage1_batch(grids)


class TestStage1Step:
    def test_each_batch_norm_trains_once_on_the_whole_batch(self, monkeypatch):
        model, batch = desk_step()
        calls = []
        real = nn.BatchNorm1d.__call__

        def counting(bn, x, train):
            calls.append((id(bn), train, x.shape[0]))
            return real(bn, x, train)

        monkeypatch.setattr(nn.BatchNorm1d, "__call__", counting)
        stage1_losses(model, batch, train=True)
        rows = batch.patches.shape[0] * batch.patches.shape[1]
        assert sorted(calls) == sorted((id(conv.bn), True, rows) for conv in model.convs)

    def test_running_statistics_take_one_update_from_the_whole_batch(self):
        model, batch = desk_step()
        b, s, t = batch.patches.shape
        h = batch.patches.reshape(b * s, 1, t)
        expected = []
        for conv in model.convs:
            bn = conv.bn
            y = conv1d(Tensor(h), conv.w, conv.b, stride=conv.stride, pad=conv.pad).data.astype(np.float64)
            mu, var = y.mean(axis=(0, 2)), y.var(axis=(0, 2))
            m = bn.MOMENTUM
            expected.append(((1 - m) * bn.running_mean + m * mu, (1 - m) * bn.running_var + m * var))
            z = (y - mu[:, None]) / np.sqrt(var[:, None] + bn.EPS) * bn.gamma.data[:, None] + bn.beta.data[:, None]
            h = np.maximum(z, 0).astype(np.float32)
        stage1_losses(model, batch, train=True)
        for conv, (mean, var) in zip(model.convs, expected):
            np.testing.assert_allclose(conv.bn.running_mean, mean, rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(conv.bn.running_var, var, rtol=1e-4, atol=1e-6)

    def test_one_window_per_channel_raises_before_any_buffer_moves(self):
        model, batch = desk_step(windows=1)
        before = {k: v.copy() for k, v in model.named_buffers().items()}
        with pytest.raises(ValueError, match="2 windows per channel"):
            stage1_losses(model, batch, train=True)
        for name, value in model.named_buffers().items():
            np.testing.assert_array_equal(value, before[name], err_msg=name)

    def test_step_tape_size(self):
        # one front end, then the encoder over the whole sequence and over
        # each half's rows of the patch embeddings; every parameter is a leaf
        model, batch = desk_step()
        losses = stage1_losses(model, batch, train=True)
        # per conv stage: conv, two parameter views, norm, ReLU; then the
        # reshape, spectrum map, concat, input map, position rows and add
        front = 3 * 5 + 6
        # two norms, six linears, attention, ReLU, two residual adds, and a
        # reshape and a transpose for each of q/k/v and the merged heads
        layer = 2 + 6 + 1 + 1 + 2 + 4 * 2
        enc, dec = 2 * layer + 1, layer + 1  # each with its final norm
        halves = 2 * (1 + enc + 1)  # row pick, encoder, mean
        sse = 4  # subtract, square, sum, mean
        quantize = 1 + 2 * 2  # down map; per codebook, code rows and the straight-through add
        freq = 1 + dec + 2 * (1 + sse) + 1  # up map, decoder, two heads with their sums, add
        temporal = 1 + dec + 1 + sse  # up map, decoder, head, sum
        # concat, square, sum, eps, root, divide, transpose, matmul, scale,
        # self mask, cross entropy, mean
        contrastive = 12
        sg = 2 * sse
        commit = 2 * (2 + 3) + 2  # per codebook: two subtracts, product, sum, mean; add, scale
        total = 4 + 1  # the four terms' adds and the commitment's
        nodes = front + enc + halves + quantize + freq + temporal + contrastive + sg + commit + total
        assert len(_tape(losses["total"])) == len(model.named_params()) + nodes


def make_grid(rng, c=2, n=4, t=16):
    return PatchGrid(patches=rng.normal(size=(c, n, t)).astype(np.float32))


class TestTokenize:
    def make_grid(self, rng, c=2, n=4, t=16):
        return make_grid(rng, c, n, t)

    def test_deterministic(self):
        cfg = tiny_config()
        rng = np.random.default_rng(26)
        model = TokenizerModel(cfg, rng)
        grid = self.make_grid(rng)
        g1 = tokenize(model, grid)
        g2 = tokenize(model, grid)
        np.testing.assert_array_equal(g1.z_t, g2.z_t)
        np.testing.assert_array_equal(g1.z_f, g2.z_f)

    def test_570_patch_grid(self):
        cfg = tiny_config(max_positions=1024)
        rng = np.random.default_rng(27)
        model = TokenizerModel(cfg, rng)
        grid = self.make_grid(rng, c=19, n=30)
        tokens = tokenize(model, grid)
        assert tokens.shape == (19, 30)
        assert tokens.z_t.size == 570 and tokens.z_f.size == 570
        assert tokens.z_t.min() >= 0 and tokens.z_t.max() < cfg.codebook_size
        assert tokens.z_f.min() >= 0 and tokens.z_f.max() < cfg.codebook_size

    def test_matches_per_patch_quantize(self):
        cfg = tiny_config()
        rng = np.random.default_rng(28)
        model = TokenizerModel(cfg, rng)
        grid = self.make_grid(rng)
        tokens = tokenize(model, grid)
        batch = make_stage1_batch([grid])
        with no_grad():
            e_d = model.down(model.encode(batch.patches, batch.freq_in, batch.positions))
        flat = e_d.data.reshape(-1, cfg.code_dim)
        for s in range(flat.shape[0]):
            assert tokens.z_t.reshape(-1)[s] == model.codebook_t.nearest(flat[s])[0]
            assert tokens.z_f.reshape(-1)[s] == model.codebook_f.nearest(flat[s])[0]

    def test_encoder_inputs_match_the_stage1_batch(self, monkeypatch):
        # tokenize builds only the encoder's inputs: the arrays a stage-1
        # batch of the one record carries, in dtype, layout and value
        cfg = tiny_config()
        rng = np.random.default_rng(32)
        model = TokenizerModel(cfg, rng)
        grid = self.make_grid(rng, c=3, n=5)
        seen, encode = [], model.encode
        monkeypatch.setattr(model, "encode", lambda *args, **kw: seen.append(args) or encode(*args, **kw))
        tokenize(model, grid)
        batch = make_stage1_batch([grid])
        for got, want in zip(seen[0], (batch.patches, batch.freq_in, batch.positions), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)

    def test_makes_no_einsum_pad_or_window_view_call(self, monkeypatch):
        # the conv stack makes its matmuls, zero buffer and strided windows itself
        cfg = tiny_config()
        rng = np.random.default_rng(33)
        model = TokenizerModel(cfg, rng)
        grid = self.make_grid(rng, c=3, n=5)
        want = tokenize(model, grid)

        def forbidden(*args, **kw):
            raise AssertionError("tokenize called a NumPy wrapper it should not need")

        monkeypatch.setattr(np, "einsum", forbidden)
        monkeypatch.setattr(np, "pad", forbidden)
        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", forbidden)
        got = tokenize(model, grid)
        np.testing.assert_array_equal(got.z_t, want.z_t)
        np.testing.assert_array_equal(got.z_f, want.z_f)

    def test_state_dict_is_a_snapshot(self):
        cfg = tiny_config()
        rng = np.random.default_rng(30)
        model = TokenizerModel(cfg, rng)
        snapshot = model.state_dict()
        stage1_losses(model, tiny_batch(rng), train=True)
        assert model.codebook_t.usage.sum() > 0
        assert snapshot["codebook_t/usage"].sum() == 0
        assert snapshot["codebook_f/usage"].sum() == 0

    def test_leaves_the_tokenizer_unchanged(self):
        cfg = tiny_config()
        rng = np.random.default_rng(31)
        model = TokenizerModel(cfg, rng)
        stage1_losses(model, tiny_batch(rng), train=True)  # nonzero usage and statistics
        before = {k: v.copy() for k, v in model.state_dict().items()}
        tokenize(model, self.make_grid(rng))
        for k, v in model.state_dict().items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)

    def test_streams_can_disagree(self):
        # two independent codebooks generally pick different indices
        cfg = tiny_config()
        rng = np.random.default_rng(29)
        model = TokenizerModel(cfg, rng)
        grid = self.make_grid(rng, c=4, n=8)
        tokens = tokenize(model, grid)
        assert np.any(tokens.z_t != tokens.z_f)


class TestUsageReport:
    def test_fresh_codebook_all_unused(self):
        cb = Codebook(16, 4, np.random.default_rng(30))
        assert cb.unused_count() == 16
        assert cb.usage.sum() == 0

    def test_self_quantization_uses_everything(self):
        cb = Codebook(16, 4, np.random.default_rng(31))
        _quantize_st(Tensor(cb.codes.data[None].copy()), cb)
        assert cb.unused_count() == 0
        assert cb.usage.sum() == 16

    def test_csv_export(self, tmp_path):
        cb = Codebook(4, 2, np.random.default_rng(32))
        cb.codes.data = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=np.float32)
        _quantize_st(Tensor(np.array([[[0.1, 0.1], [0.9, 1.1], [1.1, 0.9]]], dtype=np.float32)), cb)
        path = tmp_path / "usage.csv"
        cli._write_csv(path, *cli._usage_table(cb))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "code_index,count"
        assert lines[1] == "0,1"
        assert lines[2] == "1,2"
        assert cb.unused_count() == 2


class TestClassSpecificRatio:
    def grid(self, z):
        z = np.asarray(z, dtype=np.int32)
        return TokenGrid(z_t=z, z_f=z.copy())

    def test_every_code_single_class_ratio_one(self):
        samples = [
            (self.grid([[0, 1]]), 0),
            (self.grid([[2, 3]]), 1),
        ]
        rep = class_specific_ratio(samples, n_codes=8)
        assert rep.ratio_t == 1.0
        assert rep.ratio_f == 1.0

    def test_perfectly_shared_codes_ratio_zero(self):
        samples = [
            (self.grid([[0, 1]]), 0),
            (self.grid([[0, 1]]), 1),
        ]
        rep = class_specific_ratio(samples, n_codes=8, tau=1.0)
        assert rep.ratio_t == 0.0
        assert rep.ratio_f == 0.0

    def test_bruteforce_count_oracle(self):
        rng = np.random.default_rng(33)
        n_codes, n_classes, tau = 12, 3, 0.8
        samples = []
        for _ in range(30):
            z_t = rng.integers(0, n_codes, size=(2, 5)).astype(np.int32)
            z_f = rng.integers(0, n_codes, size=(2, 5)).astype(np.int32)
            samples.append((TokenGrid(z_t=z_t, z_f=z_f), int(rng.integers(0, n_classes))))
        rep = class_specific_ratio(samples, n_codes=n_codes, tau=tau)
        for stream, got in (("z_t", rep.ratio_t), ("z_f", rep.ratio_f)):
            counts = np.zeros((n_codes, n_classes))
            for grid_, label in samples:
                for code in getattr(grid_, stream).reshape(-1):
                    counts[code, label] += 1
            used = counts.sum(axis=1) > 0
            dom = np.zeros(n_codes)
            dom[used] = counts[used].max(axis=1) / counts[used].sum(axis=1)
            expected = (dom[used] >= tau).sum() / used.sum()
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError):
            class_specific_ratio([], n_codes=4)


class TestBatchAssembly:
    def test_channel_major_layout_and_targets(self):
        rng = np.random.default_rng(34)
        c, n, t = 2, 4, 16
        grid = make_grid(rng, c, n, t)
        batch = make_stage1_batch([grid])
        assert batch.patches.shape == (1, c * n, t)
        # slot layout: channel-major, window n at slot c*N + n
        np.testing.assert_array_equal(batch.patches[0, 5], grid.patches[1, 1])
        assert batch.freq_in.shape == (1, c * n, t // 2 + 1)
        assert batch.amp_target.shape == (1, c * n, t)
        assert batch.windows_per_channel == n

    # (C, N, T, B): the desk and paper-width records at batch 4, the
    # long-context records at batch 2, and an odd small geometry
    @pytest.mark.parametrize("c, n, t, b", [(4, 8, 200, 4), (16, 64, 200, 2), (3, 5, 17, 3)])
    def test_matches_per_record_spectra(self, c, n, t, b):
        rng = np.random.default_rng([c, n, t])
        grids = [PatchGrid(rng.normal(scale=0.3, size=(c, n, t)).astype(np.float32)) for _ in range(b)]
        got = make_stage1_batch(grids)
        want = per_record_batch(grids)
        for name, value in vars(want).items():
            field = getattr(got, name)
            if isinstance(value, np.ndarray):
                assert (field.dtype, field.shape) == (value.dtype, value.shape), name
                assert field.tobytes() == value.tobytes(), name
            else:
                assert field == value, name

    def test_mismatched_shapes_raise(self):
        rng = np.random.default_rng(35)
        g1 = make_grid(rng, 2, 4, 16)
        g2 = make_grid(rng, 2, 3, 16)
        with pytest.raises(ValueError):
            make_stage1_batch([g1, g2])
        with pytest.raises(ValueError):
            make_stage1_batch([])


def per_record_batch(grids):
    """A `Stage1Batch` with one spectrum call per record."""
    c, n, t = grids[0].patches.shape
    amps, phases = [], []
    for g in grids:
        amp, phase = freq_features(g.patches)
        amps.append(amp.reshape(c * n, t))
        phases.append(phase.reshape(c * n, t))
    amp = np.stack(amps)
    return Stage1Batch(
        patches=np.stack([g.patches.reshape(c * n, t) for g in grids]).astype(np.float32),
        freq_in=amp[..., : t // 2 + 1].copy(),
        amp_target=amp,
        phase_target=np.stack(phases),
        positions=np.broadcast_to(np.arange(c * n), (len(grids), c * n)).copy(),
        windows_per_channel=n,
    )
