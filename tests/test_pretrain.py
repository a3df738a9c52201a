"""Training-loop tests: masking, the masked-prediction objective, optimizer
and schedule arithmetic, checkpoint round trips, resume equivalence, and
divergence handling."""

import hashlib
import itertools
import json
import os
import re
import shutil
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from codebrain import nn, pretrain
from codebrain.numerics import Tensor, backward
from codebrain.numerics.tensor import _Node
from codebrain.pretrain import (
    AdamW,
    CheckpointError,
    DivergenceError,
    TrainConfig,
    clip_grad_norm,
    cosine_lr,
    load_checkpoint,
    masked_token_loss,
    sample_mask,
    save_checkpoint,
    train_eegssm,
    train_tokenizer,
    write_history_csv,
)
from codebrain.probe import ProbeConfig, ProbeHead
from codebrain.ssm import EegssmConfig, EegssmModel, EegssmOutput
from codebrain.tokenizer import TokenGrid, TokenizerConfig, TokenizerModel
from test_autodiff import _tape, tape_arrays
from test_tokenizer import make_grid, tiny_config


class TestSampleMask:
    def test_r_zero_masks_nothing(self):
        assert not sample_mask((4, 8), 0.0, seed=1).any()

    def test_r_one_masks_everything(self):
        assert sample_mask((4, 8), 1.0, seed=1).all()

    def test_out_of_range_ratio_raises(self):
        with pytest.raises(ValueError):
            sample_mask((4, 8), -0.1, seed=1)
        with pytest.raises(ValueError):
            sample_mask((4, 8), 1.1, seed=1)

    def test_half_ratio_concentration(self):
        bits = sample_mask((100, 100), 0.5, seed=7)
        assert bits.dtype == bool and bits.shape == (100, 100)
        frac = bits.mean()
        assert 0.48 <= frac <= 0.52

    def test_regeneratable_from_seed(self):
        p1 = sample_mask((5, 9), 0.3, seed=123)
        p2 = sample_mask((5, 9), 0.3, seed=123)
        np.testing.assert_array_equal(p1, p2)


def logits_output(z_t, z_f, k, fill=0.0, boost=None):
    """Build an EegssmOutput with constant logits, optionally boosting the
    target class by `boost` at every position."""
    b, s = z_t.shape
    lt = np.full((b, s, k), fill, dtype=np.float32)
    lf = np.full((b, s, k), fill, dtype=np.float32)
    if boost is not None:
        for i in range(b):
            for j in range(s):
                lt[i, j, z_t[i, j]] += boost
                lf[i, j, z_f[i, j]] += boost
    return EegssmOutput(
        features=Tensor(np.zeros((b, s, 1), dtype=np.float32)),
        logits_t=Tensor(lt, requires_grad=True),
        logits_f=Tensor(lf, requires_grad=True),
    )


class TestMaskedTokenLoss:
    def test_uniform_logits_hand_value(self):
        rng = np.random.default_rng(0)
        k = 256
        z_t = rng.integers(0, k, size=(2, 10))
        z_f = rng.integers(0, k, size=(2, 10))
        mask = rng.random((2, 10)) < 0.5
        out = logits_output(z_t, z_f, k)
        loss = masked_token_loss(out, (z_t, z_f), mask)
        np.testing.assert_allclose(loss.item(), 2 * np.log(256), rtol=1e-5)

    def test_perfect_logits_near_zero(self):
        rng = np.random.default_rng(1)
        k = 16
        z_t = rng.integers(0, k, size=(1, 8))
        z_f = rng.integers(0, k, size=(1, 8))
        mask = np.ones((1, 8), dtype=bool)
        out = logits_output(z_t, z_f, k, boost=40.0)
        assert masked_token_loss(out, (z_t, z_f), mask).item() < 1e-6

    def test_empty_mask_raises(self):
        z = np.zeros((1, 4), dtype=np.int64)
        out = logits_output(z, z, 8)
        with pytest.raises(ValueError):
            masked_token_loss(out, (z, z), np.zeros((1, 4), dtype=bool))

    def test_unmasked_positions_get_zero_gradient(self):
        rng = np.random.default_rng(2)
        k = 8
        z_t = rng.integers(0, k, size=(2, 6))
        z_f = rng.integers(0, k, size=(2, 6))
        mask = np.zeros((2, 6), dtype=bool)
        mask[0, 1] = mask[1, 4] = True
        out = logits_output(z_t, z_f, k, fill=0.3)
        loss = masked_token_loss(out, (z_t, z_f), mask)
        backward(loss)
        for g in (out.logits_t.grad, out.logits_f.grad):
            assert np.all(g[~mask] == 0.0)
            assert np.abs(g[mask]).max() > 0

    def test_mean_over_masked_positions(self):
        # doubling the masked count with identical per-position CE keeps the mean
        k = 4
        z = np.zeros((1, 8), dtype=np.int64)
        m1 = np.zeros((1, 8), dtype=bool)
        m1[0, :2] = True
        m2 = np.zeros((1, 8), dtype=bool)
        m2[0, :4] = True
        l1 = masked_token_loss(logits_output(z, z, k), (z, z), m1).item()
        l2 = masked_token_loss(logits_output(z, z, k), (z, z), m2).item()
        np.testing.assert_allclose(l1, l2, rtol=1e-6)


class TestCosineSchedule:
    def test_exact_endpoints(self):
        assert abs(cosine_lr(0, 100, 1e-3, 1e-5) - 1e-3) < 1e-9
        assert abs(cosine_lr(100, 100, 1e-3, 1e-5) - 1e-5) < 1e-9

    def test_midpoint(self):
        np.testing.assert_allclose(cosine_lr(50, 100, 2.0, 1.0), 1.5, rtol=1e-12)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(s, 200, 1e-3, 1e-6) for s in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_clamps_out_of_range_steps(self):
        assert cosine_lr(300, 100, 1e-3, 1e-5) == cosine_lr(100, 100, 1e-3, 1e-5)

    def test_invalid_total_raises(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 1e-3, 1e-5)


class TestClipGradNorm:
    def test_large_gradients_scaled_to_max(self):
        p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        p.grad = np.full(4, 10.0, dtype=np.float32)
        pre = clip_grad_norm({"p": p}, 5.0)
        np.testing.assert_allclose(pre, 20.0, rtol=1e-6)
        np.testing.assert_allclose(np.linalg.norm(p.grad), 5.0, rtol=1e-5)

    def test_small_gradients_untouched(self):
        p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        g = np.array([0.1, 0.2, -0.1, 0.0], dtype=np.float32)
        p.grad = g.copy()
        clip_grad_norm({"p": p}, 5.0)
        np.testing.assert_array_equal(p.grad, g)

    def test_global_norm_across_params(self):
        a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        a.grad = np.full(3, 4.0, dtype=np.float32)
        b.grad = np.full(3, 3.0, dtype=np.float32)
        none = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        pre = clip_grad_norm({"a": a, "b": b, "c": none}, 1.0)
        np.testing.assert_allclose(pre, np.sqrt(3 * 16 + 3 * 9), rtol=1e-6)
        total = np.linalg.norm(np.concatenate([a.grad, b.grad]))
        np.testing.assert_allclose(total, 1.0, rtol=1e-5)


    def test_non_finite_norm_scales_nothing(self):
        a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        a.grad = np.array([np.inf, 1.0], dtype=np.float32)
        b.grad = np.array([100.0, -100.0], dtype=np.float32)
        assert clip_grad_norm({"a": a, "b": b}, 1.0) == np.inf
        np.testing.assert_array_equal(a.grad, [np.inf, 1.0])
        np.testing.assert_array_equal(b.grad, [100.0, -100.0])

class TestAdamW:
    def test_matches_reference_formulas(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p}, betas=(0.9, 0.99), eps=1e-8, weight_decay=0.0)
        w = np.array([1.0, -2.0])
        m = np.zeros(2)
        v = np.zeros(2)
        rng = np.random.default_rng(4)
        for t in range(1, 4):
            g = rng.normal(size=2)
            p.grad = g.astype(np.float32)
            opt.step(0.1)
            gg = p.grad.astype(np.float64)
            m = 0.9 * m + 0.1 * gg
            v = 0.99 * v + 0.01 * gg * gg
            w = w - 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.99**t)) + 1e-8)
            np.testing.assert_allclose(p.data, w, rtol=1e-5)

    def test_decoupled_decay_with_zero_gradient(self):
        p = Tensor(np.array([4.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p}, weight_decay=0.5)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step(0.1)
        # zero moments -> adaptive term 0; only decay applies: 4 - 0.1*0.5*4
        np.testing.assert_allclose(p.data, [3.8], rtol=1e-6)

    def test_missing_gradient_skipped(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        q = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p, "q": q}, weight_decay=0.5)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step(0.1)
        assert q.data[0] == 2.0  # untouched, decay included

    def test_state_round_trip(self):
        p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p})
        p.grad = np.array([0.5, -0.5], dtype=np.float32)
        opt.step(0.01)
        state = opt.state_dict()
        opt2 = AdamW({"p": p})
        opt2.load_state_dict(state)
        assert opt2.t == 1
        np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])
        np.testing.assert_array_equal(opt2.v["p"], opt.v["p"])


def _whole_tensor_step(w, g, m, v, t, lr, betas, eps, weight_decay):
    """The AdamW update as one expression chain over whole tensors: the
    oracle the chunked step must match bit for bit. Updates `m` and `v` in
    place and returns the new weights."""
    b1, b2 = betas
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    update = (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    if weight_decay:
        update = update + weight_decay * w
    return (w - lr * update).astype(w.dtype)


class TestChunkedAdamW:
    @staticmethod
    def _params(rng, grad_dtype):
        """(weights, grad maker) per name: tensors of several chunks with a
        ragged tail, one with a transposed-view grad, a small one that also
        gets a transposed grad, one element, a 0-d one, and one left without
        a grad."""
        chunk = pretrain._CHUNK
        shapes = {
            "ragged": ((3, chunk - 5), False),
            "ragged_t": ((chunk // 2 + 3, 5), True),
            "small_t": ((4, 6), True),
            "one": ((1,), False),
            "scalar": ((), False),
            "frozen": ((3,), None),
        }
        params, grads = {}, {}
        for name, (shape, transposed) in shapes.items():
            params[name] = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
            if transposed is None:
                grads[name] = None
            elif transposed:
                grads[name] = lambda r, shape=shape: r.normal(size=shape[::-1]).astype(grad_dtype).T
            else:
                grads[name] = lambda r, shape=shape: r.normal(size=shape).astype(grad_dtype)
        return params, grads

    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lr_kind", [float, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_matches_the_whole_tensor_chain(self, grad_dtype, lr_kind, weight_decay):
        rng = np.random.default_rng(11)
        params, grads = self._params(rng, grad_dtype)
        assert params["ragged"].size > 2 * pretrain._CHUNK and params["ragged"].size % pretrain._CHUNK
        assert not grads["ragged_t"](rng).flags.c_contiguous
        betas, eps = (0.9, 0.99), 1e-6
        opt = AdamW(params, betas=betas, eps=eps, weight_decay=weight_decay)
        w = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p.data) for k, p in params.items()}
        v = {k: np.zeros_like(p.data) for k, p in params.items()}
        frozen = params["frozen"].data
        steps = 6
        for step in range(steps):
            lr = lr_kind(cosine_lr(step, steps, 1e-2, 1e-4))
            held = {k: (p.data, p.data.copy()) for k, p in params.items()}
            for k, p in params.items():
                p.grad = None if grads[k] is None else grads[k](rng)
                if p.grad is not None:
                    w[k] = _whole_tensor_step(w[k], p.grad, m[k], v[k], step + 1, lr, betas, eps, weight_decay)
            opt.step(lr)
            for k, p in params.items():
                msg = f"step {step}: {k}"
                assert p.data.dtype == np.float32 and p.data.shape == w[k].shape, msg
                np.testing.assert_array_equal(p.data, w[k], err_msg=msg)
                np.testing.assert_array_equal(opt.m[k], m[k], err_msg=msg)
                np.testing.assert_array_equal(opt.v[k], v[k], err_msg=msg)
                # a stepped parameter gets a new array; the one it had is not written
                old, copy = held[k]
                np.testing.assert_array_equal(old, copy, err_msg=msg)
                assert (p.data is not old) == (k != "frozen"), msg
        # no grad: no moments and no decay
        assert params["frozen"].data is frozen
        assert not opt.m["frozen"].any() and not opt.v["frozen"].any()

    def test_numpy_scalar_hyperparameters_promote_nothing(self):
        runs = []
        for cast in (float, np.float64):
            p = Tensor(np.ones((5, 7), dtype=np.float32), requires_grad=True)
            opt = AdamW({"p": p}, betas=(cast(0.9), cast(0.99)), eps=cast(1e-6), weight_decay=cast(0.05))
            for _ in range(3):
                p.grad = np.random.default_rng(2).normal(size=p.shape).astype(np.float32)
                opt.step(np.float64(1e-2))
            runs.append((p.data, opt.m["p"], opt.v["p"]))
        for a, b in zip(*runs):
            assert a.dtype == b.dtype == np.float32
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(betas=(1.0, 0.999)), dict(betas=(0.9, 1.0)), dict(betas=(-0.1, 0.999)), dict(betas=(np.nan, 0.999)),
            dict(betas=(0.9,)), dict(eps=0.0), dict(eps=-1e-8), dict(eps=np.nan), dict(weight_decay=-1e-3),
            dict(weight_decay=np.nan),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            AdamW({"p": Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)}, **kwargs)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(peak_lr=1e-6, min_lr=1e-3)
        with pytest.raises(ValueError):
            TrainConfig(mask_ratio=0.0)
        with pytest.raises(ValueError):
            TrainConfig(mask_ratio=1.0)
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(clip_norm=0.0)
        with pytest.raises(ValueError):
            TrainConfig(eps=0.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1e-3)
        for peak_lr, min_lr in ((np.inf, 1e-6), (np.inf, np.inf), (1e-3, -1.0), (-1.0, -2.0)):
            with pytest.raises(ValueError, match="finite lrs"):
                TrainConfig(peak_lr=peak_lr, min_lr=min_lr)
        for epochs in (0, -3):
            with pytest.raises(ValueError, match="epochs"):
                TrainConfig(epochs=epochs)
        TrainConfig(peak_lr=1e-3, min_lr=1e-3, weight_decay=0.0)  # the bounds themselves are valid
        TrainConfig(steps=5, epochs=10)  # more epochs than steps: one step per epoch
        TrainConfig(peak_lr=0.0, min_lr=0.0)


class TestCheckpoint:
    def sample_state(self):
        rng = np.random.default_rng(5)
        return {
            "w": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.normal(size=4).astype(np.float64),
            "steps": np.arange(5, dtype=np.int64),
        }

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ckpt")
        tensors = self.sample_state()
        save_checkpoint(path, tensors, {"lr": 0.1}, step=7, meta={"note": "x"})
        ck = load_checkpoint(path)
        assert ck.step == 7
        assert ck.config == {"lr": 0.1}
        assert ck.meta == {"note": "x"}
        for k, v in tensors.items():
            np.testing.assert_array_equal(ck.tensors[k], v)
            assert ck.tensors[k].dtype == v.dtype

    def test_save_load_save_identical_bytes(self, tmp_path):
        p1 = str(tmp_path / "c1")
        p2 = str(tmp_path / "c2")
        tensors = self.sample_state()
        save_checkpoint(p1, tensors, {"a": 1}, step=3)
        ck = load_checkpoint(p1)
        save_checkpoint(p2, ck.tensors, ck.config, ck.step, ck.meta)
        for name in ("manifest.json", "tensors.bin"):
            b1 = open(os.path.join(p1, name), "rb").read()
            b2 = open(os.path.join(p2, name), "rb").read()
            assert b1 == b2, f"{name} differs after round trip"

    def test_truncated_blob_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(path, self.sample_state(), {}, step=0)
        blob = os.path.join(path, "tensors.bin")
        data = open(blob, "rb").read()
        open(blob, "wb").write(data[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(path, self.sample_state(), {}, step=0)
        man = os.path.join(path, "manifest.json")
        j = json.load(open(man))
        j["version"] = 99
        json.dump(j, open(man, "w"))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope"))

    def test_blob_closed_after_load(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(path, self.sample_state(), {}, step=0)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            load_checkpoint(path)
        assert not [w for w in seen if issubclass(w.category, ResourceWarning)]

    def saved_manifest(self, tmp_path):
        save_checkpoint(str(tmp_path), self.sample_state(), {}, step=0)
        man = tmp_path / "manifest.json"
        return man, json.loads(man.read_text())

    @pytest.mark.parametrize("key", ["total_bytes", "tensors", "step", "config_hash"])
    def test_missing_manifest_key_rejected(self, tmp_path, key):
        man, j = self.saved_manifest(tmp_path)
        del j[key]
        man.write_text(json.dumps(j))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path))

    def test_entry_bytes_disagreeing_with_dtype_and_shape_rejected(self, tmp_path):
        man, j = self.saved_manifest(tmp_path)
        entry = next(e for e in j["tensors"] if e["name"] == "w")
        entry["shape"] = [3, 5]  # 15 float32 values in a 48-byte slice
        man.write_text(json.dumps(j))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path))

    def test_negative_shape_rejected(self, tmp_path):
        man, j = self.saved_manifest(tmp_path)
        next(e for e in j["tensors"] if e["name"] == "w")["shape"] = [-3, -4]  # 12 values, as the bytes hold
        man.write_text(json.dumps(j))
        with pytest.raises(CheckpointError, match="do not hold"):
            load_checkpoint(str(tmp_path))

    @pytest.mark.parametrize("dtype", ["|O", "|V8", "|S8", "<M8[s]", "<m8[s]"])
    def test_non_numeric_dtype_rejected_before_allocating(self, tmp_path, monkeypatch, dtype):
        # "b" holds 4 eight-byte values, so only the dtype's kind is wrong
        man, j = self.saved_manifest(tmp_path)
        next(e for e in j["tensors"] if e["name"] == "b")["dtype"] = dtype
        man.write_text(json.dumps(j))

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated a tensor before every entry was checked")

        monkeypatch.setattr(pretrain.np, "empty", no_alloc)
        with pytest.raises(CheckpointError, match="'b'.*not bool, integer, float or complex"):
            load_checkpoint(str(tmp_path))

    # sha256 of manifest.json and tensors.bin as the format defines them;
    # a change to how checkpoints are written must leave these equal
    GOLDEN = {
        "sample": (
            "20dc4c58691b4fdc59543a4dbc49e534fe8b5a09716cc73147a631ceb43e8825",
            "25cc2ad1bef2ce6c5f905b720206985f737597858f2826b95adc345df503808a",
        ),
        "layouts": (
            "dbf38fa7b2cde50d642aeb7efd0efd1e5e5b900e747bb509ba2ad2b53721b0f6",
            "1cd5c2288c9c2ef3e863321a565e39f3b5ab840a325c69cb7285753a80b4b1c5",
        ),
    }

    def layouts_state(self):
        """Every layout `save_checkpoint` must normalize: big-endian, Fortran
        order, a strided view, 0-d (saved as shape [1]), empty, and the
        bool, complex and unsigned kinds."""
        rng = np.random.default_rng(11)
        return {
            "big": rng.normal(size=(2, 3)).astype(">f4"),
            "fortran": np.asfortranarray(rng.normal(size=(3, 2))),
            "strided": np.arange(12, dtype=np.int32)[::3],
            "mask": rng.random(5) < 0.5,
            "scalar": np.array(2.5, dtype=np.float32),
            "empty": np.zeros((0, 3), dtype=np.float32),
            "z": (rng.normal(size=2) + 1j * rng.normal(size=2)).astype(np.complex64),
            "u8": np.arange(7, dtype=np.uint8),
        }

    @pytest.mark.parametrize("case", ["sample", "layouts"])
    def test_format_is_pinned(self, tmp_path, case):
        if case == "sample":
            save_checkpoint(str(tmp_path), self.sample_state(), {"lr": 0.1, "name": "golden"}, step=7, meta={"note": "x"})
        else:
            save_checkpoint(str(tmp_path), self.layouts_state(), {"k": [1, 2]}, step=3)
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("manifest.json", "tensors.bin"))
        assert got == self.GOLDEN[case]

    def test_layouts_round_trip(self, tmp_path):
        state = self.layouts_state()
        save_checkpoint(str(tmp_path), state, {}, step=0)
        loaded = load_checkpoint(str(tmp_path)).tensors
        for k, v in state.items():
            assert loaded[k].dtype == v.dtype.newbyteorder("=")
            np.testing.assert_array_equal(loaded[k], v.reshape(loaded[k].shape), err_msg=k)

    def big_state(self):
        """About 8 MB in four float32 tensors and two small ones."""
        rng = np.random.default_rng(3)
        state = {f"w{i}": rng.normal(size=(512, 1024)).astype(np.float32) for i in range(4)}
        return {**state, "b": np.ones(7, dtype=np.float64), "t": np.zeros(1, dtype=np.int64)}

    def test_load_peak_memory_is_one_copy(self, tmp_path):
        save_checkpoint(str(tmp_path), self.big_state(), {}, step=0)
        blob = (tmp_path / "tensors.bin").stat().st_size
        assert blob > 8_000_000
        tracemalloc.start()
        try:
            ck = load_checkpoint(str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(v.nbytes for v in ck.tensors.values()) == blob
        assert peak <= blob + 2**20, f"peak {peak} bytes for a {blob}-byte blob"

    def test_loaded_arrays_own_separate_writeable_memory(self, tmp_path):
        state = self.big_state()
        save_checkpoint(str(tmp_path), state, {}, step=0)
        loaded = load_checkpoint(str(tmp_path)).tensors
        for k, v in loaded.items():
            assert v.flags.owndata and v.flags.writeable and v.flags.c_contiguous, k
            np.testing.assert_array_equal(v, state[k], err_msg=k)
        for a, b in itertools.combinations(loaded.values(), 2):
            assert not np.shares_memory(a, b)

    def test_blob_longer_than_manifest_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt")
        save_checkpoint(path, self.sample_state(), {}, step=0)
        with open(os.path.join(path, "tensors.bin"), "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(CheckpointError, match="128 bytes, manifest expects 120"):
            load_checkpoint(path)


MODELS = {
    "TokenizerModel": lambda rng: TokenizerModel(tiny_config(), rng),
    "EegssmModel": lambda rng: EegssmModel(EegssmConfig(patch_len=16, features=8, blocks=1, kernel_len=16, kernel_base=4), rng),
    "ProbeHead": lambda rng: ProbeHead(2, 4, 3, ProbeConfig(hidden=8, compress=6), rng),
}


def _stepped_adamw(rng) -> AdamW:
    """An optimizer over a tiny model, stepped once so its moments differ
    from one `rng` to the next."""
    params = MODELS["ProbeHead"](rng).named_params()
    for p in params.values():
        p.grad = rng.normal(size=p.shape).astype(np.float32)
    opt = AdamW(params)
    opt.step(1e-2)
    return opt


each_model = pytest.mark.parametrize("build", list(MODELS.values()), ids=list(MODELS))
# every Module whose state is saved: the models, and the optimizer, whose
# state is buffers only
each_state = pytest.mark.parametrize(
    "build", [*MODELS.values(), _stepped_adamw], ids=[*MODELS, "AdamW"]
)


def _reachable_params(obj, seen=None) -> list[Tensor]:
    """Every requires_grad Tensor reachable from `obj` through attributes,
    lists and tuples, once each, in visiting order."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj] if obj.requires_grad else []
    if isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [t for item in items for t in _reachable_params(item, seen)]


@each_model
class TestStateTree:
    def test_every_reachable_param_named_once(self, build):
        # a Tensor the state tree missed would never be trained, clipped or saved
        model = build(np.random.default_rng(0))
        named = [id(t) for t in model.named_params().values()]
        assert len(named) == len(set(named))
        assert set(named) == {id(t) for t in _reachable_params(model)}

    def test_state_dict_is_a_snapshot(self, build):
        # held across steps, as the probe holds its best state while it trains on
        model = build(np.random.default_rng(0))
        snapshot = model.state_dict()
        before = {k: v.copy() for k, v in snapshot.items()}
        params = model.named_params()
        opt = AdamW(params, weight_decay=0.1)
        for step in range(4):
            arrays = {k: p.data for k, p in params.items()}
            for p in params.values():
                p.grad = np.ones_like(p.data)
            opt.step(1e-2)
            for k, v in snapshot.items():
                np.testing.assert_array_equal(v, before[k], err_msg=f"step {step}: {k}")
            for k, p in params.items():
                assert p.data is not arrays[k], f"step {step}: {k}"
                assert not np.shares_memory(p.data, snapshot[k]), f"step {step}: {k}"
        assert all(not np.array_equal(p.data, before[k]) for k, p in params.items())


def _linear(*prefixes):
    return [f"{p}/{x}" for p in prefixes for x in ("w", "b")]


def _norm(p):
    return [f"{p}/gamma", f"{p}/beta"]


def _transformer(p):
    """A one-layer nn.TransformerEncoder's parameter names."""
    layer = f"{p}/layer0"
    return [
        *_norm(f"{layer}/ln1"), *_linear(*(f"{layer}/attn/{x}" for x in "qkvo")),
        *_norm(f"{layer}/ln2"), *_linear(f"{layer}/fc1", f"{layer}/fc2"), *_norm(f"{p}/ln"),
    ]


# the checkpoint format: ordered (parameter names, buffer names) of each tiny model
STATE_NAMES = {
    "TokenizerModel": (
        [
            *_linear("conv0"), *_norm("conv0/bn"), *_linear("conv1"), *_norm("conv1/bn"),
            *_linear("freq_proj", "input_proj"), "pos_embed", *_transformer("encoder"), *_linear("down"),
            "codebook_t/codes", "codebook_f/codes", *_linear("up_t", "up_f"),
            *_transformer("f_decoder"), *_transformer("t_decoder"),
            *_linear("f_head_amp", "f_head_phase", "t_head"),
        ],
        [
            "conv0/bn/running_mean", "conv0/bn/running_var", "conv1/bn/running_mean", "conv1/bn/running_var",
            "codebook_t/usage", "codebook_f/usage",
        ],
    ),
    "EegssmModel": (
        [
            *_linear("embed"), "mask_embed", "block0/rms_scale", "block0/sgconv/weights",
            *_linear(*(f"block0/swa/{x}" for x in "qkvo")),
            *_linear(*(f"block0/gate/{x}" for x in ("wf", "wg", "out1", "out2"))),
            *_linear("head_t", "head_f"),
        ],
        [],
    ),
    "ProbeHead": (_linear("layer1", "layer2", "layer3"), []),
}


@pytest.mark.parametrize("name", list(MODELS))
class TestStateNames:
    def test_state_dict_names(self, name):
        params, buffers = STATE_NAMES[name]
        model = MODELS[name](np.random.default_rng(0))
        assert list(model.named_params()) == params
        assert list(model.named_buffers()) == buffers
        assert list(model.state_dict()) == params + buffers

    def test_adamw_names(self, name):
        params, _ = STATE_NAMES[name]
        opt = AdamW(MODELS[name](np.random.default_rng(0)).named_params())
        expected = ["adam/t", *(f"adam/m/{p}" for p in params), *(f"adam/v/{p}" for p in params)]
        assert list(opt.state_dict()) == expected


class _Toy(nn.Module):
    def __init__(self, rng):
        self.config = ProbeConfig()
        self.w = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        self.width = 2
        self.stats = np.zeros(2, dtype=np.float32)
        self.layers = [nn.Linear(2, 2, rng), nn.LayerNorm(2)]
        self.rate = 0.5
        self.head = nn.Linear(2, 1, rng)


class TestDerivedChildren:
    def test_attributes_give_the_tree_in_assignment_order(self):
        toy = _Toy(np.random.default_rng(0))
        assert list(toy.children()) == ["w", "stats", "layer0", "layer1", "head"]
        assert list(toy.named_params()) == ["w", "layer0/w", "layer0/b", "layer1/gamma", "layer1/beta", "head/w", "head/b"]
        assert list(toy.named_buffers()) == ["stats"]

    def test_reassigned_buffer_keeps_its_place(self):
        toy = _Toy(np.random.default_rng(0))
        before = list(toy.state_dict())
        toy.stats = np.ones(2, dtype=np.float32)
        assert list(toy.state_dict()) == before
        np.testing.assert_array_equal(toy.state_dict()["stats"], np.ones(2))

    def test_batch_norm_running_stats_keep_their_place(self):
        bn = nn.BatchNorm1d(3)
        bn(Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)).astype(np.float32)), train=True)
        assert list(bn.state_dict()) == ["gamma", "beta", "running_mean", "running_var"]


@each_state
class TestLoadStateDict:
    def test_missing_key_raises(self, build):
        model = build(np.random.default_rng(0))
        if not model.named_params():
            pytest.skip("no parameters")
        state = dict(model.state_dict())
        del state[next(iter(model.named_params()))]
        with pytest.raises(KeyError):
            build(np.random.default_rng(1)).load_state_dict(state)

    def test_wrong_shape_raises(self, build):
        model = build(np.random.default_rng(0))
        if not model.named_params():
            pytest.skip("no parameters")
        state = dict(model.state_dict())
        name = list(model.named_params())[-1]  # checked last: nothing may load
        state[name] = np.zeros(state[name].shape + (2,), dtype=np.float32)
        target = build(np.random.default_rng(1))
        before = {k: v.copy() for k, v in target.state_dict().items()}
        with pytest.raises(ValueError):
            target.load_state_dict(state)
        for k, v in target.state_dict().items():
            np.testing.assert_array_equal(v, before[k])

    @staticmethod
    def _moved_buffers(build):
        """A state whose buffers all differ from a fresh target's, the
        target, and a copy of the target's state."""
        model = build(np.random.default_rng(0))
        buffers = model.named_buffers()
        state = {k: v + 1 if k in buffers else v for k, v in model.state_dict().items()}
        target = build(np.random.default_rng(1))
        return state, target, {k: v.copy() for k, v in target.state_dict().items()}

    def test_missing_buffer_raises_before_any_change(self, build):
        state, target, before = self._moved_buffers(build)
        if not target.named_buffers():
            pytest.skip("no buffers")
        for name in target.named_buffers():  # conv*/bn/running_*, codebook_*/usage
            with pytest.raises(KeyError):
                target.load_state_dict({k: v for k, v in state.items() if k != name})
            for k, v in target.state_dict().items():
                np.testing.assert_array_equal(v, before[k], err_msg=f"{k} after dropping {name}")

    def test_wrong_buffer_shape_raises_before_any_change(self, build):
        state, target, before = self._moved_buffers(build)
        if not target.named_buffers():
            pytest.skip("no buffers")
        for name, buf in target.named_buffers().items():
            # (1,) would broadcast over every channel or code, and (2,) + shape
            # would turn a moment's parameter into that shape at the next step
            for bad in (state[name][:1], np.stack([state[name]] * 2)):
                if bad.shape == buf.shape:  # adam/t is (1,) already
                    continue
                with pytest.raises(ValueError):
                    target.load_state_dict({**state, name: bad})
                for k, v in target.state_dict().items():
                    np.testing.assert_array_equal(v, before[k], err_msg=f"{k} after reshaping {name} to {bad.shape}")

    def test_loads_every_tensor_into_place(self, build):
        state, target, _ = self._moved_buffers(build)
        live = target.named_buffers()
        target.load_state_dict(state)
        for k, v in target.state_dict().items():
            np.testing.assert_array_equal(v, state[k], err_msg=k)
            assert v.dtype == state[k].dtype
        assert all(v is live[k] for k, v in target.named_buffers().items())


def stage1_setup(seed=0, n_records=6):
    rng = np.random.default_rng(seed)
    model = TokenizerModel(tiny_config(), np.random.default_rng(seed))
    dataset = [make_grid(rng, c=1, n=4, t=16) for _ in range(n_records)]
    return model, dataset


class TestTrainTokenizer:
    def config(self, steps=8, **kw):
        base = dict(steps=steps, batch_size=2, peak_lr=1e-3, min_lr=1e-5,
                    betas=(0.9, 0.99), weight_decay=1e-2, seed=11)
        base.update(kw)
        return TrainConfig(**base)

    def test_runs_and_reports(self):
        model, data = stage1_setup()
        history = train_tokenizer(model, data, self.config())
        assert len(history) == 8
        for row in history:
            assert np.isfinite(float(row["total"]))
            assert {"freq_recon", "temporal_recon", "contrastive", "codebook", "unused_t", "unused_f"} <= set(row)

    def test_deterministic_replay(self):
        m1, data = stage1_setup()
        h1 = train_tokenizer(m1, data, self.config())
        m2, _ = stage1_setup()
        h2 = train_tokenizer(m2, data, self.config())
        assert h1 == h2
        for k, v in m1.state_dict().items():
            np.testing.assert_array_equal(v, m2.state_dict()[k])

    def test_graph_released_before_next_step(self, monkeypatch):
        # backward frees step 0's graph, though the loop still holds its loss
        # when step 1's forward pass starts: every array an adjoint keeps,
        # bar the leaves' own, and every inner tensor still alive
        model, data = stage1_setup()
        real_train, refs, alive = pretrain._train, [], []

        def spy_train(*args):
            *head, step_fn = args

            def wrapped(step, items, rng):
                alive.append(sum(r() is not None for r in refs))
                loss, columns = step_fn(step, items, rng)
                tape = _tape(loss)
                leaves = {id(t.data) for t in tape if isinstance(t, Tensor)}
                inner = [n.out() for n in tape if isinstance(n, _Node)]
                arrays = tape_arrays(tape) + [t.data for t in inner if t is not None]
                # numpy scalars take no weakref
                refs.extend(weakref.ref(a) for a in arrays if isinstance(a, np.ndarray) and id(a) not in leaves)
                return loss, columns

            return real_train(*head, wrapped)

        monkeypatch.setattr(pretrain, "_train", spy_train)
        train_tokenizer(model, data, self.config(steps=2))
        assert len(refs) > 100
        assert alive == [0, 0]

    def test_unused_counts_non_increasing(self):
        model, data = stage1_setup()
        history = train_tokenizer(model, data, self.config(steps=12))
        for key in ("unused_t", "unused_f"):
            vals = [row[key] for row in history]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = self.config(steps=10)
        m1, data = stage1_setup()
        h_full = train_tokenizer(m1, data, cfg)

        m2, _ = stage1_setup()
        train_tokenizer(m2, data, cfg, out_dir=str(tmp_path / "full"), checkpoint_every=5)
        m3, _ = stage1_setup()
        h_rest = train_tokenizer(
            m3, data, cfg, resume_from=str(tmp_path / "full" / "step_000005")
        )
        assert h_rest == h_full[5:]
        for k, v in m3.state_dict().items():
            np.testing.assert_array_equal(v, m1.state_dict()[k])

    @pytest.mark.parametrize("fault", ["missing_moment", "broadcast_moment", "model_shape"])
    def test_bad_resume_state_raises_before_model_changes(self, tmp_path, fault):
        model, data = stage1_setup()
        out = str(tmp_path / "run")
        train_tokenizer(model, data, self.config(steps=4), out_dir=out, checkpoint_every=2)
        ckpt = load_checkpoint(os.path.join(out, "step_000002"))
        tensors = dict(ckpt.tensors)
        name = "t_head/w" if fault == "model_shape" else "adam/v/t_head/w"
        if fault == "missing_moment":
            del tensors[name]
        elif fault == "broadcast_moment":  # would load, and reshape t_head/w at the next step
            tensors[name] = np.stack([tensors[name]] * 2)
        else:
            tensors[name] = tensors[name][:1]
        save_checkpoint(str(tmp_path / "bad"), tensors, ckpt.config, ckpt.step)
        target, _ = stage1_setup()
        before = {k: v.copy() for k, v in target.state_dict().items()}
        with pytest.raises(CheckpointError, match=name):
            train_tokenizer(target, data, self.config(steps=4), resume_from=str(tmp_path / "bad"))
        for k, v in target.state_dict().items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)

    def test_config_mismatch_refused(self, tmp_path):
        model, data = stage1_setup()
        out = str(tmp_path / "run")
        train_tokenizer(model, data, self.config(steps=4), out_dir=out, checkpoint_every=2)
        m2, _ = stage1_setup()
        with pytest.raises(CheckpointError):
            train_tokenizer(m2, data, self.config(steps=4, peak_lr=5e-4),
                            resume_from=os.path.join(out, "step_000002"))

    def test_divergence_aborts_with_checkpoint(self, tmp_path):
        model, data = stage1_setup()
        model.input_proj.w.data[0, 0] = np.nan
        out = str(tmp_path / "run")
        with pytest.raises(DivergenceError):
            train_tokenizer(model, data, self.config(), out_dir=out)
        assert os.path.exists(os.path.join(out, "diverged", "manifest.json"))

    def test_divergence_names_step_tensor_and_last_finite_loss(self, tmp_path, monkeypatch):
        cfg = self.config(steps=4)
        m_ref, data = stage1_setup()
        h_ref = train_tokenizer(m_ref, data, cfg, out_dir=str(tmp_path / "ref"), checkpoint_every=2)

        model, _ = stage1_setup()
        params = model.named_params()
        real, calls, grads = pretrain.backward, [], {}

        def poisoned(loss):  # step 2's gradient of t_head/w turns infinite
            real(loss)
            calls.append(loss)
            if len(calls) == 3:
                params["t_head/w"].grad[0, 0] = np.inf
                grads.update({k: p.grad.copy() for k, p in params.items() if p.grad is not None})

        monkeypatch.setattr(pretrain, "backward", poisoned)
        out = str(tmp_path / "run")
        with pytest.raises(DivergenceError) as info:
            train_tokenizer(model, data, cfg, out_dir=out)
        msg = str(info.value)
        assert msg.startswith("step 2: non-finite gradient norm inf")
        assert "first non-finite gradient in t_head/w" in msg
        last = re.search(r"last finite loss (\S+) at step 2$", msg)
        assert last and float(last.group(1)) == pytest.approx(float(h_ref[2]["total"]), rel=1e-5)
        for k, g in grads.items():  # raised before any gradient was scaled
            np.testing.assert_array_equal(params[k].grad, g)
        # diverged/ holds the parameters and optimizer state from before step 2
        before = load_checkpoint(str(tmp_path / "ref" / "step_000002")).tensors
        diverged = load_checkpoint(os.path.join(out, "diverged"))
        assert diverged.step == 2
        for k in [*params, *(k for k in before if k.startswith("adam/"))]:
            np.testing.assert_array_equal(diverged.tensors[k], before[k])
            if k in params:
                np.testing.assert_array_equal(params[k].data, before[k])

    def test_diverged_checkpoint_equals_last_periodic_one(self, tmp_path, monkeypatch):
        # step 2's forward pass moves the BatchNorm statistics and the code
        # usage before its NaN gradient is found; diverged/ must not hold them
        model, data = stage1_setup()
        params = model.named_params()
        real, calls = pretrain.backward, []

        def poisoned(loss):
            real(loss)
            calls.append(loss)
            if len(calls) == 3:
                params["t_head/w"].grad[0, 0] = np.nan

        monkeypatch.setattr(pretrain, "backward", poisoned)
        out = tmp_path / "run"
        with pytest.raises(DivergenceError):
            train_tokenizer(model, data, self.config(steps=4), out_dir=str(out), checkpoint_every=1)
        last = load_checkpoint(str(out / "step_000002"))
        diverged = load_checkpoint(str(out / "diverged"))
        assert diverged.step == last.step == 2
        assert diverged.tensors.keys() == last.tensors.keys()
        for k, v in last.tensors.items():
            np.testing.assert_array_equal(diverged.tensors[k], v, err_msg=k)

    def test_empty_dataset_raises(self):
        model, _ = stage1_setup()
        with pytest.raises(ValueError):
            train_tokenizer(model, [], self.config())

    def test_writes_history_and_final_checkpoint(self, tmp_path):
        model, data = stage1_setup()
        out = str(tmp_path / "run")
        train_tokenizer(model, data, self.config(steps=3), out_dir=out)
        assert os.path.exists(os.path.join(out, "final", "tensors.bin"))
        lines = open(os.path.join(out, "history_stage1.csv")).read().strip().split("\n")
        assert lines[0].startswith("step,lr,total,")
        assert len(lines) == 4


def stage2_setup(seed=0, n_records=6, k=12):
    rng = np.random.default_rng(seed)
    cfg = EegssmConfig(
        patch_len=16, features=8, blocks=1, kernel_len=16, kernel_base=4,
        window=3, codebook_size=k, p_drop=0.0,
    )
    model = EegssmModel(cfg, np.random.default_rng(seed))
    data = []
    for _ in range(n_records):
        grid = make_grid(rng, c=2, n=8, t=16)
        tokens = TokenGrid(
            z_t=rng.integers(0, k, size=(2, 8)).astype(np.int32),
            z_f=rng.integers(0, k, size=(2, 8)).astype(np.int32),
        )
        data.append((grid, tokens))
    return model, data


class TestTrainEegssm:
    def config(self, steps=6, **kw):
        base = dict(steps=steps, batch_size=2, peak_lr=1e-3, min_lr=1e-5,
                    betas=(0.9, 0.999), weight_decay=5e-3, mask_ratio=0.5, seed=21)
        base.update(kw)
        return TrainConfig(**base)

    def test_runs_and_reports(self):
        model, data = stage2_setup()
        history = train_eegssm(model, data, self.config())
        assert len(history) == 6
        for row in history:
            assert np.isfinite(float(row["loss"]))
            assert 0.0 <= float(row["acc_t"]) <= 1.0

    def test_initial_loss_near_two_log_k(self):
        model, data = stage2_setup(k=12)
        history = train_eegssm(model, data, self.config(steps=1, peak_lr=0.0, min_lr=0.0))
        assert abs(float(history[0]["loss"]) - 2 * np.log(12)) / (2 * np.log(12)) < 0.05

    def test_deterministic_replay(self):
        m1, data = stage2_setup()
        h1 = train_eegssm(m1, data, self.config())
        m2, _ = stage2_setup()
        h2 = train_eegssm(m2, data, self.config())
        assert h1 == h2

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = self.config(steps=8)
        m1, data = stage2_setup()
        h_full = train_eegssm(m1, data, cfg)
        m2, _ = stage2_setup()
        train_eegssm(m2, data, cfg, out_dir=str(tmp_path / "run"), checkpoint_every=4)
        m3, _ = stage2_setup()
        h_rest = train_eegssm(m3, data, cfg, resume_from=str(tmp_path / "run" / "step_000004"))
        assert h_rest == h_full[4:]

    def test_divergence_detected(self, tmp_path):
        model, data = stage2_setup()
        model.embed.w.data[0, 0] = np.inf
        before = {k: v.copy() for k, v in model.state_dict().items()}
        out = str(tmp_path / "run")
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            train_eegssm(model, data, self.config(), out_dir=out)
        ckpt = load_checkpoint(os.path.join(out, "diverged"))
        assert ckpt.step == 0  # the failing step: its update was not applied
        for k, v in before.items():
            np.testing.assert_array_equal(ckpt.tensors[k], v)
            np.testing.assert_array_equal(model.state_dict()[k], v)

    def test_divergence_on_first_loss_names_it(self):
        model, data = stage2_setup()
        model.embed.w.data[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as info:
            train_eegssm(model, data, self.config())
        msg = str(info.value)
        assert msg.startswith("step 0: non-finite loss nan; first non-finite gradient in ")
        assert msg.endswith("; no finite loss in this run")


def _train_stage(stage, out_dir, **kw):
    """Six steps of either stage with a checkpoint every two."""
    if stage == 1:
        model, data = stage1_setup()
        return train_tokenizer(model, data, TestTrainTokenizer().config(steps=6), out_dir=out_dir, checkpoint_every=2, **kw)
    model, data = stage2_setup()
    return train_eegssm(model, data, TestTrainEegssm().config(steps=6), out_dir=out_dir, checkpoint_every=2, **kw)


@pytest.mark.parametrize("stage", [1, 2])
def test_no_gradient_outlives_training(tmp_path, stage):
    # the last step's gradients are as large as the model; nothing reads them
    if stage == 1:
        model, data = stage1_setup()
        train_tokenizer(model, data, TestTrainTokenizer().config(steps=3), out_dir=str(tmp_path), checkpoint_every=2)
    else:
        model, data = stage2_setup()
        train_eegssm(model, data, TestTrainEegssm().config(steps=3), out_dir=str(tmp_path), checkpoint_every=2)
    assert [k for k, p in model.named_params().items() if p.grad is not None] == []


@pytest.mark.parametrize("stage", [1, 2])
def test_every_gradient_has_its_tensors_dtype(monkeypatch, stage):
    # one desk-width training step at batch 4 (stage 2 with dropout on):
    # each node's vjp sees the gradient backward handed it, and each leaf's
    # gradient is read before the loop clears it
    rng = np.random.default_rng(stage)
    grids = [make_grid(rng, c=4, n=8, t=200) for _ in range(4)]
    config = TrainConfig(steps=1, batch_size=4, seed=0)
    if stage == 1:
        model = TokenizerModel(TokenizerConfig(
            patch_len=200, hidden=64, enc_layers=2, dec_layers=1, heads=4,
            mlp_dim=256, codebook_size=256, code_dim=16, commitment_beta=0.25,
        ), np.random.default_rng(0))
    else:
        model = EegssmModel(EegssmConfig(
            patch_len=200, features=64, blocks=2, kernel_len=32, kernel_base=4,
            window=7, codebook_size=256, p_drop=0.1,
        ), np.random.default_rng(0))
    params = model.named_params()
    names = {id(p): name for name, p in params.items()}
    handed, leaves, real_backward = [], {}, pretrain.backward

    def checked_backward(loss):
        tape = _tape(loss)
        for node in tape:
            if isinstance(node, _Node):
                def spy(g, node=node, vjp=node.vjp):
                    handed.append((vjp.__qualname__, node.dtype, g.dtype))
                    return vjp(g)

                node.vjp = spy
        real_backward(loss)
        leaves.update((names[id(t)], t.grad.dtype) for t in tape if isinstance(t, Tensor))

    monkeypatch.setattr(pretrain, "backward", checked_backward)
    if stage == 1:
        train_tokenizer(model, grids, config)
    else:
        tokens = [TokenGrid(*rng.integers(0, 256, size=(2, 4, 8)).astype(np.int32)) for _ in grids]
        train_eegssm(model, list(zip(grids, tokens)), config)
    # the stack sums skip branches only, so the last block's residual
    # branch, and the map that makes it, get no gradient
    unused = {"block1/gate/out1/w", "block1/gate/out1/b"} if stage == 2 else set()
    assert len(handed) > 50 and set(params) - set(leaves) == unused
    assert {name: dt.name for name, dt in leaves.items() if dt != params[name].dtype} == {}
    assert sorted({(name, want.name, got.name) for name, want, got in handed if got != want}) == []


def test_divergence_keeps_the_failed_steps_gradients():
    model, data = stage2_setup()
    model.embed.w.data[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as info:
        train_eegssm(model, data, TestTrainEegssm().config())
    bad = re.search(r"first non-finite gradient in (\S+);", str(info.value)).group(1)
    assert not np.all(np.isfinite(model.named_params()[bad].grad))


class _Killed(Exception):
    pass


class TestResumeEquivalence:
    @pytest.mark.parametrize("interrupted", [False, True], ids=["after_completion", "after_interruption"])
    @pytest.mark.parametrize("boundary", [2, 4, 6])
    @pytest.mark.parametrize("stage", [1, 2])
    def test_history_and_final_checkpoint_match_uninterrupted(self, tmp_path, monkeypatch, stage, boundary, interrupted):
        full = str(tmp_path / "full")
        _train_stage(stage, full)
        run = str(tmp_path / "run")
        if interrupted:  # the process dies right after writing checkpoint `boundary`
            real = pretrain.write_history_csv

            def dying(rows, path):
                real(rows, path)
                if len(rows) == boundary:
                    raise _Killed

            monkeypatch.setattr(pretrain, "write_history_csv", dying)
            with pytest.raises(_Killed):
                _train_stage(stage, run)
            monkeypatch.undo()
            assert not os.path.exists(os.path.join(run, "final"))
        else:  # resumed into the directory of a finished run
            shutil.copytree(full, run)
        rows = _train_stage(stage, run, resume_from=os.path.join(run, f"step_{boundary:06d}"))
        assert [r["step"] for r in rows] == list(range(boundary, 6))
        for name in (f"history_stage{stage}.csv", "final/manifest.json", "final/tensors.bin"):
            with open(os.path.join(full, name), "rb") as a, open(os.path.join(run, name), "rb") as b:
                assert a.read() == b.read(), name


class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        rows = [{"step": 0, "loss": "1.5"}, {"step": 1, "loss": "1.2"}]
        path = tmp_path / "h.csv"
        write_history_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines == ["step,loss", "0,1.5", "1,1.2"]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_history_csv([], tmp_path / "h.csv")
