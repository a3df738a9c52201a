"""End-to-end acceptance gate.

Each test function is one numbered criterion; `pytest -v` therefore prints
exactly one pass/fail line per criterion. Module-scoped fixtures share the
expensive artifacts: one synthetic corpus, one stage-1 training run, four
stage-2 runs (three mask ratios on planted tokens + one on real tokens), and
one probe feature matrix.
"""

import time

import numpy as np
import pytest

from codebrain.numerics import (
    Tensor,
    conv1d,
    cross_entropy,
    fft_convolve,
    fft_convolve_arrays,
    finite_diff_check,
    layer_norm,
    no_grad,
    pad_axis,
    repeat_last,
    rms_norm,
    softmax,
    stack,
    take_rows,
)
from codebrain.pretrain import TrainConfig, train_eegssm, train_tokenizer
from codebrain.probe import ProbeConfig, auroc, balanced_accuracy, cohen_kappa, confusion_matrix, extract_features, train_probe_on_features
from codebrain.signal import Band, ClassSpec, GeneratorSpec, patch, preprocess, split_stratified, synth_generate
from codebrain.ssm import (
    EegssmBlock,
    EegssmConfig,
    EegssmModel,
    SgconvSpec,
    bench_backbones,
    build_kernel,
    sgconv_param_count,
    swa_forward,
    SwaParams,
)
from codebrain.tokenizer import Codebook, TokenGrid, TokenizerConfig, TokenizerModel, class_specific_ratio, tokenize

# ---- desk-scale configuration shared by the training criteria --------------------

DESK_SPEC = GeneratorSpec(
    classes=(
        ClassSpec("slow", (Band(1.0, 4.0, 40.0),)),
        ClassSpec("alpha", (Band(8.0, 12.0, 40.0),)),
        ClassSpec("beta", (Band(18.0, 30.0, 40.0),)),
    ),
    channels=4,
    sample_rate=200,
    duration=8.0,
    noise_sigma=4.0,
    records_per_class=60,
)

DESK_TOKENIZER = TokenizerConfig(
    patch_len=200, hidden=64, enc_layers=2, dec_layers=1, heads=4,
    mlp_dim=256, codebook_size=256, code_dim=16, commitment_beta=0.25,
)

DESK_MODEL = EegssmConfig(
    patch_len=200, features=64, blocks=2, kernel_len=32, kernel_base=4,
    window=7, codebook_size=256, p_drop=0.0,
)

STAGE1_TRAIN = TrainConfig(steps=200, batch_size=4, peak_lr=3e-3, min_lr=3e-5, seed=0)


def stage2_train(mask_ratio):
    # 500 steps: the smoke and mask-ratio criteria are stated at step 500
    return TrainConfig(steps=500, batch_size=4, peak_lr=1e-3, min_lr=1e-5,
                       mask_ratio=mask_ratio, seed=0)


# full-length desk schedule; at 500 steps the masked task is only partly
# solved and the relayed class signal in visible-position features is weak
STAGE2_TRAIN = TrainConfig(steps=1500, batch_size=4, peak_lr=1e-3, min_lr=1e-5,
                           mask_ratio=0.5, seed=0)


@pytest.fixture(scope="module")
def corpus():
    records = synth_generate(DESK_SPEC, seed=0)
    labels = np.array([r.label for r in records], dtype=np.int64)
    grids = [patch(preprocess(r), patch_seconds=1.0) for r in records]
    splits = split_stratified(labels, (0.6, 0.2, 0.2), seed=0)
    return grids, labels, dict(zip(("train", "val", "test"), splits))


@pytest.fixture(scope="module")
def stage1(corpus):
    grids, _, splits = corpus
    model = TokenizerModel(DESK_TOKENIZER, np.random.default_rng(0))
    start = time.perf_counter()
    history = train_tokenizer(model, [grids[i] for i in splits["train"]], STAGE1_TRAIN)
    elapsed = time.perf_counter() - start
    return model, history, elapsed


def plant_tokens(grid, n_codes):
    """Deterministic token targets with known, context-dependent structure.

    The class id picks an 8-token family (inferable from any visible patch);
    the member is the energy quartile of a NEIGHBOR patch — the previous one
    for the time stream, the next for the frequency stream. A masked
    position's token is therefore predictable exactly when that neighbor is
    visible, so difficulty rises directly with the mask ratio.
    """
    energy = (grid.patches.astype(np.float64) ** 2).sum(axis=-1)
    edges = np.quantile(energy, [0.25, 0.5, 0.75])
    bucket = np.digitize(energy, edges)  # (C, N) in 0..3
    prev_bucket = np.concatenate([bucket[:, :1], bucket[:, :-1]], axis=1)
    next_bucket = np.concatenate([bucket[:, 1:], bucket[:, -1:]], axis=1)
    base = int(grid.label) * 8
    z_t = (base + prev_bucket).astype(np.int32)
    z_f = (base + 4 + next_bucket).astype(np.int32)
    assert z_t.max() < n_codes and z_f.max() < n_codes
    return TokenGrid(z_t=z_t, z_f=z_f)


@pytest.fixture(scope="module")
def planted_runs(corpus):
    grids, _, splits = corpus
    data = [(grids[i], plant_tokens(grids[i], DESK_MODEL.codebook_size)) for i in splits["train"]]
    out = {}
    for ratio in (0.1, 0.5, 0.9):
        model = EegssmModel(DESK_MODEL, np.random.default_rng(0))
        out[ratio] = train_eegssm(model, data, stage2_train(ratio))
    return out


@pytest.fixture(scope="module")
def backbone(corpus, stage1):
    # the pipeline-faithful desk backbone: stage-2 on real stage-1 tokens
    grids, _, splits = corpus
    tok_model, _, _ = stage1
    data = [(grids[i], tokenize(tok_model, grids[i])) for i in splits["train"]]
    model = EegssmModel(DESK_MODEL, np.random.default_rng(0))
    train_eegssm(model, data, STAGE2_TRAIN)
    return model


@pytest.fixture(scope="module")
def probe_features(corpus, backbone):
    grids, labels, splits = corpus
    features = extract_features(backbone, grids)
    return features, labels, splits


# ---- criteria ---------------------------------------------------------------------


def test_01_convolution_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for n in (16, 256, 4096):
        for _ in range(50):
            u = rng.standard_normal(n)
            k = rng.standard_normal(n)
            got = fft_convolve_arrays(u, k)
            ref = np.convolve(u, k)[:n]
            worst = max(worst, float(np.abs(got - ref).max()))
    elapsed = time.perf_counter() - start
    print(f"[criterion 1] max abs error {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-5
    assert elapsed < 10.0


def test_02_gradient_suite():
    rng = np.random.default_rng(202)

    def away_from_kinks(x):
        return x + 0.5 * np.sign(x)

    r6 = rng.standard_normal(6)
    r23 = rng.standard_normal((2, 3))
    r8 = rng.standard_normal(8)
    targets = rng.integers(0, 3, size=4)
    k3 = rng.standard_normal(3)
    primitives = {
        "add": (lambda t: ((t + t * 2.0).sum()), (6,)),
        "mul": (lambda t: ((t * Tensor(r6)).sum()), (6,)),
        "matmul": (lambda t: ((t.reshape(2, 3) @ Tensor(r23.T)).sum()), (6,)),
        "exp": (lambda t: ((t.exp() * Tensor(r6)).sum()), (6,)),
        "log": (lambda t: (((t * t + 0.5).log() * Tensor(r6)).sum()), (6,)),
        "sqrt": (lambda t: (((t * t + 0.5).sqrt() * Tensor(r6)).sum()), (6,)),
        "tanh": (lambda t: ((t.tanh() * Tensor(r6)).sum()), (6,)),
        "sigmoid": (lambda t: ((t.sigmoid() * Tensor(r6)).sum()), (6,)),
        "elu": (lambda t: ((t.elu() * Tensor(r6)).sum()), (6,)),
        "sum": (lambda t: ((t.sum(axis=0) * Tensor(k3)).sum()), (2, 3)),
        "mean": (lambda t: ((t.mean(axis=1) * Tensor(k3[:2])).sum()), (2, 3)),
        "reshape_transpose": (lambda t: ((t.reshape(3, 2).transpose(1, 0) * Tensor(r23)).sum()), (6,)),
        "softmax": (lambda t: ((softmax(t.reshape(2, 3)) * Tensor(r23)).sum()), (6,)),
        "rms_norm": (lambda t: ((rms_norm(t.reshape(2, 3), Tensor(np.abs(k3) + 0.5)) * Tensor(r23)).sum()), (6,)),
        "layer_norm": (lambda t: ((layer_norm(t.reshape(2, 3), Tensor(np.abs(k3) + 0.5), Tensor(k3 * 0.25)) * Tensor(r23)).sum()), (6,)),
        "cross_entropy": (lambda t: cross_entropy(t.reshape(4, 3), targets).sum(), (12,)),
        "conv1d": (lambda t: ((conv1d(t.reshape(1, 1, 8), Tensor(k3.reshape(1, 1, 3)), stride=1, pad=1) * Tensor(r8.reshape(1, 1, 8))).sum()), (8,)),
        "fft_convolve": (lambda t: ((fft_convolve(t, Tensor(r8)) * Tensor(r8 + 0.5)).sum()), (8,)),
        "stack_concat": (lambda t: ((stack([t, t * 2.0], axis=0) * 1.5).sum()), (6,)),
        "take_rows": (lambda t: ((take_rows(t.reshape(3, 2), np.array([0, 2, 2])) * 1.25).sum()), (6,)),
        "pad_axis": (lambda t: ((pad_axis(t.reshape(2, 3), 1, 1, 2) * 0.5).sum()), (6,)),
        "repeat_last": (lambda t: ((repeat_last(t.reshape(2, 3), 2) * 0.75).sum()), (6,)),
        "abs": (lambda t: ((t.abs() * Tensor(r6)).sum()), (6,)),
        "relu": (lambda t: ((t.relu() * Tensor(r6)).sum()), (6,)),
    }
    worst = {}
    for name, (fn, shape) in primitives.items():
        errs = []
        for trial in range(10):
            point = rng.standard_normal(shape)
            if name in ("abs", "relu"):
                point = away_from_kinks(point)
            errs.append(finite_diff_check(fn, point, eps=1e-5, scale_relative=True))
        worst[name] = max(errs)
        assert worst[name] < 1e-4, f"{name}: {worst[name]:.3e}"

    block = EegssmBlock.create(features=4, length=8, base=2, window=3,
                               rng=np.random.default_rng(7))
    probe = np.random.default_rng(8).standard_normal((8, 4))

    def block_fn(t):
        x_next, skip = block(t.reshape(1, 8, 4))
        return (x_next * Tensor(probe.reshape(1, 8, 4))).sum() + (skip * skip).sum()

    block_errs = [
        finite_diff_check(block_fn, np.random.default_rng(30 + i).standard_normal(32) * 0.5,
                          eps=1e-4, scale_relative=True)
        for i in range(10)
    ]
    print(f"[criterion 2] worst primitive {max(worst.values()):.2e}, block {max(block_errs):.2e}")
    assert max(block_errs) < 1e-3


def test_03_kernel_structure():
    rng = np.random.default_rng(303)
    checked = 0
    with no_grad():
        for d in range(1, 4097):
            n_sub = 1
            length = d
            while length <= 4096:
                lengths = [d] + [d * (1 << i) for i in range(n_sub - 1)]
                assert sum(lengths) == length, (length, d)
                spec = SgconvSpec(
                    alpha=0.5,
                    weights=Tensor(rng.standard_normal((1, n_sub, d)).astype(np.float32)),
                )
                kern = build_kernel(spec).data
                assert kern.shape == (1, length)
                assert abs(np.abs(kern).sum() - 1.0) < 1e-6, (length, d)
                checked += 1
                n_sub += 1
                length *= 2
    # the worked example: L=8, d=2, alpha=1/2, unit weights, no normalization
    spec = SgconvSpec(alpha=0.5,
                      weights=Tensor(np.ones((1, 3, 2), dtype=np.float32)), normalize=False)
    np.testing.assert_allclose(
        build_kernel(spec).data[0],
        [1.0, 1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25], rtol=1e-6,
    )
    print(f"[criterion 3] {checked} (L, d) pairs checked")
    assert checked > 8000


def test_04_quantizer_oracle():
    rng = np.random.default_rng(404)
    for k in (16, 256, 4096):
        codebook = Codebook(k, 8, rng)
        codes = codebook.codes.data.astype(np.float64)
        # plant exact duplicates so ties exercise the lowest-index rule
        codes[k // 2] = codes[k // 4]
        codebook.codes.data = codes.astype(np.float32)
        queries = rng.standard_normal((10_000, 8)).astype(np.float32)
        # make a slice of queries exact code copies (guaranteed tie on the dup)
        queries[:200] = codebook.codes.data[rng.integers(0, k, size=200)]
        got = codebook.nearest(queries)
        d2 = ((queries[:, None, :].astype(np.float64) - codes[None]) ** 2).sum(axis=2)
        ref = d2.argmin(axis=1)
        agreement = float((got == ref).mean())
        print(f"[criterion 4] K={k}: agreement {agreement:.6f}")
        assert agreement == 1.0


def test_05_swa_oracle():
    rng = np.random.default_rng(505)
    seqlen, feats = 512, 8
    x = rng.standard_normal((1, seqlen, feats))
    params = SwaParams(feats, np.random.default_rng(3))
    worst = 0.0
    for window in (1, 7, 2 * seqlen):
        got = swa_forward(Tensor(x), params, window=window).data
        # dense reference with a banded additive mask; Linear maps are x @ w + b
        q = x @ params.q.w.data.astype(np.float64) + params.q.b.data.astype(np.float64)
        kmat = x @ params.k.w.data.astype(np.float64) + params.k.b.data.astype(np.float64)
        v = x @ params.v.w.data.astype(np.float64) + params.v.b.data.astype(np.float64)
        scores = (q[0] @ kmat[0].T) / np.sqrt(feats)
        idx = np.arange(seqlen)
        banned = np.abs(idx[:, None] - idx[None, :]) > window // 2
        scores = np.where(banned, -np.inf, scores)
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        ref = (p @ v[0]) @ params.o.w.data.astype(np.float64) + params.o.b.data.astype(np.float64)
        worst = max(worst, float(np.abs(got[0] - ref).max()))
    print(f"[criterion 5] max abs error {worst:.3e}")
    assert worst < 1e-5


def test_06_stage1_smoke(stage1):
    _, history, elapsed = stage1
    total = np.array([float(h["total"]) for h in history])
    early = total[:10].mean()
    late = total[-10:].mean()
    drop = 1.0 - late / early
    unused_f = [int(h["unused_f"]) for h in history]
    epochs = [int(h["epoch"]) for h in history]
    per_epoch = {}
    for e, u in zip(epochs, unused_f):
        per_epoch[e] = u  # last row of each epoch wins
    series = [per_epoch[e] for e in sorted(per_epoch)]
    print(
        f"[criterion 6] loss {early:.2f} -> {late:.2f} (drop {drop:.1%}), "
        f"unused_f per epoch {series}, {elapsed:.1f}s"
    )
    assert drop >= 0.5
    assert all(a >= b for a, b in zip(series, series[1:]))
    assert elapsed < 600.0


def test_07_stage2_smoke(planted_runs):
    history = planted_runs[0.5]
    k = DESK_MODEL.codebook_size
    initial = float(history[0]["loss"])
    expected = 2.0 * np.log(k)
    acc_t = float(history[-1]["acc_t"])
    acc_f = float(history[-1]["acc_f"])
    chance = 1.0 / k
    print(
        f"[criterion 7] initial loss {initial:.3f} vs 2 ln K {expected:.3f}; "
        f"final top-1 t {acc_t:.3f} / f {acc_f:.3f} vs 5x chance {5 * chance:.4f}"
    )
    assert abs(initial - expected) / expected < 0.05
    assert acc_t >= 5 * chance
    assert acc_f >= 5 * chance


def test_08_mask_ratio_trend(planted_runs):
    # single-step loss estimates are noisy at r=0.1 (~13 masked positions per
    # batch), so "loss at step 500" is read as the mean of the last 10 steps
    losses = {
        r: float(np.mean([float(h["loss"]) for h in planted_runs[r][-10:]]))
        for r in (0.1, 0.5, 0.9)
    }
    print(f"[criterion 8] loss by mask ratio {losses}")
    assert losses[0.1] < losses[0.5] < losses[0.9]


def test_09_probe_end_to_end(probe_features):
    features, labels, splits = probe_features
    cfg = ProbeConfig(hidden=64, compress=200, p_drop=0.0, lr=1e-3,
                      steps=300, batch_size=16, eval_every=25, seed=0)

    def run(y, seed):
        import dataclasses

        sets = {k: (features[idx], y[idx]) for k, idx in splits.items()}
        _, rep = train_probe_on_features(
            sets["train"], sets["val"], sets["test"],
            dataclasses.replace(cfg, seed=seed), n_classes=3,
        )
        return rep.kappa

    true_kappas = [run(labels, s) for s in range(5)]

    shuffled_kappas = []
    for s in range(5):
        rng = np.random.default_rng(900 + s)
        y = labels.copy()
        for idx in splits.values():
            y[idx] = rng.permutation(y[idx])
        shuffled_kappas.append(run(y, s))
    mean_shuffled = float(np.mean(shuffled_kappas))
    print(
        f"[criterion 9] true kappa {[f'{k:.3f}' for k in true_kappas]}, "
        f"shuffled mean {mean_shuffled:+.3f}"
    )
    assert min(true_kappas) >= 0.8
    assert abs(mean_shuffled) <= 0.1


def test_10_metric_oracles():
    assert cohen_kappa(np.array([[20, 5], [10, 15]])) == pytest.approx(0.4, abs=1e-12)

    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 60))
        lab = rng.integers(0, 2, size=n)
        if lab.min() == lab.max():
            lab[0] = 1 - lab[0]
        scores = np.round(rng.random(n) + 0.3 * lab, 1)
        pos = scores[lab == 1]
        neg = scores[lab == 0]
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
        ref = wins / (pos.size * neg.size)
        worst = max(worst, abs(auroc(scores, lab) - ref))
    assert worst < 1e-9

    for k in (2, 3, 5, 7):
        lab = np.repeat(np.arange(k), 6)
        cm = confusion_matrix(np.zeros_like(lab), lab, k)
        assert balanced_accuracy(cm) == 1.0 / k
    print(f"[criterion 10] AUROC worst gap {worst:.2e}")


def test_11_complexity_signature():
    sizes = [1 << p for p in range(12, 17)]
    rows = bench_backbones(sizes, features=1, base=16, repeats=3, attention_max_len=1 << 12)
    by = {(r.backbone, r.seq_len): r for r in rows}
    direct_ratios = []
    fft_ratios = []
    for p in range(12, 16):
        small, big = 1 << p, 1 << (p + 1)
        direct_ratios.append(by[("direct_conv", big)].wall_ms / by[("direct_conv", small)].wall_ms)
        fft_ratios.append(by[("sgconv", big)].wall_ms / by[("sgconv", small)].wall_ms)
    direct_avg = float(np.mean(direct_ratios))
    fft_avg = float(np.mean(fft_ratios))
    for r in rows:
        if r.backbone == "sgconv":
            n_sub = int(np.log2(r.seq_len // 16)) + 1
            assert r.params == sgconv_param_count(1, r.seq_len, 16) == 16 * n_sub
    print(f"[criterion 11] direct t(2L)/t(L) avg {direct_avg:.2f}, fft avg {fft_avg:.2f}")
    assert direct_avg >= 3.2
    assert fft_avg <= 3.0


def test_12_dominance_analytics(corpus, stage1):
    # constructed corpus with known token/class assignment
    def grid_of(z_t, z_f):
        return TokenGrid(z_t=np.array(z_t, dtype=np.int32), z_f=np.array(z_f, dtype=np.int32))

    samples = [
        (grid_of([[0, 1]], [[7, 7]]), 0),
        (grid_of([[0, 0]], [[7, 6]]), 0),
        (grid_of([[1, 2]], [[6, 6]]), 1),  # t-code 1 spans classes 0 and 1
        (grid_of([[5, 5]], [[3, 3]]), 2),
    ]
    report = class_specific_ratio(samples, n_codes=8, tau=1.0)
    # t-stream: used {0,1,2,5}; 1 is shared -> 3/4. f-stream: used {3,6,7};
    # 6 is shared -> 2/3
    assert report.used_t == 4 and report.specific_t == 3
    assert report.ratio_t == pytest.approx(0.75)
    assert report.used_f == 3 and report.specific_f == 2
    assert report.ratio_f == pytest.approx(2.0 / 3.0)

    # trained desk tokenizer: dual-stream observed diversity >= either stream
    grids, labels, _ = corpus
    tok_model, _, _ = stage1
    token_grids = [tokenize(tok_model, g) for g in grids[::3]]
    distinct_t = len({int(z) for g in token_grids for z in g.z_t.ravel()})
    distinct_f = len({int(z) for g in token_grids for z in g.z_f.ravel()})
    pairs = len({(int(a), int(b)) for g in token_grids
                 for a, b in zip(g.z_t.ravel(), g.z_f.ravel())})
    print(f"[criterion 12] distinct t {distinct_t}, f {distinct_f}, pairs {pairs}")
    assert pairs >= max(distinct_t, distinct_f)
