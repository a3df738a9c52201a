"""Metric oracles and frozen-backbone probe behavior.

AUROC is checked against the brute-force pairwise comparison estimator
(ties worth 1/2), kappa against hand-computed confusion tables, and the
probe against synthetic feature sets whose separability we control.
"""

import json
import tracemalloc

import numpy as np
import pytest

from codebrain import cli, probe
from codebrain.probe import (
    MetricsReport,
    ProbeConfig,
    ProbeHead,
    auc_pr,
    auroc,
    balanced_accuracy,
    cohen_kappa,
    compute_metrics,
    confusion_matrix,
    extract_features,
    train_probe_on_features,
    weighted_f1,
)
from codebrain.numerics import Tensor, finite_diff_check
from codebrain.signal import PatchGrid
from codebrain.ssm import EegssmConfig, EegssmModel


def pairwise_auroc(scores, labels):
    """O(n^2) Mann-Whitney estimator: wins + half-credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def small_model(seed=0):
    cfg = EegssmConfig(
        patch_len=16, features=8, blocks=1, kernel_len=16, kernel_base=4,
        window=3, codebook_size=12, p_drop=0.0,
    )
    return EegssmModel(cfg, np.random.default_rng(seed))


def grid_for_class(rng, label, c=2, n=4, t=16):
    # class-specific oscillation frequency; scale alone would be erased by
    # the normalization at each block input
    wave = np.sin(2.0 * np.pi * (label + 1) * np.arange(t) / t)
    patches = (2.0 * wave + rng.normal(0, 0.1, size=(c, n, t))).astype(np.float64)
    return PatchGrid(patches=patches, label=int(label))


class TestKappaConfusion:
    def test_confusion_counting(self):
        pred = [0, 1, 1, 2, 2, 2, 0]
        lab = [0, 1, 2, 2, 2, 1, 1]
        cm = confusion_matrix(pred, lab, 3)
        expected = np.zeros((3, 3), dtype=np.int64)
        for p, y in zip(pred, lab):
            expected[y, p] += 1
        np.testing.assert_array_equal(cm, expected)
        np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(lab, minlength=3))

    def test_hand_kappa_two_class(self):
        # p_o = 35/50, p_e = (25*30 + 25*20)/2500 = 0.5 -> kappa = 0.2/0.5
        cm = np.array([[20, 5], [10, 15]])
        assert cohen_kappa(cm) == pytest.approx(0.4, abs=1e-12)

    def test_perfect_agreement(self):
        cm = np.diag([7, 11, 5])
        assert cohen_kappa(cm) == pytest.approx(1.0)
        assert balanced_accuracy(cm) == 1.0
        assert weighted_f1(cm) == pytest.approx(1.0)

    def test_single_class_labels_rejected(self):
        with pytest.raises(ValueError, match="undefined|single"):
            cohen_kappa(np.array([[30, 0], [0, 0]]))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        lab = rng.integers(0, 4, size=200)
        pred = np.where(rng.random(200) < 0.6, lab, rng.integers(0, 4, size=200))
        k1 = cohen_kappa(confusion_matrix(pred, lab, 4))
        perm = np.array([2, 0, 3, 1])
        k2 = cohen_kappa(confusion_matrix(perm[pred], perm[lab], 4))
        assert k1 == pytest.approx(k2, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([], [], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1], 3)


class TestBalancedAccuracy:
    def test_constant_predictor_exact_chance(self):
        # a predictor stuck on one class scores exactly 1/k
        for k in (2, 3, 5):
            lab = np.repeat(np.arange(k), 10)
            pred = np.zeros_like(lab)
            cm = confusion_matrix(pred, lab, k)
            assert balanced_accuracy(cm) == 1.0 / k

    def test_imbalance_hand_value(self):
        # recalls 90/100 and 5/10 -> mean 0.7, while raw accuracy is ~0.86
        cm = np.array([[90, 10], [5, 5]])
        assert balanced_accuracy(cm) == pytest.approx(0.7)

    def test_absent_class_excluded(self):
        cm = np.array([[8, 2, 0], [1, 9, 0], [0, 0, 0]])
        assert balanced_accuracy(cm) == pytest.approx((0.8 + 0.9) / 2)

    def test_weighted_f1_oracle(self):
        rng = np.random.default_rng(11)
        lab = rng.integers(0, 3, size=300)
        pred = np.where(rng.random(300) < 0.7, lab, rng.integers(0, 3, size=300))
        cm = confusion_matrix(pred, lab, 3).astype(np.float64)
        total = 0.0
        for k in range(3):
            tp = cm[k, k]
            prec = tp / cm[:, k].sum() if cm[:, k].sum() else 0.0
            rec = tp / cm[k].sum() if cm[k].sum() else 0.0
            f1 = 2 * prec * rec / (prec + rec) if (prec + rec) else 0.0
            total += f1 * cm[k].sum()
        assert weighted_f1(cm) == pytest.approx(total / cm.sum(), rel=1e-12)


class TestAuroc:
    def test_perfect_and_inverted(self):
        lab = np.array([0, 0, 1, 1])
        assert auroc([0.1, 0.2, 0.8, 0.9], lab) == pytest.approx(1.0)
        assert auroc([0.9, 0.8, 0.2, 0.1], lab) == pytest.approx(0.0)

    def test_textbook_example(self):
        # 3 of 4 positive/negative pairs correctly ordered
        val = auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert val == pytest.approx(0.75)

    def test_all_tied_scores(self):
        assert auroc([0.5] * 10, [0, 1] * 5) == pytest.approx(0.5)

    def test_matches_pairwise_estimator(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(8, 60))
            lab = rng.integers(0, 2, size=n)
            if lab.min() == lab.max():
                lab[0] = 1 - lab[0]
            # coarse rounding plants plenty of exact ties
            scores = np.round(rng.random(n) + 0.3 * lab, 1)
            fast = auroc(scores, lab)
            slow = pairwise_auroc(scores, lab)
            assert abs(fast - slow) < 1e-9, f"trial {trial}"

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        lab = rng.integers(0, 2, size=50)
        lab[:2] = [0, 1]
        s = rng.normal(size=50) + lab
        base = auroc(s, lab)
        assert auroc(np.exp(s), lab) == pytest.approx(base, abs=1e-12)
        assert auroc(3.0 * s + 7.0, lab) == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [1, 1])


class TestAucPr:
    def test_perfect(self):
        assert auc_pr([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_textbook_example(self):
        # steps: recall 0.5 at precision 1, recall 1.0 at precision 2/3
        val = auc_pr([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert val == pytest.approx(0.5 + 1.0 / 3.0, rel=1e-12)

    def test_step_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(10, 40))
            lab = rng.integers(0, 2, size=n)
            if lab.min() == lab.max():
                lab[0] = 1 - lab[0]
            scores = rng.random(n)  # continuous, ties almost surely absent
            ref = 0.0
            prev_r = 0.0
            order = np.argsort(-scores)
            tp = fp = 0
            for i in order:
                if lab[i] == 1:
                    tp += 1
                else:
                    fp += 1
                r = tp / lab.sum()
                ref += (r - prev_r) * (tp / (tp + fp))
                prev_r = r
            assert auc_pr(scores, lab) == pytest.approx(ref, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_pr([0.3, 0.4], [0, 0])


class TestComputeMetrics:
    def test_multiclass_report(self):
        rng = np.random.default_rng(0)
        lab = rng.integers(0, 3, size=90)
        pred = np.where(rng.random(90) < 0.8, lab, (lab + 1) % 3)
        rep = compute_metrics(pred, lab, task="multiclass")
        assert rep.task == "multiclass"
        assert rep.auroc is None and rep.auc_pr is None
        assert rep.confusion.shape == (3, 3)
        np.testing.assert_array_equal(rep.support, np.bincount(lab, minlength=3))
        assert -1.0 <= rep.kappa <= 1.0

    def test_binary_report_includes_rank_metrics(self):
        lab = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        rep = compute_metrics((scores > 0.37).astype(int), lab, scores=scores, task="binary")
        assert rep.auroc == pytest.approx(0.75)
        assert rep.auc_pr == pytest.approx(0.5 + 1.0 / 3.0)

    def test_binary_without_scores_rejected(self):
        with pytest.raises(ValueError, match="scores"):
            compute_metrics([0, 1], [0, 1], task="binary")

    def test_binary_with_three_classes_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([0, 1, 2], [0, 1, 2], scores=[0.1, 0.2, 0.3], task="binary")

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([0, 1], [0, 1], task="ranking")

    def test_json_round_trip(self):
        # the probe command writes metrics_seed*.json as this dump of to_dict()
        rep = compute_metrics([0, 1, 1, 0], [0, 1, 0, 1], n_classes=2)
        loaded = json.loads(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
        assert loaded["kappa"] == pytest.approx(rep.kappa)
        assert loaded["confusion"] == rep.confusion.tolist()

    def test_csv_output(self, tmp_path):
        cmpath = tmp_path / "confusion.csv"
        mpath = tmp_path / "metrics.csv"
        rep = compute_metrics([0, 0, 1, 1], [0, 1, 0, 1], n_classes=2)
        cli._write_csv(mpath, *cli._metrics_table(rep, ["kappa", "balanced_acc"]))
        cli._write_csv(cmpath, *cli._confusion_table(rep.confusion))
        lines = mpath.read_text().strip().split("\n")
        assert lines[0] == "metric,value"
        assert any(line.startswith("kappa,") for line in lines)
        rows = cmpath.read_text().strip().split("\n")
        assert rows[0] == "true\\pred,pred_0,pred_1"
        assert rows[1] == "true_0,1,1"


class TestProbeHead:
    def setup_method(self):
        self.cfg = ProbeConfig(hidden=16, compress=10, p_drop=0.0, steps=5)
        self.rng = np.random.default_rng(0)
        self.head = ProbeHead(channels=3, features=6, classes=4, config=self.cfg, rng=self.rng)

    def test_forward_shape(self):
        x = Tensor(self.rng.normal(size=(5, 3, 6)).astype(np.float32))
        out = self.head(x)
        assert out.shape == (5, 4)
        assert np.isfinite(out.data).all()

    def test_bad_feature_shape_rejected(self):
        with pytest.raises(ValueError, match="features"):
            self.head(Tensor(np.zeros((5, 2, 6), dtype=np.float32)))

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError):
            ProbeHead(3, 6, 1, self.cfg, self.rng)

    def test_eval_forward_deterministic(self):
        cfg = ProbeConfig(hidden=16, compress=10, p_drop=0.5)
        head = ProbeHead(2, 4, 3, cfg, np.random.default_rng(1))
        x = Tensor(self.rng.normal(size=(4, 2, 4)).astype(np.float32))
        np.testing.assert_array_equal(head(x).data, head(x).data)

    def test_state_dict_round_trip(self):
        state = self.head.state_dict()
        other = ProbeHead(3, 6, 4, self.cfg, np.random.default_rng(99))
        other.load_state_dict(state)
        x = Tensor(self.rng.normal(size=(2, 3, 6)).astype(np.float32))
        np.testing.assert_array_equal(self.head(x).data, other(x).data)

    def test_gradient(self):
        x = self.rng.normal(size=(2, 3, 6))
        w = self.head.layer1.w

        def fn(t):
            h = ProbeHead(3, 6, 4, self.cfg, np.random.default_rng(0))
            h.load_state_dict(self.head.state_dict())
            h.layer1.w = t  # splice the probed tensor into the forward pass
            out = h(Tensor(x))
            return (out * out).sum()

        err = finite_diff_check(fn, w.data.astype(np.float64), eps=1e-4, scale_relative=True)
        assert err < 1e-4


class TestProbeConfig:
    @pytest.mark.parametrize(
        "lr, min_lr", [(np.inf, 1e-5), (1e-3, np.inf), (1e-3, -1.0), (1e-6, 1e-3)],
        ids=["inf_lr", "inf_min_lr", "negative_min_lr", "lr_below_min_lr"],
    )
    def test_learning_rates_validated(self, lr, min_lr):
        with pytest.raises(ValueError, match="finite lrs"):
            ProbeConfig(lr=lr, min_lr=min_lr)

    def test_bounds_are_valid(self):
        ProbeConfig(lr=1e-3, min_lr=1e-3)
        ProbeConfig(lr=0.0, min_lr=0.0)


class TestTrainProbe:
    def make_features(self, rng, n_per_class, classes=3, c=2, f=8, sep=2.0):
        xs, ys = [], []
        for k in range(classes):
            mean = np.zeros(f)
            mean[k % f] = sep
            xs.append(rng.normal(size=(n_per_class, c, f)) * 0.3 + mean)
            ys.append(np.full(n_per_class, k))
        x = np.concatenate(xs).astype(np.float32)
        y = np.concatenate(ys)
        perm = rng.permutation(x.shape[0])
        return x[perm], y[perm]

    def test_separable_features_high_kappa(self):
        rng = np.random.default_rng(0)
        cfg = ProbeConfig(hidden=32, compress=16, p_drop=0.0, steps=120, batch_size=16, eval_every=20, seed=0)
        train = self.make_features(rng, 30)
        val = self.make_features(rng, 12)
        test = self.make_features(rng, 12)
        head, rep = train_probe_on_features(train, val, test, cfg)
        assert rep.kappa >= 0.8
        assert rep.balanced_acc >= 0.8

    def test_shuffled_labels_near_chance(self):
        # no signal at all: mean |kappa| over seeds stays near zero
        kappas = []
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            cfg = ProbeConfig(hidden=16, compress=8, p_drop=0.0, steps=60, batch_size=16, eval_every=20, seed=seed)
            x_tr, x_va, x_te = (rng.normal(size=(n, 2, 8)).astype(np.float32) for n in (90, 45, 60))
            y_tr, y_va, y_te = (rng.integers(0, 3, size=n) for n in (90, 45, 60))
            _, rep = train_probe_on_features((x_tr, y_tr), (x_va, y_va), (x_te, y_te), cfg)
            kappas.append(abs(rep.kappa))
        assert np.mean(kappas) <= 0.2

    def test_single_class_training_rejected(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 2, 8)).astype(np.float32)
        sets = ((x, np.zeros(20, dtype=int)), (x, np.arange(20) % 2), (x, np.arange(20) % 2))
        with pytest.raises(ValueError, match="single class"):
            train_probe_on_features(*sets, ProbeConfig(steps=5))

    def test_binary_task_selected_by_auroc(self):
        rng = np.random.default_rng(4)
        cfg = ProbeConfig(hidden=16, compress=8, p_drop=0.0, steps=60, batch_size=16, eval_every=20)
        xs, ys = [], []
        for k in range(2):
            xs.append(rng.normal(size=(40, 2, 6)) * 0.5 + 1.5 * k)
            ys.append(np.full(40, k))
        x = np.concatenate(xs).astype(np.float32)
        y = np.concatenate(ys)
        head, rep = train_probe_on_features((x, y), (x, y), (x, y), cfg)
        assert rep.task == "binary"
        assert rep.auroc is not None and rep.auroc >= 0.95

    def test_backbone_frozen_during_probe(self):
        model = small_model()
        before = {k: v.data.copy() for k, v in model.named_params().items()}
        rng = np.random.default_rng(6)
        splits = {
            name: [(grid_for_class(rng, k % 2), k % 2) for k in range(n)]
            for name, n in (("train", 8), ("val", 4), ("test", 4))
        }
        cfg = ProbeConfig(hidden=8, compress=8, p_drop=0.0, steps=10, batch_size=4, eval_every=5)
        fit_on_grids(model, splits, cfg)
        after = model.named_params()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k].data, err_msg=k)

    def test_end_to_end_separable_grids(self):
        model = small_model(1)
        rng = np.random.default_rng(8)
        splits = {}
        for name, n_per in (("train", 12), ("val", 6), ("test", 6)):
            records = []
            for k in range(3):
                records += [(grid_for_class(rng, k), k) for _ in range(n_per)]
            splits[name] = records
        cfg = ProbeConfig(hidden=24, compress=12, p_drop=0.0, steps=150, batch_size=12, eval_every=25, lr=3e-3)
        head, rep = fit_on_grids(model, splits, cfg)
        assert rep.kappa >= 0.8

    def test_extract_features_pools_windows(self):
        model = small_model()
        rng = np.random.default_rng(10)
        grid = grid_for_class(rng, 1, c=2, n=4)
        feats = extract_features(model, [grid])
        assert feats.shape == (1, 2, model.config.features)
        out = model.forward(grid.patches.reshape(1, 8, 16).astype(np.float32))
        manual = out.features.data[0].reshape(2, 4, -1).mean(axis=1)
        np.testing.assert_array_equal(feats[0], manual)


def fit_on_grids(model, splits, cfg):
    """Extract the features of every split's (grid, label) pairs in one
    call, as the command line does, then fit the head on them."""
    names = ("train", "val", "test")
    feats = extract_features(model, [g for name in names for g, _ in splits[name]])
    sets, at = [], 0
    for name in names:
        n = len(splits[name])
        sets.append((feats[at : at + n], np.array([y for _, y in splits[name]])))
        at += n
    return train_probe_on_features(*sets, cfg)


def pooled_alone(model, grid):
    """The slow path: one full forward per record, pooled over windows."""
    c, n, t = grid.patches.shape
    out = model.forward(grid.patches.reshape(1, c * n, t).astype(np.float32))
    return out.features.data[0].reshape(c, n, -1).mean(axis=1)


class _Boom:
    def __call__(self, *args):
        raise AssertionError("a token head was evaluated")


class TestExtractFeatures:
    """Chunked, head-free extraction against one forward per record."""

    def long_model(self):
        # kernel_len 256 admits 4 x 64-window records: 2 records per chunk
        cfg = EegssmConfig(
            patch_len=16, features=8, blocks=2, kernel_len=256, kernel_base=4,
            window=5, codebook_size=12, p_drop=0.1,
        )
        return EegssmModel(cfg, np.random.default_rng(3))

    def spy(self, model, monkeypatch):
        shapes = []
        features = model.features

        def recording(x, *args, **kwargs):
            shapes.append(x.shape)
            return features(x, *args, **kwargs)

        monkeypatch.setattr(model, "features", recording)
        return shapes

    @pytest.mark.parametrize(
        "windows, calls",
        [
            ([64] * 5, [(2, 256, 16), (2, 256, 16), (1, 256, 16)]),
            ([64, 64, 32, 32, 32, 64, 32, 64, 64, 64, 64, 64, 32],
             [(2, 256, 16), (3, 128, 16), (1, 256, 16), (1, 128, 16),
              (2, 256, 16), (2, 256, 16), (1, 256, 16), (1, 128, 16)]),
            ([32], [(1, 128, 16)]),
        ],
        ids=["crosses_chunk_boundary", "interleaved_durations", "single_record"],
    )
    def test_equals_one_forward_per_record(self, monkeypatch, windows, calls):
        assert probe._EXTRACT_CHUNK_POSITIONS == 512  # the chunks listed above
        model = self.long_model()
        rng = np.random.default_rng(11)
        grids = [grid_for_class(rng, k % 3, c=4, n=n) for k, n in enumerate(windows)]
        shapes = self.spy(model, monkeypatch)
        feats = extract_features(model, grids)
        assert shapes == calls
        assert feats.shape == (len(grids), 4, 8)
        for i, grid in enumerate(grids):
            np.testing.assert_array_equal(feats[i], pooled_alone(model, grid), err_msg=f"record {i}")

    def test_token_heads_never_evaluated(self):
        model = self.long_model()
        rng = np.random.default_rng(12)
        grids = [grid_for_class(rng, 0, c=4, n=n) for n in (64, 32, 64)]
        expected = np.stack([pooled_alone(model, g) for g in grids])
        model.head_t = model.head_f = _Boom()
        np.testing.assert_array_equal(extract_features(model, grids), expected)

    def test_memory_bounded_by_one_chunk(self):
        # 8 positions per record. Extracting eight chunks' worth must peak
        # near one chunk's, not eight times it.
        model = small_model()
        rng = np.random.default_rng(13)
        per_chunk = probe._EXTRACT_CHUNK_POSITIONS // 8
        grids = [grid_for_class(rng, k % 2, c=2, n=4) for k in range(8 * per_chunk)]
        extract_features(model, grids[:2])  # warm lazy state outside the trace

        def traced_peak(gs):
            tracemalloc.start()
            try:
                extract_features(model, gs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk = traced_peak(grids[:per_chunk])
        assert traced_peak(grids) < 2 * one_chunk
