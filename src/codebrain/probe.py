"""Frozen-backbone evaluation: a three-layer classification head over pooled
backbone features, its training loop with best-validation selection, and the
metric suite (Cohen's kappa, balanced accuracy, weighted F1, AUROC, AUC-PR)
computed from scratch in float64.

Feature extraction runs the backbone's block stack without its token heads,
one call per chunk of consecutive same-shape records (at most 512
positions), and mean-pools each record's per-position outputs over the
windows of each channel, giving one vector per channel. The head then
aggregates across channels (layer 1), compresses to a 200-dim vector
(layer 2), and maps to class logits (layer 3), with ELU and dropout between
layers. The backbone is never updated: features are computed once, outside
any gradient tape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import nn
from .numerics import Tensor, backward, cross_entropy, dropout, no_grad, softmax
from .pretrain import AdamW, cosine_lr
from .signal import PatchGrid
from .ssm import EegssmModel

__all__ = [
    "MetricsReport",
    "ProbeConfig",
    "ProbeHead",
    "auc_pr",
    "auroc",
    "cohen_kappa",
    "compute_metrics",
    "confusion_matrix",
    "extract_features",
    "train_probe_on_features",
]


# ---- metrics -------------------------------------------------------------------


def confusion_matrix(predictions, labels, n_classes: int) -> np.ndarray:
    p = np.asarray(predictions, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError("predictions and labels must be matching 1-D arrays")
    if p.size == 0:
        raise ValueError("empty input")
    if y.min() < 0 or y.max() >= n_classes or p.min() < 0 or p.max() >= n_classes:
        raise ValueError("class ids out of range")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y, p), 1)
    return cm


def cohen_kappa(cm: np.ndarray) -> float:
    """Agreement beyond chance from a confusion matrix (rows = truth)."""
    cm = np.asarray(cm, dtype=np.float64)
    n = cm.sum()
    if n == 0:
        raise ValueError("empty confusion matrix")
    p_o = np.trace(cm) / n
    p_e = float((cm.sum(axis=1) * cm.sum(axis=0)).sum()) / (n * n)
    if p_e == 1.0:
        raise ValueError("kappa undefined: labels (or predictions) are single-class")
    return float((p_o - p_e) / (1.0 - p_e))


def balanced_accuracy(cm: np.ndarray) -> float:
    """Mean per-class recall over classes that appear in the labels."""
    cm = np.asarray(cm, dtype=np.float64)
    support = cm.sum(axis=1)
    present = support > 0
    recall = np.diag(cm)[present] / support[present]
    return float(recall.mean())


def weighted_f1(cm: np.ndarray) -> float:
    cm = np.asarray(cm, dtype=np.float64)
    support = cm.sum(axis=1)
    predicted = cm.sum(axis=0)
    denom = support + predicted
    # == 2PR/(P+R) without 0/0 cases
    f1 = np.divide(2.0 * np.diag(cm), denom, out=np.zeros(cm.shape[0]), where=denom > 0)
    total = support.sum()
    return float((f1 * support).sum() / total)


def _roc_points(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) counts at each distinct score, thresholds
    descending; the last entries are the positive and negative totals."""
    if not ((labels == 1).any() and (labels == 0).any()):
        raise ValueError("AUROC and AUC-PR need both classes present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # group equal scores so ties move diagonally in one step
    boundary = np.nonzero(np.diff(s))[0]
    idx = np.concatenate([boundary, [s.size - 1]])
    return np.cumsum(y == 1)[idx], np.cumsum(y == 0)[idx]


def auroc(scores, labels) -> float:
    """Area under the tie-grouped ROC curve (trapezoidal integration).

    Equals the Mann-Whitney pairwise statistic with ties counted 1/2.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    tp, fp = _roc_points(s, y)
    tpr = np.concatenate([[0.0], tp / tp[-1]])
    fpr = np.concatenate([[0.0], fp / fp[-1]])
    return float(((tpr[1:] + tpr[:-1]) * np.diff(fpr)).sum() / 2.0)


def auc_pr(scores, labels) -> float:
    """Area under the precision-recall curve by right-continuous steps."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    tp, fp = _roc_points(s, y)
    precision = tp / (tp + fp)
    recall = tp / tp[-1]
    # Python's sum adds left to right; np.sum's pairwise order moves the last bit
    return float(sum(np.diff(recall, prepend=0.0) * precision))


@dataclass
class MetricsReport:
    """Classification quality summary; AUROC/AUC-PR populate for binary tasks."""

    task: str
    kappa: float
    balanced_acc: float
    weighted_f1: float
    confusion: np.ndarray
    support: np.ndarray
    auroc: float | None = None
    auc_pr: float | None = None

    def to_dict(self) -> dict:
        out = {
            "task": self.task,
            "kappa": self.kappa,
            "balanced_acc": self.balanced_acc,
            "weighted_f1": self.weighted_f1,
            "support": self.support.tolist(),
            "confusion": self.confusion.tolist(),
        }
        if self.auroc is not None:
            out["auroc"] = self.auroc
            out["auc_pr"] = self.auc_pr
        return out


def compute_metrics(predictions, labels, scores=None, task: str = "multiclass", n_classes: int | None = None) -> MetricsReport:
    """Score hard predictions (and, for binary tasks, positive-class scores).

    `scores` is required when task == "binary": it supplies the ranking for
    AUROC and AUC-PR. Labels must contain at least two distinct classes, else
    chance agreement is 1 and kappa is undefined.
    """
    if task not in ("binary", "multiclass"):
        raise ValueError(f"unknown task {task!r}")
    p = np.asarray(predictions, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.size == 0:
        raise ValueError("empty input")
    if n_classes is None:
        n_classes = int(max(p.max(), y.max())) + 1
    if task == "binary" and n_classes > 2:
        raise ValueError("binary task with more than two classes")
    cm = confusion_matrix(p, y, n_classes)
    report = MetricsReport(
        task=task,
        kappa=cohen_kappa(cm),
        balanced_acc=balanced_accuracy(cm),
        weighted_f1=weighted_f1(cm),
        confusion=cm,
        support=cm.sum(axis=1),
    )
    if task == "binary":
        if scores is None:
            raise ValueError("binary metrics need positive-class scores")
        report.auroc = auroc(scores, y)
        report.auc_pr = auc_pr(scores, y)
    return report


# ---- probe head ----------------------------------------------------------------


@dataclass(frozen=True)
class ProbeConfig:
    hidden: int = 256
    compress: int = 200
    p_drop: float = 0.1
    lr: float = 1e-3
    min_lr: float = 1e-5
    steps: int = 300
    batch_size: int = 32
    eval_every: int = 25
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden", "compress", "steps", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.p_drop < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not (np.isfinite(self.lr) and 0 <= self.min_lr <= self.lr):  # NaN too
            raise ValueError(f"need finite lrs with 0 <= min_lr <= lr, got {self.lr} and {self.min_lr}")
        if not self.weight_decay >= 0:  # NaN too
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")


class ProbeHead(nn.Module):
    """Three affine maps with ELU + dropout between them.

    Layer 1 consumes the flattened (channels x features) matrix, layer 2
    compresses to a fixed-width vector, layer 3 emits class logits.
    """

    def __init__(self, channels: int, features: int, classes: int, config: ProbeConfig, rng: np.random.Generator):
        if classes < 2:
            raise ValueError("need at least two classes")
        self.channels = channels
        self.features = features
        self.classes = classes
        self.config = config
        self.layer1 = nn.Linear(channels * features, config.hidden, rng)
        self.layer2 = nn.Linear(config.hidden, config.compress, rng)
        self.layer3 = nn.Linear(config.compress, classes, rng)

    def __call__(self, feats: Tensor, train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """(B, C, F) pooled features -> (B, classes) logits."""
        if feats.shape[-2:] != (self.channels, self.features):
            raise ValueError(
                f"expected (*, {self.channels}, {self.features}) features, got {feats.shape}"
            )
        x = feats.reshape(feats.shape[0], self.channels * self.features)
        x = self.layer1(x).elu()
        x = dropout(x, self.config.p_drop, rng, train)
        x = self.layer2(x).elu()
        x = dropout(x, self.config.p_drop, rng, train)
        return self.layer3(x)


# Positions per extraction forward. Bounding the chunk bounds extraction's
# memory, which would otherwise grow with the corpus. 512 keeps its working
# set far below a stage-1 step's at the desk and paper-width widths; 1024
# was a few percent faster at paper width but raised the desk process's
# peak RSS by about 1 MB.
_EXTRACT_CHUNK_POSITIONS = 512


def extract_features(model: EegssmModel, grids: list[PatchGrid]) -> np.ndarray:
    """Frozen-backbone features: (records, channels, features).

    Runs outside any gradient tape and without the token heads. Consecutive
    grids of equal (channels, windows) go through `model.features` together,
    up to `_EXTRACT_CHUNK_POSITIONS` positions per call (at least one record);
    no backbone step mixes records, so each record's features equal those of
    a call on it alone. Each record's per-position output is pooled over
    each channel's windows, in the order of `grids`.
    """
    feats = []
    t = model.config.patch_len
    with no_grad():
        for (c, n), group in itertools.groupby(grids, key=lambda g: g.patches.shape[:2]):
            group = list(group)
            per_chunk = max(1, _EXTRACT_CHUNK_POSITIONS // (c * n))
            for i in range(0, len(group), per_chunk):
                x = np.stack([g.patches.reshape(c * n, t) for g in group[i : i + per_chunk]]).astype(np.float32)
                for per_pos in model.features(x).data:  # (S, F) per record, eval mode
                    feats.append(per_pos.reshape(c, n, -1).mean(axis=1))
    return np.stack(feats)


# ---- probe training -------------------------------------------------------------


def _evaluate(head: ProbeHead, feats: np.ndarray, labels: np.ndarray, task: str, n_classes: int) -> MetricsReport:
    with no_grad():
        logits = head(Tensor(feats)).data
    pred = logits.argmax(axis=-1)
    scores = softmax(Tensor(logits)).data[:, 1] if task == "binary" else None
    return compute_metrics(pred, labels, scores=scores, task=task, n_classes=n_classes)


def _selection_score(report: MetricsReport, task: str) -> float:
    return report.auroc if task == "binary" else report.kappa


def train_probe_on_features(
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray],
    test_set: tuple[np.ndarray, np.ndarray],
    config: ProbeConfig,
    n_classes: int | None = None,
) -> tuple[ProbeHead, MetricsReport]:
    """Fit the head on precomputed (records, C, F) features.

    The head snapshot with the best validation selection metric (kappa for
    multiclass, AUROC for binary) is restored before the test evaluation.
    """
    x_tr, y_tr = train_set
    x_va, y_va = val_set
    x_te, y_te = test_set
    y_tr = np.asarray(y_tr, dtype=np.int64)
    y_va = np.asarray(y_va, dtype=np.int64)
    y_te = np.asarray(y_te, dtype=np.int64)
    if np.unique(y_tr).size < 2:
        raise ValueError("training labels contain a single class; nothing to separate")
    if n_classes is None:
        n_classes = int(max(y_tr.max(), y_va.max(), y_te.max())) + 1
    task = "binary" if n_classes == 2 else "multiclass"
    rng = np.random.default_rng(config.seed)
    head = ProbeHead(x_tr.shape[1], x_tr.shape[2], n_classes, config, rng)
    params = head.named_params()
    opt = AdamW(params, betas=(0.9, 0.999), weight_decay=config.weight_decay)

    best_score = -np.inf
    best_state = head.state_dict()
    n = x_tr.shape[0]
    for step in range(config.steps):
        idx = rng.choice(n, size=min(config.batch_size, n), replace=n < config.batch_size)
        logits = head(Tensor(x_tr[idx]), train=True, rng=rng)
        loss = cross_entropy(logits, y_tr[idx]).mean()
        opt.zero_grad()
        backward(loss)
        opt.step(cosine_lr(step, config.steps, config.lr, config.min_lr))
        if (step + 1) % config.eval_every == 0 or step == config.steps - 1:
            report = _evaluate(head, x_va, y_va, task, n_classes)
            score = _selection_score(report, task)
            if score > best_score:
                best_score = score
                best_state = head.state_dict()

    head.load_state_dict(best_state)
    return head, _evaluate(head, x_te, y_te, task, n_classes)
