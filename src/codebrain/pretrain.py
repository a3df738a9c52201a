"""The training loop shared by both stages and its parts: masking, the masked
token-prediction objective, Adam-with-decoupled-weight-decay, cosine
learning-rate schedule, gradient clipping, loss-history emission, and atomic
checkpointing.

Every stochastic choice in a step (batch membership, mask bits, dropout) is
drawn from a generator seeded by (run seed, step index), so an interrupted
run resumed from a checkpoint replays exactly the steps an uninterrupted run
would have taken.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .numerics import Tensor, backward, cross_entropy
from .ssm import EegssmModel, EegssmOutput
from .tokenizer import TokenizerModel, make_stage1_batch, stage1_losses

__all__ = [
    "AdamW",
    "CheckpointError",
    "DivergenceError",
    "TrainConfig",
    "clip_grad_norm",
    "cosine_lr",
    "load_checkpoint",
    "masked_token_loss",
    "read_history_csv",
    "sample_mask",
    "save_checkpoint",
    "train_eegssm",
    "train_tokenizer",
    "write_history_csv",
]


class DivergenceError(RuntimeError):
    """A loss or gradient stopped being finite; the update was not applied."""


class CheckpointError(ValueError):
    """Unreadable, truncated, or incompatible checkpoint data."""


# ---- masking -----------------------------------------------------------------


def sample_mask(shape: tuple[int, ...], r: float, seed: int) -> np.ndarray:
    """I.i.d. Bernoulli(r) mask bits over `shape`, regeneratable from `seed`."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"mask ratio must be in [0, 1], got {r}")
    return np.random.default_rng(seed).random(shape) < r


# ---- objective ----------------------------------------------------------------


def masked_token_loss(backbone_out: EegssmOutput, tokens, mask) -> Tensor:
    """Cross entropy of both token heads, averaged over masked positions.

    `tokens` is a pair of (B, S) integer arrays and `mask` a (B, S) boolean
    array. Unmasked positions are removed by multiplication with the 0/1
    mask, so their logits receive exactly zero gradient.
    """
    z_t, z_f = tokens
    mask = np.asarray(mask, dtype=bool)
    n_masked = int(mask.sum())
    if n_masked == 0:
        raise ValueError("mask selects no positions; nothing to predict")
    m = Tensor(mask.astype(np.float32))
    ce_t = cross_entropy(backbone_out.logits_t, z_t)
    ce_f = cross_entropy(backbone_out.logits_f, z_f)
    return ((ce_t + ce_f) * m).sum() / float(n_masked)


def _masked_accuracy(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    pred = logits.argmax(axis=-1)
    hits = (pred == targets) & mask
    return float(hits.sum() / max(1, mask.sum()))


# ---- optimization --------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters shared by both stages."""

    steps: int = 200
    batch_size: int = 4
    peak_lr: float = 1e-4
    min_lr: float = 1e-6
    betas: tuple[float, float] = (0.9, 0.99)
    eps: float = 1e-8
    weight_decay: float = 5e-3
    clip_norm: float = 5.0
    mask_ratio: float = 0.5
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("steps, batch_size and epochs must be positive")
        if not (np.isfinite(self.peak_lr) and 0 <= self.min_lr <= self.peak_lr):  # NaN too
            raise ValueError(f"need finite lrs with 0 <= min lr <= peak lr, got {self.peak_lr} and {self.min_lr}")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError("mask ratio must be in (0, 1)")
        if not self.clip_norm > 0:
            raise ValueError(f"clip norm must be positive, got {self.clip_norm}")
        _check_adamw(self.betas, self.eps, self.weight_decay)


def _check_adamw(betas, eps, weight_decay) -> None:
    """Reject AdamW hyperparameters that break its update: a beta of 1 zeroes
    a bias correction (every weight turns NaN), eps <= 0 can divide by zero
    and a negative decay grows the weights. NaN fails every check."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not weight_decay >= 0:
        raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
    if len(betas) != 2 or not all(0 <= b < 1 for b in betas):
        raise ValueError(f"betas must be two values in [0, 1), got {betas}")


def cosine_lr(step: int, total_steps: int, peak: float, minimum: float) -> float:
    """Cosine decay: exactly `peak` at step 0 and `minimum` at `total_steps`."""
    if total_steps < 1:
        raise ValueError("total_steps must be positive")
    t = min(max(step, 0), total_steps) / total_steps
    return minimum + 0.5 * (peak - minimum) * (1.0 + np.cos(np.pi * t))


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most `max_norm`.

    Returns the pre-clip norm. Parameters without gradients are skipped.
    A non-finite norm scales nothing, so the caller sees the gradients as
    they were.
    """
    total = 0.0
    grads = [p.grad for p in params.values() if p.grad is not None]
    for g in grads:
        total += float((g.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if max_norm < norm < np.inf:
        scale = max_norm / (norm + 1e-12)
        for g in grads:
            g *= scale
    return norm


# elements per AdamW update slice: a slice's operands and scratch take about
# 40 bytes an element, 1.3 MB in all, so they stay in a 2 MB L2
_CHUNK = 1 << 15


class AdamW(nn.Module):
    """Adam moments with decoupled weight decay (decay multiplies the weight
    directly, scaled by lr, outside the adaptive term).

    Its state is a `Module` tree of buffers: the step count `adam/t` and the
    moments `adam/m/<name>` and `adam/v/<name>`, so it saves with the model
    and loads through the same checked `load_state_dict`.

    The arithmetic, per element, for weight w of dtype P, grad g and step t:

        m = b1 * m + (1 - b1) * g                  increment in g's dtype
        v = b2 * v + ((1 - b2) * g) * g            increment in g's dtype
        u = (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)       in P
        u = u + weight_decay * w                   in P, when decay > 0
        w = (w - lr * u) cast to P

    The moments keep P. The hyperparameters are Python floats, so they
    promote nothing; `lr * u` and the subtraction run in
    `np.result_type(lr, P)`, which is float64 for the `np.float64` that
    `cosine_lr` returns.

    `step` runs the chain over slices of at most `_CHUNK` elements of each
    flattened tensor, into four scratch buffers allocated once per step and
    shared by every parameter, so a large tensor makes no full-size
    temporaries (each would be a fresh allocation that page-faults). A
    tensor of one chunk runs it once in its own shape, through four
    temporaries numpy allocates and the chain reuses. Every element sees
    the same operations in the same order, so neither changes a bit. Each
    step gives every parameter with a gradient a new weight array and never
    writes into the old one, so a held `state_dict()` stays a snapshot."""

    def __init__(
        self,
        params: dict[str, Tensor],
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        _check_adamw(betas, eps, weight_decay)
        self.params = params
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = np.zeros(1, dtype=np.int64)
        # C order, so each flattened moment is a view that the step writes into
        self.m = {k: np.zeros(p.shape, p.dtype) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape, p.dtype) for k, p in params.items()}

    def children(self) -> dict:
        return {
            "adam/t": self.t,
            **{f"adam/m/{k}": m for k, m in self.m.items()},
            **{f"adam/v/{k}": v for k, v in self.v.items()},
        }

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float) -> None:
        self.t += 1
        t = int(self.t[0])
        b1, b2 = self.betas
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        eps, decay = self.eps, self.weight_decay
        scratch = {}  # (grad dtype, weight dtype) -> four chunk buffers, shared by every parameter
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            w, m, v = p.data, self.m[k], self.v[k]
            if w.ndim and w.size <= _CHUNK:
                # one chunk, through numpy's temporaries (a 0-d chain would
                # make numpy scalars, so 0-d goes the sliced way); the new
                # weights are made last, where the allocator hands back a
                # warm block
                new, chunks = None, [(m, v, g, w, None, None, None, None, None)]
            else:
                bufs = scratch.get((g.dtype, w.dtype))
                if bufs is None:
                    dtypes = (g.dtype, w.dtype, w.dtype, np.result_type(lr, w.dtype))
                    bufs = scratch[g.dtype, w.dtype] = [np.empty(_CHUNK, d) for d in dtypes]
                new = np.empty(w.shape, w.dtype)
                flat = [a.reshape(-1) for a in (m, v, g, w, new)]
                chunks = (
                    [a[s : s + _CHUNK] for a in flat] + [b[: min(_CHUNK, w.size - s)] for b in bufs]
                    for s in range(0, w.size, _CHUNK)
                )
            for mc, vc, gc, wc, out, inc, u, den, lr_u in chunks:
                mc *= b1
                inc = np.multiply(1 - b1, gc, out=inc)
                mc += inc
                vc *= b2
                inc = np.multiply(1 - b2, gc, out=inc)
                inc *= gc
                vc += inc
                u = np.divide(mc, bc1, out=u)
                den = np.divide(vc, bc2, out=den)
                np.sqrt(den, out=den)
                den += eps
                u /= den
                if decay:
                    u += np.multiply(decay, wc, out=den)
                lr_u = np.multiply(lr, u, out=lr_u)
                if out is None:
                    out = new = np.empty(w.shape, w.dtype)
                np.subtract(wc, lr_u, out=out)
            p.data = new


def _divergence(step: int, loss_value: float, norm: float | None, params: dict[str, Tensor], last_finite) -> DivergenceError:
    """The error for a step whose loss, or else gradient norm (`norm`, None
    when the loss was not finite), is not finite."""
    if norm is not None:
        last_finite = (step, loss_value)
    bad = next((k for k, p in params.items() if p.grad is not None and not np.all(np.isfinite(p.grad))), None)
    return DivergenceError("; ".join([
        f"step {step}: non-finite " + (f"loss {loss_value}" if norm is None else f"gradient norm {norm}"),
        f"first non-finite gradient in {bad}" if bad else "every gradient finite",
        f"last finite loss {last_finite[1]:.6g} at step {last_finite[0]}" if last_finite else "no finite loss in this run",
    ]))


# ---- checkpoints ---------------------------------------------------------------

_CKPT_VERSION = 1


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], config: dict, step: int, meta: dict | None = None) -> None:
    """Write a manifest + blob pair atomically (temp names, then rename).

    The manifest is canonical JSON (sorted keys, fixed separators) and the
    blob concatenates tensor bytes in sorted-name order, so saving the same
    state twice produces identical files byte for byte. Each tensor is
    written from its own little-endian contiguous buffer; one already in
    that layout is not copied.
    """
    os.makedirs(path, exist_ok=True)
    entries, arrays = [], []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        entries.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
        )
        arrays.append(arr)
        offset += arr.nbytes
    manifest = {
        "version": _CKPT_VERSION,
        "config": config,
        "config_hash": config_hash(config),
        "step": int(step),
        "meta": meta or {},
        "tensors": entries,
        "total_bytes": offset,
    }
    man_tmp = os.path.join(path, "manifest.json.tmp")
    bin_tmp = os.path.join(path, "tensors.bin.tmp")
    with open(bin_tmp, "wb") as fh:
        for arr in arrays:
            fh.write(arr.data)
    with open(man_tmp, "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")))
    os.replace(bin_tmp, os.path.join(path, "tensors.bin"))
    os.replace(man_tmp, os.path.join(path, "manifest.json"))


@dataclass
class Checkpoint:
    config: dict
    step: int
    meta: dict
    tensors: dict[str, np.ndarray]
    config_hash: str


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint written by `save_checkpoint`.

    Any unreadable file, missing manifest key, size disagreement, tensor
    entry whose bytes do not match its dtype and shape, or dtype that is not
    bool, integer, float or complex raises CheckpointError. Every entry is
    checked before any tensor is allocated; each tensor is then read from
    the blob straight into its own array.
    """
    man_path = os.path.join(path, "manifest.json")
    bin_path = os.path.join(path, "tensors.bin")
    try:
        with open(man_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable manifest at {man_path}: {e}") from e
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != _CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        fh = open(bin_path, "rb")
    except OSError as e:
        raise CheckpointError(f"unreadable tensor blob at {bin_path}: {e}") from e
    with fh:
        try:
            size = os.fstat(fh.fileno()).st_size
            if size != manifest["total_bytes"]:
                raise CheckpointError(f"tensor blob is {size} bytes, manifest expects {manifest['total_bytes']}")
            layout = []
            for entry in manifest["tensors"]:
                name, start, n = entry["name"], entry["offset"], entry["nbytes"]
                dtype, shape = np.dtype(entry["dtype"]), tuple(entry["shape"])
                if dtype.kind not in "biufc":
                    raise CheckpointError(f"tensor {name!r}: dtype {dtype.str!r} is not bool, integer, float or complex")
                if min(shape, default=0) < 0 or n != dtype.itemsize * math.prod(shape) or not 0 <= start <= size - n:
                    raise CheckpointError(f"tensor {name!r}: {n} bytes at offset {start} do not hold {dtype} {list(shape)}")
                layout.append((name, start, dtype, shape))
            tensors = {}
            for name, start, dtype, shape in layout:
                arr = np.empty(shape, dtype=dtype)
                fh.seek(start)
                if fh.readinto(arr) != arr.nbytes:
                    raise CheckpointError(f"tensor {name!r}: blob at {bin_path} ended while reading it")
                tensors[name] = arr
            return Checkpoint(
                config=manifest["config"],
                step=manifest["step"],
                meta=manifest.get("meta", {}),
                tensors=tensors,
                config_hash=manifest["config_hash"],
            )
        except OSError as e:
            raise CheckpointError(f"unreadable tensor blob at {bin_path}: {e}") from e
        except (KeyError, TypeError) as e:
            raise CheckpointError(f"malformed manifest at {man_path}: {type(e).__name__} {e}") from None


def _verify_resume(ckpt: Checkpoint, config: dict) -> None:
    want = config_hash(config)
    if ckpt.config_hash != want:
        raise CheckpointError(
            "checkpoint was written under a different configuration "
            f"(hash {ckpt.config_hash[:12]}… vs {want[:12]}…); refusing to resume"
        )


# ---- history -------------------------------------------------------------------


def write_history_csv(rows: list[dict], path) -> None:
    if not rows:
        raise ValueError("empty history")
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)


def read_history_csv(path) -> list[dict]:
    """The rows of a history CSV, every value a string ([] if no file)."""
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _step_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, step]))


def _derive_seed(seed: int, step: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, step, k]).generate_state(1)[0])


# ---- the loop shared by both stages -----------------------------------------


def _train(
    model,
    data: list,
    config: TrainConfig,
    out_dir: str | None,
    resume_from: str | None,
    checkpoint_every: int | None,
    stage: int,
    step_fn,
) -> list[dict]:
    """Optimize `model` for `config.steps` steps; returns the history rows
    of the steps this call ran.

    `step_fn(step, items, rng)` builds the batch from the sampled `items`,
    runs the forward pass and returns the loss tensor and that step's history
    columns. Everything else is shared: resume, AdamW, the cosine schedule,
    clipping, the divergence checkpoint, periodic and final checkpoints and
    `history_stage{stage}.csv`, written with every checkpoint. A resumed run
    keeps that file's rows from before its checkpoint, so its history reads
    as that of an uninterrupted run; a checkpoint that lacks or mis-shapes a
    model or optimizer tensor raises CheckpointError before `model` changes.
    On a non-finite loss or gradient norm the step is NOT applied; the last
    good state is checkpointed to `out_dir`/diverged (when out_dir is set)
    and DivergenceError raised, naming the step, the first non-finite
    gradient and the last finite loss.
    """
    if not data:
        raise ValueError("empty dataset")
    params = model.named_params()
    opt = AdamW(params, betas=config.betas, eps=config.eps, weight_decay=config.weight_decay)
    full_config = {"train": asdict(config), "model": asdict(model.config)}

    def save(step: int, name: str, state: dict[str, np.ndarray]) -> None:
        save_checkpoint(os.path.join(out_dir, name), {**state, **opt.named_buffers()}, full_config, step)

    start_step = 0
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        _verify_resume(ckpt, full_config)
        try:  # the optimizer is ours: a bad checkpoint raises before the model changes
            opt.load_state_dict(ckpt.tensors)
            model.load_state_dict(ckpt.tensors)
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"cannot resume from {resume_from}: {exc}") from None
        start_step = ckpt.step

    history_path = os.path.join(out_dir, f"history_stage{stage}.csv") if out_dir is not None else None
    rows = read_history_csv(history_path) if resume_from is not None and history_path else []
    earlier = [row for row in rows if int(row["step"]) < start_step]
    history: list[dict] = []
    last_finite = None
    for step in range(start_step, config.steps):
        rng = _step_rng(config.seed, step)
        idx = rng.choice(len(data), size=min(config.batch_size, len(data)), replace=len(data) < config.batch_size)
        lr = cosine_lr(step, config.steps, config.peak_lr, config.min_lr)

        # the forward pass moves buffers (BatchNorm statistics, code usage);
        # diverged/ must hold them as they were before this step
        buffers = {k: v.copy() for k, v in model.named_buffers().items()}
        opt.zero_grad()
        loss, columns = step_fn(step, [data[i] for i in idx], rng)
        backward(loss)
        loss_value = float(loss.data)
        norm = clip_grad_norm(params, config.clip_norm) if np.isfinite(loss_value) else None
        if norm is None or not np.isfinite(norm):  # nothing was scaled; the update is not applied
            if out_dir is not None:
                save(step, "diverged", {**model.state_dict(), **buffers})
            raise _divergence(step, loss_value, norm, params, last_finite)
        last_finite = (step, loss_value)
        opt.step(lr)

        history.append({"step": step, "lr": f"{lr:.8e}", **columns})
        if checkpoint_every and out_dir and (step + 1) % checkpoint_every == 0:
            save(step + 1, f"step_{step + 1:06d}", model.state_dict())
            write_history_csv(earlier + history, history_path)
    opt.zero_grad()  # nothing reads the last step's gradients; do not keep them alive

    if out_dir is not None:
        save(config.steps, "final", model.state_dict())
        write_history_csv(earlier + history, history_path)
    return history


# ---- stage 1 -------------------------------------------------------------------


def train_tokenizer(
    model: TokenizerModel,
    dataset: list,
    config: TrainConfig,
    out_dir: str | None = None,
    resume_from: str | None = None,
    checkpoint_every: int | None = None,
) -> list[dict]:
    """Optimize the tokenizer on a corpus of PatchGrids; returns history rows.

    Emits one row per step: learning rate, every loss component, and the
    cumulative unused-code counts of both codebooks. Divergence handling,
    checkpoints and resume are those of the shared loop.
    """
    steps_per_epoch = max(1, config.steps // config.epochs)

    def step_fn(step, grids, rng):
        losses = stage1_losses(model, make_stage1_batch(grids), train=True)
        return losses["total"], {
            "total": f"{float(losses['total'].data):.6f}",
            "freq_recon": f"{float(losses['freq_recon'].data):.6f}",
            "temporal_recon": f"{float(losses['temporal_recon'].data):.6f}",
            "contrastive": f"{float(losses['contrastive'].data):.6f}",
            "codebook": f"{float(losses['codebook_sg'].data):.6f}",
            "epoch": step // steps_per_epoch,
            "unused_t": model.codebook_t.unused_count(),
            "unused_f": model.codebook_f.unused_count(),
        }

    if resume_from is None and dataset:  # a fresh run counts code usage from zero
        model.codebook_t.reset_usage()
        model.codebook_f.reset_usage()
    return _train(model, dataset, config, out_dir, resume_from, checkpoint_every, 1, step_fn)


# ---- stage 2 -------------------------------------------------------------------


def train_eegssm(
    model: EegssmModel,
    data: list,
    config: TrainConfig,
    out_dir: str | None = None,
    resume_from: str | None = None,
    checkpoint_every: int | None = None,
) -> list[dict]:
    """Masked token-prediction training over (PatchGrid, TokenGrid) pairs.

    Each step samples a batch, draws a fresh Bernoulli mask per record (from
    the per-step seed, so runs are replayable), replaces masked positions'
    embeddings, and minimizes the summed two-head cross entropy over masked
    positions. History rows carry per-head masked top-1 accuracy.
    """
    t = model.config.patch_len

    def step_fn(step, pairs, rng):
        patches, masks = [], []
        for j, (grid, _) in enumerate(pairs):
            c, n = grid.patches.shape[:2]
            patches.append(grid.patches.reshape(c * n, t))
            for attempt in range(64):
                bits = sample_mask((c, n), config.mask_ratio, _derive_seed(config.seed, step, j * 64 + attempt))
                if bits.any():
                    break
            masks.append(bits.reshape(-1))
        x = np.stack(patches).astype(np.float32)
        z_t = np.stack([tokens.z_t.reshape(-1) for _, tokens in pairs])
        z_f = np.stack([tokens.z_f.reshape(-1) for _, tokens in pairs])
        mask = np.stack(masks)
        out = model.forward(x, mask, train=True, rng=rng)
        loss = masked_token_loss(out, (z_t, z_f), mask)
        return loss, {
            "loss": f"{float(loss.data):.6f}",
            "acc_t": f"{_masked_accuracy(out.logits_t.data, z_t, mask):.4f}",
            "acc_f": f"{_masked_accuracy(out.logits_f.data, z_f, mask):.4f}",
        }

    return _train(model, data, config, out_dir, resume_from, checkpoint_every, 2, step_fn)
