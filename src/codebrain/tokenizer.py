"""Dual-codebook signal tokenizer (stage 1).

One encoder reads each one-second patch twice: a strided convolution stack
consumes the raw waveform while a linear map consumes the patch's amplitude
spectrum. The concatenated features feed a transformer over the record's
patch sequence, and the resulting embedding is quantized twice against two
independent codebooks. Two decoders close the loop: a frequency decoder
reconstructs the amplitude and phase spectra from the frequency-side code,
and a temporal decoder reconstructs the raw waveform from the time-side code
while a contrastive term ties together the two halves of each record. A
training step runs the per-patch front end (convolutions, spectrum map,
position rows) once; each half's view runs the transformer over that half's
rows of the patch embeddings.

Gradients reach the encoder through a straight-through estimator (the
quantizer's output behaves like the identity map in the backward pass), and
the codebooks themselves learn only from stop-gradient pull terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .numerics import (
    Tensor,
    concat,
    conv1d,
    cross_entropy,
    no_grad,
    take_rows,
)
from .signal import PatchGrid, _zscored_amplitude, freq_features

__all__ = [
    "Codebook",
    "ConvStage",
    "DominanceReport",
    "Stage1Batch",
    "TokenGrid",
    "TokenizerConfig",
    "TokenizerModel",
    "class_specific_ratio",
    "contrastive_loss",
    "make_stage1_batch",
    "stage1_losses",
    "tokenize",
]


@dataclass(frozen=True)
class TokenizerConfig:
    """Architecture and loss hyperparameters for the tokenizer."""

    patch_len: int = 200
    hidden: int = 200
    enc_layers: int = 12
    dec_layers: int = 3
    heads: int = 8
    mlp_dim: int = 800
    codebook_size: int = 4096
    code_dim: int = 32
    max_positions: int = 1024
    temperature: float = 0.5
    commitment_beta: float = 0.0
    conv_channels: tuple[int, ...] = (8, 4, 4)
    conv_kernels: tuple[int, ...] = (15, 3, 3)
    conv_strides: tuple[int, ...] = (8, 1, 1)
    conv_pads: tuple[int, ...] = (7, 1, 1)

    def __post_init__(self):
        if self.patch_len < 2:
            raise ValueError("patch_len must be >= 2")
        for name in ("hidden", "heads", "mlp_dim", "max_positions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden % self.heads:
            raise ValueError(f"hidden {self.hidden} not divisible by {self.heads} heads")
        if self.codebook_size < 1 or self.code_dim < 1:
            raise ValueError("codebook dimensions must be positive")
        if not (len(self.conv_channels) == len(self.conv_kernels) == len(self.conv_strides) == len(self.conv_pads)):
            raise ValueError("conv stage tuples must have equal length")
        if not self.conv_channels:
            raise ValueError("the convolution stack needs at least one stage")
        for name in ("conv_channels", "conv_kernels", "conv_strides"):
            if min(getattr(self, name)) < 1:
                raise ValueError(f"{name} must all be >= 1, got {getattr(self, name)}")
        if min(self.conv_pads) < 0:
            raise ValueError(f"conv_pads must all be >= 0, got {self.conv_pads}")
        self.conv_out_len()
        if not self.temperature > 0:  # NaN too
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if np.isnan(self.commitment_beta):
            raise ValueError("commitment_beta must be a number, got nan")

    @property
    def freq_bins(self) -> int:
        # one-sided spectrum length used as the encoder's frequency input
        return self.patch_len // 2 + 1

    def conv_out_len(self) -> int:
        length = self.patch_len
        for k, s, p in zip(self.conv_kernels, self.conv_strides, self.conv_pads):
            length = (length + 2 * p - k) // s + 1
            if length < 1:
                raise ValueError("patch too short for the convolution stack")
        return length

    @property
    def time_feat(self) -> int:
        return self.conv_channels[-1] * self.conv_out_len()


class Codebook(nn.Module):
    """K learnable code vectors of width D, plus how often training picked each."""

    def __init__(self, size: int, dim: int, rng: np.random.Generator):
        if size < 1 or dim < 1:
            raise ValueError("codebook needs at least one code of width >= 1")
        bound = 1.0 / size
        self.codes = Tensor(
            rng.uniform(-bound, bound, size=(size, dim)).astype(np.float32),
            requires_grad=True,
        )
        self.usage = np.zeros(size, dtype=np.int64)

    @property
    def size(self) -> int:
        return self.codes.shape[0]

    @property
    def dim(self) -> int:
        return self.codes.shape[1]

    def nearest(self, queries: np.ndarray) -> np.ndarray:
        """Index of the closest code per query row (squared Euclidean,
        ties resolved toward the lowest index).

        Codes are ranked by ‖c‖² − 2 q·cᵀ in one float64 matrix product.
        Rows whose runner-up lies within the rounding bound of that
        expansion are re-ranked with the exact ((q − c)**2).sum(-1), so the
        result is that of an exhaustive float64 search, ties included."""
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim == 1:
            q = q[None, :]
        if q.shape[-1] != self.dim:
            raise ValueError(f"query width {q.shape[-1]} != code width {self.dim}")
        codes = self.codes.data.astype(np.float64)
        c2 = (codes * codes).sum(axis=-1)
        score = q @ codes.T
        score *= -2.0
        score += c2
        out = score.argmin(axis=1)
        best = score[np.arange(out.size), out]
        # each formula errs on a distance by at most (D + 2) eps times
        # (‖q‖ + max ‖c‖)²; a runner-up further behind than both errors on
        # both distances cannot win the exact search
        bound = 4 * (self.dim + 2) * np.finfo(np.float64).eps * (
            np.sqrt((q * q).sum(axis=-1)) + np.sqrt(c2.max())
        ) ** 2
        near = score <= (best + bound)[:, None]
        near[~np.isfinite(best)] = True
        rows = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
        chunk = max(1, (1 << 20) // (self.size * self.dim))
        for lo in range(0, rows.size, chunk):
            sel = rows[lo : lo + chunk]
            r, k = np.nonzero(near[sel])
            exact = np.full((sel.size, self.size), np.inf)
            exact[r, k] = ((q[sel[r]] - codes[k]) ** 2).sum(axis=-1)
            out[sel] = exact.argmin(axis=1)
        return out

    def reset_usage(self) -> None:
        self.usage[:] = 0

    def unused_count(self) -> int:
        return int((self.usage == 0).sum())


@dataclass
class TokenGrid:
    """Per-patch discrete codes: temporal and frequency streams, (C, N) each."""

    z_t: np.ndarray
    z_f: np.ndarray

    def __post_init__(self):
        if self.z_t.shape != self.z_f.shape:
            raise ValueError("token streams must share a shape")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.z_t.shape


class ConvStage(nn.Module):
    """One layer of the waveform convolution stack: a strided convolution
    with weights (out, in, kernel) and a bias, then batch norm and ReLU."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int, pad: int, rng: np.random.Generator):
        std = 1.0 / np.sqrt(c_in * kernel)
        self.w = Tensor(rng.normal(0, std, size=(c_out, c_in, kernel)).astype(np.float32), requires_grad=True)
        self.b = Tensor(np.zeros(c_out, dtype=np.float32), requires_grad=True)
        self.bn = nn.BatchNorm1d(c_out)
        self.stride = stride
        self.pad = pad

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        x = conv1d(x, self.w, self.b, stride=self.stride, pad=self.pad)
        return self.bn(x, train).relu()


class TokenizerModel(nn.Module):
    """Encoder, two codebooks, and two decoders; see the module docstring."""

    def __init__(self, config: TokenizerConfig, rng: np.random.Generator):
        self.config = config
        c = config
        in_ch = (1,) + c.conv_channels[:-1]
        self.convs = [
            ConvStage(*shape, rng)
            for shape in zip(in_ch, c.conv_channels, c.conv_kernels, c.conv_strides, c.conv_pads)
        ]
        self.freq_proj = nn.Linear(c.freq_bins, c.time_feat, rng)
        self.input_proj = nn.Linear(2 * c.time_feat, c.hidden, rng)
        self.pos_embed = Tensor(
            rng.normal(0, 0.02, size=(c.max_positions, c.hidden)).astype(np.float32),
            requires_grad=True,
        )
        self.encoder = nn.TransformerEncoder(c.hidden, c.enc_layers, c.heads, c.mlp_dim, rng)
        self.down = nn.Linear(c.hidden, c.code_dim, rng)
        self.codebook_t = Codebook(c.codebook_size, c.code_dim, rng)
        self.codebook_f = Codebook(c.codebook_size, c.code_dim, rng)
        self.up_t = nn.Linear(c.code_dim, c.hidden, rng)
        self.up_f = nn.Linear(c.code_dim, c.hidden, rng)
        self.f_decoder = nn.TransformerEncoder(c.hidden, c.dec_layers, c.heads, c.mlp_dim, rng)
        self.t_decoder = nn.TransformerEncoder(c.hidden, c.dec_layers, c.heads, c.mlp_dim, rng)
        self.f_head_amp = nn.Linear(c.hidden, c.patch_len, rng)
        self.f_head_phase = nn.Linear(c.hidden, c.patch_len, rng)
        self.t_head = nn.Linear(c.hidden, c.patch_len, rng)

    # ---- forward pieces --------------------------------------------------

    def embed(self, patches: np.ndarray, freq_in: np.ndarray, positions: np.ndarray, train: bool = False) -> Tensor:
        """The per-patch front end: (B, S, T) patches + (B, S, bins) spectra
        -> (B, S, hidden) patch embeddings, position rows added."""
        b, s, t = patches.shape
        h = Tensor(patches.reshape(b * s, 1, t))
        for conv in self.convs:
            h = conv(h, train)
        h = h.reshape(b, s, self.config.time_feat)
        fr = self.freq_proj(Tensor(freq_in))
        ep = self.input_proj(concat([h, fr], axis=-1))
        return ep + take_rows(self.pos_embed, positions)

    def encode(self, patches: np.ndarray, freq_in: np.ndarray, positions: np.ndarray, train: bool = False) -> Tensor:
        """(B, S, T) patches + (B, S, bins) spectra -> (B, S, hidden)."""
        return self.encoder(self.embed(patches, freq_in, positions, train))


# ---- batching ---------------------------------------------------------------


@dataclass
class Stage1Batch:
    """Everything one tokenizer step needs, stacked over records.

    Sequences flatten each record's grid channel-major, so slot c*N + n is
    window n of channel c. `windows_per_channel` is N, used to split records
    into first/second halves for the contrastive term.
    """

    patches: np.ndarray          # (B, S, T) normalized waveforms
    freq_in: np.ndarray          # (B, S, bins) one-sided z-scored amplitude
    amp_target: np.ndarray       # (B, S, T)
    phase_target: np.ndarray     # (B, S, T)
    positions: np.ndarray        # (B, S) int
    windows_per_channel: int


def make_stage1_batch(grids: list[PatchGrid]) -> Stage1Batch:
    if not grids:
        raise ValueError("empty batch")
    shape = grids[0].patches.shape
    if any(g.patches.shape != shape for g in grids):
        raise ValueError("all records in a batch must share (C, N, T)")
    c, n, t = shape
    b, bins = len(grids), t // 2 + 1
    grid = np.stack([g.patches for g in grids])
    amp, phase = (a.reshape(b, c * n, t) for a in freq_features(grid))
    positions = np.broadcast_to(np.arange(c * n), (b, c * n)).copy()
    return Stage1Batch(
        patches=grid.reshape(b, c * n, t).astype(np.float32),
        freq_in=amp[..., :bins].copy(),
        amp_target=amp,
        phase_target=phase,
        positions=positions,
        windows_per_channel=n,
    )


# ---- losses -----------------------------------------------------------------


def _sse_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    """Sum of squares over the last axis, mean over all leading axes."""
    diff = pred - Tensor(target)
    return (diff * diff).sum(axis=-1).mean()


def contrastive_loss(h: Tensor, h_tilde: Tensor, temperature: float = 0.5) -> Tensor:
    """Normalized-temperature cross entropy between two views of B records.

    Views are L2-normalized; every row of the 2B stack treats its partner as
    the positive and all other 2B-2 rows (plus nothing else) as negatives.
    """
    if h.ndim != 2 or h.shape != h_tilde.shape:
        raise ValueError("expected matching (B, H) view matrices")
    b = h.shape[0]
    if b < 2:
        raise ValueError("contrastive loss needs at least 2 records in the batch")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    u = concat([h, h_tilde], axis=0)
    norm = ((u * u).sum(axis=-1, keepdims=True) + 1e-12) ** 0.5
    u = u / norm
    sims = (u @ u.transpose(1, 0)) * (1.0 / temperature)
    # a row never treats itself as a candidate
    sims = sims + Tensor(np.diag(np.full(2 * b, -1e9, dtype=np.float32)))
    partners = np.concatenate([np.arange(b) + b, np.arange(b)])
    return cross_entropy(sims, partners).mean()


def _quantize_st(e_d: Tensor, codebook: Codebook) -> tuple[Tensor, Tensor]:
    """Nearest codes, counted in `codebook.usage`, and a straight-through
    path back to the embeddings."""
    b, s, d = e_d.shape
    idx = codebook.nearest(e_d.data.reshape(-1, d))
    codebook.usage += np.bincount(idx, minlength=codebook.size)
    v = take_rows(codebook.codes, idx.reshape(b, s))
    st = e_d + (v - e_d).detach()
    return v, st


def stage1_losses(model: TokenizerModel, batch: Stage1Batch, train: bool = False) -> dict[str, Tensor]:
    """All tokenizer loss components from one front-end pass.

    The patch embeddings of the whole batch feed the encoder once for the
    reconstruction and quantization terms, and the embeddings of each half
    of every channel's windows feed it again for that half's contrastive
    view, so each BatchNorm normalizes and updates from the whole batch once.

    Returns tensors keyed: freq_recon, temporal_recon, contrastive,
    codebook_sg, and total. Each codebook counts its B*S lookups in `usage`.
    """
    n = batch.windows_per_channel
    if n < 2:
        raise ValueError("contrastive views need at least 2 windows per channel")
    ep = model.embed(batch.patches, batch.freq_in, batch.positions, train=train)
    e_d = model.down(model.encoder(ep))

    v_f, st_f = _quantize_st(e_d, model.codebook_f)
    v_t, st_t = _quantize_st(e_d, model.codebook_t)

    df = model.f_decoder(model.up_f(st_f))
    freq_recon = _sse_mean(model.f_head_amp(df), batch.amp_target) + _sse_mean(
        model.f_head_phase(df), batch.phase_target
    )

    dt = model.t_decoder(model.up_t(st_t))
    temporal_recon = _sse_mean(model.t_head(dt), batch.patches)

    first = batch.positions[0] % n < n // 2
    h1, h2 = (model.encoder(ep[:, keep]).mean(axis=1) for keep in (first, ~first))
    cl = contrastive_loss(h1, h2, model.config.temperature)

    sg_t = _sse_mean(v_t, e_d.data)
    sg_f = _sse_mean(v_f, e_d.data)

    total = freq_recon + sg_t + sg_f + (cl + temporal_recon)
    beta = model.config.commitment_beta
    if beta > 0:
        vt_sg, vf_sg = v_t.detach(), v_f.detach()
        commit = ((e_d - vt_sg) * (e_d - vt_sg)).sum(axis=-1).mean() + (
            (e_d - vf_sg) * (e_d - vf_sg)
        ).sum(axis=-1).mean()
        total = total + beta * commit

    return {
        "freq_recon": freq_recon,
        "temporal_recon": temporal_recon,
        "contrastive": cl,
        "codebook_sg": sg_t + sg_f,
        "total": total,
    }


# ---- tokenization -----------------------------------------------------------


def tokenize(model: TokenizerModel, grid: PatchGrid) -> TokenGrid:
    """Deterministically map every patch of a record to its (z_t, z_f) pair.

    Builds only the encoder's inputs, as `make_stage1_batch` builds them for
    a batch of this one record: no phase spectrum, no reconstruction targets.
    """
    c, n, t = grid.patches.shape
    amp, _ = _zscored_amplitude(grid.patches)
    with no_grad():
        e = model.encode(
            grid.patches.reshape(1, c * n, t).astype(np.float32),
            amp.reshape(1, c * n, t)[..., : t // 2 + 1].copy(),
            np.arange(c * n)[None],
            train=False,
        )
        e_d = model.down(e)
    flat = e_d.data.reshape(-1, model.config.code_dim)
    z_t = model.codebook_t.nearest(flat).reshape(c, n)
    z_f = model.codebook_f.nearest(flat).reshape(c, n)
    return TokenGrid(z_t=z_t.astype(np.int32), z_f=z_f.astype(np.int32))


# ---- analytics --------------------------------------------------------------


@dataclass
class DominanceReport:
    """Class-concentration statistics for each token stream.

    For each code, dominance is the largest class share of its occurrences;
    a code is class-specific when that share reaches the threshold. Ratios
    are taken over codes that occur at least once.
    """

    used_t: int
    used_f: int
    specific_t: int
    specific_f: int
    ratio_t: float
    ratio_f: float
    distinct_pairs: int


def _dominance_stream(tokens: list[np.ndarray], labels: list[int], n_codes: int, n_classes: int, tau: float):
    """(codes used, codes whose largest class share reaches tau)."""
    counts = np.zeros((n_codes, n_classes), dtype=np.int64)
    for z, y in zip(tokens, labels):
        np.add.at(counts[:, y], z.reshape(-1), 1)
    totals = counts.sum(axis=1)
    used = totals > 0
    dominance = counts[used].max(axis=1) / totals[used]
    return int(used.sum()), int((dominance >= tau).sum())


def class_specific_ratio(samples: list[tuple[TokenGrid, int]], n_codes: int, tau: float = 1.0) -> DominanceReport:
    """Fraction of used codes whose occurrences concentrate on one class.

    `samples` pairs each record's TokenGrid with its class label. A code
    counts as class-specific when max-class-share >= tau; with tau = 1 that
    means it only ever appears under a single label.
    """
    if not samples:
        raise ValueError("no token grids supplied")
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    labels = [int(y) for _, y in samples]
    classes = sorted(set(labels))
    remap = {y: i for i, y in enumerate(classes)}
    ys = [remap[y] for y in labels]
    zt = [g.z_t for g, _ in samples]
    zf = [g.z_f for g, _ in samples]
    used_t, spec_t = _dominance_stream(zt, ys, n_codes, len(classes), tau)
    used_f, spec_f = _dominance_stream(zf, ys, n_codes, len(classes), tau)
    if used_t == 0 or used_f == 0:
        raise ValueError("no codes were used; tokenize some records first")
    pairs = set()
    for g, _ in samples:
        pairs.update(zip(g.z_t.reshape(-1).tolist(), g.z_f.reshape(-1).tolist()))
    return DominanceReport(
        used_t=used_t,
        used_f=used_f,
        specific_t=spec_t,
        specific_f=spec_f,
        ratio_t=spec_t / used_t,
        ratio_f=spec_f / used_f,
        distinct_pairs=len(pairs),
    )
