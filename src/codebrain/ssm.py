"""Stage-2 backbone: global convolution, sliding-window attention, gated fusion.

The long-range mixer is a depthwise causal convolution whose kernel is built
from N = log2(L/d) + 1 short parameter vectors: sub-kernel i is upsampled to
length 2^{max(i-1,0)} * d and scaled by alpha^i, so the concatenated kernel
spans exactly L positions with geometrically decaying magnitude and only
d * N learned values per channel. Convolution runs through the spectral path
(O(L log L)). Local structure comes from single-head attention restricted to
a centered window. A multiplicative gate fuses the two paths; each block adds
its residual branch to the stream and contributes a skip branch to the sum
that forms the stack output.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from . import nn
from .numerics import (
    Tensor,
    concat,
    dropout,
    fft_convolve,
    fourier,
    repeat_last,
    rms_norm,
    window_attention,
)

__all__ = [
    "BenchRow",
    "EegssmBlock",
    "EegssmConfig",
    "EegssmModel",
    "EegssmOutput",
    "GateParams",
    "SgconvSpec",
    "SwaParams",
    "bench_backbones",
    "build_kernel",
    "gate",
    "sgconv_forward",
    "sgconv_param_count",
    "swa_forward",
]


def _subkernel_count(length: int, base: int) -> int:
    if base < 1 or length < base or length % base:
        raise ValueError(f"kernel length {length} must be a power-of-two multiple of base {base}")
    ratio = length // base
    if ratio & (ratio - 1):
        raise ValueError(f"L/d must be a power of two, got {length}/{base}")
    return ratio.bit_length()  # log2(ratio) + 1


def sgconv_param_count(features: int, length: int, base: int) -> int:
    """Closed-form learned-value count: d * (log2(L/d) + 1) per channel."""
    return features * base * _subkernel_count(length, base)


@dataclass
class SgconvSpec(nn.Module):
    """Multi-resolution depthwise kernel parameters.

    `weights` has shape (features, N, d): N sub-kernel vectors of length d
    per channel, which fix the kernel's span L = d * 2^(N-1). `normalize`
    divides the assembled kernel by its per-channel L1 norm so convolution
    preserves scale.
    """

    alpha: float
    weights: Tensor
    normalize: bool = True

    def __post_init__(self):
        if self.weights.ndim != 3 or 0 in self.weights.shape[1:]:
            raise ValueError(f"weights must be (features, N, d) with N, d >= 1, got {self.weights.shape}")

    @property
    def features(self) -> int:
        return self.weights.shape[0]

    @property
    def n_subkernels(self) -> int:
        return self.weights.shape[1]

    @property
    def base(self) -> int:
        return self.weights.shape[2]

    @property
    def length(self) -> int:
        return self.base << (self.n_subkernels - 1)

    @classmethod
    def create(
        cls,
        features: int,
        length: int,
        base: int,
        rng: np.random.Generator,
        alpha: float = 0.5,
        normalize: bool = True,
    ) -> "SgconvSpec":
        n = _subkernel_count(length, base)
        w = rng.normal(0.0, 1.0 / np.sqrt(base * n), size=(features, n, base))
        return cls(alpha=alpha, weights=Tensor(w.astype(np.float32), requires_grad=True), normalize=normalize)


def build_kernel(spec: SgconvSpec) -> Tensor:
    """Assemble the (features, L) convolution kernel from sub-kernel weights
    in three tape nodes: the (features, N·d) view of the weights, each tap
    of sub-kernel i repeated 2^max(i-1, 0) times, and the float32(alpha^i)
    scale of every repeated tap."""
    f, n, d = spec.weights.shape
    reps = 2 ** np.maximum(np.arange(n) - 1, 0)
    scale = np.array([spec.alpha**i for i in range(n)], dtype=np.float32)
    taps = repeat_last(spec.weights.reshape(f, n * d), np.repeat(reps, d))
    kernel = taps * Tensor(np.repeat(scale, reps * d))
    if spec.normalize:
        z = kernel.abs().sum(axis=-1, keepdims=True)
        kernel = kernel / (z + 1e-12)
    return kernel


def sgconv_forward(u, spec: SgconvSpec) -> Tensor:
    """Per-feature causal convolution of (B, S, F) with the kernel.

    Sequences shorter than L convolve against the kernel's first S taps
    (later taps can never touch a causal output within the sequence).
    """
    x = u if isinstance(u, Tensor) else Tensor(u)
    if x.ndim != 3:
        raise ValueError(f"expected (B, S, F), got {x.shape}")
    b, s, f = x.shape
    if f != spec.features:
        raise ValueError(f"feature width {f} != kernel channels {spec.features}")
    if s > spec.length:
        raise ValueError(f"sequence length {s} exceeds kernel span {spec.length}")
    kernel = build_kernel(spec)
    if s < spec.length:
        kernel = kernel[:, :s]
    xt = x.transpose(0, 2, 1)  # (B, F, S)
    yt = fft_convolve(xt, kernel)  # kernel broadcasts over the batch axis
    return yt.transpose(0, 2, 1)


class SwaParams(nn.Module):
    """Single-head query/key/value/output maps for windowed attention."""

    def __init__(self, features: int, rng: np.random.Generator):
        self.q = nn.Linear(features, features, rng)
        self.k = nn.Linear(features, features, rng)
        self.v = nn.Linear(features, features, rng)
        self.o = nn.Linear(features, features, rng)


def swa_forward(
    x,
    params: SwaParams,
    window: int,
    train: bool = False,
    rng: np.random.Generator | None = None,
    p_drop: float = 0.0,
) -> Tensor:
    """Attention over (B, S, F) where position i attends to
    |j - i| <= floor(window/2).

    The q/k/v/o maps are Linears; the scores, their -1e9 out-of-sequence
    bias, the softmax, the dropout and the weighted sum are one
    `numerics.window_attention` node, O(S * window) work over a band view
    of the zero-padded keys and values rather than a masked dense score
    matrix.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = x if isinstance(x, Tensor) else Tensor(x)
    _, s, f = x.shape
    half = min(window // 2, s - 1)  # wider offsets never land in the sequence
    q = params.q(x) * (1.0 / np.sqrt(f))
    out = window_attention(q, params.k(x), params.v(x), half, p_drop if train else 0.0, rng)
    return params.o(out)


class GateParams(nn.Module):
    """Fusion gate: two (2F -> F) filters plus two (F -> F) output convolutions.

    All four are kernel-size-1 convolutions over the sequence, i.e. position-
    wise linear maps, stored here as weight matrices applied to the last axis.
    """

    def __init__(self, features: int, rng: np.random.Generator):
        self.wf = nn.Linear(2 * features, features, rng)
        self.wg = nn.Linear(2 * features, features, rng)
        self.out1 = nn.Linear(features, features, rng)
        self.out2 = nn.Linear(features, features, rng)


def gate(y_sg: Tensor, y_swa: Tensor, params: GateParams) -> tuple[Tensor, Tensor, Tensor]:
    """z = tanh(Wf . concat) * sigmoid(Wg . concat); y1, y2 = Conv(z), Conv(z)."""
    if y_sg.shape != y_swa.shape:
        raise ValueError("fusion inputs must share a shape")
    cat = concat([y_sg, y_swa], axis=-1)
    z = params.wf(cat).tanh() * params.wg(cat).sigmoid()
    return z, params.out1(z), params.out2(z)


@dataclass
class EegssmBlock(nn.Module):
    rms_scale: Tensor
    sgconv: SgconvSpec
    swa: SwaParams
    window: int
    gate: GateParams
    p_drop: float = 0.0

    @classmethod
    def create(
        cls,
        features: int,
        length: int,
        base: int,
        window: int,
        rng: np.random.Generator,
        alpha: float = 0.5,
        p_drop: float = 0.0,
    ) -> "EegssmBlock":
        if window < 1:
            raise ValueError("window must be >= 1")
        return cls(
            rms_scale=Tensor(np.ones(features, dtype=np.float32), requires_grad=True),
            sgconv=SgconvSpec.create(features, length, base, rng, alpha=alpha),
            swa=SwaParams(features, rng),
            window=window,
            gate=GateParams(features, rng),
            p_drop=p_drop,
        )

    def __call__(
        self, x: Tensor, train: bool = False, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor]:
        """One mixing step: returns (x + residual branch, skip branch)."""
        h = rms_norm(x, self.rms_scale)
        y_sg = sgconv_forward(h, self.sgconv)
        y_swa = swa_forward(h, self.swa, self.window, train, rng, self.p_drop)
        _, y1, y2 = gate(y_sg, y_swa, self.gate)
        if train and self.p_drop > 0:
            y1 = dropout(y1, self.p_drop, rng, train)
            y2 = dropout(y2, self.p_drop, rng, train)
        return x + y1, y2


# ---- full stage-2 model ------------------------------------------------------


@dataclass(frozen=True)
class EegssmConfig:
    """Backbone + head geometry for masked token prediction."""

    patch_len: int = 200
    features: int = 256
    blocks: int = 8
    kernel_len: int = 1024
    kernel_base: int = 16
    alpha: float = 0.5
    window: int = 31
    codebook_size: int = 4096
    p_drop: float = 0.1

    def __post_init__(self):
        _subkernel_count(self.kernel_len, self.kernel_base)
        for name in ("patch_len", "features", "codebook_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.blocks < 1:
            raise ValueError("need at least one block")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= self.p_drop < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if np.isnan(self.alpha):
            raise ValueError("alpha must be a number, got nan")


@dataclass
class EegssmOutput:
    """Stack features plus the two per-position token-logit heads."""

    features: Tensor  # (B, S, F)
    logits_t: Tensor  # (B, S, K)
    logits_f: Tensor  # (B, S, K)


class EegssmModel(nn.Module):
    """Patch embedding, optional mask substitution, block stack, two heads.

    The patch embedding is a kernel-size-T stride-T 1-D convolution over the
    flattened waveform, which is applied here as a per-patch linear map (the
    two are the same computation). Masked positions are replaced by a learned
    embedding before any mixing, so the only route to a masked target is
    through context.
    """

    def __init__(self, config: EegssmConfig, rng: np.random.Generator):
        self.config = config
        c = config
        self.embed = nn.Linear(c.patch_len, c.features, rng)
        self.mask_embed = Tensor(
            rng.normal(0, 0.02, size=(c.features,)).astype(np.float32), requires_grad=True
        )
        self.blocks = [
            EegssmBlock.create(
                c.features, c.kernel_len, c.kernel_base, c.window, rng,
                alpha=c.alpha, p_drop=c.p_drop,
            )
            for _ in range(c.blocks)
        ]
        # small heads: initial logits stay close to uniform over K, but the
        # scale must stay large enough that the backbone sees usable gradient
        # before the heads have grown (1e-3 stalls masked-prediction training)
        self.head_t = nn.Linear(c.features, c.codebook_size, rng, w_std=1e-2)
        self.head_f = nn.Linear(c.features, c.codebook_size, rng, w_std=1e-2)

    def features(
        self,
        patches: np.ndarray,
        mask: np.ndarray | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """(B, S, T) waveform patches -> (B, S, F) stack features, the sum of
        every block's skip branch.

        `mask` is an optional (B, S) boolean array; True positions have their
        embeddings replaced by the learned mask embedding. In eval mode no
        step mixes the records of a batch, so each record's features are
        the ones it gets in a batch of its own.
        """
        b, s, t = patches.shape
        if t != self.config.patch_len:
            raise ValueError(f"patch length {t} != configured {self.config.patch_len}")
        e = self.embed(Tensor(patches))
        if mask is not None:
            if mask.shape != (b, s):
                raise ValueError(f"mask shape {mask.shape} != {(b, s)}")
            m = Tensor(mask.astype(np.float32)[..., None])
            e = e * (1.0 - m) + self.mask_embed * m
        skip_sum = None
        for block in self.blocks:
            e, skip = block(e, train, rng)
            skip_sum = skip if skip_sum is None else skip_sum + skip
        return skip_sum

    def forward(
        self,
        patches: np.ndarray,
        mask: np.ndarray | None = None,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> EegssmOutput:
        """`features` plus the per-position token logits of both heads."""
        feats = self.features(patches, mask, train, rng)
        return EegssmOutput(
            features=feats,
            logits_t=self.head_t(feats),
            logits_f=self.head_f(feats),
        )


# ---- benchmark ---------------------------------------------------------------


@dataclass
class BenchRow:
    backbone: str
    seq_len: int
    features: int
    params: int
    wall_ms: float
    peak_bytes: int


def _time_and_peak(fn, repeats: int) -> tuple[float, int]:
    fn()  # warmup
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return float(np.median(times) * 1e3), int(peak)


def bench_backbones(
    seq_lens: list[int],
    features: int = 1,
    base: int = 16,
    repeats: int = 3,
    attention_max_len: int = 1 << 12,
    seed: int = 0,
) -> list[BenchRow]:
    """Wall time + parameter count for three sequence mixers at equal shapes.

    Backbones: `sgconv` (multi-resolution kernel, spectral path),
    `direct_conv` (an unstructured full-length kernel applied by direct
    time-domain convolution), and `dense_attention` (single-head full
    attention, only run up to `attention_max_len` to bound its quadratic
    score matrix).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    for s in seq_lens:
        if s & (s - 1):
            raise ValueError(f"sequence lengths must be powers of two, got {s}")
        if s < base:
            raise ValueError(f"sequence length {s} shorter than kernel base {base}")
    rng = np.random.default_rng(seed)
    rows: list[BenchRow] = []
    for s in seq_lens:
        u = rng.normal(size=(features, s)).astype(np.float64)
        sg_weights = rng.normal(size=(features, _subkernel_count(s, base), base))
        spec = SgconvSpec(alpha=0.5, weights=Tensor(sg_weights.astype(np.float32)))
        kernel = build_kernel(spec).data.astype(np.float64)

        def run_sgconv():
            return fourier.fft_convolve_arrays(u, kernel)

        ms, peak = _time_and_peak(run_sgconv, repeats)
        rows.append(BenchRow("sgconv", s, features, sgconv_param_count(features, s, base), ms, peak))

        def run_direct():
            return np.stack([np.convolve(u[f], kernel[f])[:s] for f in range(features)])

        # direct convolution is O(L^2); one repeat is enough at the top sizes
        ms, peak = _time_and_peak(run_direct, 1 if s >= (1 << 15) else repeats)
        rows.append(BenchRow("direct_conv", s, features, features * s, ms, peak))

        if s <= attention_max_len:
            q = rng.normal(size=(s, features))
            wq, wk, wv, wo = (rng.normal(size=(features, features)) for _ in range(4))

            def run_attention():
                qq, kk, vv = q @ wq, q @ wk, q @ wv
                scores = qq @ kk.T / np.sqrt(features)
                scores -= scores.max(axis=-1, keepdims=True)
                e = np.exp(scores)
                p = e / e.sum(axis=-1, keepdims=True)
                return (p @ vv) @ wo

            ms, peak = _time_and_peak(run_attention, repeats)
            rows.append(BenchRow("dense_attention", s, features, 4 * features * features, ms, peak))
    return rows
