#!/usr/bin/env python3
"""Stage 1: dual time/frequency vector-quantized tokenization.

Trains a small tokenizer on synthetic data, then inspects what discrete
codes a record maps to and how codebook usage evolved. The loss history has
one row per step with every component broken out.
"""

import numpy as np

from codebrain.pretrain import TrainConfig, train_tokenizer
from codebrain.signal import Band, ClassSpec, GeneratorSpec, patch, preprocess, synth_generate
from codebrain.tokenizer import TokenizerConfig, TokenizerModel, tokenize

spec = GeneratorSpec(
    classes=(
        ClassSpec("slow", (Band(1.0, 4.0, 40.0),)),
        ClassSpec("alpha", (Band(8.0, 12.0, 40.0),)),
    ),
    channels=2,
    sample_rate=100,
    duration=4.0,
    noise_sigma=4.0,
    records_per_class=12,
)
records = synth_generate(spec, seed=3)
grids = [patch(preprocess(r), patch_seconds=1.0) for r in records]

config = TokenizerConfig(
    patch_len=100, hidden=32, enc_layers=1, dec_layers=1, heads=2,
    mlp_dim=64, codebook_size=32, code_dim=8, commitment_beta=0.25,
)
model = TokenizerModel(config, np.random.default_rng(0))

history = train_tokenizer(model, grids, TrainConfig(steps=200, batch_size=4, peak_lr=3e-3, min_lr=3e-5, seed=0))
first, last = history[0], history[-1]
print("loss components (first -> last step):")
for key in ("total", "freq_recon", "temporal_recon", "contrastive", "codebook"):
    print(f"  {key:13s} {float(first[key]):8.3f} -> {float(last[key]):8.3f}")

tokens = tokenize(model, grids[0])
print(f"\ntemporal codes of record 0:  {tokens.z_t[0].tolist()}")
print(f"frequency codes of record 0: {tokens.z_f[0].tolist()}")

used = int((model.codebook_f.usage > 0).sum())
print(f"\nfrequency codebook: {used}/{config.codebook_size} codes in use")
