#!/usr/bin/env python3
"""Frozen-backbone linear probing with a 3-layer head.

Runs the full pipeline end to end at small scale: generate labeled data,
train both stages, freeze the backbone, train the classification head on
extracted features, and report kappa / balanced accuracy / weighted F1. A
label-shuffled control shows the metrics collapse to chance when the labels
carry no information.
"""

import numpy as np

from codebrain.pretrain import TrainConfig, train_eegssm, train_tokenizer
from codebrain.probe import ProbeConfig, extract_features, train_probe_on_features
from codebrain.signal import Band, ClassSpec, GeneratorSpec, patch, preprocess, split_stratified, synth_generate
from codebrain.ssm import EegssmConfig, EegssmModel
from codebrain.tokenizer import TokenizerConfig, TokenizerModel, tokenize

spec = GeneratorSpec(
    classes=(
        ClassSpec("slow", (Band(1.0, 4.0, 40.0),)),
        ClassSpec("alpha", (Band(8.0, 12.0, 40.0),)),
        ClassSpec("beta", (Band(18.0, 30.0, 40.0),)),
    ),
    channels=2,
    sample_rate=100,
    duration=4.0,
    noise_sigma=4.0,
    records_per_class=30,
)
records = synth_generate(spec, seed=0)
labels = np.array([r.label for r in records])
grids = [patch(preprocess(r), patch_seconds=1.0) for r in records]
train, val, test = split_stratified(labels, (0.6, 0.2, 0.2), seed=0)

tok = TokenizerModel(
    TokenizerConfig(patch_len=100, hidden=32, enc_layers=1, dec_layers=1, heads=2,
                    mlp_dim=64, codebook_size=64, code_dim=8, commitment_beta=0.25),
    np.random.default_rng(0),
)
train_tokenizer(tok, [grids[i] for i in train], TrainConfig(steps=150, batch_size=4, peak_lr=3e-3, min_lr=3e-5, seed=0))

backbone = EegssmModel(
    EegssmConfig(patch_len=100, features=32, blocks=2, kernel_len=8, kernel_base=2,
                 window=3, codebook_size=64, p_drop=0.0),
    np.random.default_rng(0),
)
data = [(grids[i], tokenize(tok, grids[i])) for i in train]
train_eegssm(backbone, data, TrainConfig(steps=1500, batch_size=4, peak_lr=1e-3, min_lr=1e-5, mask_ratio=0.5, seed=0))

config = ProbeConfig(hidden=32, compress=64, p_drop=0.0, lr=1e-3, steps=200, batch_size=16, eval_every=25, seed=0)

# the backbone is frozen: extract every record's features once, then fit
# the head on the true labels and on each shuffled copy
features = extract_features(backbone, grids)


def fit(lab):
    return train_probe_on_features(*((features[idx], lab[idx]) for idx in (train, val, test)), config)


_, report = fit(labels)
print("true labels:")
print(f"  kappa {report.kappa:.3f}  balanced acc {report.balanced_acc:.3f}  weighted F1 {report.weighted_f1:.3f}")
print(f"  confusion:\n{report.confusion}")

# single-shuffle kappa on 18 test records is noisy; average a few controls
controls = []
for seed in range(3):
    rng = np.random.default_rng(99 + seed)
    shuffled = labels.copy()
    for idx in (train, val, test):
        shuffled[idx] = shuffled[idx][rng.permutation(len(idx))]
    _, control = fit(shuffled)
    controls.append(control.kappa)
print(f"label-shuffled controls: kappa {[round(k, 3) for k in controls]}"
      f"  mean {np.mean(controls):+.3f} (chance is 0)")
