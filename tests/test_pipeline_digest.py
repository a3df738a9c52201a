"""A fixed-seed desk-width pipeline reproduces its artifacts bit for bit.

The pipeline is small enough to run in about half a second: a 24-record
3-band corpus, 6 stage-1 steps, tokenize, 6 stage-2 steps, extract and a
20-step probe, at the desk preset's widths. Each artifact has its own pinned
sha256, so a failure names the first one that moved.

The bits depend on numpy's build and the machine's SIMD loops and BLAS
kernels, so the digests hold only in the environment they were taken in,
pinned beside them; anywhere else the test skips and names the field that
differs. A change that moves bits on purpose updates the digests in the same
commit and says which moved and why.
"""

import hashlib
import json

import numpy as np
import pytest

from codebrain.pretrain import TrainConfig, train_eegssm, train_tokenizer
from codebrain.probe import ProbeConfig, extract_features, train_probe_on_features
from codebrain.signal import Band, ClassSpec, GeneratorSpec, patch, preprocess, split_stratified, synth_generate
from codebrain.ssm import EegssmConfig, EegssmModel
from codebrain.tokenizer import TokenizerConfig, TokenizerModel, tokenize

ENVIRONMENT = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}

DIGESTS = {
    "stage1_checkpoint": "1d998e4845f91663d2775a7b5e470594aa64c67619c04a4499213ad736ab7f3c",
    "stage1_history": "74b37c8ede253d71a8a07efa896fa9730f23521d4e065d8130d7ffe6af265174",
    "tokens": "ad503000d3db6233a08751a4690f09ec00fc9734477318b8048f677062d24d6c",
    "stage2_checkpoint": "377a25815c19b982b632bdd1e5f110fe1062154a3a705be7e5f184a83fd8ee61",
    "stage2_history": "08e40141f626345c863892488c7615432b8288188b45f103c569c838c70a6c79",
    "features": "5032d2d333e717922d79fa4149f2305ef1918968c43345ebb2a09bc31f8eef2f",
    "probe_report": "5a6675ee1b31730daa7ccbf09617441fc94ce29bd5818f9f00de1922409d1835",
}

SPEC = GeneratorSpec(
    classes=(
        ClassSpec("slow", (Band(1.0, 4.0, 40.0),)),
        ClassSpec("alpha", (Band(8.0, 12.0, 40.0),)),
        ClassSpec("beta", (Band(18.0, 30.0, 40.0),)),
    ),
    channels=4,
    sample_rate=200,
    duration=8.0,
    noise_sigma=4.0,
    records_per_class=8,
)
TOKENIZER = TokenizerConfig(
    patch_len=200, hidden=64, enc_layers=2, dec_layers=1, heads=4,
    mlp_dim=256, codebook_size=256, code_dim=16, commitment_beta=0.25,
)
MODEL = EegssmConfig(
    patch_len=200, features=64, blocks=2, kernel_len=32, kernel_base=4,
    window=7, codebook_size=256, p_drop=0.0,
)
STAGE1 = TrainConfig(steps=6, batch_size=4, peak_lr=3e-3, min_lr=3e-5, seed=0)
STAGE2 = TrainConfig(steps=6, batch_size=4, peak_lr=1e-3, min_lr=1e-5, mask_ratio=0.5, seed=0)
PROBE = ProbeConfig(hidden=64, compress=200, p_drop=0.0, lr=1e-3, steps=20, batch_size=16, eval_every=5, seed=0)


def environment() -> dict[str, str]:
    """The fields of `ENVIRONMENT` as this process sees them."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "simd": " ".join(config.get("SIMD Extensions", {}).get("found", [])),
    }


def sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def tree_sha(root) -> str:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return sha(*(part for p in files for part in (p.relative_to(root).as_posix().encode(), p.read_bytes())))


def run_pipeline(root) -> dict[str, str]:
    """Every stage on fresh seed-0 models; returns each artifact's sha256."""
    records = synth_generate(SPEC, seed=0)
    labels = np.array([r.label for r in records], dtype=np.int64)
    grids = [patch(preprocess(r), patch_seconds=1.0) for r in records]
    splits = dict(zip(("train", "val", "test"), split_stratified(labels, (0.6, 0.2, 0.2), seed=0)))
    train = [int(i) for i in splits["train"]]

    tok = TokenizerModel(TOKENIZER, np.random.default_rng(0))
    train_tokenizer(tok, [grids[i] for i in train], STAGE1, out_dir=str(root / "stage1"))
    tokens = [tokenize(tok, g) for g in grids]

    backbone = EegssmModel(MODEL, np.random.default_rng(0))
    train_eegssm(backbone, [(grids[i], tokens[i]) for i in train], STAGE2, out_dir=str(root / "stage2"))
    features = extract_features(backbone, grids)

    sets = {name: (features[idx], labels[idx]) for name, idx in splits.items()}
    _, report = train_probe_on_features(sets["train"], sets["val"], sets["test"], PROBE, n_classes=3)
    return {
        "stage1_checkpoint": tree_sha(root / "stage1" / "final"),
        "stage1_history": sha((root / "stage1" / "history_stage1.csv").read_bytes()),
        "tokens": sha(*(z.tobytes() for t in tokens for z in (t.z_t, t.z_f))),
        "stage2_checkpoint": tree_sha(root / "stage2" / "final"),
        "stage2_history": sha((root / "stage2" / "history_stage2.csv").read_bytes()),
        "features": sha(features.tobytes()),
        "probe_report": sha(json.dumps(report.to_dict(), sort_keys=True).encode()),
    }


def test_fixed_seed_pipeline_is_byte_identical(tmp_path):
    here = environment()
    for field, pinned in ENVIRONMENT.items():
        if here[field] != pinned:
            pytest.skip(f"digests were taken with {field} {pinned!r}; this environment has {here[field]!r}")
    for artifact, digest in run_pipeline(tmp_path).items():
        assert digest == DIGESTS[artifact], f"{artifact} moved: sha256 {digest}"
