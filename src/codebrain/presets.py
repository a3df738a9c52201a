"""Named hyperparameter bundles for the command-line pipeline.

A preset is a flat dict of dotted ``section.key`` strings — the same shape a
config file parses into — so the CLI can overlay file values and flags on top
without special cases. ``desk`` is sized to finish every stage in minutes on a
laptop CPU; ``paper`` overlays it with the full-scale architecture defaults
(4096x32 codebooks, hidden width 200, 8-block backbone), which train far too
slowly for a desk run but document the reference configuration and are fine
for building models and echoing manifests.
"""

from __future__ import annotations

__all__ = ["CLASS_MENU", "preset", "preset_names"]


# band menu used by `gen-data --classes N`: name, band edges (Hz), amplitude (uV)
CLASS_MENU: tuple[tuple[str, str], ...] = (
    ("slow", "1-4:40"),
    ("theta", "4-8:40"),
    ("alpha", "8-12:40"),
    ("beta", "18-30:40"),
    ("gamma", "30-45:40"),
)


_DESK: dict[str, str] = {
    # synthetic corpus: 4-channel, 8-second records, three well-separated bands
    "data.channels": "4",
    "data.sample_rate": "200",
    "data.duration": "8",
    "data.noise_sigma": "4.0",
    "data.records_per_class": "60",
    "data.class.slow.bands": "1-4:40",
    "data.class.alpha.bands": "8-12:40",
    "data.class.beta.bands": "18-30:40",
    "split.train": "0.6",
    "split.val": "0.2",
    "split.test": "0.2",
    "split.seed": "0",
    # stage-1 tokenizer, reduced widths
    "tokenizer.patch_len": "200",
    "tokenizer.hidden": "64",
    "tokenizer.enc_layers": "2",
    "tokenizer.dec_layers": "1",
    "tokenizer.heads": "4",
    "tokenizer.mlp_dim": "256",
    "tokenizer.codebook_size": "256",
    "tokenizer.code_dim": "16",
    # commitment keeps the encoder anchored to the codes at the desk lr,
    # otherwise the code-alignment loss grows while everything else falls
    "tokenizer.commitment_beta": "0.25",
    # stage-2 backbone; kernel length covers the 4ch x 8-patch sequence.
    # patch_len and codebook_size come from the stage-1 checkpoint
    "model.features": "64",
    "model.blocks": "2",
    "model.kernel_len": "32",
    "model.kernel_base": "4",
    "model.window": "7",
    "model.p_drop": "0.0",
    "stage1.steps": "200",
    "stage1.batch_size": "4",
    "stage1.peak_lr": "3e-3",
    "stage1.min_lr": "3e-5",
    "stage1.seed": "0",
    # 1500 steps: at 500 the masked task is only partly solved and probe
    # features stay weak; the full schedule makes the frozen backbone probeable
    "stage2.steps": "1500",
    "stage2.batch_size": "4",
    "stage2.peak_lr": "1e-3",
    "stage2.min_lr": "1e-5",
    "stage2.mask_ratio": "0.5",
    "stage2.seed": "0",
    "probe.hidden": "64",
    "probe.compress": "200",
    "probe.p_drop": "0.0",
    "probe.lr": "1e-3",
    "probe.steps": "300",
    "probe.batch_size": "16",
    "probe.eval_every": "25",
    "probe.seeds": "5",
    "probe.shuffled": "false",
    "probe.seed": "0",
    "analyze.tau": "1.0",
    "bench.sizes": "64,128,256,512,1024",
    "bench.features": "1",
    "bench.base": "16",
    "bench.repeats": "3",
    "bench.attention_max_len": "4096",
}


# paper overlays desk: only the values that differ are restated
_PAPER: dict[str, str] = {
    **_DESK,
    "data.records_per_class": "100",
    # full-scale tokenizer: 4096 codes x 32 dims, hidden width 200
    "tokenizer.hidden": "200",
    "tokenizer.enc_layers": "12",
    "tokenizer.dec_layers": "3",
    "tokenizer.heads": "8",
    "tokenizer.mlp_dim": "800",
    "tokenizer.codebook_size": "4096",
    "tokenizer.code_dim": "32",
    "tokenizer.commitment_beta": "0.0",  # the TokenizerConfig default
    # full-scale backbone
    "model.features": "256",
    "model.blocks": "8",
    "model.kernel_len": "1024",
    "model.kernel_base": "16",
    "model.window": "31",
    "model.p_drop": "0.1",
    "stage1.peak_lr": "1e-4",
    "stage1.min_lr": "1e-6",
    "stage2.steps": "500",
    "stage2.peak_lr": "1e-4",
    "stage2.min_lr": "1e-6",
    "probe.hidden": "256",
    "probe.p_drop": "0.1",
    "probe.batch_size": "32",
    "bench.sizes": "4096,8192,16384,32768,65536",
}


_PRESETS = {"desk": _DESK, "paper": _PAPER}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> dict[str, str]:
    """A fresh copy of the named bundle; unknown names raise ValueError."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {preset_names()}")
    return dict(_PRESETS[name])
