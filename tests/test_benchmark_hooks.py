"""The benchmark under `perfbench/` wraps and calls library attributes by
name: `spans.Tracer._install` replaces module functions and class methods
with recording wrappers, and `bench.py` calls the library's public names.
These checks read both files with `ast`, without importing or changing
them, and fail when a library change moves or renames a name they use, or
when a tiny pipeline pass no longer calls a wrapped name through the
attribute the wrapper replaces (its per-layer time would then read 0).
"""

import ast
import functools
import inspect
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from codebrain import nn, pretrain, probe, signal, ssm, tokenizer
from codebrain.numerics import fourier

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LIBRARY = {
    "fourier": fourier, "nn": nn, "pretrain": pretrain, "probe": probe, "signal": signal, "ssm": ssm,
    "tokenizer": tokenizer,
}


def dotted(node) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def wrapped_hooks(source: str) -> list[tuple[str, str]]:
    """(owner, attribute) of every ``w(owner, "attr", ...)`` call in `_install`."""
    install = next(
        node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef) and node.name == "_install"
    )
    return [
        (dotted(call.args[0]), call.args[1].value)
        for call in ast.walk(install)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "w"
    ]


def library_chains(source: str, calls_only: bool = False) -> list[str]:
    """Every attribute chain in `source` rooted at a library module name,
    or only those that are called."""
    nodes = ast.walk(ast.parse(source))
    if calls_only:
        chains = {dotted(node.func) for node in nodes if isinstance(node, ast.Call)}
    else:
        chains = {dotted(node) for node in nodes if isinstance(node, ast.Attribute)}
    return sorted(c for c in chains if c and c.split(".")[0] in LIBRARY)


def resolve(chain: str):
    head, *rest = chain.split(".")
    obj = LIBRARY[head]
    for name in rest:
        obj = getattr(obj, name)
    return obj


HOOKS = wrapped_hooks((PERFBENCH / "spans.py").read_text())
CHAINS = library_chains((PERFBENCH / "bench.py").read_text())


def test_readers_find_the_hooks_and_calls():
    assert ("ssm", "gate") in HOOKS and ("ssm.EegssmModel", "forward") in HOOKS
    assert "ssm.EegssmBlock.create" in CHAINS and "probe.extract_features" in CHAINS


@pytest.mark.parametrize("owner, attr", HOOKS, ids=[f"{o}.{a}" for o, a in HOOKS])
def test_every_wrapped_attribute_exists(owner, attr):
    target = resolve(owner)
    if isinstance(target, type):
        # the tracer reads a class's own `__dict__`, so an inherited method
        # cannot be wrapped where it is looked up
        assert attr in target.__dict__, f"{owner} does not itself define {attr}"
    else:
        assert hasattr(target, attr), f"{owner} has no {attr}"


@pytest.mark.parametrize("chain", CHAINS)
def test_every_library_name_the_benchmark_uses_resolves(chain):
    resolve(chain)


def tiny_pass(out_dir: Path) -> None:
    """Every phase the benchmark times, at the smallest widths: two stage-1
    steps with checkpoints, tokenization, two stage-2 steps, feature
    extraction and one probe fit."""
    spec = signal.GeneratorSpec(
        classes=(signal.ClassSpec("slow", (signal.Band(2, 4, 10),)), signal.ClassSpec("fast", (signal.Band(8, 12, 10),))),
        channels=2, sample_rate=32, duration=4.0, noise_sigma=1.0, records_per_class=3,
    )
    grids = [signal.patch(signal.preprocess(r)) for r in signal.synth_generate(spec, 0)]
    labels = np.array([g.label for g in grids])
    rng = np.random.default_rng(0)
    tok = tokenizer.TokenizerModel(
        tokenizer.TokenizerConfig(patch_len=32, hidden=8, enc_layers=1, dec_layers=1, heads=2, mlp_dim=16,
                                  codebook_size=16, code_dim=4),
        rng,
    )
    backbone = ssm.EegssmModel(
        ssm.EegssmConfig(patch_len=32, features=8, blocks=1, kernel_len=8, kernel_base=2, window=3,
                         codebook_size=16, p_drop=0.0),
        rng,
    )
    pretrain.train_tokenizer(tok, grids, pretrain.TrainConfig(steps=2, batch_size=2), out_dir=str(out_dir / "s1"))
    pretrain.load_checkpoint(str(out_dir / "s1" / "final"))  # the benchmark reads each final checkpoint back
    data = [(g, tokenizer.tokenize(tok, g)) for g in grids]
    pretrain.train_eegssm(backbone, data, pretrain.TrainConfig(steps=2, batch_size=2), out_dir=str(out_dir / "s2"))
    feats = probe.extract_features(backbone, grids)
    sets = [(feats, labels)] * 3
    probe.train_probe_on_features(*sets, probe.ProbeConfig(hidden=4, compress=4, steps=2, batch_size=4))


LIBRARY_FILES = os.path.dirname(nn.__file__) + os.sep


def test_a_pipeline_pass_calls_every_wrapped_attribute(tmp_path, monkeypatch):
    # a call counts only when library code makes it: the benchmark times the
    # library's own calls, so one from here or from bench.py proves nothing;
    # the names tiny_pass calls itself are the entry points and are exempt
    calls = dict.fromkeys(HOOKS, 0)

    def counting(original, hook):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            if sys._getframe(1).f_code.co_filename.startswith(LIBRARY_FILES):
                calls[hook] += 1
            return original(*args, **kwargs)

        return counted

    for owner, attr in HOOKS:
        target = resolve(owner)
        original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
        monkeypatch.setattr(target, attr, counting(original, (owner, attr)))
    tiny_pass(tmp_path)
    entry_points = library_chains(inspect.getsource(tiny_pass), calls_only=True)
    uncalled = [f"{o}.{a}" for (o, a), n in calls.items() if n == 0 and f"{o}.{a}" not in entry_points]
    assert uncalled == []
    checked = {f"{o}.{a}" for o, a in HOOKS} - set(entry_points)
    assert {"ssm.sgconv_forward", "ssm.swa_forward", "ssm.gate", "pretrain.AdamW.step"} <= checked
