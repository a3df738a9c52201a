"""Span recorder that wraps the library's public functions from outside.

Each wrapped call records a span: name, start, end, parent span, the phase
it ran in and the step or record id within that phase. Wrappers are set on
the module or class attribute that callers look up, so calls made inside the
library are seen too, and are removed again when the traced pass ends.
Spans stay in memory until `write_jsonl`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from codebrain import nn, pretrain, probe, signal, ssm, tokenizer
from codebrain.numerics import fourier

SELF_TIME_TOP = 12  # span names listed in the report line


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.phases: list[str] = []
        self.units: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "setup"
        self.unit = 0
        self.heads: set[int] = set()  # ids of the stage-2 token-head layers
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ---- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.phases.append(self.phase)
        self.units.append(self.unit)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        """A benchmark phase: every span inside it is tagged with `phase`."""
        self.phase, self.unit = phase, 0
        i = self._open(f"phase.{phase}")
        try:
            yield
        finally:
            self._close(i)
            self.phase = "none"

    def count(self, key: str, n: float) -> None:
        self.counts[f"{key}@{self.phase}"] += n

    # ---- wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace `owner.attr` with a recording wrapper.

        `name` is a span name, or a function of the call's positional
        arguments that returns one. `after(tracer, args, out)` runs once the
        call has returned, outside the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = tracer._open(name if isinstance(name, str) else name(args))
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._close(i)
            if after is not None:
                after(tracer, args, out)
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    def _install(self) -> None:
        w = self.wrap
        w(signal, "synth_generate", "signal.synth_generate")
        w(signal, "preprocess", "signal.preprocess")
        w(signal, "patch", "signal.patch")
        w(fourier, "fft_convolve_arrays", "numerics.fft_convolve_arrays")
        w(fourier, "dft_many", "numerics.dft_many")
        w(tokenizer, "conv1d", "numerics.conv1d")
        w(tokenizer, "tokenize", "tokenizer.tokenize")
        w(tokenizer.Codebook, "nearest", "tokenizer.nearest", after=_count_queries)
        w(tokenizer.TokenizerModel, "encode", "tokenizer.encode")
        w(nn.SelfAttention, "__call__", "nn.attention")
        w(nn.Linear, "__call__", lambda args: "ssm.heads" if id(args[0]) in self.heads else "nn.linear")
        w(ssm, "sgconv_forward", "ssm.sgconv_forward", after=_count_taps)
        w(ssm, "swa_forward", "ssm.swa_forward")
        w(ssm, "gate", "ssm.gate")
        w(ssm, "build_kernel", "ssm.build_kernel")
        w(ssm.EegssmModel, "forward", "ssm.model_forward", after=_next_record)
        w(pretrain, "train_tokenizer", "pretrain.train_tokenizer")
        w(pretrain, "train_eegssm", "pretrain.train_eegssm")
        w(pretrain, "make_stage1_batch", "tokenizer.make_stage1_batch")
        w(pretrain, "stage1_losses", "tokenizer.stage1_losses")
        w(pretrain, "masked_token_loss", "pretrain.masked_token_loss", after=_count_masked)
        w(pretrain, "backward", "pretrain.backward")
        w(pretrain, "clip_grad_norm", "pretrain.clip_grad_norm")
        w(pretrain.AdamW, "step", "pretrain.adamw_step", after=_next_step)
        w(pretrain, "save_checkpoint", "pretrain.save_checkpoint", after=_count_checkpoint)
        w(pretrain, "load_checkpoint", "pretrain.load_checkpoint")
        w(probe, "extract_features", "probe.extract_features")
        w(probe, "train_probe_on_features", "probe.train_probe_on_features")

    # ---- queries ---------------------------------------------------------

    def arrays(self):
        return (
            np.array(self.names, dtype=object),
            np.array(self.starts),
            np.array(self.ends),
            np.array(self.parents, dtype=np.int64),
            np.array(self.phases, dtype=object),
        )

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        _, starts, ends, parents, _ = self.arrays()
        own = ends - starts
        child = np.zeros_like(own)
        has = parents >= 0
        np.add.at(child, parents[has], own[has])
        return own - child

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "phase": self.phases[i], "unit": self.units[i],
                }) + "\n")


def _count_queries(tracer, args, out):
    tracer.count("nearest_queries", len(out))


def _count_taps(tracer, args, out):
    spec = args[1]
    s = args[0].shape[-2]
    tracer.count("taps_used", min(s, spec.length))
    tracer.count("taps_built", spec.length)


def _count_masked(tracer, args, out):
    mask = np.asarray(args[2], dtype=bool)
    tracer.count("rows_masked", int(mask.sum()))
    tracer.count("rows_scored", mask.size)


def _count_checkpoint(tracer, args, out):
    path = args[0]
    size = sum(os.path.getsize(os.path.join(path, f)) for f in ("manifest.json", "tensors.bin"))
    tracer.count("checkpoint_bytes", size)
    tracer.count("checkpoints", 1)


def _next_step(tracer, args, out):
    tracer.unit += 1


def _next_record(tracer, args, out):
    if tracer.phase == "extract":
        tracer.unit += 1


def layer_metrics(tracer: Tracer, n: dict) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced pass.

    `n` holds the pass's work counts: s1_steps, s2_steps and records. Times
    are inclusive (children count), per training step or per record of the
    phase named in the benchmark's README.
    """
    names, starts, ends, parents, phases = tracer.arrays()
    dur = ends - starts

    def total(name, phase):
        sel = (names == name) & (phases == phase)
        return float(dur[sel].sum())

    def calls(name, phase):
        return int(((names == name) & (phases == phase)).sum())

    def per(value, k):
        return value / max(1, k)

    s1, s2, rec = n["s1_steps"], n["s2_steps"], n["records"]
    c = tracer.counts
    out = {
        "numerics.backward_s1_ms": per(total("pretrain.backward", "stage1"), s1) * 1e3,
        "numerics.backward_s2_ms": per(total("pretrain.backward", "stage2"), s2) * 1e3,
        "numerics.fft_convolve_ms": per(total("numerics.fft_convolve_arrays", "stage2"), s2) * 1e3,
        "numerics.fft_convolve_calls": per(calls("numerics.fft_convolve_arrays", "stage2"), s2),
        "numerics.dft_many_ms": per(total("numerics.dft_many", "tokenize"), rec) * 1e3,
        "numerics.conv1d_ms": per(total("numerics.conv1d", "stage1"), s1) * 1e3,
        "ssm.sgconv_fwd_ms": per(total("ssm.sgconv_forward", "stage2"), s2) * 1e3,
        "ssm.swa_fwd_ms": per(total("ssm.swa_forward", "stage2"), s2) * 1e3,
        "ssm.gate_fwd_ms": per(total("ssm.gate", "stage2"), s2) * 1e3,
        "ssm.build_kernel_ms": per(total("ssm.build_kernel", "stage2"), s2) * 1e3,
        "ssm.kernel_taps_useful_ratio": c["taps_used@stage2"] / c["taps_built@stage2"],
        "ssm.heads_fwd_ms": per(total("ssm.heads", "stage2"), s2) * 1e3,
        "ssm.head_rows_useful_ratio": c["rows_masked@stage2"] / c["rows_scored@stage2"],
        "tokenizer.nearest_ms": per(total("tokenizer.nearest", "tokenize"), rec) * 1e3,
        "tokenizer.nearest_queries": per(c["nearest_queries@tokenize"], rec),
        "tokenizer.encode_fwd_ms": per(total("tokenizer.encode", "stage1"), s1) * 1e3,
        "tokenizer.stage1_fwd_ms": per(total("tokenizer.stage1_losses", "stage1"), s1) * 1e3,
        "tokenizer.batch_ms": per(total("tokenizer.make_stage1_batch", "stage1"), s1) * 1e3,
        "nn.attention_fwd_ms": per(total("nn.attention", "tokenize"), rec) * 1e3,
        "nn.linear_fwd_ms": per(total("nn.linear", "stage1"), s1) * 1e3,
        "pretrain.adamw_ms": per(total("pretrain.adamw_step", "stage1") + total("pretrain.adamw_step", "stage2"), s1 + s2) * 1e3,
        "pretrain.clip_ms": per(total("pretrain.clip_grad_norm", "stage1") + total("pretrain.clip_grad_norm", "stage2"), s1 + s2) * 1e3,
        "pretrain.masked_loss_ms": per(total("pretrain.masked_token_loss", "stage2"), s2) * 1e3,
        "signal.synth_generate_s": total("signal.synth_generate", "setup"),
        "signal.preprocess_patch_s": total("signal.preprocess", "setup") + total("signal.patch", "setup"),
        "probe.extract_ms_per_record": per(total("probe.extract_features", "extract"), rec) * 1e3,
        "probe.fit_ms": per(total("probe.train_probe_on_features", "probe"), calls("probe.train_probe_on_features", "probe")) * 1e3,
    }
    saves = names == "pretrain.save_checkpoint"
    loads = names == "pretrain.load_checkpoint"
    out["pretrain.checkpoint_save_ms"] = float(dur[saves].mean()) * 1e3
    out["pretrain.checkpoint_load_ms"] = float(dur[loads].mean()) * 1e3
    out["pretrain.checkpoint_mb"] = sum(v for k, v in c.items() if k.startswith("checkpoint_bytes@")) / (
        sum(v for k, v in c.items() if k.startswith("checkpoints@")) * 2**20
    )

    other, steps = 0.0, 0
    for stage, loop in (("s1", "pretrain.train_tokenizer"), ("s2", "pretrain.train_eegssm")):
        phase = "stage1" if stage == "s1" else "stage2"
        (loop_i,) = np.flatnonzero((names == loop) & (phases == phase))
        adam_ends = ends[(names == "pretrain.adamw_step") & (parents == loop_i)]
        intervals = np.diff(np.concatenate([[starts[loop_i]], adam_ends])) * 1e3
        out[f"pretrain.step_{stage}_p50_ms"] = float(np.percentile(intervals, 50))
        out[f"pretrain.step_{stage}_p90_ms"] = float(np.percentile(intervals, 90))
        out[f"pretrain.step_{stage}_samples"] = float(intervals.size)
        kids = (parents == loop_i) & (ends <= adam_ends[-1])
        other += (adam_ends[-1] - starts[loop_i] - dur[kids].sum()) * 1e3
        steps += intervals.size
    out["pretrain.step_other_ms"] = other / steps
    return out


def self_time_table(tracer: Tracer) -> dict[str, float]:
    """Total self time in ms by span name, the SELF_TIME_TOP largest."""
    names = np.array(tracer.names, dtype=object)
    own = tracer.self_times()
    totals: dict[str, float] = defaultdict(float)
    for name, t in zip(names, own):
        totals[name] += float(t) * 1e3
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:SELF_TIME_TOP]
    return {k: round(v, 3) for k, v in ranked}
