"""Workloads, the five-phase pipeline, its output checks and metrics.

One process, one caller, closed loop: each phase starts when the previous
one returns. A pass runs every phase once on freshly built models, so every
pass of a run does the same work. The first pass always runs on the inputs
of QUALITY_SEED and gives the loss and accuracy figures, so those repeat
exactly from run to run whatever the workload seed; later passes run on the
workload seed's inputs until the next one would overrun the run length, at
least two of them, so every output is produced twice and compared.

Each phase is timed by marks as its units end: optimizer steps of a
training loop, records tokenized, probe fits; extraction is one call over
the corpus, one unit. The marks split a phase's wall time into its first
unit (with what precedes it, such as optimizer construction), the later
units, and what follows the last unit (the final checkpoint and history
write), so every part of the phase is charged. Each part is taken at its
UNIT_QUANTILE-th percentile over all passes (every pass has the same
shapes), the later units pooled. On a shared machine, neighbours on the
same physical cores slow a share of the units by tens of percent; a low
percentile follows the speed of the code more closely than a median or one
wall time does. It cannot remove the drift of the whole machine's speed
from one minute to the next.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from codebrain import nn, pretrain, probe, signal, ssm, tokenizer
from codebrain.numerics import Tensor, backward, no_grad

import run
import spans as tracing

PHASES = ("stage1", "tokenize", "stage2", "extract", "probe")
MIN_PASSES = 3
SETUPS = 5  # set-ups before the first pass: at least this many ...
SETUP_SECONDS = 2.0  # ... and until this much time is spent on them
PROBE_SEEDS = 5
FWDBWD_REPEATS = 5
QUALITY_SEED = 0
UNIT_QUANTILE = 10
CLASSES = (("slow", 1.0, 4.0), ("alpha", 8.0, 12.0), ("beta", 18.0, 30.0))

# the desk preset's widths, copied so that an edit of the preset does not
# move the benchmark
_DESK_TOKENIZER = dict(
    hidden=64, enc_layers=2, dec_layers=1, heads=4, mlp_dim=256,
    codebook_size=256, code_dim=16, commitment_beta=0.25,
)
_DESK_PROBE = dict(hidden=64, compress=200, p_drop=0.0, lr=1e-3, steps=150, batch_size=16, eval_every=25)


@dataclass(frozen=True)
class Workload:
    """Record geometry, model widths and the fixed schedule of every phase."""

    name: str
    channels: int
    seconds_per_record: int
    records_per_class: int
    tokenizer: dict
    model: dict
    stage1: dict
    stage2: dict
    probe: dict
    stage1_records: int = 0  # stage 1 trains on this many training records; 0 = all

    @property
    def positions(self) -> int:
        """S: patches per record (one patch per channel-second)."""
        return self.channels * self.seconds_per_record

    @property
    def records(self) -> int:
        return self.records_per_class * len(CLASSES)

    def config_hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="desk-pipeline",
            channels=4, seconds_per_record=8, records_per_class=60,
            tokenizer=_DESK_TOKENIZER,
            model=dict(features=64, blocks=2, kernel_len=32, kernel_base=4, window=7, codebook_size=256, p_drop=0.0),
            stage1=dict(steps=16, batch_size=4, peak_lr=3e-3, min_lr=3e-5),
            stage2=dict(steps=40, batch_size=4, peak_lr=1e-3, min_lr=1e-5, mask_ratio=0.5),
            probe=_DESK_PROBE,
        ),
        Workload(
            name="paper-width",
            channels=4, seconds_per_record=8, records_per_class=5,
            tokenizer=dict(),  # TokenizerConfig defaults are the paper widths
            model=dict(),  # so are EegssmConfig's
            stage1=dict(steps=3, batch_size=4, peak_lr=1e-4, min_lr=1e-6),
            stage2=dict(steps=3, batch_size=4, peak_lr=1e-4, min_lr=1e-6, mask_ratio=0.5),
            probe=dict(hidden=256, compress=200, p_drop=0.1, lr=1e-3, steps=40, batch_size=32, eval_every=20),
        ),
        Workload(
            name="long-context",
            channels=16, seconds_per_record=64, records_per_class=4,
            tokenizer=_DESK_TOKENIZER,
            model=dict(features=64, blocks=2, kernel_len=1024, kernel_base=16, window=31, codebook_size=256, p_drop=0.0),
            # one stage-1 step costs seconds here (dense O(S^2) attention in the
            # tokenizer), so stage 1 is two full-batch steps on two records: only
            # a fixed batch makes a two-step loss comparison meaningful, and at
            # the desk lr of 3e-3 the first Adam step overshoots on some seeds
            stage1=dict(steps=2, batch_size=2, peak_lr=3e-4, min_lr=3e-6),
            stage1_records=2,
            stage2=dict(steps=3, batch_size=4, peak_lr=1e-3, min_lr=1e-5, mask_ratio=0.5),
            probe={**_DESK_PROBE, "steps": 100},
        ),
    )
}


# ---- inputs --------------------------------------------------------------------


@dataclass
class Corpus:
    grids: list
    labels: np.ndarray
    splits: dict[str, np.ndarray]


def make_corpus(wl: Workload, seed: int) -> Corpus:
    spec = signal.GeneratorSpec(
        classes=tuple(signal.ClassSpec(name, (signal.Band(lo, hi, 40.0),)) for name, lo, hi in CLASSES),
        channels=wl.channels,
        duration=float(wl.seconds_per_record),
        noise_sigma=4.0,
        records_per_class=wl.records_per_class,
    )
    records = signal.synth_generate(spec, seed)
    grids = [signal.patch(signal.preprocess(r)) for r in records]
    labels = np.array([r.label for r in records], dtype=np.int64)
    train, val, test = signal.split_stratified(labels, (0.6, 0.2, 0.2), seed)
    return Corpus(grids=grids, labels=labels, splits={"train": train, "val": val, "test": test})


def build_models(wl: Workload, seed: int):
    tok = tokenizer.TokenizerModel(
        tokenizer.TokenizerConfig(**wl.tokenizer), np.random.default_rng(np.random.SeedSequence([seed, 1]))
    )
    backbone = ssm.EegssmModel(
        ssm.EegssmConfig(**wl.model), np.random.default_rng(np.random.SeedSequence([seed, 2]))
    )
    return tok, backbone


def setup(wl: Workload, seed: int) -> tuple[Corpus, float]:
    """Corpus synthesis, preprocess/patch, model construction and a forward
    warm-up of both models; returns the corpus and the wall time."""
    t0 = time.perf_counter()
    corpus = make_corpus(wl, seed)
    tok, backbone = build_models(wl, seed)
    grid = corpus.grids[0]
    batch = tokenizer.make_stage1_batch([grid])
    with no_grad():
        tok.encode(batch.patches, batch.freq_in, batch.positions)
        backbone.forward(batch.patches)
    return corpus, time.perf_counter() - t0


# ---- one pass --------------------------------------------------------------------


@dataclass
class PassResult:
    seed: int
    planned: dict[str, int]
    failed: dict[str, int] = field(default_factory=lambda: dict.fromkeys(PHASES, 0))
    marks: dict[str, np.ndarray] = field(default_factory=dict)  # phase start, unit ends, phase end
    reasons: list[str] = field(default_factory=list)
    raised: bool = False
    s1_history: list[dict] = field(default_factory=list)
    s2_history: list[dict] = field(default_factory=list)
    tokens: list = field(default_factory=list)
    features: np.ndarray | None = None
    probe_reports: list[dict] = field(default_factory=list)

    def fail(self, phase: str, n: int, reason: str) -> None:
        self.failed[phase] = min(self.planned[phase], self.failed[phase] + n)
        self.reasons.append(f"{phase}: {reason}")

    @property
    def attempted_ops(self) -> int:
        return sum(self.planned.values())

    @property
    def failed_ops(self) -> int:
        return sum(self.failed.values())


def planned_ops(wl: Workload) -> dict[str, int]:
    """Training steps, records tokenized or extracted, and probe fits."""
    return {
        "stage1": wl.stage1["steps"],
        "tokenize": wl.records,
        "stage2": wl.stage2["steps"],
        "extract": wl.records,
        "probe": PROBE_SEEDS,
    }


def check_history(res: PassResult, phase: str, rows: list[dict], loss_key: str) -> None:
    """Every value finite, one row per planned step, loss lower at the end."""
    if len(rows) != res.planned[phase]:
        res.fail(phase, res.planned[phase], f"{len(rows)} history rows for {res.planned[phase]} steps")
        return
    values = np.array([[float(v) for v in row.values()] for row in rows])
    if not np.all(np.isfinite(values)):
        res.fail(phase, res.planned[phase], "non-finite value in the training history")
        return
    loss = np.array([float(row[loss_key]) for row in rows])
    k = max(1, len(loss) // 4)
    if not loss[-k:].mean() < loss[:k].mean():
        res.fail(phase, res.planned[phase], f"{loss_key} did not fall: {loss[:k].mean()} -> {loss[-k:].mean()}")


def check_checkpoint(res: PassResult, phase: str, path: str, model) -> None:
    """The final checkpoint holds exactly the model's state."""
    saved = pretrain.load_checkpoint(path).tensors
    for name, arr in model.state_dict().items():
        got = saved.get(name)
        if got is None or got.dtype != arr.dtype or got.shape != arr.shape or not np.array_equal(got, arr):
            res.fail(phase, res.planned[phase], f"checkpoint tensor {name!r} differs from the model state")
            return


def check_tokens(res: PassResult, grids: list, tokens: list, k: int) -> None:
    """Tokens of each record in [0, K) and of shape (C, N)."""
    for i, (grid, tg) in enumerate(zip(grids, tokens)):
        shape = grid.patches.shape[:2]
        for z in (tg.z_t, tg.z_f):
            if z.shape != shape or not np.issubdtype(z.dtype, np.integer) or z.min() < 0 or z.max() >= k:
                res.fail("tokenize", 1, f"record {i}: tokens outside [0, {k}) or of shape {z.shape}")
                break


def check_features(res: PassResult, feats: np.ndarray, shape: tuple[int, int, int]) -> None:
    """Features finite and of shape (records, C, F)."""
    if feats.shape != shape:
        res.fail("extract", res.planned["extract"], f"features of shape {feats.shape}, expected {shape}")
        return
    bad = ~np.isfinite(feats).reshape(shape[0], -1).all(axis=1)
    if bad.any():
        res.fail("extract", int(bad.sum()), f"non-finite features for records {np.flatnonzero(bad)[:5].tolist()}")


def check_probe(res: PassResult, report: dict) -> None:
    scores = [report[k] for k in ("kappa", "balanced_acc", "weighted_f1")]
    if not np.all(np.isfinite(scores)):
        res.fail("probe", 1, f"non-finite probe metrics {scores}")


def compare_passes(ref: PassResult, res: PassResult) -> None:
    """Passes on the same seed repeat the same work: outputs must be
    identical to the reference pass, byte for byte."""
    if res.s1_history != ref.s1_history:
        res.fail("stage1", res.planned["stage1"], "stage-1 history differs from the reference pass")
    if res.s2_history != ref.s2_history:
        res.fail("stage2", res.planned["stage2"], "stage-2 history differs from the reference pass")
    for i, (a, b) in enumerate(zip(ref.tokens, res.tokens)):
        if not (np.array_equal(a.z_t, b.z_t) and np.array_equal(a.z_f, b.z_f)):
            res.fail("tokenize", 1, f"record {i}: tokens differ from the reference pass")
    if ref.features is not None and res.features is not None and res.features.shape == ref.features.shape:
        same = (ref.features == res.features).reshape(ref.features.shape[0], -1).all(axis=1)
        if not same.all():
            res.fail("extract", int((~same).sum()), "features differ from the reference pass")
    for i, (a, b) in enumerate(zip(ref.probe_reports, res.probe_reports)):
        if a != b:
            res.fail("probe", 1, f"probe fit {i} differs from the reference pass")


@contextlib.contextmanager
def step_marks():
    """Collect a timestamp as each optimizer step of a training loop
    returns. This is the one hook an untraced pass sets: a training loop has
    no other step boundary visible from outside."""
    marks: list[float] = []
    original = pretrain.AdamW.step

    def step(self, lr):
        original(self, lr)
        marks.append(time.perf_counter())

    pretrain.AdamW.step = step
    try:
        yield marks
    finally:
        pretrain.AdamW.step = original


def run_pass(wl: Workload, seed: int, corpus: Corpus, work: str, tracer=None) -> PassResult:
    """All five phases on freshly built models. Each phase function returns
    the end time of each of its units; the pass keeps them between the
    phase's start and end times."""
    res = PassResult(seed=seed, planned=planned_ops(wl))
    tok, backbone = build_models(wl, seed)
    if tracer is not None:
        tracer.heads = {id(backbone.head_t), id(backbone.head_f)}
    train = [int(i) for i in corpus.splits["train"]]
    k = tok.config.codebook_size
    s1_dir, s2_dir = os.path.join(work, "stage1"), os.path.join(work, "stage2")

    def stage1():
        cfg = pretrain.TrainConfig(seed=seed, **wl.stage1)
        grids = [corpus.grids[i] for i in train]
        if wl.stage1_records:  # spread over the classes: the split is grouped by class
            grids = grids[:: len(grids) // wl.stage1_records][: wl.stage1_records]
        with step_marks() as marks:
            res.s1_history = pretrain.train_tokenizer(tok, grids, cfg, out_dir=s1_dir)
        return marks

    def tokenize():
        marks = []
        for i, grid in enumerate(corpus.grids):
            if tracer is not None:
                tracer.unit = i
            res.tokens.append(tokenizer.tokenize(tok, grid))
            marks.append(time.perf_counter())
        return marks

    def stage2():
        cfg = pretrain.TrainConfig(seed=seed, **wl.stage2)
        data = [(corpus.grids[i], res.tokens[i]) for i in train]
        with step_marks() as marks:
            res.s2_history = pretrain.train_eegssm(backbone, data, cfg, out_dir=s2_dir)
        return marks

    def extract():
        # one call over the corpus, as the command line makes it
        res.features = probe.extract_features(backbone, corpus.grids)
        return [time.perf_counter()]

    def fit_probes():
        # a fit, not a head step, is the unit: validation and test
        # evaluations fall between some steps only
        sets = {name: (res.features[idx], corpus.labels[idx]) for name, idx in corpus.splits.items()}
        marks = []
        for s in range(PROBE_SEEDS):
            cfg = probe.ProbeConfig(seed=seed + s, **wl.probe)
            _, report = probe.train_probe_on_features(
                sets["train"], sets["val"], sets["test"], cfg, n_classes=len(CLASSES)
            )
            res.probe_reports.append(report.to_dict())
            marks.append(time.perf_counter())
        return marks

    # output checks run outside the timed region of their phase
    checks = {
        "stage1": lambda: (check_history(res, "stage1", res.s1_history, "total"),
                           check_checkpoint(res, "stage1", os.path.join(s1_dir, "final"), tok)),
        "tokenize": lambda: check_tokens(res, corpus.grids, res.tokens, k),
        "stage2": lambda: (check_history(res, "stage2", res.s2_history, "loss"),
                           check_checkpoint(res, "stage2", os.path.join(s2_dir, "final"), backbone)),
        "extract": lambda: check_features(res, res.features, (wl.records, wl.channels, backbone.config.features)),
        "probe": lambda: [check_probe(res, r) for r in res.probe_reports],
    }
    steps = {"stage1": stage1, "tokenize": tokenize, "stage2": stage2, "extract": extract, "probe": fit_probes}
    for j, phase in enumerate(PHASES):
        scope = tracer.in_phase(phase) if tracer is not None else contextlib.nullcontext()
        try:
            with scope:
                t0 = time.perf_counter()
                marks = steps[phase]()
                res.marks[phase] = np.array([t0, *marks, time.perf_counter()])
            checks[phase]()
        except Exception:  # a raised error fails this phase and every later one
            traceback.print_exc(file=sys.stderr)
            res.raised = True
            for later in PHASES[j:]:
                res.fail(later, res.planned[later], "not completed: an error was raised")
            break
    return res


# ---- metrics ------------------------------------------------------------------


def phase_seconds(passes: list[PassResult], phase: str) -> float:
    """First unit + later units + time after the last unit, each part at its
    low percentile over the passes; the later units are pooled and charged
    per unit."""
    parts = np.array([np.diff(p.marks[phase]) for p in passes])  # (passes, units + 1)
    first, later, after = parts[:, 0], parts[:, 1:-1], parts[:, -1]

    def low(a):
        return float(np.percentile(a, UNIT_QUANTILE))

    return low(first) + (later.shape[1] * low(later) if later.size else 0.0) + low(after)


def wall_seconds(res: PassResult) -> float:
    return sum(float(m[-1] - m[0]) for m in res.marks.values())


def end_to_end(wl: Workload, n_train: int, passes: list[PassResult], setups: list[float]) -> dict[str, float]:
    ok = [p for p in passes if not p.raised]
    s = wl.positions
    # the training loops draw min(batch_size, records) records per step
    n_s1 = wl.stage1_records or n_train
    work = {
        "stage1": wl.stage1["steps"] * min(wl.stage1["batch_size"], n_s1) * s,
        "tokenize": wl.records * s,
        "stage2": wl.stage2["steps"] * min(wl.stage2["batch_size"], n_train) * s,
        "extract": wl.records * s,
        "probe": PROBE_SEEDS * wl.probe["steps"],
    }
    rate = {ph: work[ph] / phase_seconds(ok, ph) if ok else float("nan") for ph in PHASES}
    ref = passes[0]  # the QUALITY_SEED pass

    def tail_mean(rows, key):
        k = max(1, len(rows) // 4)
        return float(np.mean([float(r[key]) for r in rows[-k:]])) if rows else float("nan")

    def tail_acc(rows):
        k = max(1, len(rows) // 4)
        return float(np.mean([(float(r["acc_t"]) + float(r["acc_f"])) / 2 for r in rows[-k:]])) if rows else float("nan")

    return {
        "setup_s": statistics.median(setups),
        "stage1_patches_per_s": rate["stage1"],
        "stage2_patches_per_s": rate["stage2"],
        "tokenize_patches_per_s": rate["tokenize"],
        "extract_patches_per_s": rate["extract"],
        "probe_steps_per_s": rate["probe"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stage1_loss_end": tail_mean(ref.s1_history, "total"),
        "stage2_loss_end": tail_mean(ref.s2_history, "loss"),
        "stage2_masked_acc_end": tail_acc(ref.s2_history),
    }


def isolated_fwdbwd(wl: Workload, seed: int) -> dict[str, float]:
    """Forward + backward of one mixer at the workload's stage-2 shapes, in
    isolation: a backward through the whole graph cannot be split from
    outside. Median milliseconds over FWDBWD_REPEATS."""
    cfg = ssm.EegssmConfig(**wl.model)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    block = ssm.EegssmBlock.create(cfg.features, cfg.kernel_len, cfg.kernel_base, cfg.window, rng, alpha=cfg.alpha)
    head = nn.Linear(cfg.features, cfg.codebook_size, rng, w_std=1e-2)
    shape = (wl.stage2["batch_size"], wl.positions, cfg.features)
    h = rng.normal(size=shape).astype(np.float32)
    h2 = rng.normal(size=shape).astype(np.float32)

    def leaf(a):
        return Tensor(a, requires_grad=True)

    mixers = {
        "ssm.sgconv_fwdbwd_ms": lambda: ssm.sgconv_forward(leaf(h), block.sgconv).sum(),
        "ssm.swa_fwdbwd_ms": lambda: ssm.swa_forward(leaf(h), block.swa, block.window).sum(),
        "ssm.gate_fwdbwd_ms": lambda: sum(t.sum() for t in ssm.gate(leaf(h), leaf(h2), block.gate)[1:]),
        "ssm.heads_fwdbwd_ms": lambda: head(leaf(h)).sum(),
    }
    out = {}
    for name, loss_fn in mixers.items():
        times = []
        for _ in range(FWDBWD_REPEATS):
            t0 = time.perf_counter()
            backward(loss_fn())
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times) * 1e3
    return out


# ---- environment ----------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD of the repository at `root`; None when `root` is not one. The
    ceiling stops git from finding a repository above `root`."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(wl: Workload, seed: int, root: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_caps": {var: os.environ.get(var) for var in run.THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": seed,
        "config_hash": wl.config_hash(),
        "git_commit": git_commit(root),
    }


# ---- running a workload ---------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: str):
    """Measure one workload. Returns (metrics, passes, tracer); the tracer
    is None in an untraced run. A traced run makes three passes whatever
    `seconds` is."""
    if not trace:
        # set-up runs SETUPS times or for SETUP_SECONDS first, and again
        # before every pass on the workload seed, which uses that set-up's
        # corpus: the samples spread over the run, and each pass checks that
        # set-up repeats exactly
        setups = []

        def timed_setup() -> Corpus:
            corpus, dt = setup(wl, seed)
            setups.append(dt)
            return corpus

        while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
            corpus = timed_setup()
        quality = corpus if seed == QUALITY_SEED else make_corpus(wl, QUALITY_SEED)
        t_start = time.perf_counter()
        passes = [run_pass(wl, QUALITY_SEED, quality, work)]
        while not passes[-1].raised:
            t0 = time.perf_counter()
            passes.append(run_pass(wl, seed, timed_setup(), work))
            last = time.perf_counter() - t0
            if len(passes) >= MIN_PASSES and time.perf_counter() - t_start + last > seconds:
                break
        for p in passes[1:]:
            ref = next(q for q in passes if q.seed == p.seed)
            if ref is not p:
                compare_passes(ref, p)
        return end_to_end(wl, len(quality.splits["train"]), passes, setups), passes, None

    # traced run: an untraced pass, the same pass traced, and the untraced
    # pass again. Traced outputs must equal untraced ones byte for byte; the
    # overhead compares the traced pass with the later untraced one, since
    # the first pass of a process also pays for warming its allocator.
    tracer = tracing.Tracer()
    with tracer.installed():
        corpus, _ = setup(wl, seed)
    plain = run_pass(wl, seed, corpus, work)
    with tracer.installed():
        traced = run_pass(wl, seed, corpus, work, tracer=tracer)
    again = run_pass(wl, seed, corpus, work)
    passes = [plain, traced, again]
    for p in passes[1:]:
        compare_passes(plain, p)
    if any(p.raised for p in passes):
        return {}, passes, tracer
    metrics = tracing.layer_metrics(tracer, {
        "s1_steps": wl.stage1["steps"], "s2_steps": wl.stage2["steps"], "records": wl.records,
    })
    metrics.update(isolated_fwdbwd(wl, seed))
    t_plain, t_traced = wall_seconds(again), wall_seconds(traced)
    metrics["trace.overhead_pct"] = (t_traced - t_plain) / t_plain * 100.0
    metrics["trace.spans"] = float(len(tracer.names))
    tokens = traced.tokens
    k = wl.tokenizer.get("codebook_size", tokenizer.TokenizerConfig().codebook_size)
    used = [len(np.unique(np.concatenate([getattr(t, z).ravel() for t in tokens]))) for z in ("z_t", "z_f")]
    metrics["tokenizer.code_usage_ratio"] = sum(used) / (2 * k)
    return metrics, passes, tracer


def measure(wl: Workload, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the report lines
    printed before it. Scratch files live under `root`/.perfbench_work."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=base)
    try:
        metrics, passes, tracer = run_workload(wl, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    extra: dict = {"check_failures": [reason for p in passes for reason in p.reasons]}
    if tracer is not None:
        spans_path = base / f"spans-{wl.name}-seed{seed}.jsonl"
        tracer.write_jsonl(str(spans_path))
        extra["spans_file"] = str(spans_path.relative_to(root))
        extra["self_time_ms"] = tracing.self_time_table(tracer)
    failed = sum(p.failed_ops for p in passes)
    result = {
        "correct": bool(metrics) and failed == 0 and all(np.isfinite(v) for v in metrics.values()),
        "attempted": sum(p.attempted_ops for p in passes),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in sorted(metrics.items())},
    }
    return result, extra


def main(wl: Workload, seed: int, seconds: int, trace: bool, root: Path) -> int:
    result, extra = measure(wl, seed, seconds, trace, root)
    for reason in extra["check_failures"]:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    print(json.dumps({"env": environment(wl, seed, root)}, sort_keys=True))
    print(json.dumps(extra, sort_keys=True))
    print(f"ops_attempted {result['attempted']} count, ops_failed {result['failed']} count")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
