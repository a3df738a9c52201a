"""Command-line pipeline: data generation, both training stages, probing,
analytics, and benchmarks.

Configuration is flat ``section.key = value`` text. A preset supplies the
baseline, and the config dataclasses' defaults the keys it leaves out; an
optional ``--config`` file overlays it, and ``--seed`` overrides every stage
seed at once. Unknown keys are rejected before any work starts. ``train-ssm``
takes the backbone's ``patch_len`` and ``codebook_size`` from the stage-1
checkpoint.

Every command reads and writes under one output tree::

    out/data/      records + split manifest        (gen-data)
    out/stage1/    tokenizer checkpoints + history (train-tokenizer)
    out/stage2/    backbone checkpoints + history  (train-ssm)
    out/probe/     metrics JSON/CSV                (probe)
    out/analysis/  usage/dominance CSVs, SVG plots (analyze)
    out/bench.csv  backbone scaling table          (bench)

The library returns data; this module writes every one of these artifacts
except the checkpoints and histories `pretrain` writes while it trains, and
every table goes through `_write_csv`; the `_*_table` helpers lay out the
usage, metrics, confusion and bench tables.

Exit codes: 0 success, 2 invalid configuration, 3 missing or damaged
prerequisite, 4 numeric divergence. The ``data``, ``tokenizer``, ``model``,
``stage1``, ``stage2`` and ``probe`` sections each go through
`_build_dataclass` into a config dataclass that checks its own values, so a
bad value there (a ``data.duration`` of 2.5 s, say) is exit 2 before a
command writes. Records are checked before a command writes: too many
patches (channels x windows) for ``tokenizer.max_positions`` or
``model.kernel_len``, or a length ``tokenizer.patch_len`` does not divide,
is exit 2; a damaged record, one over 100 uV, an empty split the command
needs (train; val and test too for ``probe``), a split of one class for
``probe``, a manifest that lists no records, or records the command cannot
batch together (train records of more than one (channels, windows) shape
for the training commands, more than one channel count for ``probe``) is
exit 3.
"""

from __future__ import annotations

import os


def _cap_threads() -> None:
    # must run before the first numpy import anywhere in the process:
    # BLAS pools read these variables once, at initialization
    value = os.environ.get("CODEBRAIN_THREADS")
    if value and value.isdigit() and int(value) > 0:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, value)


_cap_threads()

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import presets, signal
from .pretrain import (
    CheckpointError,
    DivergenceError,
    TrainConfig,
    load_checkpoint,
    read_history_csv,
    train_eegssm,
    train_tokenizer,
)
from .probe import ProbeConfig, extract_features, train_probe_on_features
from .signal import Band, ClassSpec, GeneratorSpec, PatchGrid
from .ssm import EegssmConfig, EegssmModel, bench_backbones
from .tokenizer import TokenizerConfig, TokenizerModel, class_specific_ratio, tokenize

__all__ = ["ConfigError", "PrerequisiteError", "RunConfig", "main"]


class ConfigError(ValueError):
    """Invalid or unknown configuration; maps to exit code 2."""


class PrerequisiteError(RuntimeError):
    """A required input artifact is missing or damaged; maps to exit code 3."""


# ---- configuration -------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``section.key = value`` lines in file order; blank lines and
    lines starting with '#' are skipped. A line without '=', a repeated key
    or a key without a section raises ConfigError naming the line."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        if "." not in key:
            raise ConfigError(f"line {lineno}: keys are dotted section.name pairs, got {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


# beyond its fields, [data] takes one class.<name>.bands key per class; only
# stage 2 masks and only stage 1 counts epochs
_SECTION_FIELDS = {
    "data": {f.name for f in dataclasses.fields(GeneratorSpec)} - {"classes"},
    "tokenizer": {f.name for f in dataclasses.fields(TokenizerConfig)},
    "model": {f.name for f in dataclasses.fields(EegssmConfig)} - {"patch_len", "codebook_size"},
    "stage1": {f.name for f in dataclasses.fields(TrainConfig)} - {"mask_ratio"},
    "stage2": {f.name for f in dataclasses.fields(TrainConfig)} - {"epochs"},
    "probe": {f.name for f in dataclasses.fields(ProbeConfig)} | {"seeds", "shuffled"},
    "split": {"train", "val", "test", "seed"},
    "bench": {"sizes", "features", "base", "repeats", "attention_max_len"},
    "analyze": {"tau"},
    "paths": {"data", "stage1", "stage2"},
}


def _validate_keys(values: dict[str, str]) -> None:
    for key in values:
        section, _, name = key.partition(".")
        if section not in _SECTION_FIELDS:
            raise ConfigError(f"unknown config section {section!r} in {key!r}")
        is_class = section == "data" and name.startswith("class.") and name.endswith(".bands")
        if name not in _SECTION_FIELDS[section] and not is_class:
            raise ConfigError(f"unknown key {key!r}")


@dataclasses.dataclass
class RunConfig:
    """Merged preset + config-file values, plus the output root and seed."""

    values: dict[str, str]
    out: Path
    seed: int | None = None

    def section(self, name: str) -> dict[str, str]:
        prefix = name + "."
        return {k[len(prefix):]: v for k, v in self.values.items() if k.startswith(prefix)}

    def path(self, name: str, default_rel: str) -> Path:
        raw = self.values.get(f"paths.{name}")
        return Path(raw) if raw else self.out / default_rel


def load_run(args: argparse.Namespace) -> RunConfig:
    values = presets.preset(args.preset)  # argparse restricts the choices
    if args.config is not None:
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise ConfigError(f"config file not found: {cfg_path}")
        overlay = parse_config_text(cfg_path.read_text())
        if any(k.startswith("data.class.") for k in overlay):
            # the file's class list replaces the preset's, not unions with it
            for key in [k for k in values if k.startswith("data.class.")]:
                del values[key]
        values.update(overlay)
    _validate_keys(values)
    return RunConfig(values=values, out=Path(args.out), seed=args.seed)


def _convert(value: str, like, key: str):
    """Cast a config string to the type of a dataclass default."""
    try:
        if isinstance(like, bool):
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
            raise ValueError(value)
        if isinstance(like, int):
            return int(value)
        if isinstance(like, float):
            return float(value)
        if isinstance(like, tuple):
            parts = [p.strip() for p in value.split(",") if p.strip()]
            elem = like[0] if like else 0
            return tuple(int(p) if isinstance(elem, int) else float(p) for p in parts)
        return value
    except ValueError:
        raise ConfigError(f"bad value for {key}: {value!r}") from None


def _build_dataclass(cls, section: str, run: RunConfig, **overrides):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for name, raw in run.section(section).items():
        if name not in defaults:
            continue  # extra keys like probe.seeds are consumed elsewhere
        kwargs[name] = _convert(raw, defaults[name], f"{section}.{name}")
    if run.seed is not None and "seed" in defaults:
        kwargs["seed"] = run.seed
    kwargs.update(overrides)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}] configuration: {exc}") from None


def _parse_bands(raw: str) -> tuple[Band, ...]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        rng_part, _, amp = part.partition(":")
        lo, _, hi = rng_part.partition("-")
        try:
            out.append(Band(low=float(lo), high=float(hi), amplitude=float(amp)))
        except ValueError:
            raise ValueError(f"bad band {part!r}; expected low-high:amplitude") from None
    return tuple(out)


def _generator_spec(run: RunConfig) -> GeneratorSpec:
    """The [data] section as a corpus recipe. Each ``class.<name>.bands``
    value lists low-high:amplitude triples, e.g. ``class.alpha.bands =
    8-12:40``; classes take label ids in sorted key order, whatever the
    order of the file."""
    try:
        classes = tuple(
            ClassSpec(name=key[len("class."):-len(".bands")], bands=_parse_bands(value))
            for key, value in sorted(run.section("data").items())
            if key.startswith("class.")
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [data] configuration: {exc}") from None
    return _build_dataclass(GeneratorSpec, "data", run, classes=classes)


# ---- artifacts -------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    """The one table format of every run artifact: a header, then the rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _usage_table(codebook) -> tuple[list[str], list]:
    return ["code_index", "count"], list(enumerate(codebook.usage.tolist()))


def _metrics_table(report, metric_names: list[str]) -> tuple[list[str], list]:
    rows = [["task", report.task]] + [[name, f"{getattr(report, name):.6f}"] for name in metric_names]
    return ["metric", "value"], rows


def _confusion_table(confusion: np.ndarray) -> tuple[list[str], list]:
    header = ["true\\pred"] + [f"pred_{j}" for j in range(confusion.shape[0])]
    return header, [[f"true_{i}"] + row for i, row in enumerate(confusion.tolist())]


def _bench_table(rows) -> tuple[list[str], list]:
    header = ["backbone", "seq_len", "features", "params", "wall_ms", "peak_bytes"]
    return header, [[r.backbone, r.seq_len, r.features, r.params, f"{r.wall_ms:.4f}", r.peak_bytes] for r in rows]


def _manifest_problem(info) -> str | None:
    """Why a parsed dataset manifest cannot be read as gen-data writes it,
    or None."""
    if not isinstance(info, dict):
        return "not a JSON object"
    missing = [key for key in ("files", "labels", "splits") if key not in info]
    if missing:
        return f"no {', '.join(missing)}"
    files, labels, splits = info["files"], info["labels"], info["splits"]
    if not isinstance(files, list) or not all(isinstance(name, str) for name in files):
        return "files is not a list of names"
    if not files:
        return "files lists no records"
    if not isinstance(labels, list) or len(labels) != len(files) or not all(
        type(y) is int and y >= 0 for y in labels
    ):
        return "labels is not one class id per file"
    if not isinstance(splits, dict) or set(splits) != {"train", "val", "test"} or not all(
        isinstance(idx, list) and all(type(i) is int and 0 <= i < len(files) for i in idx)
        for idx in splits.values()
    ):
        return "splits is not train, val and test lists of record indices"
    return None


def _load_dataset(
    run: RunConfig, patch_len: int, limits: dict[str, int], needs: tuple[str, ...] = ()
) -> tuple[list[PatchGrid], dict]:
    """Every dataset record, preprocessed and cut into `patch_len`-sample
    windows, and the manifest, checked as the module docstring says: `limits`
    maps config keys to the most patches a record may have, and every split
    in `needs` must be non-empty."""
    data_dir = run.path("data", "data")
    manifest = data_dir / "manifest.json"
    if not manifest.is_file():
        raise PrerequisiteError(f"no dataset manifest at {manifest}; run gen-data first")
    try:
        info = json.loads(manifest.read_text())
    except ValueError as exc:
        raise PrerequisiteError(f"the dataset manifest {manifest} is unusable: {exc}") from None
    problem = _manifest_problem(info)
    if problem:
        raise PrerequisiteError(f"the dataset manifest {manifest} is unusable: {problem}")
    for split in needs:
        if not info["splits"][split]:
            raise PrerequisiteError(f"the {split} split of {manifest} is empty")
    grids = []
    for name in info["files"]:
        path = data_dir / name
        try:
            rec = signal.preprocess(signal.load_record(path))
        except (OSError, ValueError) as exc:
            raise PrerequisiteError(f"the dataset record {path} is unusable: {exc}") from None
        try:
            grids.append(signal.patch(rec, patch_seconds=patch_len / rec.sample_rate))
        except ValueError as exc:
            raise ConfigError(f"tokenizer.patch_len = {patch_len} does not fit {path}: {exc}") from None
    longest = max((g.patches.shape[0] * g.patches.shape[1] for g in grids), default=0)
    for key, limit in limits.items():
        if longest > limit:
            raise ConfigError(f"records of {longest} patches (channels x windows) exceed {key} = {limit}")
    return grids, info


def _require_one_shape(grids: list[PatchGrid], info: dict, indices, axes: int) -> None:
    """PrerequisiteError naming two records unless the records at `indices`
    agree on the first `axes` of their (channels, windows): training stacks
    whole records into a batch, and the probe head reads one vector per
    channel."""
    what = "(channels, windows) shape" if axes == 2 else "channel count"
    first = indices[0]
    for i in indices:
        if grids[i].patches.shape[:axes] != grids[first].patches.shape[:axes]:
            (c0, n0), (c1, n1) = grids[first].patches.shape[:2], grids[i].patches.shape[:2]
            raise PrerequisiteError(
                f"the records need one {what}, but {info['files'][first]} has {c0} channels x "
                f"{n0} windows and {info['files'][i]} has {c1} x {n1}"
            )


_STAGES = {
    "stage1": ("tokenizer", TokenizerConfig, TokenizerModel, "train-tokenizer"),
    "stage2": ("backbone", EegssmConfig, EegssmModel, "train-ssm"),
}


def _load_model(run: RunConfig, stage: str):
    """The final model of `stage` ("stage1" or "stage2"), rebuilt from its
    checkpoint; a checkpoint of the other stage raises CheckpointError."""
    what, config_cls, model_cls, command = _STAGES[stage]
    ckpt_dir = run.path(stage, f"{stage}/final")
    if not (ckpt_dir / "manifest.json").is_file():
        raise PrerequisiteError(f"no {what} checkpoint at {ckpt_dir}; run {command} first")
    ckpt = load_checkpoint(str(ckpt_dir))
    raw = ckpt.config.get("model")
    if not isinstance(raw, dict) or not set(raw) <= {f.name for f in dataclasses.fields(config_cls)}:
        raise CheckpointError(f"the checkpoint at {ckpt_dir} does not hold a {what} model")
    try:
        model = model_cls(
            config_cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}),
            np.random.default_rng(0),
        )
        model.load_state_dict(ckpt.tensors)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"the {what} checkpoint at {ckpt_dir} is unusable: {exc}") from None
    return model


# ---- commands --------------------------------------------------------------------


def cmd_gen_data(run: RunConfig, args: argparse.Namespace) -> int:
    if args.classes is not None:
        if not 2 <= args.classes <= len(presets.CLASS_MENU):
            raise ConfigError(
                f"--classes must be in 2..{len(presets.CLASS_MENU)}, got {args.classes}"
            )
        for key in [k for k in run.values if k.startswith("data.class.")]:
            del run.values[key]
        for name, bands in presets.CLASS_MENU[: args.classes]:
            run.values[f"data.class.{name}.bands"] = bands
    if args.records is not None:
        n_classes = sum(1 for k in run.values if k.startswith("data.class."))
        if args.records < n_classes or args.records % n_classes:
            raise ConfigError(
                f"--records {args.records} is not divisible by {n_classes} classes"
            )
        run.values["data.records_per_class"] = str(args.records // n_classes)

    spec = _generator_spec(run)
    seed = run.seed if run.seed is not None else 0
    records = signal.synth_generate(spec, seed)
    labels = [rec.label for rec in records]
    v = run.values
    try:  # split before the data directory exists: a bad split writes nothing
        train, val, test = signal.split_stratified(
            labels, (float(v["split.train"]), float(v["split.val"]), float(v["split.test"])), int(v["split.seed"])
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [split] configuration: {exc}") from None

    data_dir = run.path("data", "data")
    data_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, rec in enumerate(records):
        name = f"record_{i:04d}.bin"
        signal.save_record(rec, data_dir / name)
        files.append(name)
    manifest = {
        "version": 1,
        "seed": seed,
        "files": files,
        "labels": labels,
        "splits": {
            "train": train.tolist(),
            "val": val.tolist(),
            "test": test.tolist(),
        },
        "generator": {k: run.values[k] for k in sorted(run.values) if k.startswith("data.")},
    }
    (data_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(files)} records + manifest to {data_dir}")
    return 0


def cmd_train_tokenizer(run: RunConfig, args: argparse.Namespace) -> int:
    tok_cfg = _build_dataclass(TokenizerConfig, "tokenizer", run)
    train_cfg = _build_dataclass(TrainConfig, "stage1", run)
    grids, info = _load_dataset(
        run, tok_cfg.patch_len, {"tokenizer.max_positions": tok_cfg.max_positions}, needs=("train",)
    )
    _require_one_shape(grids, info, info["splits"]["train"], 2)
    grids = [grids[i] for i in info["splits"]["train"]]

    out_dir = run.out / "stage1"
    out_dir.mkdir(parents=True, exist_ok=True)
    model = TokenizerModel(tok_cfg, np.random.default_rng(train_cfg.seed))
    history = train_tokenizer(model, grids, train_cfg, out_dir=str(out_dir))
    print(
        f"stage-1 done: {len(history)} steps, final total loss "
        f"{history[-1]['total']}, checkpoint at {out_dir / 'final'}"
    )
    return 0


def cmd_train_ssm(run: RunConfig, args: argparse.Namespace) -> int:
    train_cfg = _build_dataclass(TrainConfig, "stage2", run)
    tok_model = _load_model(run, "stage1")
    model_cfg = _build_dataclass(
        EegssmConfig, "model", run,
        patch_len=tok_model.config.patch_len, codebook_size=tok_model.config.codebook_size,
    )
    limits = {"tokenizer.max_positions": tok_model.config.max_positions, "model.kernel_len": model_cfg.kernel_len}
    grids, info = _load_dataset(run, model_cfg.patch_len, limits, needs=("train",))
    _require_one_shape(grids, info, info["splits"]["train"], 2)
    data = [(grids[i], tokenize(tok_model, grids[i])) for i in info["splits"]["train"]]

    out_dir = run.out / "stage2"
    out_dir.mkdir(parents=True, exist_ok=True)
    model = EegssmModel(model_cfg, np.random.default_rng(train_cfg.seed))
    history = train_eegssm(model, data, train_cfg, out_dir=str(out_dir))
    print(
        f"stage-2 done: {len(history)} steps, final loss {history[-1]['loss']}, "
        f"checkpoint at {out_dir / 'final'}"
    )
    return 0


def _shuffled_copy(labels: np.ndarray, splits: dict[str, np.ndarray], seed: int) -> np.ndarray:
    # permute within each split so every split keeps its label balance while
    # the label-feature pairing is destroyed
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0DE]))
    out = labels.copy()
    for name in sorted(splits):
        idx = splits[name]
        out[idx] = rng.permutation(out[idx])
    return out


def cmd_probe(run: RunConfig, args: argparse.Namespace) -> int:
    probe_cfg = _build_dataclass(ProbeConfig, "probe", run)
    n_seeds = _convert(run.values["probe.seeds"], 1, "probe.seeds")
    shuffled = _convert(run.values["probe.shuffled"], True, "probe.shuffled")
    if n_seeds < 1:
        raise ConfigError("probe.seeds must be positive")

    backbone = _load_model(run, "stage2")
    grids, info = _load_dataset(
        run, backbone.config.patch_len, {"model.kernel_len": backbone.config.kernel_len},
        needs=("train", "val", "test"),
    )
    _require_one_shape(grids, info, range(len(grids)), 1)
    labels = np.array(info["labels"], dtype=np.int64)
    for name in ("train", "val", "test"):
        held = np.unique(labels[info["splits"][name]])
        if held.size < 2:
            raise PrerequisiteError(
                f"the {name} split holds class {held[0]} only; the probe needs two classes in every split"
            )
    n_classes = int(labels.max()) + 1
    features = extract_features(backbone, grids)  # backbone stays frozen
    splits = {k: np.array(v, dtype=np.intp) for k, v in info["splits"].items()}

    out_dir = run.out / "probe"
    out_dir.mkdir(parents=True, exist_ok=True)
    metric_names = ["kappa", "balanced_acc", "weighted_f1"]
    if n_classes == 2:  # the probe reports rank metrics for binary tasks
        metric_names += ["auroc", "auc_pr"]
    reports = []
    for s in range(n_seeds):
        y = _shuffled_copy(labels, splits, probe_cfg.seed + s) if shuffled else labels
        cfg_s = dataclasses.replace(probe_cfg, seed=probe_cfg.seed + s)
        sets = {k: (features[idx], y[idx]) for k, idx in splits.items()}
        _, report = train_probe_on_features(
            sets["train"], sets["val"], sets["test"], cfg_s, n_classes=n_classes
        )
        (out_dir / f"metrics_seed{s}.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        _write_csv(out_dir / f"metrics_seed{s}.csv", *_metrics_table(report, metric_names))
        _write_csv(out_dir / f"confusion_seed{s}.csv", *_confusion_table(report.confusion))
        reports.append(report)

    summary = {
        name: {
            "mean": float(np.mean([getattr(r, name) for r in reports])),
            "std": float(np.std([getattr(r, name) for r in reports])),
        }
        for name in metric_names
    }
    summary["seeds"] = n_seeds
    summary["shuffled"] = bool(shuffled)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_csv(
        out_dir / "summary.csv", ["metric", "mean", "std"],
        [[name, f"{summary[name]['mean']:.6f}", f"{summary[name]['std']:.6f}"] for name in metric_names],
    )
    kappa = summary["kappa"]
    print(
        f"probe done over {n_seeds} seed(s): kappa {kappa['mean']:.4f} "
        f"+/- {kappa['std']:.4f}, outputs in {out_dir}"
    )
    return 0


# ---- SVG plotting (no charting dependency) ---------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_lines(path: Path, series: dict[str, tuple[np.ndarray, np.ndarray]], title: str, y_label: str) -> None:
    """Minimal polyline plot: one line per named series, axes, and a legend."""
    width, height = 720, 400
    ml, mr, mt, mb = 60, 20, 40, 40
    xs_all = np.concatenate([np.asarray(x, dtype=np.float64) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, dtype=np.float64) for _, y in series.values()])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 8}" text-anchor="middle" font-size="11">step</text>',
        f'<text x="14" y="{height / 2}" font-size="11" '
        f'transform="rotate(-90 14 {height / 2})" text-anchor="middle">{y_label}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - mb + 14}" text-anchor="middle" '
            f'font-size="10">{xv:g}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{sy(yv):.1f}" text-anchor="end" font-size="10">{yv:.3g}</text>'
        )
    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(float(x)):.1f},{sy(float(y)):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - mr - 150}" y="{mt + 14 * i + 10}" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# the SVG plots `analyze` draws from each stage's history: file, columns,
# title and y-axis label
_HISTORY_PLOTS = {
    "stage1": [
        ("loss_stage1.svg", ("total", "freq_recon", "temporal_recon", "contrastive", "codebook"),
         "stage-1 loss components", "loss"),
        ("unused_codes.svg", ("unused_t", "unused_f"), "unused codes per codebook", "unused"),
    ],
    "stage2": [
        ("loss_stage2.svg", ("loss", "acc_t", "acc_f"), "stage-2 masked-prediction loss and accuracy", "value"),
    ],
}


def _read_history(run: RunConfig, stage: str) -> dict[str, np.ndarray] | None:
    """The numeric columns of `stage`'s history CSV (None if there is no
    file); ConfigError unless every cell is a number and every column
    `_HISTORY_PLOTS` draws is there."""
    path = run.path(stage, f"{stage}/final").parent / f"history_{stage}.csv"
    if not path.is_file():
        return None
    rows = read_history_csv(path)
    if not rows:
        raise ConfigError(f"empty history file {path}")
    try:
        h = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
    except (TypeError, ValueError):  # a non-numeric or missing cell
        raise ConfigError(f"non-numeric history file {path}") from None
    for key in ("step", *(k for _, keys, _, _ in _HISTORY_PLOTS[stage] for k in keys)):
        if key not in h:
            raise ConfigError(f"history file {path} has no {key!r} column")
    return h


def cmd_analyze(run: RunConfig, args: argparse.Namespace) -> int:
    tau = _convert(run.values["analyze.tau"], 1.0, "analyze.tau")
    if not 0.0 < tau <= 1.0:
        raise ConfigError(f"analyze.tau must be in (0, 1], got {tau}")
    tok_model = _load_model(run, "stage1")
    grids, info = _load_dataset(
        run, tok_model.config.patch_len, {"tokenizer.max_positions": tok_model.config.max_positions}
    )
    histories = {stage: _read_history(run, stage) for stage in _HISTORY_PLOTS}
    out_dir = run.out / "analysis"
    out_dir.mkdir(parents=True, exist_ok=True)

    for stream, codebook in (("t", tok_model.codebook_t), ("f", tok_model.codebook_f)):
        _write_csv(out_dir / f"usage_{stream}.csv", *_usage_table(codebook))

    samples = [(tokenize(tok_model, g), int(y)) for g, y in zip(grids, info["labels"])]
    report = class_specific_ratio(samples, tok_model.config.codebook_size, tau=tau)
    _write_csv(out_dir / "dominance.csv", ["stream", "used", "class_specific", "ratio"], [
        ["temporal", report.used_t, report.specific_t, f"{report.ratio_t:.6f}"],
        ["frequency", report.used_f, report.specific_f, f"{report.ratio_f:.6f}"],
    ])
    _write_csv(out_dir / "diversity.csv", ["stream", "distinct"], [
        ["temporal", report.used_t], ["frequency", report.used_f], ["dual", report.distinct_pairs],
    ])

    for stage, h in histories.items():
        if h is None:
            continue
        for name, keys, title, ylabel in _HISTORY_PLOTS[stage]:
            _svg_lines(out_dir / name, {k: (h["step"], h[k]) for k in keys}, title, ylabel)
    print(f"analysis written to {out_dir}")
    return 0


def cmd_bench(run: RunConfig, args: argparse.Namespace) -> int:
    v = run.values
    sizes = _convert(v["bench.sizes"], (1,), "bench.sizes")
    features = _convert(v["bench.features"], 1, "bench.features")
    base = _convert(v["bench.base"], 1, "bench.base")
    repeats = _convert(v["bench.repeats"], 1, "bench.repeats")
    att_max = _convert(v["bench.attention_max_len"], 1, "bench.attention_max_len")
    seed = run.seed if run.seed is not None else 0
    try:
        rows = bench_backbones(
            list(sizes),
            features=features,
            base=base,
            repeats=repeats,
            attention_max_len=att_max,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [bench] configuration: {exc}") from None
    run.out.mkdir(parents=True, exist_ok=True)
    path = run.out / "bench.csv"
    _write_csv(path, *_bench_table(rows))
    print(f"benchmark table written to {path}")
    return 0


# ---- entry point -----------------------------------------------------------------

_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-tokenizer": cmd_train_tokenizer,
    "train-ssm": cmd_train_ssm,
    "probe": cmd_probe,
    "analyze": cmd_analyze,
    "bench": cmd_bench,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codebrain",
        description="two-stage EEG tokenization + masked-prediction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} step")
        p.add_argument("--config", metavar="PATH", help="key=value config file overlaying the preset")
        p.add_argument("--preset", choices=presets.preset_names(), default="desk")
        p.add_argument("--seed", type=int, default=None, help="override every stage seed")
        p.add_argument("--out", metavar="DIR", default="runs/codebrain", help="output tree root")
        if name == "gen-data":
            p.add_argument("--classes", type=int, default=None, help="pick N classes from the band menu")
            p.add_argument("--records", type=int, default=None, help="total record count across classes")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    threads = os.environ.get("CODEBRAIN_THREADS")
    try:
        if threads is not None and (not threads.isdigit() or int(threads) < 1):
            raise ConfigError(f"CODEBRAIN_THREADS must be a positive integer, got {threads!r}")
        run = load_run(args)
        return _COMMANDS[args.command](run, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrerequisiteError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
