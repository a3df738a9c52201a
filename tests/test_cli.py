"""Command-line pipeline: exit codes, artifact layout, config handling.

One module-scoped fixture runs the whole six-command pipeline on a tiny
corpus; individual tests then assert on the artifacts it produced. Negative
cases (bad config, missing prerequisites) get fresh directories.
"""

import dataclasses
import hashlib
import importlib.metadata
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import codebrain.cli as cli
from codebrain.pretrain import DivergenceError, load_checkpoint, save_checkpoint
from codebrain.signal import Band, default_channel_names, load_record, save_record

TINY_CFG = """
data.channels = 2
data.sample_rate = 32
data.duration = 4
data.noise_sigma = 1.0
data.records_per_class = 6
data.class.slow.bands = 2-4:10
data.class.fast.bands = 8-12:10
tokenizer.patch_len = 32
tokenizer.hidden = 16
tokenizer.enc_layers = 1
tokenizer.dec_layers = 1
tokenizer.heads = 2
tokenizer.mlp_dim = 32
tokenizer.codebook_size = 16
tokenizer.code_dim = 8
model.features = 16
model.blocks = 1
model.kernel_len = 8
model.kernel_base = 2
model.window = 3
model.p_drop = 0.0
stage1.steps = 6
stage1.batch_size = 2
stage2.steps = 6
stage2.batch_size = 2
probe.hidden = 8
probe.compress = 8
probe.steps = 10
probe.batch_size = 8
probe.eval_every = 5
probe.seeds = 2
bench.sizes = 16,32
bench.base = 4
bench.repeats = 1
"""


def run_cli(*argv):
    return cli.main(list(argv))


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pipeline")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    out = root / "run"
    base = ["--config", str(cfg), "--out", str(out)]
    assert run_cli("gen-data", "--seed", "7", *base) == 0
    assert run_cli("train-tokenizer", *base) == 0
    assert run_cli("train-ssm", *base) == 0
    assert run_cli("probe", *base) == 0
    assert run_cli("analyze", *base) == 0
    assert run_cli("bench", *base) == 0
    return out, cfg


class TestGenData:
    def test_record_count_and_manifest(self, pipeline):
        out, _ = pipeline
        manifest = json.loads((out / "data" / "manifest.json").read_text())
        assert len(manifest["files"]) == 12
        assert len(manifest["labels"]) == 12
        for name in manifest["files"]:
            assert (out / "data" / name).is_file()

    def test_splits_disjoint_and_cover(self, pipeline):
        out, _ = pipeline
        manifest = json.loads((out / "data" / "manifest.json").read_text())
        splits = manifest["splits"]
        all_idx = sorted(splits["train"] + splits["val"] + splits["test"])
        assert all_idx == list(range(12))
        assert not (set(splits["train"]) & set(splits["val"]))
        assert not (set(splits["train"]) & set(splits["test"]))
        assert not (set(splits["val"]) & set(splits["test"]))

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        out, cfg = pipeline
        redo = tmp_path / "redo"
        assert run_cli("gen-data", "--seed", "7", "--config", str(cfg), "--out", str(redo)) == 0
        assert tree_digest(redo / "data") == tree_digest(out / "data")

    def test_class_and_record_flags(self, tmp_path):
        out = tmp_path / "menu"
        code = run_cli(
            "gen-data", "--classes", "3", "--records", "12", "--seed", "1",
            "--config", str(_write_cfg(tmp_path, "data.sample_rate = 100\ndata.duration = 2\ndata.records_per_class = 1")),
            "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "data" / "manifest.json").read_text())
        assert len(manifest["files"]) == 12
        assert sorted(set(manifest["labels"])) == [0, 1, 2]

    def test_records_not_divisible_rejected(self, tmp_path, capsys):
        code = run_cli("gen-data", "--classes", "3", "--records", "10", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "divisible" in capsys.readouterr().err

    def test_classes_out_of_range_rejected(self, tmp_path):
        assert run_cli("gen-data", "--classes", "9", "--out", str(tmp_path / "x")) == 2

    def test_desk_classes_in_name_order(self, tmp_path):
        # the desk preset lists slow first; label ids follow class names
        args = cli._build_parser().parse_args(["gen-data", "--out", str(tmp_path / "d")])
        spec = cli._generator_spec(cli.load_run(args))
        assert [c.name for c in spec.classes] == ["alpha", "beta", "slow"]
        cfg = _write_cfg(tmp_path, "data.records_per_class = 1\ndata.noise_sigma = 0")
        assert run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")) == 0
        data = tmp_path / "d" / "data"
        info = json.loads((data / "manifest.json").read_text())
        for name, label in zip(info["files"], info["labels"]):
            rec = load_record(data / name)
            spectrum = np.abs(np.fft.rfft(rec.samples[0]))
            peak_hz = np.argmax(spectrum) * rec.sample_rate / rec.samples.shape[-1]
            lo, hi = spec.classes[label].bands[0].low, spec.classes[label].bands[0].high
            assert lo <= peak_hz <= hi

    def test_band_above_nyquist_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "data.sample_rate = 32\ndata.class.slow.bands = 2-4:10\ndata.class.hot.bands = 8-30:10")
        assert run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert "Nyquist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("data.duration = 4", "data.duration = 2.5"),
            ("data.duration = 4", "data.duration = 0"),
            ("data.duration = 4", "data.duration = -4"),
            ("data.noise_sigma = 1.0", "data.noise_sigma = nan"),
            ("bands = 2-4:10", "bands = 2-4:nan"),
        ],
    )
    def test_bad_data_value_rejected_before_writing(self, tmp_path, capsys, old, new):
        cfg = _write_cfg(tmp_path, TINY_CFG.replace(old, new))
        out = tmp_path / "x"
        assert run_cli("gen-data", "--config", str(cfg), "--out", str(out)) == 2
        assert "[data]" in capsys.readouterr().err
        assert not out.exists()


def _spec_from_text(text, tmp_path):
    """The corpus recipe of a config text, as `load_run` and `gen-data` build it."""
    values = cli.parse_config_text(text)
    cli._validate_keys(values)
    return cli._generator_spec(cli.RunConfig(values=values, out=tmp_path))


class TestGeneratorConfigText:
    def test_parse_round_trip(self, tmp_path):
        text = """
        # three rhythm classes
        data.channels = 2
        data.sample_rate = 200
        data.duration = 2
        data.noise_sigma = 3.5
        data.records_per_class = 4
        data.class.slow.bands = 1-4:40
        data.class.alpha.bands = 8-12:30, 13-15:10
        data.class.beta.bands = 18-30:40
        """
        spec = _spec_from_text(text, tmp_path)
        assert spec.channels == 2
        assert spec.noise_sigma == 3.5
        assert len(spec.classes) == 3
        # label ids follow class names, not file order
        assert [c.name for c in spec.classes] == ["alpha", "beta", "slow"]
        assert spec.classes[0].bands == (Band(8.0, 12.0, 30.0), Band(13.0, 15.0, 10.0))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            _spec_from_text("data.channels = 2\ndata.bogus = 1\n", tmp_path)

    def test_malformed_band_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _spec_from_text("data.class.a.bands = 1-4:40\ndata.class.b.bands = oops\n", tmp_path)


def _edit_manifest(path, edit):
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


def _write_cfg(tmp_path, text, name="override.cfg"):
    path = tmp_path / name
    path.write_text(text + "\n")
    return path


def _with_keys(text, keys):
    """Config `text` with every key of `keys` set to its value, in place of
    any line that already sets it."""
    kept = [line for line in text.splitlines() if line.split(" = ")[0] not in keys]
    return "\n".join(kept + [f"{key} = {value}" for key, value in keys.items()])


def _empty_manifest(data_dir):
    empty = {"files": [], "labels": [], "splits": {"train": [], "val": [], "test": []}}
    (data_dir / "manifest.json").write_text(json.dumps(empty))


def _halve_duration(samples):
    return samples[:, : samples.shape[1] // 2]


def _split_channels(samples):
    # each channel's two halves become two channels of half the duration
    return samples.reshape(2 * samples.shape[0], -1)


def _reshape_every_other_record(data_dir, reshape):
    """Rewrite records 1, 3, 5, ... with `reshape` applied to their samples."""
    for name in json.loads((data_dir / "manifest.json").read_text())["files"][1::2]:
        rec = load_record(data_dir / name)
        samples = reshape(rec.samples)
        save_record(dataclasses.replace(rec, samples=samples, channels=default_channel_names(len(samples))), data_dir / name)


def _zero_channels(path):
    """Rewrite a record file as one that declares no channels."""
    header = bytearray(path.read_bytes()[:24])
    header[6:8] = (0).to_bytes(2, "little")  # the channel count
    path.write_bytes(bytes(header))
    path.with_suffix(path.suffix + ".json").write_text('{"channels": []}')


def _one_class_split(data_dir, split):
    """Keep only the class-0 records of `split` in the dataset manifest."""

    def edit(m):
        m["splits"][split] = [i for i in m["splits"][split] if m["labels"][i] == 0]

    _edit_manifest(data_dir / "manifest.json", edit)


def _add_spike(data_dir):
    path = data_dir / "record_0003.bin"
    rec = load_record(path)
    rec.samples[0, 5] = 150.0  # microvolts, over the 100 uV limit
    save_record(rec, path)


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "tokenizer.hiden = 16")
        assert run_cli("bench", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["model.patch_len = 200", "model.codebook_size = 256"])
    def test_backbone_keys_taken_from_the_tokenizer_rejected(self, tmp_path, capsys, key):
        cfg = _write_cfg(tmp_path, key)
        assert run_cli("train-ssm", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path, "cluster.gpus = 8")
        assert run_cli("bench", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "stage1.steps = soon")
        assert run_cli("train-tokenizer", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert "bad value" in capsys.readouterr().err

    def test_invalid_dataclass_value_rejected(self, tmp_path):
        # parses fine, fails dataclass validation
        cfg = _write_cfg(tmp_path, "stage1.clip_norm = 0")
        assert run_cli("train-tokenizer", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("key", ["stage1.mask_ratio = 0.5", "stage2.epochs = 3"])
    def test_stage_key_the_stage_does_not_read_rejected(self, tmp_path, capsys, key):
        # only stage 2 masks positions and only stage 1 counts epochs
        cfg = _write_cfg(tmp_path, key)
        assert run_cli("train-tokenizer", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file_rejected(self, tmp_path):
        assert run_cli("bench", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")) == 2

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path, "bench.repeats = 1\nbench.repeats = 2")
        assert run_cli("bench", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2

    def test_non_power_of_two_bench_size_rejected(self, tmp_path):
        cfg = _write_cfg(tmp_path, "bench.sizes = 48,64")
        assert run_cli("bench", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_bench_repeats_below_one_rejected(self, tmp_path, capsys, repeats):
        cfg = _write_cfg(tmp_path, f"bench.sizes = 16\nbench.base = 4\nbench.repeats = {repeats}")
        out = tmp_path / "x"
        assert run_cli("bench", "--config", str(cfg), "--out", str(out)) == 2
        assert "repeats" in capsys.readouterr().err
        assert not out.exists()  # no bench.csv of nan wall times

    @pytest.mark.parametrize(
        "text",
        ["split.train = 0.5", "split.train = 1.2\nsplit.val = -0.2\nsplit.test = 0.0"],
        ids=["sum", "negative"],
    )
    def test_bad_split_fractions_rejected(self, tmp_path, capsys, text):
        out = tmp_path / "x"
        cfg = _write_cfg(tmp_path, text)
        assert run_cli("gen-data", "--config", str(cfg), "--out", str(out)) == 2
        assert "[split]" in capsys.readouterr().err
        assert not out.exists()  # no record or manifest written

    @pytest.mark.parametrize("tau", ["0", "2"])
    def test_tau_out_of_range_rejected(self, pipeline, tmp_path, capsys, tau):
        run, cfg = pipeline
        text = cfg.read_text() + (
            f"paths.data = {run / 'data'}\npaths.stage1 = {run / 'stage1' / 'final'}\nanalyze.tau = {tau}"
        )
        out = tmp_path / "x"
        assert run_cli("analyze", "--config", str(_write_cfg(tmp_path, text)), "--out", str(out)) == 2
        assert "analyze.tau" in capsys.readouterr().err
        assert not out.exists()  # no analysis file written

    def test_dropout_out_of_range_rejected_before_writing(self, pipeline, tmp_path, capsys):
        run, cfg = pipeline
        text = cfg.read_text().replace("model.p_drop = 0.0", "model.p_drop = 1.5") + (
            f"paths.data = {run / 'data'}\npaths.stage1 = {run / 'stage1' / 'final'}"
        )
        out = tmp_path / "x"
        assert run_cli("train-ssm", "--config", str(_write_cfg(tmp_path, text)), "--out", str(out)) == 2
        assert "[model]" in capsys.readouterr().err
        assert not (out / "stage2").exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("train-tokenizer", "tokenizer.heads = 3"),
            ("train-tokenizer", "tokenizer.heads = 0"),
            ("train-tokenizer", "tokenizer.hidden = 0"),
            ("train-tokenizer", "tokenizer.mlp_dim = 0"),
            ("train-tokenizer", "tokenizer.max_positions = 0"),
            ("train-ssm", "model.features = 0"),
            ("train-tokenizer", "stage1.betas = 0.9"),
            ("train-tokenizer", "stage1.betas = 0.9,0.99,0.5"),
            ("train-tokenizer", "stage1.epochs = 0"),
            ("train-tokenizer", "tokenizer.conv_strides = 0,1,1"),
            ("train-tokenizer", "tokenizer.conv_kernels = 300,3,3"),
            ("train-tokenizer", "tokenizer.conv_pads = -9,1,1"),
            ("train-tokenizer", "tokenizer.conv_channels = 0,4,4"),
            ("probe", "probe.hidden = 0"),
            ("probe", "probe.compress = 0"),
        ],
    )
    def test_invalid_model_width_rejected_before_writing(self, pipeline, tmp_path, capsys, command, text):
        run, cfg = pipeline
        key = text.split(" = ")[0]
        kept = [line for line in cfg.read_text().splitlines() if not line.startswith(key + " ")]
        text = "\n".join(kept) + (
            f"\n{text}\npaths.data = {run / 'data'}\npaths.stage1 = {run / 'stage1' / 'final'}"
        )
        out = tmp_path / "x"
        assert run_cli(command, "--config", str(_write_cfg(tmp_path, text)), "--out", str(out)) == 2
        assert f"[{key.split('.')[0]}]" in capsys.readouterr().err
        assert not out.exists()  # no stage directory

    @pytest.mark.parametrize(
        "command, text, stage",
        [
            ("train-tokenizer", "stage1.peak_lr = nan", "stage1"),
            ("train-ssm", "model.alpha = nan", "stage2"),
            ("train-tokenizer", "stage1.peak_lr = inf", "stage1"),
        ],
    )
    def test_nan_value_rejected_before_writing(self, pipeline, tmp_path, capsys, command, text, stage):
        # a NaN compares false with every bound, so each check must be written
        # to fail on it; an infinite learning rate can only end in a non-finite step
        run, cfg = pipeline
        full = cfg.read_text() + f"{text}\npaths.data = {run / 'data'}\npaths.stage1 = {run / 'stage1' / 'final'}"
        out = tmp_path / "x"
        assert run_cli(command, "--config", str(_write_cfg(tmp_path, full)), "--out", str(out)) == 2
        assert f"[{text.split('.')[0]}]" in capsys.readouterr().err
        assert not (out / stage).exists()

    def test_records_longer_than_position_table_rejected(self, pipeline, tmp_path, capsys):
        run, cfg = pipeline
        text = cfg.read_text() + f"tokenizer.max_positions = 4\npaths.data = {run / 'data'}"
        out = tmp_path / "x"
        assert run_cli("train-tokenizer", "--config", str(_write_cfg(tmp_path, text)), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "records of 8 patches" in err and "max_positions = 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-ssm", "analyze"])
    def test_stage1_position_table_shorter_than_records_rejected(self, pipeline, tmp_path, capsys, command):
        run, cfg = pipeline
        ckpt = load_checkpoint(str(run / "stage1" / "final"))
        ckpt.tensors["pos_embed"] = ckpt.tensors["pos_embed"][:4]
        ckpt.config["model"]["max_positions"] = 4
        short = tmp_path / "short_stage1"
        save_checkpoint(str(short), ckpt.tensors, ckpt.config, ckpt.step)
        text = cfg.read_text() + f"paths.data = {run / 'data'}\npaths.stage1 = {short}\n"
        out = tmp_path / "x"
        assert run_cli(command, "--config", str(_write_cfg(tmp_path, text)), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "records of 8 patches" in err and "max_positions = 4" in err
        assert not out.exists()

    def test_bad_threads_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CODEBRAIN_THREADS", "many")
        assert run_cli("bench", "--out", str(tmp_path / "x")) == 2

    def test_threads_env_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CODEBRAIN_THREADS", "2")
        cfg = _write_cfg(tmp_path, "bench.sizes = 16\nbench.base = 4\nbench.repeats = 1")
        assert run_cli("bench", "--config", str(cfg), "--out", str(tmp_path / "x")) == 0


class TestPrerequisites:
    def test_train_tokenizer_without_data(self, tmp_path, capsys):
        assert run_cli("train-tokenizer", "--out", str(tmp_path / "fresh")) == 3
        assert "gen-data" in capsys.readouterr().err

    def test_train_ssm_without_stage1(self, tmp_path, capsys):
        assert run_cli("train-ssm", "--out", str(tmp_path / "fresh")) == 3
        assert "train-tokenizer" in capsys.readouterr().err

    def test_probe_without_stage2(self, tmp_path, capsys):
        assert run_cli("probe", "--out", str(tmp_path / "fresh")) == 3
        assert "train-ssm" in capsys.readouterr().err

    def test_analyze_without_stage1(self, tmp_path):
        assert run_cli("analyze", "--out", str(tmp_path / "fresh")) == 3

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_probe_split_of_one_class_rejected(self, pipeline, tmp_path, capsys, split):
        out, cfg = pipeline
        data = tmp_path / "data"
        shutil.copytree(out / "data", data)
        _one_class_split(data, split)
        text = cfg.read_text() + f"paths.data = {data}\npaths.stage2 = {out / 'stage2' / 'final'}\n"
        x = tmp_path / "x"
        assert run_cli("probe", "--config", str(_write_cfg(tmp_path, text)), "--out", str(x)) == 3
        assert f"the {split} split holds class 0 only" in capsys.readouterr().err
        assert not x.exists()

    @pytest.mark.parametrize(
        "command, key, other",
        [
            ("train-ssm", "stage1", "stage2"),
            ("analyze", "stage1", "stage2"),
            ("probe", "stage2", "stage1"),
        ],
    )
    def test_checkpoint_of_other_stage_rejected(self, pipeline, tmp_path, capsys, command, key, other):
        out, cfg = pipeline
        text = cfg.read_text() + f"paths.{key} = {out / other / 'final'}\n"
        cfg2 = _write_cfg(tmp_path, text)
        assert run_cli(command, "--config", str(cfg2), "--out", str(tmp_path / "x")) == 3
        assert "does not hold" in capsys.readouterr().err

    def test_stage1_buffer_of_wrong_shape_rejected(self, pipeline, tmp_path, capsys):
        out, cfg = pipeline
        ckpt = load_checkpoint(str(out / "stage1" / "final"))
        ckpt.tensors["conv0/bn/running_mean"] = ckpt.tensors["conv0/bn/running_mean"][:1]
        bad = tmp_path / "bad_stage1"
        save_checkpoint(str(bad), ckpt.tensors, ckpt.config, ckpt.step)
        text = cfg.read_text() + f"paths.data = {out / 'data'}\npaths.stage1 = {bad}\n"
        assert run_cli("analyze", "--config", str(_write_cfg(tmp_path, text)), "--out", str(tmp_path / "x")) == 3
        assert "conv0/bn/running_mean" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [("train-ssm", "stage1"), ("probe", "stage2")])
    def test_checkpoint_tensor_of_object_dtype_rejected(self, pipeline, tmp_path, capsys, command, key):
        # adam/t holds one int64, so an 8-byte object entry passes every size check
        out, cfg = pipeline
        bad = tmp_path / f"bad_{key}"
        shutil.copytree(out / key / "final", bad)
        _edit_manifest(
            bad / "manifest.json",
            lambda m: next(e for e in m["tensors"] if e["name"] == "adam/t").update(dtype="|O"),
        )
        text = cfg.read_text() + f"paths.data = {out / 'data'}\npaths.{key} = {bad}\n"
        assert run_cli(command, "--config", str(_write_cfg(tmp_path, text)), "--out", str(tmp_path / "x")) == 3
        assert "'adam/t': dtype '|O' is not bool, integer, float or complex" in capsys.readouterr().err

    def test_stage1_config_value_of_wrong_type_rejected(self, pipeline, tmp_path, capsys):
        out, cfg = pipeline
        ckpt = load_checkpoint(str(out / "stage1" / "final"))
        ckpt.config["model"]["enc_layers"] = "1"
        bad = tmp_path / "bad_stage1"
        save_checkpoint(str(bad), ckpt.tensors, ckpt.config, ckpt.step)
        text = cfg.read_text() + f"paths.data = {out / 'data'}\npaths.stage1 = {bad}\n"
        x = tmp_path / "x"
        assert run_cli("train-ssm", "--config", str(_write_cfg(tmp_path, text)), "--out", str(x)) == 3
        assert "unusable" in capsys.readouterr().err
        assert not x.exists()

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("record_0003.bin", lambda p: p.write_bytes(p.read_bytes()[:10])),
            ("record_0003.bin", lambda p: p.unlink()),
            ("record_0003.bin", lambda p: p.write_bytes(b"XXXX" + p.read_bytes()[4:])),
            ("record_0003.bin", _zero_channels),
            ("manifest.json", lambda p: p.write_text('{"files": [')),
            ("manifest.json", lambda p: p.write_text("{}")),
            ("manifest.json", lambda p: p.write_text("[]")),
            *[
                ("manifest.json", lambda p, key=key: _edit_manifest(p, lambda m: m.pop(key)))
                for key in ("files", "labels", "splits")
            ],
            ("manifest.json", lambda p: _edit_manifest(p, lambda m: m["splits"]["train"].append(10**6))),
            ("manifest.json", lambda p: _edit_manifest(p, lambda m: m["labels"].pop())),
            ("record_0003.bin.json", lambda p: p.write_text("{}")),
            ("record_0003.bin.json", lambda p: p.write_text('{"channels": 5}')),
        ],
        ids=[
            "truncated_record", "deleted_record", "bad_magic", "zero_channels", "unparsable_manifest",
            "empty_manifest", "list_manifest", "no_files", "no_labels", "no_splits",
            "split_index_out_of_range", "label_count_mismatch",
            "empty_sidecar", "sidecar_channels_not_a_list",
        ],
    )
    def test_damaged_dataset_rejected(self, pipeline, tmp_path, capsys, name, damage):
        out, cfg = pipeline
        data = tmp_path / "data"
        shutil.copytree(out / "data", data)
        damage(data / name)
        text = cfg.read_text() + (
            f"paths.data = {data}\npaths.stage1 = {out / 'stage1' / 'final'}\n"
            f"paths.stage2 = {out / 'stage2' / 'final'}\n"
        )
        x = tmp_path / "x"
        for command in ("train-tokenizer", "train-ssm", "probe", "analyze"):
            assert run_cli(command, "--config", str(_write_cfg(tmp_path, text)), "--out", str(x)) == 3, command
            assert str(data / name) in capsys.readouterr().err, command
            assert not x.exists(), command  # nothing written

    @pytest.mark.parametrize(
        "command, keys, corpus_keys, damage, code, message",
        [
            ("train-ssm", {"model.kernel_len": "4"}, {}, None, 2, "model.kernel_len = 4"),
            ("probe", {}, {"data.duration": "8"}, None, 2, "records of 16 patches"),
            ("train-tokenizer", {"tokenizer.patch_len": "24"}, {}, None, 2, "tokenizer.patch_len = 24"),
            ("analyze", {}, {}, _add_spike, 3, "record_0003.bin"),
            ("train-ssm", {}, {"split.train": "0.0", "split.val": "0.5", "split.test": "0.5"}, None, 3, "train split"),
            ("probe", {}, {"split.train": "0.6", "split.val": "0.0", "split.test": "0.4"}, None, 3, "val split"),
            ("analyze", {}, {}, _empty_manifest, 3, "files lists no records"),
        ],
        ids=["kernel_len", "records_longer_than_backbone", "patch_len", "over_100_uv", "empty_train", "empty_val", "no_records"],
    )
    def test_unreadable_dataset_rejected_before_writing(
        self, pipeline, tmp_path, capsys, command, keys, corpus_keys, damage, code, message
    ):
        run, cfg = pipeline
        text = _with_keys(cfg.read_text(), {**keys, **corpus_keys})
        data = tmp_path / "corpus" / "data"
        if corpus_keys:
            gen_cfg = _write_cfg(tmp_path, text, name="corpus.cfg")
            assert run_cli("gen-data", "--seed", "7", "--config", str(gen_cfg), "--out", str(tmp_path / "corpus")) == 0
        else:
            shutil.copytree(run / "data", data)
        if damage is not None:
            damage(data)
        text += (
            f"\npaths.data = {data}\npaths.stage1 = {run / 'stage1' / 'final'}\n"
            f"paths.stage2 = {run / 'stage2' / 'final'}"
        )
        out = tmp_path / "x"
        assert run_cli(command, "--config", str(_write_cfg(tmp_path, text)), "--out", str(out)) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, reshape, code",
        [
            ("train-tokenizer", _halve_duration, 3),
            ("train-tokenizer", _split_channels, 3),
            ("train-ssm", _halve_duration, 3),
            ("train-ssm", _split_channels, 3),
            ("probe", _split_channels, 3),
            ("probe", _halve_duration, 0),
            ("analyze", _halve_duration, 0),
            ("analyze", _split_channels, 0),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)).strip("_"),
    )
    def test_records_of_mixed_shapes(self, pipeline, tmp_path, capsys, command, reshape, code):
        # training batches whole records, and the probe head reads one vector
        # per channel; extraction and analysis go record by record
        run, cfg = pipeline
        data = tmp_path / "data"
        shutil.copytree(run / "data", data)
        _reshape_every_other_record(data, reshape)
        text = cfg.read_text() + (
            f"paths.data = {data}\npaths.stage1 = {run / 'stage1' / 'final'}\n"
            f"paths.stage2 = {run / 'stage2' / 'final'}\n"
        )
        out = tmp_path / "x"
        assert run_cli(command, "--config", str(_write_cfg(tmp_path, text)), "--out", str(out)) == code
        if code:
            assert re.search(r"record_\d{4}\.bin has \d+ channels x \d+ windows and record_\d{4}\.bin has", capsys.readouterr().err)
            assert not out.exists()

    def test_divergence_maps_to_exit_4(self, tmp_path, monkeypatch):
        def boom(run, args):
            raise DivergenceError("non-finite loss at step 3")

        monkeypatch.setitem(cli._COMMANDS, "bench", boom)
        assert run_cli("bench", "--out", str(tmp_path / "x")) == 4


class TestTrainingArtifacts:
    def test_stage1_history_has_loss_components(self, pipeline):
        out, _ = pipeline
        header = (out / "stage1" / "history_stage1.csv").read_text().splitlines()[0]
        cols = header.split(",")
        for name in ("freq_recon", "temporal_recon", "contrastive", "codebook"):
            assert name in cols

    def test_stage1_checkpoint_manifest(self, pipeline):
        out, _ = pipeline
        manifest = json.loads((out / "stage1" / "final" / "manifest.json").read_text())
        assert manifest["config"]["model"]["codebook_size"] == 16
        assert manifest["config"]["train"]["steps"] == 6

    def test_stage2_artifacts(self, pipeline):
        out, _ = pipeline
        manifest = json.loads((out / "stage2" / "final" / "manifest.json").read_text())
        # the tokenizer's geometry, not the preset's 200 and 256
        assert manifest["config"]["model"]["patch_len"] == 32
        assert manifest["config"]["model"]["codebook_size"] == 16
        header = (out / "stage2" / "history_stage2.csv").read_text().splitlines()[0]
        assert header == "step,lr,loss,acc_t,acc_f"

    def test_seed_flag_reaches_every_stage_seed(self, pipeline, tmp_path, monkeypatch):
        run, cfg = pipeline
        probe_seeds = []
        train_probe = cli.train_probe_on_features

        def spy(train, val, test, config, **kwargs):
            probe_seeds.append(config.seed)
            return train_probe(train, val, test, config, **kwargs)

        monkeypatch.setattr(cli, "train_probe_on_features", spy)
        text = cfg.read_text() + f"paths.data = {run / 'data'}"
        base = ["--seed", "5", "--config", str(_write_cfg(tmp_path, text)), "--out", str(tmp_path / "x")]
        for command in ("train-tokenizer", "train-ssm", "probe"):
            assert run_cli(command, *base) == 0, command
        for stage in ("stage1", "stage2"):
            manifest = json.loads((tmp_path / "x" / stage / "final" / "manifest.json").read_text())
            assert manifest["config"]["train"]["seed"] == 5, stage
        assert probe_seeds == [5, 6]  # seed s of probe.seeds = 2 runs at --seed + s

    def test_paper_preset_echoed_in_manifest(self, tmp_path):
        # smallest possible run that still writes a full-scale manifest
        cfg = _write_cfg(
            tmp_path,
            "data.records_per_class = 2\nstage1.steps = 1\nstage1.batch_size = 2",
        )
        out = tmp_path / "paper"
        assert run_cli("gen-data", "--preset", "paper", "--config", str(cfg), "--out", str(out)) == 0
        assert run_cli("train-tokenizer", "--preset", "paper", "--config", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((out / "stage1" / "final" / "manifest.json").read_text())
        model = manifest["config"]["model"]
        assert model["codebook_size"] == 4096
        assert model["code_dim"] == 32
        assert model["hidden"] == 200


class TestProbeArtifacts:
    def test_summary_has_mean_and_std_rows(self, pipeline):
        out, _ = pipeline
        lines = (out / "probe" / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "metric,mean,std"
        metrics = [line.split(",")[0] for line in lines[1:]]
        assert "kappa" in metrics and "balanced_acc" in metrics

    def test_per_seed_reports(self, pipeline):
        out, _ = pipeline
        for s in range(2):
            report = json.loads((out / "probe" / f"metrics_seed{s}.json").read_text())
            assert "kappa" in report
            assert (out / "probe" / f"confusion_seed{s}.csv").is_file()

    def test_binary_task_reports_rank_metrics(self, pipeline):
        # the tiny corpus has two classes, so AUROC/AUC-PR must appear
        out, _ = pipeline
        summary = json.loads((out / "probe" / "summary.json").read_text())
        assert "auroc" in summary and "auc_pr" in summary

    def test_metric_and_confusion_tables_match_the_json(self, pipeline):
        out, _ = pipeline
        kappas = []
        for s in range(2):
            text = (out / "probe" / f"metrics_seed{s}.json").read_text()
            report = json.loads(text)
            assert text == json.dumps(report, indent=2, sort_keys=True)  # no trailing newline
            lines = (out / "probe" / f"metrics_seed{s}.csv").read_text().splitlines()
            assert lines[0] == "metric,value"
            assert lines[1] == f"task,{report['task']}"
            names = ("kappa", "balanced_acc", "weighted_f1", "auroc", "auc_pr")
            assert lines[2:] == [f"{name},{report[name]:.6f}" for name in names]
            rows = (out / "probe" / f"confusion_seed{s}.csv").read_text().splitlines()
            k = len(report["confusion"])
            assert rows[0] == "true\\pred," + ",".join(f"pred_{j}" for j in range(k))
            assert [[int(c) for c in row.split(",")[1:]] for row in rows[1:]] == report["confusion"]
            assert [row.split(",")[0] for row in rows[1:]] == [f"true_{i}" for i in range(k)]
            kappas.append(report["kappa"])
        summary = json.loads((out / "probe" / "summary.json").read_text())
        assert summary["kappa"]["mean"] == pytest.approx(np.mean(kappas))  # the JSON holds each report's kappa

    def test_shuffled_mode(self, pipeline, tmp_path):
        out, cfg = pipeline
        extra = _write_cfg(tmp_path, cfg.read_text() + "probe.shuffled = true", name="shuf.cfg")
        assert run_cli("probe", "--config", str(extra), "--out", str(out)) == 0
        summary = json.loads((out / "probe" / "summary.json").read_text())
        assert summary["shuffled"] is True


class TestAnalyzeArtifacts:
    def test_usage_csvs(self, pipeline):
        out, _ = pipeline
        ckpt = load_checkpoint(str(out / "stage1" / "final"))
        for stream in ("t", "f"):
            lines = (out / "analysis" / f"usage_{stream}.csv").read_text().strip().splitlines()
            assert lines[0] == "code_index,count"
            assert len(lines) == 1 + 16  # one row per code
            usage = ckpt.tensors[f"codebook_{stream}/usage"].tolist()
            assert lines[1:] == [f"{i},{count}" for i, count in enumerate(usage)]

    def test_dominance_and_diversity(self, pipeline):
        out, _ = pipeline
        dom = (out / "analysis" / "dominance.csv").read_text().strip().splitlines()
        assert dom[0] == "stream,used,class_specific,ratio"
        assert dom[1].startswith("temporal,") and dom[2].startswith("frequency,")
        div = (out / "analysis" / "diversity.csv").read_text().strip().splitlines()
        rows = {line.split(",")[0]: int(line.split(",")[1]) for line in div[1:]}
        assert rows["dual"] >= max(rows["temporal"], rows["frequency"])

    def test_svg_plots(self, pipeline):
        out, _ = pipeline
        for name in ("loss_stage1.svg", "unused_codes.svg", "loss_stage2.svg"):
            text = (out / "analysis" / name).read_text()
            assert text.startswith("<svg")
            assert "<polyline" in text

    @pytest.mark.parametrize(
        "content, message",
        [
            ("", "empty history file"),
            ("step,lr,total\n", "empty history file"),
            ("step,lr,total\n0,abc,1.0\n", "non-numeric history file"),
            ("step,lr,total\n0,0.1,1.0\n", "has no 'freq_recon' column"),
        ],
        ids=["no_bytes", "header_only", "non_numeric", "missing_column"],
    )
    def test_empty_history_rejected(self, pipeline, tmp_path, capsys, content, message):
        run, cfg = pipeline
        stage1 = tmp_path / "stage1"
        shutil.copytree(run / "stage1" / "final", stage1 / "final")
        (stage1 / "history_stage1.csv").write_text(content)
        text = cfg.read_text() + f"paths.data = {run / 'data'}\npaths.stage1 = {stage1 / 'final'}\n"
        assert run_cli("analyze", "--config", str(_write_cfg(tmp_path, text)), "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert message in err
        assert str(stage1 / "history_stage1.csv") in err
        assert not (tmp_path / "x").exists()  # rejected before any artifact


class TestBench:
    def test_csv_schema(self, pipeline):
        out, _ = pipeline
        lines = (out / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == "backbone,seq_len,features,params,wall_ms,peak_bytes"
        backbones = {line.split(",")[0] for line in lines[1:]}
        assert backbones == {"sgconv", "direct_conv", "dense_attention"}
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 6
            assert all(f.isdigit() for f in fields[1:4] + fields[5:])
            assert re.fullmatch(r"\d+\.\d{4}", fields[4])  # wall_ms


class TestEntryPoints:
    SUBCOMMANDS = ("gen-data", "train-tokenizer", "train-ssm", "probe", "analyze", "bench")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "codebrain", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for name in self.SUBCOMMANDS:
            assert name in proc.stdout

    def test_console_script_installed(self):
        """The declared `codebrain` console script starts the CLI.

        Works from the source tree: the entry is read from pyproject.toml,
        resolved by import, and run in a subprocess the way an installer's
        generated wrapper runs it. If a `codebrain` distribution is also
        installed, its recorded entry must match the declaration.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
        assert "codebrain" in scripts, "pyproject.toml declares no codebrain console script"
        entry = importlib.metadata.EntryPoint(
            name="codebrain", value=scripts["codebrain"], group="console_scripts",
        )
        assert entry.load() is cli.main

        for dist in importlib.metadata.distributions(name="codebrain"):
            installed = [ep.value for ep in dist.entry_points
                         if ep.group == "console_scripts" and ep.name == "codebrain"]
            assert installed == [entry.value], (
                f"installed codebrain at {dist.locate_file('')} declares {installed}, "
                f"pyproject.toml declares {entry.value!r}"
            )

        # The body of the script an installer writes for `module:attr`.
        wrapper = (
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            "sys.argv[0] = 'codebrain'\n"
            f"sys.exit({entry.attr}())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: codebrain")
        for name in self.SUBCOMMANDS:
            assert name in proc.stdout
