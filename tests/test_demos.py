"""The demos stay in step with the library. The four fast ones run as
scripts, about 4 s together; the others take most of a minute, so for them
only the static checks hold: every name a demo imports from codebrain
exists, the command-line demo's config passes the CLI's key check, and each
preset supplies every key the CLI reads."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import codebrain.cli as cli
from codebrain import presets

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def codebrain_imports(source: str) -> list[tuple[str, str]]:
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "codebrain"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    names = codebrain_imports(path.read_text())
    assert names, f"{path.name} imports nothing from codebrain"
    missing = [f"{mod}.{name}" for mod, name in names if not hasattr(importlib.import_module(mod), name)]
    assert missing == []


@pytest.mark.parametrize("name", ["synthetic_eeg.py", "autodiff_check.py", "tokenizer_training.py", "token_analytics.py"])
def test_fast_demo_runs(name, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_pipeline_demo_config_passes_key_check():
    script = (ROOT / "demos" / "full_pipeline.sh").read_text()
    block = re.search(r"<<'EOF'\n(.*?)\nEOF\n", script, re.S)
    assert block, "full_pipeline.sh has no config heredoc"
    cli._validate_keys(cli.parse_config_text(block.group(1)))


# the keys cli.py names as ["section.key"] subscripts of the run's values,
# which it reads with no fallback
CLI_KEYS = sorted(set(re.findall(r'\["(\w+\.\w+)"\]', (ROOT / "src" / "codebrain" / "cli.py").read_text())))


def test_cli_reads_keys_by_name():
    assert {"probe.seeds", "split.train", "bench.attention_max_len"} <= set(CLI_KEYS)


@pytest.mark.parametrize("name", presets.preset_names())
def test_preset_supplies_every_key_the_cli_reads(name):
    values = presets.preset(name)
    assert [key for key in CLI_KEYS if key not in values] == []
    cli._validate_keys(values)
