"""Every name a module imports is used in that module, every name in a
module's `__all__` is bound in it, only the CLI and the training loop
import `csv` (the CLI writes every run table, `pretrain` its history),
only `nn.Module` and `pretrain.AdamW` define `children`: every other layer's
state tree is read from its attributes, only `ssm.EegssmModel` defines
`forward`: every layer runs by `__call__`, one CLI function loads,
preprocesses and patches every dataset record, every config dataclass
checks its own values in `__post_init__`, rejecting NaN in every float field,
and no module imports a private NumPy module (one with a dotted component
that starts with `_`, such as `numpy._core`): those move between releases
without notice.

The unused-import check skips package `__init__.py` files: their imports
are the re-exports. The export check covers them.
"""

import ast
import dataclasses
import math
import typing
from pathlib import Path

import pytest

from codebrain import pretrain, probe, ssm, tokenizer
from codebrain.signal import Band, ClassSpec, GeneratorSpec

SRC = Path(__file__).resolve().parent.parent / "src" / "codebrain"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
EXPORTING = sorted(p for p in SRC.rglob("*.py") if "__all__" in p.read_text())


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations such as -> "Tensor" name their types in a string
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unbound_exports(source: str) -> list[str]:
    """Names listed in the module's `__all__` that no top-level statement binds."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        exported = [ast.literal_eval(e) for e in node.value.elts]
    return sorted(name for name in exported if name not in bound)


def imports_module(source: str, module: str) -> bool:
    """Whether any statement, at any depth, imports `module` or a submodule."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            return True
    return False


def private_numpy_imports(source: str) -> list[str]:
    """Dotted names, at any depth, that reach into a private NumPy module:
    an imported module, or a name imported from one, with a component that
    starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [n for n in names if n.split(".")[0] == "numpy" and any(part.startswith("_") for part in n.split("."))]
    return found


def test_checker_flags_private_numpy_imports():
    source = (
        "import numpy as np\nfrom numpy.lib.stride_tricks import as_strided\n"
        "import numpy._core.einsumfunc\nfrom numpy import _core\n"
        "def f():\n    from numpy._core.einsumfunc import bmm_einsum\n"
        "from ._private import x\nimport _thread\n"
    )
    assert private_numpy_imports(source) == [
        "numpy._core.einsumfunc", "numpy._core", "numpy._core.einsumfunc.bmm_einsum",
    ]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_numpy_imports(path):
    assert private_numpy_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import Iterable\nos.sep\n") == ["Iterable (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unbound_export():
    source = 'from .a import f\n__all__ = ["f", "g", "h"]\ndef g():\n    pass\n'
    assert unbound_exports(source) == ["h"]


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unbound_exports(path):
    assert unbound_exports(path.read_text()) == []


def test_checker_finds_imports_inside_functions():
    assert imports_module("def f():\n    import csv\n", "csv")
    assert imports_module("def f():\n    from csv import writer\n", "csv")
    assert not imports_module("import csvkit\nfrom . import csv\n", "csv")


def test_only_cli_and_pretrain_import_csv():
    importers = sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py") if imports_module(p.read_text(), "csv"))
    assert importers == ["cli.py", "pretrain.py"]


def classes_defining(source: str, method: str) -> list[str]:
    """Names of the classes, at any depth, whose own body defines `method`."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == method for item in node.body)
    ]


def test_checker_finds_method_definitions():
    source = "class A:\n    def children(self):\n        pass\nclass B(A):\n    children = None\n"
    assert classes_defining(source, "children") == ["A"]


def test_only_module_and_adamw_define_children():
    found = sorted(
        f"{p.relative_to(SRC)}:{name}" for p in MODULES for name in classes_defining(p.read_text(), "children")
    )
    assert found == ["nn.py:Module", "pretrain.py:AdamW"]


def test_only_the_backbone_defines_forward():
    # layers run by `__call__`; the backbone's `forward` (features plus token
    # logits) is the one named entry point beside `features`
    found = sorted(
        f"{p.relative_to(SRC)}:{name}" for p in MODULES for name in classes_defining(p.read_text(), "forward")
    )
    assert found == ["ssm.py:EegssmModel"]


# every config dataclass, built with valid values
CONFIGS = {
    "signal.py:GeneratorSpec": lambda: GeneratorSpec(
        classes=(ClassSpec("slow", (Band(1, 4, 10),)), ClassSpec("fast", (Band(8, 12, 10),)))
    ),
    "tokenizer.py:TokenizerConfig": tokenizer.TokenizerConfig,
    "ssm.py:EegssmConfig": ssm.EegssmConfig,
    "pretrain.py:TrainConfig": pretrain.TrainConfig,
    "probe.py:ProbeConfig": probe.ProbeConfig,
}


def test_every_config_dataclass_checks_its_values():
    found = {
        f"{p.relative_to(SRC)}:{name}" for p in MODULES for name in classes_defining(p.read_text(), "__post_init__")
    }
    assert set(CONFIGS) <= found


def nan_variants(config) -> dict[str, dict]:
    """For each float in `config`, a field or one element of a tuple of
    floats, the `dataclasses.replace` changes that make it NaN."""
    hints = typing.get_type_hints(type(config))
    out = {}
    for field in dataclasses.fields(config):
        hint, value = hints[field.name], getattr(config, field.name)
        if hint is float:
            out[field.name] = {field.name: math.nan}
        elif typing.get_origin(hint) is tuple and set(typing.get_args(hint)) <= {float, Ellipsis}:
            for i in range(len(value)):
                out[f"{field.name}[{i}]"] = {field.name: value[:i] + (math.nan,) + value[i + 1 :]}
    return out


NAN_CASES = [(key, name, change) for key, build in CONFIGS.items() for name, change in nan_variants(build()).items()]


def test_nan_cases_cover_the_float_fields():
    names = {f"{key.split(':')[1]}.{name}" for key, name, _ in NAN_CASES}
    assert {
        "TrainConfig.peak_lr", "TrainConfig.min_lr", "TrainConfig.eps", "TrainConfig.weight_decay",
        "TrainConfig.clip_norm", "TrainConfig.betas[1]", "ProbeConfig.lr", "ProbeConfig.min_lr",
        "ProbeConfig.weight_decay", "TokenizerConfig.temperature", "TokenizerConfig.commitment_beta",
        "EegssmConfig.alpha", "GeneratorSpec.noise_sigma",
    } <= names


@pytest.mark.parametrize("key, name, change", NAN_CASES, ids=[f"{k.split(':')[1]}.{n}" for k, n, _ in NAN_CASES])
def test_every_float_config_field_rejects_nan(key, name, change):
    config = CONFIGS[key]()
    with pytest.raises(ValueError):
        dataclasses.replace(config, **change)


def callers(source: str, dotted: str) -> list[str]:
    """Names of the functions that call `dotted` (``module.name``); a call is
    owned by the innermost function around it, or by ``<module>``."""
    module, _, attr = dotted.partition(".")
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == attr
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == module
            ):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_checker_finds_callers():
    source = "def f():\n    m.g(1)\ndef h():\n    def inner():\n        return m.g\n    return inner\nm.g()\n"
    assert callers(source, "m.g") == ["<module>", "f"]


def test_one_cli_function_loads_preprocesses_and_patches_records():
    source = (SRC / "cli.py").read_text()
    names = ("signal.load_record", "signal.preprocess", "signal.patch")
    assert {name: callers(source, name) for name in names} == {name: ["_load_dataset"] for name in names}
