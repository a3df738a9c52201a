"""The benchmark under `perfbench/` wraps and calls library attributes by
name: `spans.Tracer._install` replaces module functions and class methods
with recording wrappers, and `bench.py` calls the library's public names.
These checks read both files with `ast`, without importing or changing
them, and fail when a library change moves or renames a name they use.
"""

import ast
from pathlib import Path

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


def library_chains(source: str) -> list[str]:
    """Every attribute chain in `source` rooted at a library module name."""
    chains = {dotted(node) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}
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
