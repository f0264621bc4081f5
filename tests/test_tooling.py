"""The package's public surface resolves, and the CLI loads every layer."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trinedisc

LAYERS = ("trine", "qubit", "min_error", "max_confidence", "oracle", "simulate", "cli")


@pytest.mark.parametrize("layer", [m for m in LAYERS if m != "cli"])
def test_all_names_resolve(layer):
    module = importlib.import_module(f"trinedisc.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_resolve():
    tree = ast.parse(Path(trinedisc.__file__).read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(trinedisc, n)] == []


def test_cli_import_loads_every_layer():
    code = (
        "import json, sys, trinedisc.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('trinedisc.'))))"
    )
    src = str(Path(trinedisc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert {f"trinedisc.{m}" for m in LAYERS} <= loaded
