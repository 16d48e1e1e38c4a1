"""The benchmark's traced pass patches topolab functions by name
(``perfbench/tracer.py``); a renamed or deleted one breaks that pass.  The
tracer's tables are read from its source, so nothing under ``perfbench/``
is imported or written."""

import ast
import importlib
import inspect
from pathlib import Path

from topolab.core import FiniteSpace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("FUNCTIONS", "GENERATORS", "SPACE_METHODS")}


def test_every_name_the_tracer_patches_resolves():
    tables = _tables()
    assert set(tables) == {"FUNCTIONS", "GENERATORS", "SPACE_METHODS"}
    for mod_name, fname in tables["FUNCTIONS"]:
        fn = getattr(importlib.import_module(f"topolab.{mod_name}"), fname, None)
        assert callable(fn), f"{mod_name}.{fname}"
    for mod_name, fname in tables["GENERATORS"]:
        fn = getattr(importlib.import_module(f"topolab.{mod_name}"), fname, None)
        assert inspect.isgeneratorfunction(fn), f"{mod_name}.{fname}"
    for meth in ("__init__",) + tables["SPACE_METHODS"]:
        assert meth in FiniteSpace.__dict__, f"FiniteSpace.{meth}"
