"""The benchmark's worker and recorder read topolab names through module
aliases (``from topolab import properties as P``, ``self.V = verify``); a
renamed or deleted one makes ``perfbench/run.py`` exit 2, the code a
deadline also gives.  The names are read from the sources, so nothing
under ``perfbench/`` is imported or run."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dotted(node) -> list | None:
    """``a.b.c`` as ["a", "b", "c"]; None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _module_aliases(tree) -> dict:
    """Alias -> topolab module, for ``import topolab``, ``from topolab import
    m [as X]``, and assignments of an alias to a name or a ``self.``
    attribute (``self.V = verify``, ``P, S = self.P, self.S``), anywhere in
    the file; an alias bound to two modules fails the test."""
    aliases = {}

    def bind(name, module):
        assert aliases.setdefault(name, module) == module, (name, module)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "topolab":
                    bind(a.asname or a.name, "topolab")
        elif isinstance(node, ast.ImportFrom) and node.module == "topolab":
            for a in node.names:
                bind(a.asname or a.name, f"topolab.{a.name}")
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs += zip(target.elts, value.elts)
            else:
                pairs.append((target, value))
    for _ in range(2):  # a name bound from a self. alias bound from a name
        for target, value in pairs:
            source, name = _dotted(value), _dotted(target)
            if source and name and ".".join(source) in aliases:
                bind(".".join(name), aliases[".".join(source)])
    return aliases


def _topolab_reads(path: Path) -> set:
    """(module, attribute chain) for every topolab name the file reads:
    ``from topolab.m import n`` and each longest dotted read through an
    alias, ``self.`` aliases included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = _module_aliases(tree)
    reads = set()
    inner = set()  # attributes that are the base of a longer chain
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("topolab."):
            reads.update((node.module, (a.name,)) for a in node.names)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Attribute):
                inner.add(id(node.value))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts = _dotted(node)
        if parts is None:
            continue
        for n in (2, 1):  # the self. aliases first
            base = ".".join(parts[:n])
            if base in aliases and len(parts) > n:
                reads.add((aliases[base], tuple(parts[n:])))
                break
    return reads


@pytest.mark.parametrize("name", ["worker.py", "record.py"])
def test_every_topolab_name_perfbench_reads_resolves(name):
    reads = _topolab_reads(PERFBENCH / name)
    assert reads, name
    for module, chain in sorted(reads):
        obj = importlib.import_module(module)
        for attr in chain:
            assert hasattr(obj, attr), f"{name}: {module}.{'.'.join(chain)}"
            obj = getattr(obj, attr)


def test_the_scan_sees_names_behind_every_kind_of_alias():
    reads = _topolab_reads(PERFBENCH / "worker.py")
    modules = {module for module, _chain in reads}
    assert {"topolab.verify", "topolab.properties", "topolab.skeleton",
            "topolab.core"} <= modules
    assert ("topolab.verify", ("Universe", "parse")) in reads  # self.V
    assert ("topolab.verify", ("run_claim",)) in reads  # V = self.V
    assert ("topolab.properties", ("check_cover",)) in reads  # P
    assert ("topolab.skeleton", ("random_finite_skeleton",)) in reads  # S
    assert ("topolab.properties", ("smoke_test_witness",)) in _topolab_reads(
        PERFBENCH / "record.py")
