"""Only `ad/model.py` maps node kinds to firing rules.

The explicit game and the BDD encoder both read the diagram's net
(`ActivityDiagram.transitions`), so a rule written a second time next to
either engine could drift from it unseen.  The engine modules below must
not import a node-kind constant or walk a node's edges.  Files are read
with `ast`, as in `tests/test_api_surface.py`.
"""

from __future__ import annotations

import ast

import pytest

from conftest import FIXTURES

SRC = FIXTURES.parent / "src" / "semdiff"
ENGINES = ("ad/encode.py", "ad/diff.py", "oracle.py")
KIND_CONSTANTS = {"INITIAL", "FINAL", "ACTION", "DECISION", "MERGE", "FORK", "JOIN",
                  "NODE_KINDS"}
EDGE_WALKS = {"in_edges", "out_edges"}


def rule_uses(source: str) -> list[str]:
    """Kind constants a module names or imports, and its edge-walk calls."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out += [a.name for a in node.names if a.name in KIND_CONSTANTS]
        elif isinstance(node, ast.Name) and node.id in KIND_CONSTANTS:
            out.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in KIND_CONSTANTS:
            out.append(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in EDGE_WALKS:
            out.append(f"{node.func.attr}()")
    return out


@pytest.mark.parametrize("path", ENGINES)
def test_engine_reads_the_net_not_node_kinds(path):
    assert rule_uses((SRC / path).read_text(encoding="utf-8")) == []


def test_the_check_sees_each_form():
    source = """
from .model import ACTION, ActivityDiagram
from . import model
def f(ad, n):
    return n.kind == model.FORK or ad.in_edges(n.id) or ad.out_edges(n.id) or JOIN
"""
    assert sorted(rule_uses(source)) == ["ACTION", "FORK", "JOIN", "in_edges()",
                                         "out_edges()"]
    assert rule_uses((SRC / "ad" / "model.py").read_text(encoding="utf-8"))
