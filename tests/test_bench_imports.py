"""The benchmark looks semdiff names up from outside the package: the
gate imports them, and the tracer wraps `semdiff.cli` functions by name.
A name lost in `src/` breaks the benchmark only after its timed loop, so
both files are read here with `ast`, without importing them."""

from __future__ import annotations

import ast
import importlib

from conftest import FIXTURES

BENCH = FIXTURES.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def test_every_name_the_gate_imports_from_semdiff_exists():
    wanted = [(node.module, alias.name) for node in ast.walk(_tree("gate.py"))
              if isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "semdiff"
              for alias in node.names]
    assert wanted
    missing = [f"{module}.{name}" for module, name in wanted
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_every_cli_name_the_tracer_wraps_exists():
    # the tracer's other modules knowingly list names the engine no
    # longer calls; only the CLI's are checked here
    (table,) = [node.value for node in ast.walk(_tree("traced_job.py"))
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    rows = [[elt.value for elt in row.elts[:2]] for row in table.elts]
    names = [attr for module, attr in rows if module == "semdiff.cli"]
    assert "main" in names
    cli = importlib.import_module("semdiff.cli")
    assert [name for name in names if not hasattr(cli, name)] == []


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    (value,) = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)]
    return value


def test_every_per_layer_metric_keeps_a_wrapped_name():
    """The traced run reports a per-layer metric as null when every name it
    is read from is gone from `src/`, or when `semdiff.cli.main` is gone,
    and a null metric makes the benchmark's result line unreadable.  So
    retiring a name the tracer wraps (ROADMAP item 7) takes a benchmark
    change first, which drops or re-points the metric."""
    wrapped: dict[str, list[tuple[str, str]]] = {}
    for row in _assigned(_tree("traced_job.py"), "TARGETS").elts:
        module, attr, metric = (elt.value for elt in row.elts[:3])
        wrapped.setdefault(metric, []).append((module, attr))
    layer_metrics = ast.literal_eval(_assigned(_tree("run.py"), "LAYER_METRICS"))
    assert layer_metrics
    dead = [name for name, _, _, needs in layer_metrics
            if not any(hasattr(importlib.import_module(module), attr)
                       for metric in needs for module, attr in wrapped.get(metric, ()))]
    assert dead == []
    assert callable(getattr(importlib.import_module("semdiff.cli"), "main", None))
