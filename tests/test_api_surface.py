"""Every public function and class in `src/semdiff` has a caller outside
the tests, or a stated reason to exist.

A module-level public definition counts as used when another definition
in `src/` or any file of `perfbench/` names it (a package `__init__`
re-export does not count, and neither does a string).  The unused ones
must equal PINNED, so a helper that only tests call fails here until it
is listed on purpose or moved next to `tests/explicit.py`.  Each reason
is checked against the file it cites.  Files are read with `ast`, as in
`tests/test_bench_imports.py`.
"""

from __future__ import annotations

import ast

from conftest import FIXTURES

ROOT = FIXTURES.parent
SRC = ROOT / "src" / "semdiff"
BENCH = ROOT / "perfbench"

TRACER = "benchmark tracer: perfbench/traced_job.py wraps it by name"
README = "public API documented in the README"
PINNED = {
    "build_explicit_ts": TRACER,
    "find_witness": TRACER,
    "mk_var": "frozen oracle suite: tests/test_bdd.py",
    "model_kind": README,
    "print_ad": README,
    "print_cd": README,
}


def _definitions() -> dict[str, list[str]]:
    """Public module-level functions and classes: name -> defining files."""
    out: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
               not node.name.startswith("_"):
                out.setdefault(node.name, []).append(str(path.relative_to(ROOT)))
    return out


def _names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _used() -> set[str]:
    """Names some top-level statement refers to, a definition's own body
    aside (recursion is no caller)."""
    used: set[str] = set()
    files = [p for p in SRC.rglob("*.py") if p.name != "__init__.py"]
    for path in files + sorted(BENCH.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            used |= names
    return used


def test_public_names_without_a_caller_are_pinned():
    defined = _definitions()
    used = _used()
    assert sorted(n for n in defined if n not in used) == sorted(PINNED)


def test_each_pinned_reason_holds():
    traced = (BENCH / "traced_job.py").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for name, reason in PINNED.items():
        if reason == TRACER:
            assert f'"{name}"' in traced, name
        elif reason == README:
            assert f"`{name}`" in readme or f"{name}(" in readme, name
        else:
            suite = reason.split(": ")[1]
            assert name in (ROOT / suite).read_text(encoding="utf-8"), name
