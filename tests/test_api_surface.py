"""Every public function, class, method and record field in `src/semdiff`
has a reader outside the tests, or a stated reason to exist.

A module-level public definition counts as used when another definition
in `src/` or any file of `perfbench/` names it (a package `__init__`
re-export does not count, and neither does a string).  A public method or
annotated field of a class there counts as used when some attribute access
in those files spells its name; a keyword argument of the same name writes
the field and does not count.  The unused ones must equal PINNED and
PINNED_MEMBERS, so a helper that only tests call fails here until it is
listed on purpose or moved next to `tests/explicit.py`.
Each reason is checked against the file it cites.  Files are read with
`ast`, as in `tests/test_bench_imports.py`.
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
BDD_SUITE = "frozen oracle suite: tests/test_bdd.py"
PINNED_MEMBERS = {
    "ActivityDiagram.action_names": "test helper: tests/test_ad_reach.py",
    "AdDiffOracle.shortest": "test helper: tests/test_oracle.py",
    "BddManager.count_sat": BDD_SUITE,
    "BddManager.eval_node": BDD_SUITE,
    "BddManager.false_set": BDD_SUITE,
    "BddManager.nvar": BDD_SUITE,
    "BddManager.pick_assignment": BDD_SUITE,
    "BddManager.true_set": BDD_SUITE,
    "BddManager.var_name": BDD_SUITE,
    "ExplicitTS.initial": "test helper: tests/test_ad_model.py",
    "Violation.obj": "test helper: tests/test_cd_model.py",
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


def _members() -> set[str]:
    """Public methods and annotated fields of module-level classes, as
    "Class.member"."""
    out = set()
    for path in SRC.rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    out.add(f"{node.name}.{name}")
    return out


def _read_members() -> set[str]:
    """Names some attribute access spells."""
    read: set[str] = set()
    for path in list(SRC.rglob("*.py")) + list(BENCH.rglob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(sub, ast.Attribute):
                read.add(sub.attr)
    return read


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


def test_members_without_a_reader_are_pinned():
    read = _read_members()
    assert sorted(m for m in _members() if m.split(".")[1] not in read) == \
        sorted(PINNED_MEMBERS)


def test_each_pinned_member_reason_holds():
    for member, reason in PINNED_MEMBERS.items():
        suite = reason.split(": ")[1]
        assert "." + member.split(".")[1] in (ROOT / suite).read_text(encoding="utf-8"), member


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
