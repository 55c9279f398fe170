"""CLI stdout and exit status on every ordered fixture pair, frozen.

Each case runs `semdiff.cli.main` in process, exactly as
`python -m semdiff.cli ARGS...` would, and compares its stdout byte for
byte with tests/golden/<case>.out and its exit status with
tests/golden/status.json.  Generated pairs, too large to store whole
(forks of width 3-5 against a copy with moved edges, one of them also
with every symbolic trace as a JSON line, a counter loop
over 0..40, the ticket pipeline over 0..767, a 10-class chain against
its flipped copy with and without the summary, both directions each),
are pinned by the sha256 of their stdout and their exit status in
tests/golden/generated.json.  Engine changes that claim to preserve
behaviour must leave every case untouched.  When an output change is
intended, regenerate the files from the root of the checkout with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from semdiff.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
STATUS = GOLDEN / "status.json"
GENERATED = GOLDEN / "generated.json"

ADS = ("ad_v1", "ad_v2", "ad_v3")
CDS = ("cd_v1", "cd_v2")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for a in ADS:
        for b in ADS:
            argv = ["addiff", str(FIXTURES / f"{a}.ad"), str(FIXTURES / f"{b}.ad")]
            cases[f"addiff-{a}-{b}"] = argv
            cases[f"addiff-{a}-{b}-json-lines"] = argv + ["--format", "json-lines"]
            cases[f"addiff-{a}-{b}-both"] = argv + ["--both"]
            cases[f"addiff-{a}-{b}-no-summary"] = argv + ["--no-summary"]
    for a in CDS:
        for b in CDS:
            argv = ["cddiff", str(FIXTURES / f"{a}.cd"), str(FIXTURES / f"{b}.cd")]
            cases[f"cddiff-{a}-{b}"] = argv
            cases[f"cddiff-{a}-{b}-json-lines"] = argv + ["--format", "json-lines"]
            cases[f"cddiff-{a}-{b}-no-summary"] = argv + ["--no-summary"]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(list(argv))
    return status, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    status, out = run_case(CASES[case])
    assert out == (GOLDEN / f"{case}.out").read_bytes()
    assert status == json.loads(STATUS.read_text(encoding="utf-8"))[case]


def test_golden_set_has_no_stale_files():
    stored = {p.stem for p in GOLDEN.glob("*.out")}
    assert stored == set(CASES)
    assert set(json.loads(STATUS.read_text(encoding="utf-8"))) == set(CASES)


# -- generated pairs ---------------------------------------------------------


def fork_text(name: str, width: int, finish: str, moves: int = 0) -> str:
    """A fork of `width` one-action branches, a join, then `finish`.

    moves > 0 cuts that many edge declarations out and pastes them
    elsewhere, seeded by the width.  That renumbers the edges but moves
    no BDD variable: the encoder orders them by the net."""
    branches = [f"b{i}" for i in range(width)]
    nodes = ["initial start;", "fork split;", "join sync;",
             f"action {finish};", "final done;"]
    nodes += [f"action {b};" for b in branches]
    edges = ["start -> split", f"sync -> {finish}", f"{finish} -> done"]
    for b in branches:
        edges += [f"split -> {b}", f"{b} -> sync"]
    rng = random.Random(f"fork{width}")
    for _ in range(moves):
        edge = edges.pop(rng.randrange(len(edges)))
        edges.insert(rng.randrange(len(edges) + 1), edge)
    body = ["input x : 0..7;", *nodes, *(f"edge {e};" for e in edges)]
    return f"activitydiagram {name} {{\n" + "".join(f"  {ln}\n" for ln in body) + "}\n"


def counter_text(name: str, hi: int, finish: str) -> str:
    return (f"activitydiagram {name} {{\n"
            f"  local c : 0..{hi} = 0;\n"
            f"  initial i; merge m; decision d; action tick {{ c := c + 1; }};\n"
            f"  action {finish}; final f;\n"
            f"  edge i -> m; edge m -> d;\n"
            f"  edge d -> tick [c < {hi}]; edge tick -> m;\n"
            f"  edge d -> {finish} [c >= {hi}]; edge {finish} -> f;\n"
            f"}}\n")


def pipeline_text(name: str, hi: int, threshold: int, concurrent: bool) -> str:
    """The ticket pipeline of fixtures/ad_v1.ad (sequential) or ad_v2.ad
    (concurrent) over tickets 0..hi."""
    if concurrent:
        nodes = "fork split; action reserve; action accounts; action update; join sync;"
        edges = ["edge welcome_msg -> split;",
                 *(f"edge split -> {a}; edge {a} -> sync;"
                   for a in ("reserve", "accounts", "update")),
                 "edge sync -> done;"]
    else:
        nodes = "action reserve; action accounts; action update; action report;"
        edges = ["edge welcome_msg -> reserve; edge reserve -> accounts;",
                 "edge accounts -> update; edge update -> report; edge report -> done;"]
    body = [f"input tickets : 0..{hi};",
            "initial start; action register; decision route; action welcome_msg;",
            nodes, "final done;",
            "edge start -> register; edge register -> route;",
            f"edge route -> welcome_msg [tickets < {threshold}];",
            f"edge route -> done [tickets >= {threshold}];", *edges]
    return f"activitydiagram {name} {{\n" + "".join(f"  {ln}\n" for ln in body) + "}\n"


def chain_text(name: str, classes: int, flipped: bool) -> str:
    """A chain of `classes` classes whose associations alternate tight
    ([1]) and loose ([0..1]) ends; `flipped` swaps the pattern.  Classes
    extend, in turn, the abstract `Item`, the abstract `Part` below it,
    and nothing, and `owner` links a `Part` to `Item`s: which objects an
    association counts is decided through two levels of `extends`."""
    names = [chr(ord("A") + i) for i in range(classes)]
    decls = ["class Item abstract;", "class Part abstract extends Item;"]
    for i, c in enumerate(names):
        parent = ("Item", "Part", None)[i % 3]
        decls.append(f"class {c} extends {parent};" if parent else f"class {c};")
    assocs = []
    for i, (a, b) in enumerate(zip(names, names[1:])):
        ma, mb = ("1", "0..1") if (i % 2 == 0) != flipped else ("0..1", "1")
        assocs.append(f"association r{i + 1} [{ma}] {a} -- {b} [{mb}];")
    assocs.append("association owner [0..1] Part -- Item [0..2];")
    return f"classdiagram {name} {{\n" + "".join(
        f"  {ln}\n" for ln in decls + assocs) + "}\n"


def _generated_pairs() -> dict[str, tuple[str, str, str, tuple[str, ...]]]:
    """name -> (command, v1 text, v2 text, flags)"""
    pairs = {}
    for w in (3, 4, 5):
        pairs[f"fork{w}"] = ("addiff", fork_text(f"fork{w}_v1", w, "ship"),
                             fork_text(f"fork{w}_v2", w, "archive", moves=3), ())
    # a width-4 fork has 24 action lists per action set: pins the
    # representative the action-set summary keeps
    pairs["fork4-both"] = ("addiff", fork_text("fork4_v1", 4, "ship"),
                           fork_text("fork4_v2", 4, "archive", moves=3), ("--both",))
    pairs["fork4-no-summary-json-lines"] = (
        "addiff", fork_text("fork4_v1", 4, "ship"), fork_text("fork4_v2", 4, "archive", moves=3),
        ("--no-summary", "--format", "json-lines"))
    pairs["counter40"] = ("addiff", counter_text("count_v1", 40, "stop"),
                          counter_text("count_v2", 40, "halt"), ())
    pairs["tickets767"] = ("addiff", pipeline_text("tickets_v1", 767, 300, False),
                           pipeline_text("tickets_v2", 767, 420, True), ())
    chain = (chain_text("chain_v1", 10, False), chain_text("chain_v2", 10, True))
    pairs["chain10"] = ("cddiff", *chain, ("--scope", "5"))
    pairs["chain10-no-summary"] = ("cddiff", *chain, ("--scope", "5", "--no-summary"))
    return pairs


GENERATED_PAIRS = _generated_pairs()
GENERATED_CASES = sorted(f"{name}-{d}" for name in GENERATED_PAIRS
                         for d in ("v1-v2", "v2-v1"))


def run_generated(case: str, directory: Path) -> tuple[int, str]:
    name, first, _ = case.rsplit("-", 2)
    command, left, right, flags = GENERATED_PAIRS[name]
    if first == "v2":
        left, right = right, left
    paths = []
    for side, text in (("left", left), ("right", right)):
        path = directory / f"{case}-{side}.{command[:2]}"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    status, out = run_case([command, *paths, *flags])
    return status, hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("case", GENERATED_CASES)
def test_generated_pair_matches_digest(case, tmp_path):
    status, digest = run_generated(case, tmp_path)
    want = json.loads(GENERATED.read_text(encoding="utf-8"))[case]
    assert (status, digest) == (want["status"], want["sha256"])


def test_generated_digests_cover_every_case():
    assert sorted(json.loads(GENERATED.read_text(encoding="utf-8"))) == GENERATED_CASES


def record() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    statuses = {}
    for case, argv in sorted(CASES.items()):
        statuses[case], out = run_case(argv)
        (GOLDEN / f"{case}.out").write_bytes(out)
    STATUS.write_text(json.dumps(statuses, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in GENERATED_CASES:
            status, digest = run_generated(case, Path(tmp))
            digests[case] = {"sha256": digest, "status": status}
    GENERATED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    record()
