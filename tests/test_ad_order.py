"""The BDD variable order of `ad/encode.py` follows the net, not the text.

`_edge_order` lays each diagram's token bits out from its start edge, so
a refactored copy (control nodes renamed, node and edge declarations
fully shuffled) pairs its bits the way the original does.  The checks
count, never time:
- on forks whose siblings all differ in label, the copy puts every edge
  at the original's position, compared by endpoints with the renamed
  control nodes mapped back;
- encoding a diagram against its copy builds at most 10 % more BDD nodes
  than encoding it against itself.  The two counts differ even when the
  order is the same, because node declaration order decides the order
  in which the relations are built;
- `addiff` prints the same bytes when either side's declarations are
  shuffled;
- a loop's edges stay next to each other, and edges the walk from the
  start edge misses come last, in declaration order.
"""

from __future__ import annotations

import random

import pytest

from semdiff import cli
from semdiff.ad import encode_product, validate_ad
from semdiff.ad.encode import _edge_order
from semdiff.ad.model import ACTION, ActivityDiagram, Edge
from semdiff.parsing import parse_ad, print_ad

from conftest import fixture_text
from test_ad_random import SEEDS, _texts
from test_ad_settle import TWO_LOOPS
from test_golden import fork_text

FIXTURES = ("ad_v1", "ad_v2", "ad_v3")


def chains_text(name: str, width: int, depth: int) -> str:
    """A fork of `width` branches of `depth` actions each, a join, then
    one more action."""
    branches = [[f"{chr(ord('a') + i)}{j}" for j in range(depth)] for i in range(width)]
    lines = ["initial start;", "fork split;", "join sync;", "action ship;", "final done;"]
    lines += [f"action {a};" for chain in branches for a in chain]
    lines += ["edge start -> split;", "edge sync -> ship;", "edge ship -> done;"]
    for chain in branches:
        path = ["split", *chain, "sync"]
        lines += [f"edge {u} -> {v};" for u, v in zip(path, path[1:])]
    return f"activitydiagram {name} {{\n" + "".join(f"  {ln}\n" for ln in lines) + "}\n"


def _ad(text: str) -> ActivityDiagram:
    return validate_ad(parse_ad(text))


FORKS = {**{f"fork{w}": fork_text("fork", w, "ship") for w in (2, 3, 4)},
         "fork2x15": chains_text("fork", 2, 15), "fork3x5": chains_text("fork", 3, 5)}


def refactored(ad: ActivityDiagram, seed: str) -> tuple[ActivityDiagram, dict[str, str]]:
    """The diagram with every non-action node renamed and every node and
    edge declaration shuffled (its edges get new ids from their new
    declaration order), and a map from the new node ids to the old."""
    rng = random.Random(seed)
    ids = {n.id: n.id if n.kind == ACTION else f"r{k}_{n.kind}"
           for k, n in enumerate(ad.nodes)}
    nodes = [type(n)(ids[n.id], n.kind, n.action_name, n.effects) for n in ad.nodes]
    edges = [Edge(e.id, ids[e.source], ids[e.target], e.guard) for e in ad.edges]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    copy = ActivityDiagram(ad.name, ad.inputs, ad.locals, tuple(nodes), tuple(edges))
    return _ad(print_ad(copy)), {new: old for old, new in ids.items()}


def _ends(ad: ActivityDiagram, back: dict[str, str] | None = None) -> list[tuple[str, str]]:
    """The endpoints of the diagram's edges in its BDD order."""
    back = back or {}
    edges = {e.id: e for e in ad.edges}
    return [tuple(back.get(n, n) for n in (edges[e].source, edges[e].target))
            for e in _edge_order(ad)]


def _cases() -> dict[str, ActivityDiagram]:
    out = {name: _ad(text) for name, text in FORKS.items()}
    out.update({name: _ad(fixture_text(f"{name}.ad")) for name in FIXTURES})
    for seed in SEEDS:
        for side, text in zip(("left", "right"), _texts(seed)):
            out[f"random{seed}-{side}"] = _ad(text)
    return out


CASES = _cases()


@pytest.mark.parametrize("case", sorted(FORKS))
def test_a_refactored_fork_puts_every_edge_where_the_original_does(case):
    ad = CASES[case]
    copy, back = refactored(ad, f"order:{case}")
    assert _ends(copy) != _ends(ad)  # the renaming shows
    assert _ends(copy, back) == _ends(ad)


@pytest.mark.parametrize("case", sorted(CASES))
def test_encoding_a_refactored_copy_costs_what_a_self_encoding_does(case):
    ad = CASES[case]
    copy, _ = refactored(ad, f"cost:{case}")
    self_nodes = encode_product(ad, ad).manager.audit()["nodes"]
    copy_nodes = encode_product(ad, copy).manager.audit()["nodes"]
    assert copy_nodes <= 1.10 * self_nodes, (copy_nodes, self_nodes)


def _pairs() -> dict[str, tuple[str, str]]:
    texts = {name: fixture_text(f"{name}.ad") for name in FIXTURES}
    out = {f"{a}-{b}": (texts[a], texts[b]) for a in FIXTURES for b in FIXTURES}
    out.update({f"random{seed}": _texts(seed) for seed in SEEDS})
    return out


PAIRS = _pairs()


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_addiff_prints_the_same_bytes_for_shuffled_declarations(case, tmp_path, capsys):
    def stdout(left: str, right: str) -> str:
        (tmp_path / "l.ad").write_text(left)
        (tmp_path / "r.ad").write_text(right)
        code = cli.main(["addiff", str(tmp_path / "l.ad"), str(tmp_path / "r.ad")])
        out = capsys.readouterr().out
        assert code in (0, 1), out
        return out

    left, right = PAIRS[case]
    want = stdout(left, right)
    shuffled = [print_ad(refactored(_ad(text), f"print:{case}:{i}")[0])
                for i, text in enumerate((left, right))]
    assert stdout(shuffled[0], right) == want
    assert stdout(left, shuffled[1]) == want


UNREACHED_FIRST = """activitydiagram lost {
  initial i; action go; action spin; action idle; final f;
  edge spin -> spin; edge idle -> idle; edge i -> go; edge go -> f;
}"""


def test_a_loop_stays_together_and_unreached_edges_come_last():
    ends = _ends(_ad(TWO_LOOPS))
    for loop in ([("lm0", "ld0"), ("ld0", "up"), ("up", "up2"), ("up2", "lm0")],
                 [("lm1", "ld1"), ("ld1", "tick"), ("tick", "tick2"), ("tick2", "lm1")]):
        at = ends.index(loop[0])
        assert ends[at:at + len(loop)] == loop
    assert _ends(_ad(UNREACHED_FIRST)) == [("i", "go"), ("go", "f"), ("spin", "spin"),
                                          ("idle", "idle")]
    assert _edge_order(ActivityDiagram("empty", (), (), (), ())) == []
