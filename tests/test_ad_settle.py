"""The silent closure of `ad/encode.py` against the constructions it
replaced, node for node.

`_compile_bank` takes `settle` from `_settle`, which composes the silent
closure once per component of silent transitions that share an edge,
each on its own quiescence and a frame over its own edges, and conjoins
the results with a frame over the edges no silent transition touches.
Each action's relation is derived from that `settle`.  Two references
check it, both built in the encoding's manager, so equal relations must
be the same node: the closure composed once over every silent firing of
the diagram, on global quiescence and a frame over every edge; and every
action node's firing (token move, token frame and effects) conjoined
with quiescence, with the silent closure composed anew per action name.

The cases: the fixtures, forks and ticket pipelines of
tests/test_golden.py, the seeded pairs of tests/test_ad_random.py, two
action nodes that share a name (built through the Python API), effects
that leave their range, a decision guard on a local, an action whose
only edge loops back to it, and shapes that stress the grouping: a fork
straight into a join, two decisions feeding one merge, a final node fed
from three components, a merge blocked by a token on its out-edge, and
a diagram whose only silent node is its final node.  The last tests
bound the BDD nodes of one encoding, so a closure per action, or one
per diagram, again would fail them.
"""

from __future__ import annotations

import pytest

from semdiff.ad import encode_product, validate_ad
from semdiff.ad.encode import (AdBank, _compose_closure, _effects_relation, _eq,
                               _settle, _silent_firings)
from semdiff.ad.model import ACTION, ActivityDiagram, Node, expr_vars
from semdiff.bdd import FALSE, TRUE, BddManager
from semdiff.parsing import parse_ad

from conftest import fixture_text
from test_ad_diff import nd_twin
from test_ad_random import SEEDS, _texts
from test_ad_reach import COUNTER, FORK, OVERLAPPING_GUARDS, renamed_actions
from test_golden import fork_text, pipeline_text


def _action_fire(m: BddManager, bank: AdBank, node: Node) -> int:
    e_in = bank.ad.in_edges(node.id)[0].id
    e_out = bank.ad.out_edges(node.id)[0].id
    cond = m.var(bank.tok_cur[e_in])
    if e_out != e_in:
        cond = m.band(cond, m.nvar(bank.tok_cur[e_out]))  # unsafe firings are absent
    after = {bank.tok_next[e_in]: e_out == e_in, bank.tok_next[e_out]: True}
    fire = m.band(cond, m.cube(after))
    keep = [e.id for e in bank.ad.edges if e.id not in (e_in, e_out)]
    fire = m.band(fire, _eq(m, [m.var(bank.tok_cur[e]) for e in keep],
                            [m.var(bank.tok_next[e]) for e in keep]))
    return m.band(fire, _effects_relation(m, bank, node))


def per_action_relations(m: BddManager, bank: AdBank) -> dict[str, int]:
    """Silent closure followed by one action firing, composed per name."""
    firings = _silent_firings(m, bank)
    quiet = TRUE
    for cond, _ in firings:
        quiet = m.band(quiet, m.bnot(cond))
    fires: dict[str, int] = {}
    for n in bank.ad.nodes:
        if n.kind == ACTION:
            fires[n.name()] = m.bor(fires.get(n.name(), FALSE), _action_fire(m, bank, n))
    return {name: _compose_closure(m, m.band(quiet, fire), firings)
            for name, fire in fires.items()}


def diagram_settle(m: BddManager, bank: AdBank) -> int:
    """The silent closure composed once over every firing of the
    diagram, on global quiescence and a frame over every edge."""
    firings = _silent_firings(m, bank)
    quiet = TRUE
    for cond, _ in firings:
        quiet = m.band(quiet, m.bnot(cond))
    edges = [e.id for e in bank.ad.edges]
    frame = _eq(m, [m.var(bank.tok_cur[e]) for e in edges],
                [m.var(bank.tok_next[e]) for e in edges])
    return _compose_closure(m, m.band(quiet, frame), firings)


def silent_components(ad: ActivityDiagram) -> list[set[str]]:
    """The touched edges of each group of silent transitions that share
    an edge, taken transitively."""
    comps: list[set[str]] = []
    for t in ad.transitions:
        if t.label is None:
            edges = set(t.pre | t.post)
            for c in [c for c in comps if c & edges]:
                comps.remove(c)
                edges |= c
            comps.append(edges)
    return comps


def _ad(text: str) -> ActivityDiagram:
    return validate_ad(parse_ad(text))


OUT_OF_RANGE = """activitydiagram spill {
  input x : -1..2;
  local c : 0..2 = 0;
  initial i; action up { c := c + 2; }; action down { c := c - x; c := c - 1; };
  final f;
  edge i -> up; edge up -> down; edge down -> f;
}"""

SELF_LOOP = """activitydiagram spin {
  initial i; action go; action spin; final f;
  edge i -> go; edge go -> f; edge spin -> spin;
}"""

# Shapes that stress the grouping of silent transitions into components.
FORK_INTO_JOIN = """activitydiagram forkjoin {
  initial i; action a; fork k; action b; join j; final f;
  edge i -> a; edge a -> k; edge k -> j; edge k -> b; edge b -> j; edge j -> f;
}"""

TWO_DECISIONS_ONE_MERGE = """activitydiagram decide {
  input x : 0..7;
  local c : 0..1 = 0;
  initial i; action a; decision d1; decision d2; merge m; action b; action e;
  final f;
  edge i -> a; edge a -> d1;
  edge d1 -> m [x < 2]; edge d1 -> d2 [x >= 2];
  edge d2 -> m [c < 1]; edge d2 -> e [c >= 1];
  edge m -> b; edge b -> f; edge e -> f;
}"""

FINAL_FED_TWICE = """activitydiagram twofed {
  input x : 0..7;
  initial i; action a; fork k; decision d; action b; action c; action e;
  merge m; final f;
  edge i -> a; edge a -> k; edge k -> d; edge k -> c; edge k -> e;
  edge d -> f [x < 4]; edge d -> b [x >= 4]; edge b -> f;
  edge c -> m; edge e -> m; edge m -> f;
}"""

BLOCKED_MERGE = """activitydiagram blocked {
  initial i; fork k; action a1; action a2; merge m; action b; final f;
  edge i -> k; edge k -> a1; edge k -> a2;
  edge a1 -> m; edge a2 -> m; edge m -> b; edge b -> f;
}"""

ONLY_FINAL = """activitydiagram plain {
  initial i; action a; final f;
  edge i -> a; edge a -> f;
}"""

SHAPES = {"fork-into-join": FORK_INTO_JOIN,
          "two-decisions-one-merge": TWO_DECISIONS_ONE_MERGE,
          "final-fed-twice": FINAL_FED_TWICE,
          "blocked-merge": BLOCKED_MERGE,
          "only-final": ONLY_FINAL}


def _pairs() -> dict[str, tuple[ActivityDiagram, ActivityDiagram]]:
    fixtures = {name: _ad(fixture_text(f"{name}.ad")) for name in ("ad_v1", "ad_v2", "ad_v3")}
    out = {f"{a}-{b}": (fixtures[a], fixtures[b])
           for a, b in (("ad_v1", "ad_v2"), ("ad_v2", "ad_v3"), ("ad_v3", "ad_v1"))}
    for w in (2, 3, 4):
        out[f"fork{w}"] = (_ad(fork_text("f1", w, "ship")),
                           _ad(fork_text("f2", w, "archive", moves=3)))
    for hi, (t1, t2) in ((20, (7, 12)), (767, (300, 420))):
        out[f"tickets{hi}"] = (_ad(pipeline_text("t1", hi, t1, False)),
                               _ad(pipeline_text("t2", hi, t2, True)))
    for seed in SEEDS:
        out[f"random{seed}"] = tuple(map(_ad, _texts(seed)))
    fork = _ad(FORK)
    out["shared-names"] = (nd_twin(), renamed_actions(fork, {"a2": "a1"}))
    out["overlap-shared"] = (_ad(OVERLAPPING_GUARDS),
                             renamed_actions(_ad(OVERLAPPING_GUARDS), {"a2": "a1"}))
    out["out-of-range"] = (_ad(OUT_OF_RANGE), _ad(COUNTER))
    out["self-loop"] = (_ad(SELF_LOOP), _ad(SELF_LOOP))
    for name, text in SHAPES.items():
        out[name] = (_ad(text), _ad(ONLY_FINAL))
    return out


PAIRS = _pairs()


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_settled_relations_are_the_per_action_closures(case):
    enc = encode_product(*PAIRS[case])
    m = enc.manager
    for bank in (enc.left, enc.right):
        ref = per_action_relations(m, bank)
        assert sorted(ref) == sorted(bank.t_by_action)
        nxt = bank.next_bits
        for name, t in ref.items():
            assert bank.t_by_action[name] == t, name
            assert bank.en_by_action[name] == m.exists(t, nxt), name


def test_cases_reach_what_they_cover():
    assert all(len(ad.action_names()) < sum(n.kind == ACTION for n in ad.nodes)
               for ad in PAIRS["shared-names"])
    # c := c + 2 on 0..2 fires from c = 0 only
    enc = encode_product(*PAIRS["out-of-range"])
    m, bank = enc.manager, enc.left
    up = bank.en_by_action["up"]
    assert m.band(up, m.value_cube(bank.loc_cur["c"], 0)) != FALSE
    assert m.band(up, m.value_cube(bank.loc_cur["c"], 1)) == FALSE
    assert any(e.guard is not None and "c" in expr_vars(e.guard)
               for e in PAIRS["out-of-range"][1].edges)
    assert any(e.source == e.target for e in PAIRS["self-loop"][0].edges)


# -- one closure per component -----------------------------------------------


@pytest.mark.parametrize("case", sorted(PAIRS) + ["two-loops"])
def test_settle_is_the_closure_over_the_whole_diagram(case):
    pair = (_ad(TWO_LOOPS),) * 2 if case == "two-loops" else PAIRS[case]
    enc = encode_product(*pair)
    m = enc.manager
    for bank in (enc.left, enc.right):
        assert _settle(m, bank) == diagram_settle(m, bank)


def test_shapes_group_as_intended():
    sizes = {name: sorted(map(len, silent_components(_ad(text))))
             for name, text in SHAPES.items()}
    assert sizes == {
        "fork-into-join": [5],  # fork, join and final share k -> j and j -> f
        "two-decisions-one-merge": [1, 1, 6],  # the finals on b -> f and e -> f alone
        "final-fed-twice": [1, 3, 6],  # the final's in-edges lie in three components
        "blocked-merge": [1, 3, 3],  # the fork, the merge, the final
        "only-final": [1],
    }
    # a token on a2 -> m waits while m -> b holds one: that marking is quiescent
    enc = encode_product(*PAIRS["blocked-merge"])
    m, bank = enc.manager, enc.left
    blocked = {bank.tok_cur[e.id]: e.source in ("a2", "m") for e in bank.ad.edges}
    to_next = dict(zip(bank.cur_bits, bank.next_bits))
    stays = m.cube({to_next[b]: v for b, v in blocked.items()})
    assert m.restrict(_settle(m, bank), blocked) == stays


# -- encode size ----------------------------------------------------------------

# Two c := c + 1 loops behind a decision, each with a two-action body,
# then two actions: 16 edges.  One closure per component encodes it
# against itself with 65,458 BDD nodes, one closure per diagram made
# 77,344 and a closure per action name 220,281.
TWO_LOOPS = """activitydiagram loops {
  input x : 0..3;
  local c : 0..3 = 0;
  initial i; decision d; merge m; final f;
  merge lm0; decision ld0; action up { c := c + 1; }; action up2;
  merge lm1; decision ld1; action tick { c := c + 1; }; action tick2;
  action t0; action t1;
  edge i -> d;
  edge d -> lm0 [x < 1]; edge lm0 -> ld0; edge ld0 -> up [c < 1];
  edge up -> up2; edge up2 -> lm0; edge ld0 -> m [c >= 1];
  edge d -> lm1 [x >= 1]; edge lm1 -> ld1; edge ld1 -> tick [c < 2];
  edge tick -> tick2; edge tick2 -> lm1; edge ld1 -> m [c >= 2];
  edge m -> t0; edge t0 -> t1; edge t1 -> f;
}"""


def test_one_closure_per_diagram_keeps_the_encoding_small():
    ad = _ad(TWO_LOOPS)
    assert len(ad.edges) == 16
    nodes = encode_product(ad, ad).manager.audit()["nodes"]
    assert nodes <= 99_000, nodes


def test_one_closure_per_component_keeps_the_fixture_encoding_small():
    # one closure over the whole diagram built 2,859 nodes here
    pair = (_ad(fixture_text("ad_v2.ad")), _ad(fixture_text("ad_v3.ad")))
    nodes = encode_product(*pair).manager.audit()["nodes"]
    assert nodes <= 1_600, nodes
