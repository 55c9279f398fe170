"""The shared silent closure of `ad/encode.py` against the per-action
construction it replaced, node for node.

`_compile_bank` composes the silent closure once per diagram, on
quiescence and an unchanged marking, and derives each action's relation
from that `settle` relation.  The reference below is the construction
it replaced: every action node's firing (token move, token frame and
effects) conjoined with quiescence, and the silent closure composed
anew per action name.  Both are built in one manager, so equal
relations must be the same node.

The cases: the fixtures, forks and ticket pipelines of
tests/test_golden.py, the seeded pairs of tests/test_ad_random.py, two
action nodes that share a name (built through the Python API), effects
that leave their range, a decision guard on a local, and an action whose
only edge loops back to it.  A last test bounds the BDD nodes of one
encoding, so a closure per action again would fail it.
"""

from __future__ import annotations

import pytest

from semdiff.ad import encode_product, validate_ad
from semdiff.ad.encode import (AdBank, _compose_closure, _effects_relation, _eq,
                               _silent_firings)
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


# -- encode size ----------------------------------------------------------------

# Two c := c + 1 loops behind a decision, each with a two-action body,
# then two actions: 16 edges.  One closure per diagram encodes it against
# itself with 66,027 BDD nodes; a closure per action name made 220,281.
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
