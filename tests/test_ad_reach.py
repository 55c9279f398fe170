"""The reachable-pair restriction and the symbolic determinism check,
cross-checked against the unrestricted game and the explicit semantics."""

from __future__ import annotations

import sys
from collections import deque

from semdiff.ad import model, validate_ad
from semdiff.ad.diff import (addiff, backward_fixpoint, is_deterministic,
                             non_correspondence, reachable_pairs)
from semdiff.ad.encode import ProductEncoding, encode_product
from semdiff.ad.model import (ActivityDiagram, Node, initial_configs,
                              observable_steps)
from semdiff.bdd import FALSE
from semdiff.parsing import parse_ad

from explicit import is_observably_deterministic
from test_ad_diff import chain, nd_twin


def _ad(text: str) -> ActivityDiagram:
    return validate_ad(parse_ad(text))


def unrestricted_layers(enc: ProductEncoding, d0: int) -> list[int]:
    """The forcing fixpoint over every state pair, reachable or not."""
    m = enc.manager
    ren = {**enc.left.cur_to_next(), **enc.right.cur_to_next()}
    nxt1 = enc.left.next_levels()
    nxt2 = enc.right.next_levels()
    layers = [d0]
    while True:
        dn = m.rename(layers[-1], ren)
        new = layers[-1]
        for a in enc.alphabet:
            t1 = enc.left.t_by_action.get(a, FALSE)
            en2 = enc.right.en_by_action.get(a, FALSE)
            if t1 == FALSE or en2 == FALSE:
                continue
            replies = m.forall(m.bor(m.bnot(enc.right.t_by_action[a]), dn), nxt2)
            new = m.bor(new, m.and_exists(t1, m.band(en2, replies), nxt1))
        if new == layers[-1]:
            return layers
        layers.append(new)


def explicit_pair_count(ad1: ActivityDiagram, ad2: ActivityDiagram) -> int:
    return len(explicit_pairs(ad1, ad2))


def explicit_pairs(ad1: ActivityDiagram, ad2: ActivityDiagram) -> set:
    """Configuration pairs a joint run reaches, by breadth-first search."""
    shared = {v.name for v in ad1.inputs} & {v.name for v in ad2.inputs}
    seen = {(c1, c2) for c1 in initial_configs(ad1) for c2 in initial_configs(ad2)
            if all(c1.env()[k] == c2.env()[k] for k in shared)}
    queue = deque(seen)
    while queue:
        c1, c2 = queue.popleft()
        for s1 in observable_steps(ad1, c1):
            for s2 in observable_steps(ad2, c2):
                nxt = (s1.successor, s2.successor)
                if s1.action == s2.action and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def fixture_pairs(ad_v1, ad_v2, ad_v3):
    ads = [ad_v1, ad_v2, ad_v3]
    return [(a, b) for a in ads for b in ads]


# -- reachable pairs ----------------------------------------------------------


def test_restricted_layers_are_unrestricted_layers_within_reach(ad_v1, ad_v2, ad_v3):
    for left, right in fixture_pairs(ad_v1, ad_v2, ad_v3):
        enc = encode_product(left, right)
        m = enc.manager
        reach = reachable_pairs(enc)
        d0 = non_correspondence(enc)
        restricted = list(backward_fixpoint(enc, d0).layers)
        full = unrestricted_layers(enc, d0)
        assert len(restricted) <= len(full)
        for k, layer in enumerate(full):
            # the restricted chain stops once it is stable within reach
            assert m.band(layer, reach) == restricted[min(k, len(restricted) - 1)], \
                (left.name, right.name, k)


def test_reachable_pairs_match_explicit_joint_runs(ad_v1, ad_v2, ad_v3):
    for left, right in fixture_pairs(ad_v1, ad_v2, ad_v3):
        enc = encode_product(left, right)
        levels = [lvl for bank in (enc.left, enc.right)
                  for lvl in bank.cur_state_levels() + bank.input_levels()]
        got = enc.manager.count_sat(reachable_pairs(enc), levels)
        assert got == explicit_pair_count(left, right), (left.name, right.name)


# -- symbolic determinism -------------------------------------------------------


def renamed_actions(ad: ActivityDiagram, names: dict[str, str]) -> ActivityDiagram:
    nodes = tuple(Node(n.id, n.kind, names.get(n.id, n.action_name), n.effects)
                  for n in ad.nodes)
    return validate_ad(ActivityDiagram(ad.name, ad.inputs, ad.locals, nodes, ad.edges))


FORK = """activitydiagram fork {
  initial i; fork k; action a1; action a2; join j; final f;
  edge i -> k; edge k -> a1; edge k -> a2;
  edge a1 -> j; edge a2 -> j; edge j -> f;
}"""

OVERLAPPING_GUARDS = """activitydiagram overlap {
  input x : 0..7;
  initial i; decision d; action a1; action a2; action b; final f;
  edge i -> d;
  edge d -> a1 [x < 5];
  edge d -> a2 [x > 2];
  edge a1 -> f; edge a2 -> b; edge b -> f;
}"""

# a fork whose branches may share an action name, behind a guard no input meets
UNREACHABLE_FORK = """activitydiagram hidden {
  input x : 0..7;
  initial i; decision d; fork k; action a1; action a2; action c; join j;
  final f;
  edge i -> d;
  edge d -> k [x > 9];
  edge d -> c [x <= 9];
  edge k -> a1; edge k -> a2; edge a1 -> j; edge a2 -> j; edge j -> f;
  edge c -> f;
}"""

COUNTER = """activitydiagram count {
  local c : 0..6 = 0;
  initial i; merge m; decision d; action tick { c := c + 1; }; action done;
  final f;
  edge i -> m; edge m -> d;
  edge d -> tick [c < 6]; edge tick -> m;
  edge d -> done [c >= 6]; edge done -> f;
}"""


def determinism_cases(ad_v1, ad_v2, ad_v3):
    fork = _ad(FORK)
    overlap = _ad(OVERLAPPING_GUARDS)
    hidden = _ad(UNREACHABLE_FORK)
    return [
        ad_v1, ad_v2, ad_v3,
        fork,
        renamed_actions(fork, {"a2": "a1"}),
        nd_twin(),
        overlap,
        renamed_actions(overlap, {"a2": "a1"}),
        hidden,
        renamed_actions(hidden, {"a2": "a1"}),
        _ad(COUNTER),
        chain("single", ["go"]),
    ]


def test_addiff_builds_no_explicit_transition_system(monkeypatch, ad_v1, ad_v2):
    def refuse(*args, **kwargs):
        raise AssertionError("explicit transition system built")

    monkeypatch.setattr(model, "build_explicit_ts", refuse)
    assert not hasattr(model, "is_observably_deterministic")
    for left, right in ((ad_v1, ad_v2), (ad_v2, ad_v1)):
        assert addiff(left, right).semantics == "trace"


def test_symbolic_determinism_matches_explicit_check(ad_v1, ad_v2, ad_v3):
    verdicts = []
    for ad in determinism_cases(ad_v1, ad_v2, ad_v3):
        enc = encode_product(ad, ad)
        verdict = is_deterministic(enc.manager, enc.right)
        assert verdict == is_observably_deterministic(ad), ad.name
        verdicts.append(verdict)
    # both answers occur, including a nondeterminism no run reaches
    assert verdicts == [True, True, True, True, False, False, True, False, True,
                        True, True, True]


# -- long traces ------------------------------------------------------------------


def counter_loop(name: str, hi: int, final: str) -> ActivityDiagram:
    return _ad(f"""activitydiagram {name} {{
      local c : 0..{hi} = 0;
      initial i; merge m; decision d; action tick {{ c := c + 1; }};
      action {final}; final f;
      edge i -> m; edge m -> d;
      edge d -> tick [c < {hi}]; edge tick -> m;
      edge d -> {final} [c >= {hi}]; edge {final} -> f;
    }}""")


def test_traces_longer_than_the_recursion_limit():
    hi = sys.getrecursionlimit() + 100
    res = addiff(counter_loop("left", hi, "stop"), counter_loop("right", hi, "halt"))
    assert res.semantics == "trace"
    (st,) = res.traces
    assert st.actions == ("tick",) * hi + ("stop",)
    (entry,) = res.action_lists.entries
    assert len(entry.representative.configs) == hi + 2
