"""The reachable-pair restriction and the determinism check on it,
cross-checked against the unrestricted game, the conjoined relations the
engine no longer builds, and the explicit semantics."""

from __future__ import annotations

import random
import sys
from collections import deque

import pytest

from semdiff import cli
from semdiff.ad import model, validate_ad
from semdiff.ad.diff import (DiffLayers, addiff, backward_fixpoint, forward_split,
                             initial_diff_states, non_correspondence,
                             reachable_pairs, right_deterministic, trace_exact)
from semdiff.ad.encode import ProductEncoding, encode_product
from semdiff.ad.model import (ActivityDiagram, Cmp, Edge, IntLit, Node, Var,
                              VarDecl, initial_configs, observable_steps)
from semdiff.bdd import FALSE
from semdiff.oracle import ad_diff_bfs, is_diff_trace
from semdiff.parsing import parse_ad

from explicit import is_observably_deterministic
from test_ad_compile import ref_input_match
from test_ad_diff import chain, nd_twin


def _ad(text: str) -> ActivityDiagram:
    return validate_ad(parse_ad(text))


def alphabet(enc: ProductEncoding) -> list[str]:
    """Every action name either diagram declares, sorted."""
    return sorted(set(enc.left.ad.action_names()) | set(enc.right.ad.action_names()))


def full_non_correspondence(enc: ProductEncoding) -> int:
    """Every pair, reachable or not, where the left diagram has an enabled
    action the right one does not, over in-range inputs on both sides."""
    m = enc.manager
    d0 = FALSE
    for a in alphabet(enc):
        d0 = m.bor(d0, m.bdiff(enc.left.en_by_action.get(a, FALSE),
                               enc.right.en_by_action.get(a, FALSE)))
    for bank in (enc.left, enc.right):
        for b in bank.input_bundles.values():
            d0 = m.band(d0, m.domain_cube(b))
    return d0


def conjoined_reach(enc: ProductEncoding) -> int:
    """reachable_pairs by the construction it replaced: one conjoined
    relation band(t1, t2) per shared action, imaged over both diagrams'
    current-state levels at once."""
    m = enc.manager
    joint = [m.band(t1, enc.right.t_by_action[a])
             for a, t1 in enc.left.t_by_action.items() if a in enc.right.t_by_action]
    cur = enc.left.cur_state_levels() + enc.right.cur_state_levels()
    ren = {**enc.left.next_to_cur(), **enc.right.next_to_cur()}
    reach = frontier = m.band(m.band(enc.left.init, enc.right.init), enc.input_match)
    while frontier != FALSE:
        img = FALSE
        for t in joint:
            img = m.bor(img, m.and_exists(frontier, t, cur))
        frontier = m.bdiff(m.rename(img, ren), reach)
        reach = m.bor(reach, frontier)
    return reach


def conjoined_split(enc: ProductEncoding,
                    layers: DiffLayers) -> list[tuple[tuple[str, ...], int]]:
    """(action list, initial inputs) per symbolic trace, as forward_split
    finds them, by a plain recursive descent through the conjoined
    relations and the full divergence sets bdiff(en1, en2)."""
    m = enc.manager
    cur = enc.left.cur_state_levels() + enc.right.cur_state_levels()
    ren = {**enc.left.next_to_cur(), **enc.right.next_to_cur()}
    names = alphabet(enc)
    t = {a: m.band(enc.left.t_by_action.get(a, FALSE), enc.right.t_by_action.get(a, FALSE))
         for a in names}
    diverge = {a: m.bdiff(enc.left.en_by_action.get(a, FALSE),
                          enc.right.en_by_action.get(a, FALSE)) for a in names}
    found: dict[tuple[str, ...], int] = {}

    def emit(actions: tuple[str, ...], leaf: int) -> None:
        inputs = m.exists(leaf, [lvl for lvl in m.support(leaf)
                                 if lvl not in enc.report_levels])
        found[actions] = m.bor(found.get(actions, FALSE), inputs)

    def descend(pairs: int, d: int, prefix: tuple[str, ...]) -> None:
        for a in names:
            if d == 0:
                if (leaf := m.band(pairs, diverge[a])) != FALSE:
                    emit(prefix + (a,), leaf)
            elif (img := m.band(m.rename(m.and_exists(pairs, t[a], cur), ren),
                                layers.layers[d - 1])) != FALSE:
                descend(img, d - 1, prefix + (a,))

    init = initial_diff_states(enc, layers)
    for d, layer in enumerate(layers.layers):
        below = layers.layers[d - 1] if d else FALSE
        if (group := m.band(init, m.bdiff(layer, below))) != FALSE:
            descend(group, d, ())
    matched = m.exists(m.band(enc.right.init, enc.input_match),
                       enc.right.cur_state_levels() + enc.right.input_levels())
    for a, en1 in enc.left.en_by_action.items():
        if (leaf := m.band(m.bdiff(enc.left.init, matched), en1)) != FALSE:
            emit((a,), leaf)
    return sorted(found.items())


def assert_images_match_conjoined_relations(left: ActivityDiagram,
                                            right: ActivityDiagram) -> None:
    """reachable_pairs is conjoined_reach node for node in one manager, and
    forward_split finds the traces conjoined_split does."""
    enc = encode_product(left, right)
    reach = reachable_pairs(enc)
    assert reach == conjoined_reach(enc), (left.name, right.name)
    layers = backward_fixpoint(enc, non_correspondence(enc, reach), reach, False)
    got = [(st.actions, st.init_inputs.node) for st in forward_split(enc, layers)]
    assert got == conjoined_split(enc, layers), (left.name, right.name)


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
        for a in alphabet(enc):
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


def assert_restricted_layers_within_reach(left: ActivityDiagram,
                                          right: ActivityDiagram) -> tuple[bool, int]:
    """backward_fixpoint's game is unrestricted_layers within reach, layer
    for layer; returns (right deterministic on reach?, fixpoint depth)."""
    enc = encode_product(left, right)
    m = enc.manager
    reach = reachable_pairs(enc)
    d0 = full_non_correspondence(enc)
    assert non_correspondence(enc, reach) == m.band(d0, reach)
    restricted = list(backward_fixpoint(enc, non_correspondence(enc, reach), reach,
                                        False).layers)
    full = unrestricted_layers(enc, d0)
    assert len(restricted) <= len(full)
    for k, layer in enumerate(full):
        # the restricted chain stops once it is stable within reach
        assert m.band(layer, reach) == restricted[min(k, len(restricted) - 1)], \
            (left.name, right.name, k)
    return right_deterministic(enc, reach), len(restricted) - 1


def test_restricted_layers_are_unrestricted_layers_within_reach(ad_v1, ad_v2, ad_v3):
    for left, right in fixture_pairs(ad_v1, ad_v2, ad_v3):
        assert_restricted_layers_within_reach(left, right)


def test_reachable_pairs_match_explicit_joint_runs(ad_v1, ad_v2, ad_v3):
    for left, right in fixture_pairs(ad_v1, ad_v2, ad_v3):
        enc = encode_product(left, right)
        levels = [lvl for bank in (enc.left, enc.right)
                  for lvl in bank.cur_state_levels() + bank.input_levels()]
        got = enc.manager.count_sat(reachable_pairs(enc), levels)
        assert got == explicit_pair_count(left, right), (left.name, right.name)


def test_images_one_side_at_a_time_match_conjoined_relations(ad_v1, ad_v2, ad_v3):
    for left, right in fixture_pairs(ad_v1, ad_v2, ad_v3):
        assert_images_match_conjoined_relations(left, right)


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

def branching_directions() -> list[tuple[ActivityDiagram, ActivityDiagram]]:
    """Left chains that take one action twice and then one the right side
    lacks, against a fork whose two branches take that action: after the
    first step the right side has two successors under it."""
    go_go_b = renamed_actions(chain("go_go_b", ["g1", "g2", "b"]), {"g1": "go", "g2": "go"})
    a1_a1_x = renamed_actions(chain("a1_a1_x", ["p1", "p2", "x"]), {"p1": "a1", "p2": "a1"})
    return [(go_go_b, nd_twin()), (a1_a1_x, renamed_actions(_ad(FORK), {"a2": "a1"}))]


@pytest.mark.parametrize("left, right", branching_directions(), ids=lambda ad: ad.name)
def test_game_layers_are_unrestricted_layers_where_the_right_side_branches(left, right):
    deterministic, depth = assert_restricted_layers_within_reach(left, right)
    assert not deterministic
    assert depth >= 2


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


def explicitly_exact(ad1: ActivityDiagram, ad2: ActivityDiagram) -> bool:
    """trace_exact read off the explicit joint pairs: ad2 declares no input
    ad1 lacks, and the right half of no jointly reachable pair has two
    successors under one action both diagrams take."""
    if not {v.name for v in ad2.inputs} <= {v.name for v in ad1.inputs}:
        return False
    shared = set(ad1.action_names()) & set(ad2.action_names())
    for _, c2 in explicit_pairs(ad1, ad2):
        successors: dict[str, set] = {}
        for s in observable_steps(ad2, c2):
            if s.action in shared:
                successors.setdefault(s.action, set()).add(s.successor)
        if any(len(v) > 1 for v in successors.values()):
            return False
    return True


LOW_INPUT = """activitydiagram low {
  input x : 0..2;
  initial i; action a1; final f;
  edge i -> a1; edge a1 -> f;
}"""


def test_symbolic_determinism_matches_explicit_check(ad_v1, ad_v2, ad_v3):
    selves = determinism_cases(ad_v1, ad_v2, ad_v3)
    cases = [(ad, ad) for ad in selves]
    fork, overlap = _ad(FORK), _ad(OVERLAPPING_GUARDS)
    fork_nd, overlap_nd = renamed_actions(fork, {"a2": "a1"}), renamed_actions(overlap, {"a2": "a1"})
    cases += [
        (_ad(LOW_INPUT), overlap_nd),       # x stays below the overlap of the guards
        (chain("single", ["a1"]), overlap),  # x is the right side's own input
        (fork, fork_nd),                     # nondeterministic at the start pair
    ]
    verdicts = []
    for left, right in cases:
        enc = encode_product(left, right)
        verdict = trace_exact(enc, right_deterministic(enc, reachable_pairs(enc)))
        assert verdict == explicitly_exact(left, right), (left.name, right.name)
        verdicts.append(verdict)
    # against itself a diagram reaches jointly what it reaches alone
    assert verdicts[:len(selves)] == [is_observably_deterministic(ad) for ad in selves]
    # both answers occur, including a nondeterminism no run reaches and one
    # that only the other diagram's runs keep out of reach
    assert verdicts == [True, True, True, True, False, False, True, False, True,
                        True, True, True, True, False, False]
    assert not is_observably_deterministic(overlap_nd)


def api_ad(name: str, x_hi: int, nodes: list[tuple], edges: list[tuple]) -> ActivityDiagram:
    """A diagram over one input x in 0..x_hi, built through the Python API
    from Node and Edge argument tuples (edge ids are numbered)."""
    return validate_ad(ActivityDiagram(
        name, (VarDecl("x", 0, x_hi),), (), tuple(Node(*n) for n in nodes),
        tuple(Edge(f"e{i}", *e) for i, e in enumerate(edges))))


def hidden_nondeterminism_pair(seed: int) -> tuple[ActivityDiagram, ActivityDiagram]:
    """A seeded pair whose right diagram has two action nodes named `go`
    behind a decision branch, x >= t, that no joint run takes.

    The left diagram is a chain of actions.  The right one runs the same
    chain for x < t, with its last action renamed or dropped, so the pair
    differs.  For x >= t it reaches the `go` fork either directly, the
    left diagram's input range then ending below t, or through an action
    `z` the left diagram never takes."""
    rng = random.Random(f"hidden:{seed}")
    hi = rng.randint(3, 7)
    t = rng.randint(2, hi)
    names = rng.sample("abcgh", rng.randint(2, 4))
    by_range = rng.random() < 0.5
    kept = names[:-1] + ([rng.choice("pq")] if rng.random() < 0.5 else [])
    gate = [] if by_range else ["z"]
    left = api_ad(f"left{seed}", t - 1 if by_range else hi,
                  [("i", "initial"), *((a, "action") for a in names), ("f", "final")],
                  list(zip(["i", *names], [*names, "f"])))
    right = api_ad(
        f"right{seed}", hi,
        [("i", "initial"), ("d", "decision"), *((a, "action") for a in kept + gate),
         ("k", "fork"), ("go1", "action", "go"), ("go2", "action", "go"),
         ("j", "join"), ("f", "final")],
        [("i", "d"), ("d", kept[0], Cmp("<", Var("x"), IntLit(t))),
         *zip(kept, kept[1:]), (kept[-1], "f"),
         ("d", (gate + ["k"])[0], Cmp(">=", Var("x"), IntLit(t))), *((g, "k") for g in gate),
         ("k", "go1"), ("k", "go2"), ("go1", "j"), ("go2", "j"), ("j", "f")])
    return left, right


def assert_oracle_agrees(models: dict[str, ActivityDiagram], a: str, b: str,
                         monkeypatch, capsys) -> None:
    """`addiff a b --oracle` runs the oracle and agrees with it, and every
    representative is a diff trace by the oracle's own definition."""
    monkeypatch.setattr(cli, "_load", lambda path, want: models[path])
    res = addiff(models[a], models[b])
    assert res.semantics == "trace"
    assert cli.main(["addiff", a, b, "--oracle"]) == (0 if res.has_diffs else 1)
    out, err = capsys.readouterr()
    assert "(trace semantics)" in out.splitlines()[0]
    assert err.startswith("oracle agreement"), err
    for e in res.action_lists.entries:
        rep = e.representative
        assert is_diff_trace(models[a], models[b], dict(rep.valuation), rep.actions), e.key


@pytest.mark.parametrize("seed", range(6))
def test_nondeterminism_no_joint_run_reaches_keeps_trace_semantics(seed, monkeypatch, capsys):
    left, right = hidden_nondeterminism_pair(seed)
    # the right diagram alone is nondeterministic, under `go`
    assert not is_observably_deterministic(right)
    models = {"L": left, "R": right}
    for a, b in (("L", "R"), ("R", "L")):
        assert addiff(models[a], models[b]).has_diffs or a == "R"
        assert_oracle_agrees(models, a, b, monkeypatch, capsys)
        assert_images_match_conjoined_relations(models[a], models[b])


def test_nondeterminism_under_an_action_the_left_never_takes_keeps_trace_semantics(
        monkeypatch, capsys):
    left = api_ad("left", 1, [("i", "initial"), ("a", "action"), ("c", "action"),
                              ("f", "final")],
                  [("i", "a"), ("a", "c"), ("c", "f")])
    right = api_ad("right", 1, [("i", "initial"), ("a", "action"), ("k", "fork"),
                                ("b", "action"), ("z1", "action", "z"), ("z2", "action", "z"),
                                ("j", "join"), ("f", "final")],
                   [("i", "a"), ("a", "k"), ("k", "b"), ("k", "z1"), ("k", "z2"),
                    ("b", "j"), ("z1", "j"), ("z2", "j"), ("j", "f")])
    # after `a`, both `z` nodes hold a token: two successors under z
    assert not is_observably_deterministic(right)
    enc = encode_product(left, right)
    verdict = trace_exact(enc, right_deterministic(enc, reachable_pairs(enc)))
    assert verdict == explicitly_exact(left, right) is True
    assert sorted(ad_diff_bfs(left, right).ql) == [("a", "c")]
    res = addiff(left, right)
    assert [st.actions for st in res.traces] == [("a", "c")]
    assert_oracle_agrees({"L": left, "R": right}, "L", "R", monkeypatch, capsys)


# -- input allocation ----------------------------------------------------------


def with_input_range(ad: ActivityDiagram, lo: int, hi: int) -> ActivityDiagram:
    """ad with its one input redeclared over lo..hi."""
    (v,) = ad.inputs
    return validate_ad(ActivityDiagram(f"{ad.name}_{lo}_{hi}".replace("-", "m"),
                                       (VarDecl(v.name, lo, hi),), ad.locals,
                                       ad.nodes, ad.edges))


# shifted, narrower, wider and disjoint against the fixtures' tickets : 0..15
REDECLARED = ((2, 17), (0, 9), (-3, 20), (16, 23))


def state_level_count(enc: ProductEncoding) -> int:
    return sum(len(bank.cur_state_levels() + bank.next_levels())
               for bank in (enc.left, enc.right))


def test_input_declared_alike_has_one_set_of_levels(ad_v1, ad_v2, ad_v3):
    for left, right in fixture_pairs(ad_v1, ad_v2, ad_v3):
        enc = encode_product(left, right)
        m = enc.manager
        (b,) = enc.left.input_bundles.values()
        assert enc.right.input_bundles == {"tickets": b}
        # one level per input bit, at the top of the order
        assert enc.left.input_levels() == enc.right.input_levels() == list(range(b.nbits))
        assert m.var_count == b.nbits + state_level_count(enc)
        assert enc.input_match == m.domain_cube(b)
        assert enc.report_bundles == (b,)


def test_input_declared_with_another_range_keeps_two_bundles(ad_v1, ad_v2):
    for lo, hi in REDECLARED:
        other = with_input_range(ad_v2, lo, hi)
        for left, right in ((ad_v1, other), (other, ad_v1)):
            enc = encode_product(left, right)
            b1, b2 = enc.left.input_bundles["tickets"], enc.right.input_bundles["tickets"]
            assert set(b1.levels).isdisjoint(b2.levels)
            assert enc.manager.var_count == b1.nbits + b2.nbits + state_level_count(enc)
            assert enc.input_match == ref_input_match(enc.manager, enc.left, enc.right,
                                                      {"tickets"})
            assert enc.report_bundles == (b1,)


def test_redeclared_input_ranges_agree_with_the_oracle(ad_v1, ad_v2, monkeypatch, capsys):
    for lo, hi in REDECLARED:
        models = {"L": ad_v1, "R": with_input_range(ad_v2, lo, hi)}
        for a, b in (("L", "R"), ("R", "L")):
            assert_oracle_agrees(models, a, b, monkeypatch, capsys)
        if (lo, hi) == (16, 23):
            # no left valuation pairs: each diverges on its first action
            assert [st.actions for st in addiff(ad_v1, models["R"]).traces] == [("register",)]


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
    assert entry.representative.actions == st.actions
