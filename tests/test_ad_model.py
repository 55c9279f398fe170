from __future__ import annotations

import pytest

from semdiff.ad import (build_explicit_ts, initial_configs, observable_steps,
                        silent_closure, validate_ad)
from semdiff.ad.encode import encode_product
from semdiff.ad.model import (ActivityDiagram, AdValidationError, BadDegreeError, Cmp,
                              Configuration, Edge, EmptyRangeError, InputAssignmentError,
                              IntLit, MisplacedGuardError, MissingGuardError, Node,
                              RangeViolationError,
                              SilentCycleError, UndeclaredVariableError, Var, VarDecl,
                              _apply_effects)
from semdiff.parsing import parse_ad

from explicit import enabled_actions, is_observably_deterministic, stuck_decisions


def _ad(text: str) -> ActivityDiagram:
    return validate_ad(parse_ad(text))


TINY = """activitydiagram tiny {
  input x : 0..3;
  initial i; action a; final f;
  edge i -> a;
  edge a -> f;
}"""


# ------------------------------------------------------------- validation

def test_fixtures_validate(ad_v1, ad_v2, ad_v3):
    for ad in (ad_v1, ad_v2, ad_v3):
        assert validate_ad(ad) is ad


def test_exactly_one_initial_node():
    with pytest.raises(BadDegreeError, match="initial"):
        _ad("activitydiagram t { action a; final f; edge a -> f; }")


@pytest.mark.parametrize("nodes", [
    (Node("a", "action"),),                          # no initial node
    (Node("i", "initial"), Node("a", "action")),     # one without an out-edge
])
def test_unvalidated_diagram_without_a_start_edge_raises_a_validation_error(nodes):
    # built through the Python API, so validate_ad never saw it
    ad = ActivityDiagram("loop", (), (), nodes, (Edge("e1", "a", "a"),))
    with pytest.raises(AdValidationError, match="^loop: "):
        encode_product(ad, ad)


def _line(decls: str = "", nodes: str = "action a;", edges: str = "edge a -> f;") -> str:
    return (f"activitydiagram t {{ {decls} initial i; {nodes} final f; "
            f"edge i -> a; {edges} }}")


def _api(nodes=(), edges=()) -> ActivityDiagram:
    """i -> a -> f through the Python API, plus the given nodes and edges."""
    return ActivityDiagram(
        "t", (), (VarDecl("y", 0, 3, 0),),
        (Node("i", "initial"), Node("a", "action", "a"), Node("f", "final"), *nodes),
        (Edge("e1", "i", "a"), Edge("e2", "a", "f"), *edges))


@pytest.mark.parametrize("model,error,message", [
    (_line("input x : 0..3; local x : 0..1 = 0;"), AdValidationError,
     "variable declared twice: x"),
    (_line("input x : 3..1;"), EmptyRangeError, "x: empty range 3..1"),
    (_line("local y : 0..3 = 5;"), EmptyRangeError, "y: initial value 5 outside 0..3"),
    (_line(nodes="action a; action a;"), AdValidationError, "node declared twice: a"),
    (_api(nodes=(Node("q", "loop"),)), AdValidationError, "q: unknown node kind loop"),
    (_api(nodes=(Node("m", "merge", None, (("y", IntLit(1)),)),)), AdValidationError,
     "m: only action nodes carry effects"),
    (_api(edges=(Edge("e2", "a", "f"),)), AdValidationError, "edge declared twice: e2"),
    (_line(nodes="action a; final g;"), BadDegreeError, "g (final): 0 incoming edge(s)"),
    (_line("input x : 0..3;", "decision a; final g;", "edge a -> f [x < 1]; edge a -> g;"),
     MissingGuardError, "edge a -> g needs a guard"),
    (_line(nodes="action a { z := 1; };"), UndeclaredVariableError, "a assigns undeclared z"),
    (_line("local y : 0..3 = 0;", "action a { y := z + 1; };"), UndeclaredVariableError,
     "a: effect uses undeclared z"),
])
def test_each_structural_fault_has_its_own_rejection(model, error, message):
    with pytest.raises(error) as exc:
        validate_ad(parse_ad(model) if isinstance(model, str) else model)
    assert str(exc.value) == message


def test_decision_needs_at_least_two_out_edges():
    with pytest.raises(BadDegreeError, match="decision"):
        _ad("""activitydiagram t {
          initial i; decision d; final f;
          edge i -> d;
          edge d -> f [1 > 0];
        }""")


def test_guards_only_on_decision_out_edges():
    with pytest.raises(MisplacedGuardError):
        _ad("""activitydiagram t {
          initial i; action a; final f;
          edge i -> a [1 > 0];
          edge a -> f;
        }""")


def test_guard_variables_must_be_declared():
    with pytest.raises(UndeclaredVariableError, match="undeclared y"):
        _ad("""activitydiagram t {
          initial i; decision d; action a; final f;
          edge i -> d;
          edge d -> f [y > 0];
          edge d -> a;
          edge a -> f;
        }""")


def test_effects_cannot_assign_inputs():
    with pytest.raises(InputAssignmentError):
        _ad("""activitydiagram t {
          input x : 0..3;
          initial i; action a { x := x + 1; }; final f;
          edge i -> a;
          edge a -> f;
        }""")


def test_silent_cycles_rejected():
    # merge -> decision -> merge never fires an action, guards or not
    with pytest.raises(SilentCycleError):
        _ad("""activitydiagram t {
          initial i; merge m; decision d; final f;
          edge i -> m;
          edge m -> d;
          edge d -> m [1 > 0];
          edge d -> f [0 > 1];
        }""")


def test_silent_cycle_search_needs_no_recursion():
    # 1500 chained decisions would pass the interpreter's recursion limit
    n = 1500
    nodes = ["input x : 0..9;", "initial i; action go; action last; final f;"]
    edges = ["edge i -> go;", "edge go -> d0;", "edge last -> f;"]
    for k in range(n):
        nxt = f"d{k + 1}" if k + 1 < n else "last"
        nodes.append(f"decision d{k}; action a{k};")
        edges += [f"edge d{k} -> {nxt} [x < 5];", f"edge d{k} -> a{k} [x >= 5];",
                  f"edge a{k} -> f;"]
    _ad("activitydiagram chain {\n" + "\n".join(nodes + edges) + "\n}")
    with pytest.raises(SilentCycleError, match=r"silent nodes: d -> m -> d$"):
        _ad("""activitydiagram t {
          initial i; merge m; decision d; final f;
          edge i -> m; edge m -> d;
          edge d -> m [1 > 0]; edge d -> f [0 > 1];
        }""")


# ------------------------------------------------------------- the net

LOW, MID, HIGH = (Cmp(op, Var("x"), IntLit(2)) for op in ("<", "==", ">"))


def every_rule() -> ActivityDiagram:
    """A decision with three guarded out-edges, two action nodes named
    "go", a merge, a fork and a join, a final node with two in-edges and
    an action whose only edge loops back to it."""
    kinds = {"i": "initial", "d": "decision", "a": "action", "b": "action",
             "m": "merge", "k": "fork", "c1": "action", "c2": "action",
             "j": "join", "f": "final", "s": "action"}
    nodes = tuple(Node(n, k, "go" if n in ("a", "b") else None) for n, k in kinds.items())
    arcs = [("i", "d", None), ("d", "a", LOW), ("d", "b", MID), ("d", "f", HIGH),
            ("a", "m", None), ("b", "m", None), ("m", "k", None), ("k", "c1", None),
            ("k", "c2", None), ("c1", "j", None), ("c2", "j", None), ("j", "f", None),
            ("s", "s", None)]
    edges = tuple(Edge(f"e{i}", src, dst, g) for i, (src, dst, g) in enumerate(arcs))
    return validate_ad(ActivityDiagram("every", (VarDecl("x", 0, 3),), (), nodes, edges))


def test_net_has_one_transition_per_firing_rule():
    # written out by hand, not derived: both engines read this net
    fs = frozenset
    want = [
        (None, fs({"e0"}), fs({"e1"}), LOW, "d"),
        (None, fs({"e0"}), fs({"e2"}), MID, "d"),
        (None, fs({"e0"}), fs({"e3"}), HIGH, "d"),
        ("go", fs({"e1"}), fs({"e4"}), None, "a"),
        ("go", fs({"e2"}), fs({"e5"}), None, "b"),
        (None, fs({"e4"}), fs({"e6"}), None, "m"),
        (None, fs({"e5"}), fs({"e6"}), None, "m"),
        (None, fs({"e6"}), fs({"e7", "e8"}), None, "k"),
        ("c1", fs({"e7"}), fs({"e9"}), None, "c1"),
        ("c2", fs({"e8"}), fs({"e10"}), None, "c2"),
        (None, fs({"e9", "e10"}), fs({"e11"}), None, "j"),
        (None, fs({"e3"}), fs(), None, "f"),
        (None, fs({"e11"}), fs(), None, "f"),
        ("s", fs({"e12"}), fs({"e12"}), None, "s"),
    ]
    ad = every_rule()
    assert ad.start_edge == "e0"
    assert [(t.label, t.pre, t.post, t.guard, t.node.id) for t in ad.transitions] == want
    assert all(t.node is ad.node(t.node.id) for t in ad.transitions)


# ------------------------------------------------------------- configurations

def test_initial_configs_enumerate_input_space(ad_v1):
    configs = initial_configs(ad_v1)
    assert len(configs) == 16
    assert sorted(c.env()["tickets"] for c in configs) == list(range(16))
    # one token on the initial node's out edge, same for every valuation
    tokens = {c.tokens for c in configs}
    assert len(tokens) == 1


def test_configuration_env_and_sort_key():
    ad = _ad(TINY)
    configs = initial_configs(ad)
    for c in configs:
        assert c.env() == dict(c.valuation)
    keys = [c.sort_key() for c in configs]
    assert len(set(keys)) == len(keys), "distinct configs need distinct keys"
    assert keys == [c.sort_key() for c in initial_configs(ad)]


# ------------------------------------------------------------- stepping

def test_observable_steps_are_sorted_and_deterministic(ad_v1):
    for c in initial_configs(ad_v1):
        steps = observable_steps(ad_v1, c)
        keys = [(s.action, s.successor.sort_key()) for s in steps]
        assert keys == sorted(keys)


def test_enabled_actions_match_observable_steps(ad_v2):
    for c in initial_configs(ad_v2):
        assert enabled_actions(ad_v2, c) == {s.action for s in observable_steps(ad_v2, c)}


def test_threshold_splits_first_step(ad_v1):
    # low ticket counts run the pipeline; high ones register and stop
    by_value = {c.env()["tickets"]: c for c in initial_configs(ad_v1)}
    lo = observable_steps(ad_v1, by_value[0])
    hi = observable_steps(ad_v1, by_value[12])
    assert [s.action for s in lo] == ["register"] == [s.action for s in hi]
    lo_next = {s.action for s in observable_steps(ad_v1, lo[0].successor)}
    hi_next = {s.action for s in observable_steps(ad_v1, hi[0].successor)}
    assert lo_next == {"welcome_msg"}
    assert hi_next == set()


def test_fork_interleaves_branch_actions(ad_v3):
    c = initial_configs(ad_v3)[0]
    walk = c
    for expected in ("register", "welcome_msg"):
        (step,) = observable_steps(ad_v3, walk)
        assert step.action == expected
        walk = step.successor
    # after the fork all three branch actions are enabled at once
    assert enabled_actions(ad_v3, walk) == {"reserve", "accounts", "update"}


def test_silent_closure_passes_through_fork(ad_v3):
    c = initial_configs(ad_v3)[0]
    # nothing silent before the first action: closure stays single-token
    assert all(len(cc.tokens) == 1 for cc in silent_closure(ad_v3, c))
    assert c in silent_closure(ad_v3, c)
    for _ in ("register", "welcome_msg"):
        (step,) = observable_steps(ad_v3, c)
        c = step.successor
    # the fork triples the token once the closure crosses it
    assert any(len(cc.tokens) == 3 for cc in silent_closure(ad_v3, c))


def test_stuck_decision_reported():
    ad = _ad("""activitydiagram t {
      input x : 0..3;
      initial i; decision d; action a; action b; final f;
      edge i -> d;
      edge d -> a [x > 5];
      edge d -> b [x > 9];
      edge a -> f;
      edge b -> f;
    }""")
    c = initial_configs(ad)[0]
    stuck = [cc for cc in silent_closure(ad, c) for _ in [0]]
    assert any(stuck_decisions(ad, cc) == ["d"] for cc in stuck)
    assert observable_steps(ad, c) == []


def test_effect_overflow_raises_range_violation():
    ad = _ad("""activitydiagram t {
      local y : 0..3 = 3;
      initial i; action a { y := y + 1; }; final f;
      edge i -> a;
      edge a -> f;
    }""")
    (a,) = [n for n in ad.nodes if n.id == "a"]
    with pytest.raises(RangeViolationError):
        _apply_effects(ad, a, {"y": 3})
    # the firing that would overflow never happens, as in the encoder
    c = initial_configs(ad)[0]
    assert observable_steps(ad, c) == []


# ------------------------------------------------------------- whole systems

@pytest.mark.parametrize("name,states", [
    ("ad_v1", 72), ("ad_v2", 128), ("ad_v3", 140),
])
def test_explicit_ts_sizes(request, name, states):
    ad = request.getfixturevalue(name)
    ts = build_explicit_ts(ad)
    assert len(ts.states) == states
    assert len(ts.initial) == 16


def test_fixtures_are_observably_deterministic(ad_v1, ad_v2, ad_v3):
    assert is_observably_deterministic(ad_v1)
    assert is_observably_deterministic(ad_v2)
    assert is_observably_deterministic(ad_v3)


def test_duplicate_action_names_break_determinism():
    # a fork whose two branches fire the same action name
    ad = _ad("""activitydiagram nd {
      initial i; fork k; action a1; action a2; join j; final f;
      edge i -> k;
      edge k -> a1;
      edge k -> a2;
      edge a1 -> j;
      edge a2 -> j;
      edge j -> f;
    }""")
    assert is_observably_deterministic(ad) is True  # distinct successors collapse
    nodes = tuple(
        Node(n.id, n.kind, "go", n.effects) if n.kind == "action" else n
        for n in ad.nodes)
    twin = validate_ad(ActivityDiagram("nd", ad.inputs, ad.locals, nodes, ad.edges))
    assert is_observably_deterministic(twin) is False
