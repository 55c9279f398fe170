"""Symbolic activity-diagram diffing against explicit-state ground truth."""

from __future__ import annotations

import pytest

from semdiff.ad import build_explicit_ts, diff, validate_ad
from semdiff.ad.diff import (
    DiffLayers,
    ReplayMismatchError,
    SymbolicTrace,
    addiff,
    backward_fixpoint,
    concretize,
    forward_split,
    initial_diff_states,
    non_correspondence,
    reachable_pairs,
    render_inputs,
    right_deterministic,
    trace_exact,
)
from semdiff.ad.encode import BitBudgetExceededError, encode_product
from semdiff.ad.model import ActivityDiagram, Node
from semdiff.bdd import BddManager, SymbolicSet, VarBundle
from semdiff.oracle import ad_diff_bfs, is_diff_trace
from semdiff.parsing import parse_ad

from conftest import fixture_text


def _ad(text: str) -> ActivityDiagram:
    return validate_ad(parse_ad(text))


def chain(name: str, actions: list[str]) -> ActivityDiagram:
    nodes = "".join(f"action {a}; " for a in actions)
    hops = [f"edge i -> {actions[0]};"]
    hops += [f"edge {a} -> {b};" for a, b in zip(actions, actions[1:])]
    hops.append(f"edge {actions[-1]} -> f;")
    return _ad(f"activitydiagram {name} {{ initial i; {nodes}final f; "
               + " ".join(hops) + " }")


def bank_assignment(bank, cfg):
    """Current-state and input bit assignment for one explicit config."""
    asg = {lvl: eid in cfg.tokens for eid, lvl in bank.tok_cur.items()}
    env = cfg.env()
    for name, b in bank.input_bundles.items():
        asg.update(b.bits_of(env[name]))
    for name, b in bank.loc_cur.items():
        asg.update(b.bits_of(env[name]))
    return asg


# -- encoding agrees with the explicit game ---------------------------


@pytest.mark.parametrize("which", ["ad_v1", "ad_v2", "ad_v3"])
def test_symbolic_enabledness_matches_explicit_ts(which, request):
    ad = request.getfixturevalue(which)
    enc = encode_product(ad, ad)
    ts = build_explicit_ts(ad)
    for i, cfg in enumerate(ts.states):
        explicit = {a for a, _ in ts.steps[i]}
        asg = bank_assignment(enc.left, cfg)
        for a in ad.action_names():
            en = enc.left.en_by_action.get(a, 0)
            assert enc.manager.eval_node(en, asg) == (a in explicit), (cfg, a)


def test_every_fixture_self_diff_is_empty(ad_v1, ad_v2, ad_v3):
    for ad in (ad_v1, ad_v2, ad_v3):
        res = addiff(ad, ad)
        assert not res.has_diffs
        assert res.traces == ()
        assert len(res.action_lists) == 0 and len(res.action_sets) == 0


def test_renamed_copy_has_no_diffs(ad_v1):
    twin = _ad(fixture_text("ad_v1.ad").replace("ad_v1", "ad_other"))
    assert twin.name == "ad_other"
    assert not addiff(ad_v1, twin).has_diffs
    assert not addiff(twin, ad_v1).has_diffs


# -- backward layers ----------------------------------------------------


def test_layer_chain_counts_forcing_distance():
    left = chain("left", ["a", "b", "c", "d"])
    right = chain("right", ["a", "b", "c"])
    enc = encode_product(left, right)
    reach = reachable_pairs(enc)
    layers = backward_fixpoint(enc, non_correspondence(enc, reach), reach, False)
    assert layers.depth() == 3
    init = initial_diff_states(enc, layers)
    m = enc.manager
    assert init
    # the start pair needs all three joint steps, so it enters the
    # chain at the last layer and no earlier
    assert m.band(init, layers.layers[2]) == 0
    assert m.band(init, layers.fixpoint()) == init

    traces = forward_split(enc, layers)
    assert [st.actions for st in traces] == [("a", "b", "c", "d")]
    rep = concretize(enc, traces[0], exact=True)
    assert rep.actions == ("a", "b", "c", "d")
    assert rep.valuation == ()


def test_disjoint_alphabets_diverge_immediately():
    left = chain("left", ["p"])
    right = chain("right", ["q"])
    res = addiff(left, right)
    assert [st.actions for st in res.traces] == [("p",)]
    enc = encode_product(left, right)
    reach = reachable_pairs(enc)
    layers = backward_fixpoint(enc, non_correspondence(enc, reach), reach, False)
    assert layers.depth() == 0


def test_layers_reject_non_monotone_chains():
    m = BddManager()
    m.new_var("x")
    x = m.var(0)
    with pytest.raises(ValueError, match="monotonically"):
        DiffLayers(m, (x, m.bnot(x)))
    with pytest.raises(ValueError, match="repeated"):
        DiffLayers(m, (x, x))


def test_symbolic_trace_shape_is_checked():
    m = BddManager()
    with pytest.raises(ValueError, match="at least one action"):
        SymbolicTrace((), m.true_set, ())
    with pytest.raises(ValueError, match="nonempty"):
        SymbolicTrace(("a",), m.false_set, ())


# -- fixture pairs, frozen against the explicit oracle -------------------


def test_v2_v1_splits_on_the_ticket_threshold(ad_v1, ad_v2):
    res = addiff(ad_v2, ad_v1)
    assert res.semantics == "trace"
    assert [st.actions for st in res.traces] == [
        ("register", "welcome_msg"),
        ("register", "welcome_msg", "accounts"),
        ("register", "welcome_msg", "update"),
    ]
    notes = {e.key.names: e.annotation for e in res.action_lists.entries}
    assert notes[("register", "welcome_msg")] == "tickets ∈ [8..11]"
    assert notes[("register", "welcome_msg", "accounts")] == "tickets ∈ [0..7]"
    assert notes[("register", "welcome_msg", "update")] == "tickets ∈ [0..7]"
    reps = {e.key.names: e.representative for e in res.action_lists.entries}
    assert reps[("register", "welcome_msg")].valuation == (("tickets", 8),)
    assert reps[("register", "welcome_msg", "accounts")].valuation == (("tickets", 0),)


def test_v3_v2_difference_classes(ad_v2, ad_v3):
    res = addiff(ad_v3, ad_v2)
    assert len(res.action_lists) == 6
    assert len(res.action_sets) == 1
    for e in res.action_lists.entries:
        assert e.annotation == "tickets ∈ [0..11]"
    (entry,) = res.action_sets.entries
    assert entry.annotation == "tickets ∈ [0..11]"
    assert entry.key.names == tuple(sorted(set(res.traces[0].actions)))


def test_quiet_directions_stay_quiet(ad_v1, ad_v2, ad_v3):
    assert not addiff(ad_v1, ad_v3).has_diffs
    assert not addiff(ad_v2, ad_v3).has_diffs


# -- initial states the other side cannot pair with ----------------------


WIDE = """activitydiagram wide {
  input x : 0..3;
  initial i; action a; final f;
  edge i -> a; edge a -> f;
}"""

NARROW = """activitydiagram narrow {
  input x : 0..1;
  initial i; action a; final f;
  edge i -> a; edge a -> f;
}"""


def test_unmatched_initial_valuations_diverge_at_the_first_action():
    wide, narrow = _ad(WIDE), _ad(NARROW)
    res = addiff(wide, narrow)
    (st,) = res.traces
    assert st.actions == ("a",)
    m = st.init_inputs.manager
    (xb,) = st.bundles
    assert m.project_values(st.init_inputs.node, xb) == (2, 3)
    (entry,) = res.action_lists.entries
    assert entry.annotation == "x ∈ [2..3]"
    assert entry.representative.valuation == (("x", 2),)
    assert not addiff(narrow, wide).has_diffs


# -- semantics flag -------------------------------------------------------


def nd_twin() -> ActivityDiagram:
    base = _ad("""activitydiagram nd {
      initial i; fork k; action a1; action a2; join j; final f;
      edge i -> k; edge k -> a1; edge k -> a2;
      edge a1 -> j; edge a2 -> j; edge j -> f;
    }""")
    nodes = tuple(Node(n.id, n.kind, "go", n.effects) if n.kind == "action" else n
                  for n in base.nodes)
    return validate_ad(ActivityDiagram("nd", base.inputs, base.locals,
                                       nodes, base.edges))


def test_nondeterministic_right_side_weakens_to_simulation():
    nd = nd_twin()
    single = chain("single", ["go"])
    enc = encode_product(single, nd)
    assert trace_exact(enc, right_deterministic(enc, reachable_pairs(enc))) is False
    res = addiff(single, nd)
    assert res.semantics == "simulation"
    assert not res.has_diffs

    back = addiff(nd, single)
    assert back.semantics == "trace"
    assert [st.actions for st in back.traces] == [("go", "go")]


def test_extra_right_side_inputs_weaken_to_simulation():
    left = chain("left", ["a"])
    right = _ad(NARROW)
    enc = encode_product(left, right)
    assert trace_exact(enc, right_deterministic(enc, reachable_pairs(enc))) is False
    assert addiff(left, right).semantics == "simulation"


# -- input rendering -------------------------------------------------------


SPLIT_GO = """activitydiagram split {
  input x : 0..7;
  initial i; decision d; action go; action other; final f;
  edge i -> d;
  edge d -> go [x < 2 || x >= 6];
  edge d -> other [!(x < 2 || x >= 6)];
  edge go -> f; edge other -> f;
}"""

OTHER_ONLY = """activitydiagram plain {
  input x : 0..7;
  initial i; action other; final f;
  edge i -> other; edge other -> f;
}"""


def test_render_joins_maximal_runs_with_unions():
    res = addiff(_ad(SPLIT_GO), _ad(OTHER_ONLY))
    (st,) = res.traces
    assert st.actions == ("go",)
    assert render_inputs(st) == "x ∈ [0..1] ∪ [6..7]"


def test_render_marks_inexact_products():
    m = BddManager()
    xb = VarBundle("x", 0, 1, (m.new_var(),))
    yb = VarBundle("y", 0, 1, (m.new_var(),))
    diag = m.bor(m.band(m.value_cube(xb, 0), m.value_cube(yb, 0)),
                 m.band(m.value_cube(xb, 1), m.value_cube(yb, 1)))
    st = SymbolicTrace(("a",), SymbolicSet(m, diag), (xb, yb))
    assert render_inputs(st) == "x ∈ [0..1]; y ∈ [0..1] (projection)"


# -- oracle equivalence and replay soundness --------------------------------


def all_pairs(ad_v1, ad_v2, ad_v3):
    ads = [ad_v1, ad_v2, ad_v3]
    return [(a, b) for a in ads for b in ads]


def test_engine_matches_bfs_oracle_on_all_fixture_pairs(ad_v1, ad_v2, ad_v3):
    for left, right in all_pairs(ad_v1, ad_v2, ad_v3):
        res = addiff(left, right)
        oracle = ad_diff_bfs(left, right)
        assert sorted(st.actions for st in res.traces) == sorted(oracle.ql)

        names1 = {v.name for v in left.inputs}
        for st in res.traces:
            m = st.init_inputs.manager
            got = {b.name: m.project_values(st.init_inputs.node, b)
                   for b in st.bundles if b.name in names1}
            assert got == oracle.projections(st.actions)

        assert [e.key.names for e in res.action_sets.entries] == \
            sorted(oracle.qs())


def test_representatives_replay_as_differences(ad_v1, ad_v2, ad_v3):
    for left, right in all_pairs(ad_v1, ad_v2, ad_v3):
        res = addiff(left, right)
        for e in res.action_lists.entries:
            rep = e.representative
            assert is_diff_trace(left, right, dict(rep.valuation), rep.actions)


# -- concretize's own checks -------------------------------------------------


def _pinned(enc, actions: tuple[str, ...], tickets: int) -> SymbolicTrace:
    """A hand-built trace of actions from the one valuation tickets."""
    m = enc.manager
    (b,) = enc.report_bundles
    return SymbolicTrace(actions, SymbolicSet(m, m.value_cube(b, tickets)), enc.report_bundles)


def _mismatch(enc, st: SymbolicTrace) -> str:
    with pytest.raises(ReplayMismatchError) as err:
        concretize(enc, st, exact=True)
    return str(err.value)


def test_a_left_list_the_left_diagram_cannot_take_is_a_mismatch(ad_v1, ad_v2):
    enc = encode_product(ad_v2, ad_v1)
    assert _mismatch(enc, _pinned(enc, ("register", "report"), 8)) == \
        "ad_v2 cannot replay ['register', 'report'] from (('tickets', 8),)"


def test_a_prefix_the_right_diagram_cannot_match_is_a_mismatch(ad_v1, ad_v2):
    # with 8 tickets ad_v1 stops after register; ad_v2 goes on to 12
    enc = encode_product(ad_v2, ad_v1)
    assert _mismatch(enc, _pinned(enc, ("register", "welcome_msg", "reserve"), 8)) == \
        "ad_v1 cannot match the prefix ['register', 'welcome_msg']"


def test_a_list_the_right_diagram_matches_whole_is_a_mismatch(ad_v1, ad_v2):
    enc = encode_product(ad_v2, ad_v1)
    assert _mismatch(enc, _pinned(enc, ("register", "welcome_msg"), 0)) == \
        "ad_v1 matches the whole of ['register', 'welcome_msg']"


def test_a_valuation_with_two_left_starts_is_a_mismatch(ad_v1, ad_v2, monkeypatch):
    starts = diff.initial_configs
    monkeypatch.setattr(diff, "initial_configs", lambda ad, pinned: starts(ad, pinned) * 2)
    enc = encode_product(ad_v2, ad_v1)
    assert _mismatch(enc, _pinned(enc, ("register", "welcome_msg"), 8)) == \
        "ad_v2: 2 initial states for (('tickets', 8),)"


def test_the_right_prefix_is_checked_under_simulation_too(monkeypatch):
    # the right diagram's extra input keeps this direction at simulation;
    # every proper prefix of a split list is still a run of joint steps
    left = chain("left", ["a", "b"])
    right = _ad("""activitydiagram right {
      input x : 0..1;
      initial i; action a; action c; final f;
      edge i -> a; edge a -> c; edge c -> f;
    }""")
    res = addiff(left, right)
    assert res.semantics == "simulation"
    assert [st.actions for st in res.traces] == [("a", "b")]
    steps = diff.observable_steps
    monkeypatch.setattr(diff, "observable_steps",
                        lambda ad, c: [] if ad is right else steps(ad, c))
    with pytest.raises(ReplayMismatchError) as err:
        addiff(left, right)
    assert str(err.value) == "right cannot match the prefix ['a']"


# -- resource guard ----------------------------------------------------------


def test_bit_budget_is_enforced(ad_v1, ad_v2):
    with pytest.raises(BitBudgetExceededError, match="budget"):
        encode_product(ad_v1, ad_v2, bit_budget=3)
    with pytest.raises(BitBudgetExceededError):
        addiff(ad_v1, ad_v2, bit_budget=3)
