"""Unit tests for the ROBDD engine.

The heavy randomized audit lives in ttable.run_random_suite and is
exercised at full size by the acceptance suite; here a short run plus
targeted properties keep failures easy to localize.
"""

import random

import pytest

from semdiff.bdd import (
    FALSE,
    TRUE,
    BddError,
    BddManager,
    EmptySetError,
    IndexOutOfRangeError,
    ManagerMismatchError,
    SymbolicSet,
    VarBundle,
    mk_var,
)
from ttable import eval_bdd, eval_mask, full_mask, gen_formula, run_random_suite, var_mask


@pytest.fixture()
def m():
    man = BddManager()
    for name in ("x", "y", "z", "w"):
        man.new_var(name)
    return man


def random_nodes(m, nvars, count, seed, depth=4):
    rng = random.Random(seed)
    vars_ = [m.var(lvl) for lvl in range(nvars)]
    return [eval_bdd(gen_formula(rng, nvars, depth), m, vars_) for _ in range(count)]


def all_assignments(nvars):
    for bits in range(1 << nvars):
        yield {lvl: bool((bits >> lvl) & 1) for lvl in range(nvars)}


# -- constants and variables ------------------------------------------


def test_terminal_nodes(m):
    assert TRUE == 1 and FALSE == 0
    assert m.true_set.node == TRUE
    assert not m.false_set
    assert m.true_set


def test_var_and_nvar_are_complements(m):
    x = m.var(0)
    assert m.nvar(0) == m.bnot(x)
    assert m.eval_node(x, {0: True})
    assert not m.eval_node(x, {0: False})


def test_unknown_level_rejected(m):
    with pytest.raises(IndexOutOfRangeError):
        m.var(99)


def test_var_names(m):
    assert m.var_name(2) == "z"
    lvl = m.new_var()
    assert m.var_name(lvl) == f"v{lvl}"


# -- boolean algebra ---------------------------------------------------


def test_de_morgan_and_friends(m):
    nodes = random_nodes(m, 4, 30, seed=11)
    for a, b in zip(nodes, nodes[1:]):
        assert m.bnot(m.band(a, b)) == m.bor(m.bnot(a), m.bnot(b))
        assert m.bnot(m.bor(a, b)) == m.band(m.bnot(a), m.bnot(b))
        assert m.bnot(m.bnot(a)) == a
        assert m.bxor(a, b) == m.bor(m.bdiff(a, b), m.bdiff(b, a))
        assert m.ite(a, b, b) == b
    m.audit()


def test_distributivity(m):
    a, b, c = random_nodes(m, 4, 3, seed=12)
    assert m.band(a, m.bor(b, c)) == m.bor(m.band(a, b), m.band(a, c))
    assert m.bor(a, m.band(b, c)) == m.band(m.bor(a, b), m.bor(a, c))


def test_canonicity_collapses_equivalent_forms(m):
    x, y = m.var(0), m.var(1)
    # absorption and Shannon re-expansion both land on the input node
    assert m.bor(x, m.band(x, y)) == x
    assert m.bor(m.band(x, y), m.band(x, m.bnot(y))) == x
    assert m.ite(x, TRUE, FALSE) == x


def test_eval_requires_path_variables(m):
    x = m.var(0)
    with pytest.raises(BddError, match="unassigned"):
        m.eval_node(x, {1: True})


# -- counting -----------------------------------------------------------


def test_count_sat_complement_sum(m):
    for u in random_nodes(m, 4, 20, seed=13):
        assert m.count_sat(u, range(4)) + m.count_sat(m.bnot(u), range(4)) == 16


def test_count_sat_ignores_missing_levels(m):
    x = m.var(0)
    assert m.count_sat(x, range(4)) == 8
    assert m.count_sat(x, [0]) == 1
    assert m.count_sat(TRUE, []) == 1
    assert m.count_sat(FALSE, range(4)) == 0


# -- quantifiers ---------------------------------------------------------


def test_exists_forall_match_shannon_expansion(m):
    for u in random_nodes(m, 4, 20, seed=14):
        for lvl in range(4):
            lo = m.restrict(u, {lvl: False})
            hi = m.restrict(u, {lvl: True})
            assert m.exists(u, [lvl]) == m.bor(lo, hi)
            assert m.forall(u, [lvl]) == m.band(lo, hi)


def test_and_exists_fuses_the_two_steps(m):
    nodes = random_nodes(m, 4, 20, seed=15)
    for a, b in zip(nodes, nodes[1:]):
        assert m.and_exists(a, b, [1, 3]) == m.exists(m.band(a, b), [1, 3])


def test_quantifier_accepts_bundles(m):
    lvls = (m.new_var("k0"), m.new_var("k1"))
    k = VarBundle("k", 0, 3, lvls)
    u = m.band(m.var(0), m.value_cube(k, 2))
    assert m.exists(u, [k]) == m.var(0)


# -- rename and restrict --------------------------------------------------


def test_rename_swap_is_an_involution(m):
    swap = {0: 2, 2: 0}
    for u in random_nodes(m, 4, 15, seed=16):
        assert m.rename(m.rename(u, swap), swap) == u


def test_rename_against_truth_table(m):
    u = random_nodes(m, 3, 1, seed=17)[0]
    r = m.rename(u, {0: 3, 1: 0, 2: 1})
    for env in all_assignments(4):
        moved = {3: env[0], 0: env[1], 1: env[2], 2: env[3]}
        assert m.eval_node(r, moved) == m.eval_node(u, env | {3: env[3]})


def test_restrict_against_truth_table(m):
    for u in random_nodes(m, 4, 10, seed=18):
        v = m.restrict(u, {1: True, 3: False})
        for env in all_assignments(4):
            assert m.eval_node(v, env) == m.eval_node(u, env | {1: True, 3: False})


def test_support(m):
    u = m.bor(m.band(m.var(0), m.var(1)), m.var(3))
    assert m.support(u) == (0, 1, 3)
    assert m.support(TRUE) == ()


# -- integer bundles -------------------------------------------------------


@pytest.fixture()
def tickets(m):
    lvls = tuple(m.new_var(f"t{i}") for i in range(4))
    return VarBundle("tickets", 0, 15, lvls)


def test_bundle_validation():
    with pytest.raises(ValueError, match="empty range"):
        VarBundle("b", 4, 3, (0,))
    with pytest.raises(ValueError, match="cannot hold"):
        VarBundle("b", 0, 7, (0, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        VarBundle("b", 0, 3, (1, 0))


def test_bits_roundtrip(m, tickets):
    for v in range(16):
        assert tickets.decode(tickets.bits_of(v)) == v
    with pytest.raises(ValueError, match="outside"):
        tickets.bits_of(16)


def test_offset_encoding():
    # a lo > 0 bundle stores offsets, not raw values
    b = VarBundle("b", 5, 8, (0, 1))
    assert b.bits_of(5) == {0: False, 1: False}
    assert b.decode({0: True, 1: True}) == 8


def test_domain_cube_counts(m):
    lvls = tuple(m.new_var(f"d{i}") for i in range(3))
    b = VarBundle("d", 0, 4, lvls)  # 5 of 8 bit patterns are legal
    dom = m.domain_cube(b)
    assert m.count_sat(dom, lvls) == 5
    for v in range(5):
        assert m.band(m.value_cube(b, v), dom) == m.value_cube(b, v)


def window(m, tickets, lo, hi):
    node = FALSE
    for v in range(lo, hi + 1):
        node = m.bor(node, m.value_cube(tickets, v))
    return node


def test_pick_one_returns_least_value(m, tickets):
    u = window(m, tickets, 8, 11)
    assert m.pick_one(u, [tickets]) == {"tickets": 8}


def test_pick_least_narrows(m, tickets):
    u = window(m, tickets, 8, 11)
    value, narrowed = m.pick_least(u, tickets)
    assert value == 8
    assert narrowed == m.value_cube(tickets, 8)


def test_project_values(m, tickets):
    assert m.project_values(window(m, tickets, 0, 11), tickets) == tuple(range(12))
    assert m.project_values(window(m, tickets, 8, 11), tickets) == (8, 9, 10, 11)


def test_project_ignores_foreign_levels(m, tickets):
    u = m.band(m.var(0), window(m, tickets, 3, 5))
    assert m.project_values(u, tickets) == (3, 4, 5)


def test_pick_one_is_lexicographic_in_bundle_order(m):
    xb = VarBundle("x", 0, 7, tuple(m.new_var() for _ in range(3)))
    yb = VarBundle("y", 0, 7, tuple(m.new_var() for _ in range(3)))
    u = m.bor(
        m.band(m.value_cube(xb, 3), m.value_cube(yb, 1)),
        m.band(m.value_cube(xb, 2), m.value_cube(yb, 5)),
    )
    assert m.pick_one(u, [xb, yb]) == {"x": 2, "y": 5}
    assert m.pick_one(u, [yb, xb]) == {"y": 1, "x": 3}


def test_picks_on_empty_set_raise(m, tickets):
    with pytest.raises(EmptySetError):
        m.pick_one(FALSE, [tickets])
    with pytest.raises(EmptySetError):
        m.pick_assignment(FALSE)
    with pytest.raises(EmptySetError):
        m.pick_least(FALSE, tickets)


def test_pick_assignment_satisfies(m):
    for u in random_nodes(m, 4, 10, seed=19):
        if u == FALSE:
            continue
        assert m.eval_node(u, m.pick_assignment(u))


# -- SymbolicSet sugar ------------------------------------------------------


def test_set_operators_mirror_manager_ops(m):
    a, b = mk_var(m, 0), mk_var(m, 1)
    assert (a & b).node == m.band(a.node, b.node)
    assert (a | b).node == m.bor(a.node, b.node)
    assert (a ^ b).node == m.bxor(a.node, b.node)
    assert (a - b).node == m.bdiff(a.node, b.node)
    assert (~a).node == m.bnot(a.node)
    assert a != b
    assert a == mk_var(m, 0)
    assert len({a, b, mk_var(m, 0)}) == 2


def test_set_difference_and_truthiness(m):
    a, b = mk_var(m, 0), mk_var(m, 1)
    assert not ((a & b) - a)  # conjunction is contained in each operand
    assert a - (a & b)
    assert not (a & ~a)


def test_cross_manager_operands_rejected(m):
    other = BddManager()
    other.new_var("x")
    with pytest.raises(ManagerMismatchError):
        mk_var(m, 0) & mk_var(other, 0)


# -- bookkeeping ---------------------------------------------------------------


def test_audit_shape(m):
    random_nodes(m, 4, 10, seed=22)
    stats = m.audit()
    assert stats["internal"] == stats["nodes"] - 2
    assert stats["vars"] == m.var_count
    m.clear_cache()
    assert m.audit()["cache_entries"] == 0


def test_random_suite_small():
    stats = run_random_suite(n_formulas=200, max_vars=10, seed=20260817)
    assert stats["formulas"] == 200
    assert stats["quantified"] > 0
