"""The quantifiers' next-level table against the truth-table oracle.

Each quantified level set gets one table, built when the set is first
used, that covers the levels up to its deepest member.  A variable made
later, and a terminal, sit past the table's end.  exists, and_exists
and branching must read such levels as having nothing left to quantify
below them.
"""

from __future__ import annotations

import random

import pytest

from semdiff.bdd import FALSE, TRUE, BddManager
from test_bdd_branching import branching_mask
from ttable import eval_bdd, eval_mask, exists_mask, full_mask, gen_formula, var_mask

EARLY = 3  # variables made before the level sets are interned
NVARS = 7


def node_mask(m: BddManager, u: int, n: int = NVARS) -> int:
    out = 0
    for i in range(1 << n):
        if m.eval_node(u, {lvl: bool((i >> lvl) & 1) for lvl in range(n)}):
            out |= 1 << i
    return out


def test_the_table_maps_each_level_to_the_next_quantified_one():
    m = BddManager()
    for i in range(NVARS):
        m.new_var(f"v{i}")
    _, qs, table = m._intern_qset([4, 1, 1])
    assert qs == (1, 4)
    assert table == {0: 1, 1: 1, 2: 4, 3: 4, 4: 4}
    # one table per level set, whatever the argument's order
    assert m._intern_qset((1, 4))[2] is table
    assert m._intern_qset([])[2] == {}


@pytest.mark.parametrize("seed", range(6))
def test_level_sets_interned_before_later_variables(seed):
    rng = random.Random(f"qtable:{seed}")
    m = BddManager()
    early = [m.var(m.new_var(f"v{i}")) for i in range(EARLY)]
    sets = [tuple(sorted(rng.sample(range(EARLY), rng.randint(0, EARLY)))) for _ in range(4)]
    for levels in sets:
        # intern each set through every entry point while only the
        # early variables exist
        u = eval_bdd(gen_formula(rng, EARLY, 3), m, early)
        m.exists(u, levels)
        m.and_exists(u, early[0], levels)
        m.branching(u, levels)
    vars_ = early + [m.var(m.new_var(f"v{i}")) for i in range(EARLY, NVARS)]
    full = full_mask(NVARS)
    masks = [var_mask(lvl, NVARS) for lvl in range(NVARS)]
    for _ in range(30):
        fa, fb = gen_formula(rng, NVARS, 5), gen_formula(rng, NVARS, 5)
        a, b = eval_bdd(fa, m, vars_), eval_bdd(fb, m, vars_)
        ma, mb = eval_mask(fa, masks, full), eval_mask(fb, masks, full)
        for levels in sets:
            assert node_mask(m, m.exists(a, levels)) == exists_mask(ma, levels, NVARS)
            assert node_mask(m, m.and_exists(a, b, levels)) == \
                exists_mask(ma & mb, levels, NVARS)
            assert node_mask(m, m.branching(a, levels)) == \
                branching_mask(ma, levels, NVARS)
    m.audit()


def test_nodes_past_the_table_end_are_left_alone():
    m = BddManager()
    v = [m.var(m.new_var(f"v{i}")) for i in range(NVARS)]
    deep = m.bxor(v[4], m.band(v[5], v[6]))
    # every node of deep lies past the end of the table for {0, 2}
    assert m.exists(deep, [0, 2]) == deep
    assert m.and_exists(deep, v[5], [0, 2]) == m.band(deep, v[5])
    assert m.branching(deep, [0, 2]) == deep
    # a node above the table's end whose children lie past it
    top = m.band(v[1], deep)
    assert m.exists(top, [0, 1]) == deep
    assert m.exists(top, [0]) == top
    assert m.and_exists(top, m.bor(v[0], v[6]), [0, 1]) == deep
    # v2 is free under top, so each of its solutions makes two
    assert m.branching(top, [1, 2]) == deep
    assert m.branching(top, [1]) == FALSE
    # terminals are past every table's end
    for levels in ([], [0], [0, 3, 6]):
        assert m.exists(TRUE, levels) == TRUE
        assert m.and_exists(TRUE, TRUE, levels) == TRUE
        assert m.branching(TRUE, levels) == (TRUE if levels else FALSE)
