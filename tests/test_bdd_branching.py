"""`BddManager.branching` against brute-force truth tables and against
the per-bit `and_exists` test it replaces.

branching(u, Q) holds at a valuation of the levels outside Q iff u
holds there for at least two valuations of Q.  The brute-force side
counts those valuations per row of the truth table of tests/ttable.py;
the per-bit side is the union over q in Q of ∃Q.(u ∧ q) ∧ ∃Q.(u ∧ ¬q),
since two distinct valuations of Q differ in some q.  Both results are
built in one manager, so equal functions must be the same node.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from semdiff.bdd import FALSE, TRUE, BddManager
from ttable import eval_bdd, gen_formula

NVARS = 6
SEEDS = (0, 1, 2, 3, 7, 11)


def fresh(n: int = NVARS) -> tuple[BddManager, list[int]]:
    m = BddManager()
    return m, [m.var(m.new_var(f"v{i}")) for i in range(n)]


def node_mask(m: BddManager, u: int, n: int = NVARS) -> int:
    out = 0
    for i in range(1 << n):
        if m.eval_node(u, {lvl: bool((i >> lvl) & 1) for lvl in range(n)}):
            out |= 1 << i
    return out


def branching_mask(mask: int, levels, n: int = NVARS) -> int:
    """Rows whose class under the levels holds at least two ones; the
    result does not read the levels, like branching's."""
    q = sum(1 << lvl for lvl in levels)
    count: dict[int, int] = {}
    for i in range(1 << n):
        if (mask >> i) & 1:
            count[i & ~q] = count.get(i & ~q, 0) + 1
    return sum(1 << i for i in range(1 << n) if count.get(i & ~q, 0) >= 2)


def per_bit(m: BddManager, u: int, levels) -> int:
    out = FALSE
    for q in levels:
        out = m.bor(out, m.band(m.and_exists(u, m.var(q), levels),
                                m.and_exists(u, m.nvar(q), levels)))
    return out


def check(m: BddManager, u: int, levels) -> int:
    got = m.branching(u, levels)
    assert node_mask(m, got) == branching_mask(node_mask(m, u), levels)
    assert got == per_bit(m, u, levels)
    return got


@pytest.mark.parametrize("seed", SEEDS)
def test_random_functions_and_level_sets(seed):
    rng = random.Random(seed)
    m, vars_ = fresh()
    for _ in range(60):
        u = eval_bdd(gen_formula(rng, NVARS, rng.randint(1, 6)), m, vars_)
        levels = sorted(rng.sample(range(NVARS), rng.randint(0, NVARS)))
        check(m, u, levels)
    m.audit()


def test_every_level_set_of_a_dense_function():
    rng = random.Random("dense")
    m, vars_ = fresh()
    mask = rng.getrandbits(1 << NVARS)
    u = FALSE
    for i in range(1 << NVARS):
        if (mask >> i) & 1:
            u = m.bor(u, m.cube({lvl: bool((i >> lvl) & 1) for lvl in range(NVARS)}))
    assert node_mask(m, u) == mask
    for k in range(NVARS + 1):
        for levels in combinations(range(NVARS), k):
            check(m, u, levels)


def test_free_level_above_the_root():
    m, v = fresh()
    # v3 ∧ v4 holds for v0 = 0 and v0 = 1: always two valuations of {0}
    u = m.band(v[3], v[4])
    assert check(m, u, [0]) == u
    assert check(m, u, [0, 4]) == v[3]


def test_free_level_between_a_node_and_its_child():
    m, v = fresh()
    # level 2 sits between the node at 1 and its children at 3
    u = m.band(v[1], m.bxor(v[3], v[5]))
    assert check(m, u, [2]) == u
    assert check(m, u, [1, 2]) == m.bxor(v[3], v[5])
    # a node at a quantified level with one child skipping another
    assert check(m, m.bor(v[1], v[3]), [1, 2, 3]) == TRUE


def test_free_level_below_the_last_node():
    m, v = fresh()
    u = m.band(v[0], v[2])
    assert check(m, u, [5]) == u
    assert check(m, u, [2, 5]) == v[0]
    # quantified levels all tested on every path: a single valuation
    assert check(m, u, [0, 2]) == FALSE


def test_terminals_and_the_empty_level_set():
    m, v = fresh()
    assert check(m, FALSE, [0, 1]) == FALSE
    assert check(m, TRUE, [3]) == TRUE
    assert check(m, TRUE, []) == FALSE
    u = m.bor(v[0], v[4])
    assert check(m, u, []) == FALSE
    # one quantified level that u reads but that leaves one solution
    assert check(m, m.bxor(v[0], v[1]), [1]) == FALSE


def test_results_are_memoised_per_level_set():
    m, vars_ = fresh()
    rng = random.Random("memo")
    u = eval_bdd(gen_formula(rng, NVARS, 6), m, vars_)
    first = m.branching(u, [1, 3])
    size = len(m._br)
    assert m.branching(u, (3, 1)) == first
    assert len(m._br) == size
