"""The op-specialised kernel and the order-checked rename against the
truth-table oracle of tests/ttable.py.

Every result is compared twice: its truth table (read off the BDD by
evaluation) with the mask oracle, and its root with the node the same
manager builds for that mask from minterms.  The second check catches
results that compute the right function through a malformed node, such
as a node whose child sits at its own level.
"""

from __future__ import annotations

import random

import pytest

from semdiff.ad.diff import addiff
from semdiff.bdd import FALSE, BddManager
from ttable import (eval_bdd, eval_mask, exists_mask, full_mask, gen_formula,
                    var_mask)

NVARS = 6
SEEDS = (0, 1, 2, 7)


def fresh(n: int = NVARS) -> tuple[BddManager, list[int]]:
    m = BddManager()
    return m, [m.var(m.new_var(f"v{i}")) for i in range(n)]


def node_mask(m: BddManager, u: int, n: int = NVARS) -> int:
    out = 0
    for i in range(1 << n):
        if m.eval_node(u, {lvl: bool((i >> lvl) & 1) for lvl in range(n)}):
            out |= 1 << i
    return out


def mask_node(m: BddManager, mask: int, n: int = NVARS) -> int:
    """The canonical node of a mask, as a disjunction of minterm cubes."""
    node = FALSE
    for i in range(1 << n):
        if (mask >> i) & 1:
            node = m.bor(node, m.cube({lvl: bool((i >> lvl) & 1) for lvl in range(n)}))
    return node


def renamed_mask(mask: int, mapping: dict[int, int], n: int = NVARS) -> int:
    """Truth table of u with each level `old` read as level mapping[old]."""
    out = 0
    for i in range(1 << n):
        src = 0
        for lvl in range(n):
            if (i >> mapping.get(lvl, lvl)) & 1:
                src |= 1 << lvl
        if (mask >> src) & 1:
            out |= 1 << i
    return out


def random_cases(seed: int, count: int, nvars: int = 4):
    """(rng, manager, node, mask) for random formulas over levels 0..nvars-1 of
    a NVARS-level manager."""
    rng = random.Random(seed)
    m, vars_ = fresh()
    full = full_mask(NVARS)
    masks = [var_mask(lvl, NVARS) for lvl in range(NVARS)]
    for _ in range(count):
        ast = gen_formula(rng, nvars, rng.randint(1, 5))
        yield rng, m, eval_bdd(ast, m, vars_), eval_mask(ast, masks, full)


def monotone_map(rng: random.Random, nvars: int = 4) -> dict[int, int]:
    """Levels 0..nvars-1 spread, in order, over 0..NVARS-1; identity
    entries are sometimes left out."""
    targets = sorted(rng.sample(range(NVARS), nvars))
    return {old: new for old, new in enumerate(targets)
            if old != new or rng.random() < 0.5}


def breaking_map(rng: random.Random, nvars: int = 4) -> dict[int, int]:
    """A permutation that reverses at least one pair of levels 0..nvars-1,
    or a map sending two of them to one level."""
    if rng.random() < 0.3:
        a, b = rng.sample(range(nvars), 2)
        return {a: b}
    while True:
        targets = rng.sample(range(NVARS), nvars)
        if targets != sorted(targets):
            return dict(enumerate(targets))


def check_rename(m: BddManager, u: int, mask: int, mapping: dict[int, int]) -> None:
    r = m.rename(u, mapping)
    want = renamed_mask(mask, mapping)
    assert node_mask(m, r) == want
    assert r == mask_node(m, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_order_preserving_rename_matches_permuted_truth_table(seed, monkeypatch):
    def refuse(self, f, g, h):
        raise AssertionError("an order-preserving rename reached ite")

    cases = list(random_cases(seed, 40))
    monkeypatch.setattr(BddManager, "ite", refuse)
    for rng, m, u, mask in cases:
        check_rename(m, u, mask, monotone_map(rng))
    m.audit()


@pytest.mark.parametrize("seed", SEEDS)
def test_order_breaking_rename_falls_back_to_ite(seed, monkeypatch):
    calls = []
    ite = BddManager.ite

    def counted(self, f, g, h):
        calls.append(f)
        return ite(self, f, g, h)

    cases = list(random_cases(seed, 40))
    monkeypatch.setattr(BddManager, "ite", counted)
    for rng, m, u, mask in cases:
        check_rename(m, u, mask, breaking_map(rng))
        # nodes the ordered pass made before giving up are well formed
        m.audit()
    assert calls, "no rename fell back"


def test_fallback_leaves_a_sound_table():
    m, (x0, x1, x2, *_) = fresh()
    u = m.band(x0, m.bor(x1, x2))
    # the ordered pass rebuilds x2 at level 0, below which x1 | x2 cannot sit
    r = m.rename(u, {0: 2, 2: 0})
    assert r == m.band(x2, m.bor(x1, x0))
    m.audit()
    # a map onto a level the node's child still occupies
    r = m.rename(u, {0: 1})
    assert r == x1
    m.audit()


def test_engine_renames_never_reach_ite(monkeypatch, ad_v1, ad_v2, ad_v3):
    def refuse(self, f, g, h):
        raise AssertionError("an engine rename reached ite")

    monkeypatch.setattr(BddManager, "ite", refuse)
    for left in (ad_v1, ad_v2, ad_v3):
        for right in (ad_v1, ad_v2, ad_v3):
            addiff(left, right)


@pytest.mark.parametrize("seed", SEEDS)
def test_apply_ops_match_the_truth_table(seed):
    # band, bor and bxor on the same operand pairs, in shuffled order, so
    # a table shared between two ops answers with the other op's result
    cases = list(random_cases(seed, 30))
    m = cases[0][1]
    full = full_mask(NVARS)
    ops = [(m.band, lambda a, b: a & b), (m.bor, lambda a, b: a | b),
           (m.bxor, lambda a, b: a ^ b)]
    rng = random.Random(seed)
    for (_, _, a, ma), (_, _, b, mb) in zip(cases, cases[1:]):
        for op, want in rng.sample(ops, len(ops)):
            r = op(a, b)
            assert node_mask(m, r) == want(ma, mb)
            assert r == mask_node(m, want(ma, mb))
            assert op(b, a) == r
        assert m.bdiff(a, b) == mask_node(m, ma & (full ^ mb))
    m.audit()


@pytest.mark.parametrize("seed", SEEDS)
def test_bnot_is_a_memoised_involution(seed):
    full = full_mask(NVARS)
    cases = list(random_cases(seed, 40, nvars=NVARS))
    m = cases[0][1]
    for _, _, u, mask in cases:
        n = m.bnot(u)
        assert node_mask(m, n) == full ^ mask
        assert n == mask_node(m, full ^ mask)
        assert m.bnot(n) == u
        assert m.bnot(m.bnot(n)) == n
    m.audit()


@pytest.mark.parametrize("seed", SEEDS)
def test_and_exists_matches_the_mask_oracle(seed):
    cases = list(random_cases(seed, 40, nvars=NVARS))
    m = cases[0][1]
    rng = random.Random(seed)
    for (_, _, a, ma), (_, _, b, mb) in zip(cases, cases[1:]):
        levels = sorted(rng.sample(range(NVARS), rng.randint(0, 4)))
        want = exists_mask(ma & mb, levels, NVARS)
        r = m.and_exists(a, b, levels)
        assert node_mask(m, r) == want
        assert r == mask_node(m, want)
        assert r == m.exists(m.band(a, b), levels)
    m.audit()


def test_cache_bookkeeping_spans_every_table():
    m, vars_ = fresh()
    a, b = m.bor(vars_[0], vars_[1]), m.bxor(vars_[2], vars_[3])
    m.band(a, b)
    m.bnot(a)
    m.exists(b, [2])
    m.and_exists(a, b, [0])
    assert m.audit()["cache_entries"] >= 6
    m.clear_cache()
    assert m.audit()["cache_entries"] == 0
