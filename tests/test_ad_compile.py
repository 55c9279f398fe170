"""The bit-wise expression compiler and the BDD range readers, against
per-value enumeration.

Each case draws small random declarations from `random.Random(seed)`
(negative bounds, spans that are not powers of two, one-value ranges)
and compares the engine's node with a reference written here that
enumerates every valuation through the concrete evaluator.  Both are
built in the same manager, so equal functions must be the same node.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from semdiff.ad.encode import (AdBank, _allocate_inputs, _allocate_state,
                               _compile_bool, _effects_relation, _input_match)
from semdiff.ad.model import (ActivityDiagram, Arith, BoolOp, Cmp, Edge,
                              IntLit, Node, Not, RangeViolationError, Var,
                              VarDecl, _apply_effects, eval_bool, expr_vars,
                              initial_configs, validate_ad)
from semdiff.bdd import FALSE, TRUE, BddManager, EmptySetError, VarBundle

SEEDS = (0, 1, 2, 3, 7, 11)
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


def rand_range(rng: random.Random) -> tuple[int, int]:
    lo = rng.randint(-6, 5)
    return lo, lo + rng.choice((0, 1, 2, 3, 4, 5, 6, 9))


def rand_decls(rng: random.Random, prefix: str, n: int, local: bool) -> tuple[VarDecl, ...]:
    out = []
    for i in range(n):
        lo, hi = rand_range(rng)
        out.append(VarDecl(f"{prefix}{i}", lo, hi, rng.randint(lo, hi) if local else None))
    return tuple(out)


def diagram(name: str, inputs, locals_) -> ActivityDiagram:
    # declarations only: the compiler reads bundles, never nodes or edges
    return ActivityDiagram(name, tuple(inputs), tuple(locals_), (), ())


def banks(ad1: ActivityDiagram, ad2: ActivityDiagram) -> tuple[BddManager, AdBank, AdBank]:
    m = BddManager()
    left, right = AdBank(ad1), AdBank(ad2)
    _allocate_inputs(m, left, right)
    _allocate_state(m, left, right)
    return m, left, right


def rand_int(rng: random.Random, names: list[str], depth: int) -> object:
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.7:
            return Var(rng.choice(names))
        return IntLit(rng.randint(-8, 8))
    return Arith(rng.choice("+-"), rand_int(rng, names, depth - 1),
                 rand_int(rng, names, depth - 1))


def rand_guard(rng: random.Random, names: list[str], depth: int) -> object:
    r = rng.random()
    if depth == 0 or r < 0.45:
        return Cmp(rng.choice(CMP_OPS), rand_int(rng, names, 2), rand_int(rng, names, 1))
    if r < 0.6:
        return Not(rand_guard(rng, names, depth - 1))
    return BoolOp(rng.choice(("&&", "||")), rand_guard(rng, names, depth - 1),
                  rand_guard(rng, names, depth - 1))


# ---------------------------------------------------------------- references

def valuations(bundles):
    return product(*(range(b.lo, b.hi + 1) for b in bundles))


def cubes(m: BddManager, bundles, values) -> int:
    row = TRUE
    for b, v in zip(bundles, values):
        row = m.band(row, m.value_cube(b, v))
    return row


def ref_bool(m: BddManager, bank: AdBank, expr: object) -> int:
    names = sorted(expr_vars(expr))
    bundles = [bank.bundle_for(n) for n in names]
    node = FALSE
    for values in valuations(bundles):
        if eval_bool(expr, dict(zip(names, values))):
            node = m.bor(node, cubes(m, bundles, values))
    return node


def ref_effects(m: BddManager, bank: AdBank, node: Node) -> int:
    targets = {var for var, _ in node.effects}
    involved = sorted(targets.union(*(expr_vars(x) for _, x in node.effects)))
    bundles = [bank.bundle_for(n) for n in involved]
    rel = FALSE
    for values in valuations(bundles):
        try:
            final = _apply_effects(bank.ad, node, dict(zip(involved, values)))
        except RangeViolationError:
            continue
        row = cubes(m, bundles, values)
        for t in sorted(targets):
            row = m.band(row, m.value_cube(bank.loc_next[t], final[t]))
        rel = m.bor(rel, row)
    for name, cur in bank.loc_cur.items():
        if name not in targets:
            for c, n in zip(cur.levels, bank.loc_next[name].levels):
                rel = m.band(rel, m.bnot(m.bxor(m.var(c), m.var(n))))
    return rel


def ref_input_match(m: BddManager, left: AdBank, right: AdBank, shared: set[str]) -> int:
    eq = TRUE
    for name in sorted(shared):
        b1, b2 = left.input_bundles[name], right.input_bundles[name]
        agree = FALSE
        for v in range(max(b1.lo, b2.lo), min(b1.hi, b2.hi) + 1):
            agree = m.bor(agree, m.band(m.value_cube(b1, v), m.value_cube(b2, v)))
        eq = m.band(eq, agree)
    return eq


def probe_values(m: BddManager, u: int, b: VarBundle) -> list[int]:
    return [v for v in range(b.lo, b.hi + 1)
            if m.band(u, m.value_cube(b, v)) != FALSE]


def runs_of(values: list[int]) -> list[tuple[int, int]]:
    runs: list[list[int]] = []
    for v in values:
        if runs and v == runs[-1][1] + 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    return [(lo, hi) for lo, hi in runs]


# --------------------------------------------------------------- compiler

@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_guards_equal_enumeration(seed):
    rng = random.Random(seed)
    for _ in range(12):
        ad = diagram("g", rand_decls(rng, "i", 2, False), rand_decls(rng, "x", 2, True))
        m, bank, _ = banks(ad, diagram("h", (), ()))
        names = [v.name for v in ad.variables()]
        for _ in range(6):
            guard = rand_guard(rng, names, 2)
            assert _compile_bool(m, bank, guard) == ref_bool(m, bank, guard), str(guard)


def test_guard_difference_of_separate_bundles():
    ad = diagram("g", (VarDecl("x", -3, 6),), (VarDecl("y", -5, -1, -2),))
    m, bank, _ = banks(ad, diagram("h", (), ()))
    for op in CMP_OPS:
        guard = Cmp(op, Arith("-", Var("x"), Var("y")), IntLit(4))
        assert _compile_bool(m, bank, guard) == ref_bool(m, bank, guard)
    never = Cmp("<", Var("x"), IntLit(-3))
    assert _compile_bool(m, bank, never) == FALSE


@pytest.mark.parametrize("seed", SEEDS)
def test_effects_relation_equals_enumeration(seed):
    rng = random.Random(100 + seed)
    for _ in range(10):
        ad = diagram("e", rand_decls(rng, "i", 1, False), rand_decls(rng, "x", 3, True))
        m, bank, _ = banks(ad, diagram("h", (), ()))
        names = [v.name for v in ad.variables()]
        local_names = [v.name for v in ad.locals]
        for _ in range(4):
            effects = tuple((rng.choice(local_names), rand_int(rng, names, 2))
                            for _ in range(rng.randint(1, 3)))
            node = Node("n", "action", "a", effects)
            assert _effects_relation(m, bank, node) == ref_effects(m, bank, node)


def test_effects_sequential_writes_and_violations():
    ad = diagram("e", (), (VarDecl("c", 0, 5, 0), VarDecl("d", -2, 2, 0)))
    m, bank, _ = banks(ad, diagram("h", (), ()))
    cases = [
        (("c", Arith("+", Var("c"), IntLit(1))),),                      # overflows at 5
        (("c", Arith("+", Var("c"), IntLit(1))), ("d", Arith("-", Var("c"), IntLit(3)))),
        (("d", Var("c")), ("c", Arith("-", Var("d"), IntLit(1)))),     # reads its own write
        (("c", IntLit(9)),),                                            # never in range
    ]
    for effects in cases:
        node = Node("n", "action", "a", effects)
        assert _effects_relation(m, bank, node) == ref_effects(m, bank, node)
    assert _effects_relation(m, bank, Node("n", "action", "a", (("c", IntLit(9)),))) == FALSE


@pytest.mark.parametrize("seed", SEEDS)
def test_input_match_equals_enumeration(seed):
    rng = random.Random(200 + seed)
    for _ in range(15):
        shared = rand_decls(rng, "s", 2, False)
        other = tuple(VarDecl(v.name, *rand_range(rng)) for v in shared)
        ad1 = diagram("l", shared + rand_decls(rng, "p", 1, False), ())
        ad2 = diagram("r", other + rand_decls(rng, "q", 1, False), ())
        m, left, right = banks(ad1, ad2)
        names = {v.name for v in shared}
        assert _input_match(m, left, right, names) == ref_input_match(m, left, right, names)


def test_input_match_on_disjoint_and_wider_ranges():
    ad1 = diagram("l", (VarDecl("t", 0, 3), VarDecl("u", -4, 20)), ())
    ad2 = diagram("r", (VarDecl("t", 4, 9), VarDecl("u", 2, 2)), ())
    m, left, right = banks(ad1, ad2)
    assert _input_match(m, left, right, {"t"}) == FALSE
    assert _input_match(m, left, right, {"u"}) == ref_input_match(m, left, right, {"u"})
    assert _input_match(m, left, right, {"u"}) != FALSE


# ------------------------------------------------------ reading BDD ranges

def rand_set(rng: random.Random, m: BddManager, xb: VarBundle, yb: VarBundle) -> int:
    u = FALSE
    for _ in range(rng.randint(0, 6)):
        lo = rng.randint(xb.lo, xb.hi)
        hi = rng.randint(lo, min(xb.hi, lo + rng.choice((0, 1, 3, 8))))
        row = FALSE
        for v in range(lo, hi + 1):
            row = m.bor(row, m.value_cube(xb, v))
        if rng.random() < 0.5:
            row = m.band(row, m.value_cube(yb, rng.randint(yb.lo, yb.hi)))
        u = m.bor(u, row)
    return u


@pytest.mark.parametrize("seed", SEEDS)
def test_value_runs_and_picks_equal_probes(seed):
    rng = random.Random(300 + seed)
    for _ in range(25):
        m = BddManager()
        (xlo, xhi), (ylo, yhi), (zlo, zhi) = (rand_range(rng) for _ in range(3))
        xlo, xhi = xlo * 3, xlo * 3 + (xhi - xlo) * 4  # wider spans, holes inside
        bundles = []
        for name, lo, hi in (("x", xlo, xhi), ("y", ylo, yhi), ("z", zlo, zhi)):
            levels = tuple(m.new_var(f"{name}{j}") for j in range((hi - lo).bit_length()))
            bundles.append(VarBundle(name, lo, hi, levels))
        xb, yb, zb = bundles
        u = rand_set(rng, m, xb, yb)
        for b in bundles:  # z is outside the support of u
            want = probe_values(m, m.exists(u, [lvl for lvl in m.support(u)
                                                if lvl not in b.levels]), b)
            assert m.value_runs(u, b) == runs_of(want)
            assert m.project_values(u, b) == tuple(want)
            if not want:
                with pytest.raises(EmptySetError):
                    m.pick_least(u, b)
                continue
            value, narrowed = m.pick_least(u, b)
            assert value == want[0]
            assert narrowed == m.band(u, m.value_cube(b, value))
        if u != FALSE:
            least = min(vals for vals in valuations([yb, xb, zb])
                        if m.band(u, cubes(m, [yb, xb, zb], vals)) != FALSE)
            assert m.pick_one(u, [yb, xb, zb]) == dict(zip("yxz", least))


def test_value_runs_of_full_empty_and_single_value_sets():
    m = BddManager()
    b = VarBundle("t", -7, 5, tuple(m.new_var() for _ in range(4)))
    one = VarBundle("k", 3, 3, ())
    assert m.value_runs(TRUE, b) == [(-7, 5)]
    assert m.value_runs(FALSE, b) == []
    assert m.value_runs(TRUE, one) == [(3, 3)]
    assert m.pick_least(TRUE, one) == (3, TRUE)
    gaps = m.bor(m.value_cube(b, -7), m.bor(m.value_cube(b, -5), m.value_cube(b, 5)))
    assert m.value_runs(gaps, b) == [(-7, -7), (-5, -5), (5, 5)]


# ---------------------------------------------------- pinned start states

PINS = ActivityDiagram(
    "pins", (VarDecl("a", -2, 3), VarDecl("b", 5, 7)), (VarDecl("n", 0, 4, 2),),
    (Node("start", "initial"), Node("go", "action"), Node("done", "final")),
    (Edge("e1", "start", "go"), Edge("e2", "go", "done")))


@pytest.mark.parametrize("seed", SEEDS)
def test_initial_configs_pinned_equal_filtered(seed):
    rng = random.Random(400 + seed)
    ad = validate_ad(PINS)
    full = initial_configs(ad)
    assert initial_configs(ad, {}) == full
    for _ in range(20):
        pinned = {}
        for name in rng.sample(["a", "b", "other"], rng.randint(1, 3)):
            pinned[name] = rng.randint(-4, 9)  # sometimes out of range
        names = {v.name for v in ad.inputs}
        want = [c for c in full
                if all(c.env()[k] == v for k, v in pinned.items() if k in names)]
        assert initial_configs(ad, pinned) == want
    assert initial_configs(ad, {"a": 4}) == []
