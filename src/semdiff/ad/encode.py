"""Symbolic product encoding of two activity diagrams.

State bits per diagram: one token bit per edge plus a binary bundle per
local variable, each with an adjacent next-state copy; bits at the same
position of the two diagrams' edges and locals are interleaved, so
relations between a left and a right counter stay small. Inputs get one
copy only (they are read-only), shared-name inputs interleaved across
the two diagrams, and sit at the top of the order. The per-action
transition relation is silent closure followed by one action firing;
the closure is composed by constant substitution, which works because
silent firings write nothing but token-bit constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

from ..bdd import FALSE, TRUE, BddManager, VarBundle
from .model import (ACTION, DECISION, FINAL, FORK, INITIAL, JOIN, MERGE,
                    ActivityDiagram, Node, RangeViolationError, _apply_effects,
                    eval_bool, expr_vars)

DEFAULT_BIT_BUDGET = 64


class BitBudgetExceededError(Exception):
    """One diagram's encoded state does not fit the bit budget."""


def _width(lo: int, hi: int) -> int:
    return (hi - lo).bit_length()


def _state_bits(ad: ActivityDiagram) -> int:
    return (sum(_width(v.lo, v.hi) for v in ad.variables()) + len(ad.edges))


@dataclass
class AdBank:
    """One diagram's variable banks and compiled relations."""

    ad: ActivityDiagram
    input_bundles: dict[str, VarBundle] = field(default_factory=dict)
    tok_cur: dict[str, int] = field(default_factory=dict)
    tok_next: dict[str, int] = field(default_factory=dict)
    loc_cur: dict[str, VarBundle] = field(default_factory=dict)
    loc_next: dict[str, VarBundle] = field(default_factory=dict)
    input_domain: int = TRUE
    init: int = FALSE
    quiescent: int = TRUE
    t_by_action: dict[str, int] = field(default_factory=dict)
    en_by_action: dict[str, int] = field(default_factory=dict)

    def input_levels(self) -> list[int]:
        return [lvl for b in self.input_bundles.values() for lvl in b.levels]

    def cur_state_levels(self) -> list[int]:
        out = list(self.tok_cur.values())
        for b in self.loc_cur.values():
            out.extend(b.levels)
        return out

    def next_levels(self) -> list[int]:
        out = list(self.tok_next.values())
        for b in self.loc_next.values():
            out.extend(b.levels)
        return out

    def cur_to_next(self) -> dict[int, int]:
        ren = {self.tok_cur[e]: self.tok_next[e] for e in self.tok_cur}
        for name, b in self.loc_cur.items():
            ren.update(dict(zip(b.levels, self.loc_next[name].levels)))
        return ren

    def next_to_cur(self) -> dict[int, int]:
        return {n: c for c, n in self.cur_to_next().items()}

    def bundle_for(self, name: str) -> VarBundle:
        if name in self.input_bundles:
            return self.input_bundles[name]
        return self.loc_cur[name]


@dataclass
class ProductEncoding:
    manager: BddManager
    alphabet: tuple[str, ...]
    left: AdBank
    right: AdBank
    input_match: int  # shared-name inputs agree by value
    # report-facing input bundles: the left diagram's inputs in
    # declaration order, then inputs only the right diagram declares
    _left_order: tuple[str, ...] = ()
    input_bundles_left: dict[str, VarBundle] = field(default_factory=dict)
    input_bundles_right_only: list[VarBundle] = field(default_factory=list)

    def report_bundles(self) -> list[VarBundle]:
        out = [self.input_bundles_left[name] for name in self._left_order]
        out.extend(self.input_bundles_right_only)
        return out

    def report_levels(self) -> set[int]:
        return {lvl for b in self.report_bundles() for lvl in b.levels}


def encode_product(ad1: ActivityDiagram, ad2: ActivityDiagram,
                   bit_budget: int = DEFAULT_BIT_BUDGET) -> ProductEncoding:
    for ad in (ad1, ad2):
        bits = _state_bits(ad)
        if bits > bit_budget:
            raise BitBudgetExceededError(
                f"{ad.name} needs {bits} state bits, budget is {bit_budget}")

    m = BddManager()
    left = AdBank(ad1)
    right = AdBank(ad2)

    alphabet = tuple(sorted(set(ad1.action_names()) | set(ad2.action_names())))
    _allocate_inputs(m, left, right)
    _allocate_state(m, left, right)

    enc = ProductEncoding(m, alphabet, left, right, TRUE)
    enc._left_order = tuple(v.name for v in ad1.inputs)
    enc.input_bundles_left = dict(left.input_bundles)
    shared = {v.name for v in ad1.inputs} & {v.name for v in ad2.inputs}
    enc.input_bundles_right_only = [right.input_bundles[v.name]
                                    for v in ad2.inputs if v.name not in shared]
    enc.input_match = _input_match(m, left, right, shared)

    for bank in (left, right):
        _compile_bank(m, bank)
    return enc


def _allocate_inputs(m: BddManager, left: AdBank, right: AdBank) -> None:
    ad1, ad2 = left.ad, right.ad
    names2 = {v.name: v for v in ad2.inputs}
    done2: set[str] = set()

    def alloc(bank: AdBank, decl, bits: list[int]) -> None:
        bank.input_bundles[decl.name] = VarBundle(decl.name, decl.lo, decl.hi, tuple(bits))

    for v1 in ad1.inputs:
        v2 = names2.get(v1.name)
        w1 = _width(v1.lo, v1.hi)
        w2 = _width(v2.lo, v2.hi) if v2 else 0
        bits1: list[int] = []
        bits2: list[int] = []
        for j in range(max(w1, w2)):  # interleave shared inputs bit by bit
            if j < w1:
                bits1.append(m.new_var(f"{ad1.name}.{v1.name}.{j}"))
            if j < w2:
                bits2.append(m.new_var(f"{ad2.name}.{v1.name}.{j}"))
        alloc(left, v1, bits1)
        if v2:
            alloc(right, v2, bits2)
            done2.add(v1.name)
    for v2 in ad2.inputs:
        if v2.name in done2:
            continue
        bits = [m.new_var(f"{ad2.name}.{v2.name}.{j}") for j in range(_width(v2.lo, v2.hi))]
        alloc(right, v2, bits)


def _allocate_state(m: BddManager, left: AdBank, right: AdBank) -> None:
    # token bits, then locals; the two diagrams interleaved, locals at
    # the same position bit by bit; every current bit immediately
    # followed by its next-state copy
    e1, e2 = left.ad.edges, right.ad.edges
    for i in range(max(len(e1), len(e2))):
        for bank, edges in ((left, e1), (right, e2)):
            if i < len(edges):
                e = edges[i]
                bank.tok_cur[e.id] = m.new_var(f"{bank.ad.name}.tok.{e.id}")
                bank.tok_next[e.id] = m.new_var(f"{bank.ad.name}.tok.{e.id}'")
    l1, l2 = left.ad.locals, right.ad.locals
    for i in range(max(len(l1), len(l2))):
        pair = [(bank, decls[i]) for bank, decls in ((left, l1), (right, l2))
                if i < len(decls)]
        cur: list[list[int]] = [[] for _ in pair]
        nxt: list[list[int]] = [[] for _ in pair]
        for j in range(max(_width(v.lo, v.hi) for _, v in pair)):
            for k, (bank, v) in enumerate(pair):
                if j < _width(v.lo, v.hi):
                    cur[k].append(m.new_var(f"{bank.ad.name}.{v.name}.{j}"))
                    nxt[k].append(m.new_var(f"{bank.ad.name}.{v.name}.{j}'"))
        for (bank, v), c, n in zip(pair, cur, nxt):
            bank.loc_cur[v.name] = VarBundle(v.name, v.lo, v.hi, tuple(c))
            bank.loc_next[v.name] = VarBundle(v.name, v.lo, v.hi, tuple(n))


def _input_match(m: BddManager, left: AdBank, right: AdBank, shared: set[str]) -> int:
    eq = TRUE
    for name in sorted(shared):
        b1, b2 = left.input_bundles[name], right.input_bundles[name]
        lo, hi = max(b1.lo, b2.lo), min(b1.hi, b2.hi)
        agree = FALSE
        for v in range(lo, hi + 1):
            agree = m.bor(agree, m.band(m.value_cube(b1, v), m.value_cube(b2, v)))
        eq = m.band(eq, agree)
    return eq


def _compile_bool(m: BddManager, bank: AdBank, expr: object) -> int:
    """Truth set of a guard over current-state bits, by enumerating the
    expression's support valuations through the concrete evaluator."""
    names = sorted(expr_vars(expr))
    bundles = [bank.bundle_for(n) for n in names]
    node = FALSE
    for values in iter_product(*(range(b.lo, b.hi + 1) for b in bundles)):
        env = dict(zip(names, values))
        if eval_bool(expr, env):
            row = TRUE
            for b, v in zip(bundles, values):
                row = m.band(row, m.value_cube(b, v))
            node = m.bor(node, row)
    return node


def _frame_tokens(m: BddManager, bank: AdBank, touched: set[str]) -> int:
    frame = TRUE
    for e in bank.ad.edges:
        if e.id in touched:
            continue
        same = m.bnot(m.bxor(m.var(bank.tok_cur[e.id]), m.var(bank.tok_next[e.id])))
        frame = m.band(frame, same)
    return frame


def _frame_locals(m: BddManager, bank: AdBank, touched: set[str]) -> int:
    frame = TRUE
    for name, cur in bank.loc_cur.items():
        if name in touched:
            continue
        nxt = bank.loc_next[name]
        for c, n in zip(cur.levels, nxt.levels):
            frame = m.band(frame, m.bnot(m.bxor(m.var(c), m.var(n))))
    return frame


def _effects_relation(m: BddManager, bank: AdBank, node: Node) -> int:
    if not node.effects:
        return _frame_locals(m, bank, set())
    targets = [var for var, _ in node.effects]
    involved = sorted(set(targets).union(*(expr_vars(x) for _, x in node.effects)))
    bundles = [bank.bundle_for(n) for n in involved]
    rel = FALSE
    for values in iter_product(*(range(b.lo, b.hi + 1) for b in bundles)):
        env = dict(zip(involved, values))
        try:
            final = _apply_effects(bank.ad, node, env)
        except RangeViolationError:
            continue  # that valuation never fires symbolically
        row = TRUE
        for b, v in zip(bundles, values):
            row = m.band(row, m.value_cube(b, v))
        for t in targets:
            row = m.band(row, m.value_cube(bank.loc_next[t], final[t]))
        rel = m.bor(rel, row)
    return m.band(rel, _frame_locals(m, bank, set(targets)))


def _action_fire(m: BddManager, bank: AdBank, node: Node) -> int:
    e_in = bank.ad.in_edges(node.id)[0].id
    e_out = bank.ad.out_edges(node.id)[0].id
    cond = m.var(bank.tok_cur[e_in])
    if e_out != e_in:
        cond = m.band(cond, m.nvar(bank.tok_cur[e_out]))  # unsafe firings are absent
    after = {bank.tok_next[e_in]: e_out == e_in, bank.tok_next[e_out]: True}
    fire = m.band(cond, m.cube(after))
    fire = m.band(fire, _frame_tokens(m, bank, {e_in, e_out}))
    return m.band(fire, _effects_relation(m, bank, node))


def _silent_firings(m: BddManager, bank: AdBank) -> list[tuple[int, dict[int, bool]]]:
    """(enabling condition over current bits, token-bit writes) per
    silent firing, mirroring the explicit game rule for rule."""
    ad = bank.ad
    out: list[tuple[int, dict[int, bool]]] = []

    def writes(consume: list[str], produce: list[str]) -> dict[int, bool]:
        w = {bank.tok_cur[e]: False for e in consume}
        for e in produce:
            w[bank.tok_cur[e]] = True
        return w

    def safety(cond: int, consume: list[str], produce: list[str]) -> int:
        for e in produce:
            if e not in consume:
                cond = m.band(cond, m.nvar(bank.tok_cur[e]))
        return cond

    for n in ad.nodes:
        ins = [e.id for e in ad.in_edges(n.id)]
        outs = [e.id for e in ad.out_edges(n.id)]
        if n.kind == FINAL:
            for e in ins:
                out.append((m.var(bank.tok_cur[e]), writes([e], [])))
        elif n.kind == DECISION:
            e_in = ins[0]
            for edge in ad.out_edges(n.id):
                cond = m.band(m.var(bank.tok_cur[e_in]),
                              _compile_bool(m, bank, edge.guard))
                cond = safety(cond, [e_in], [edge.id])
                out.append((cond, writes([e_in], [edge.id])))
        elif n.kind == MERGE:
            e_out = outs[0]
            for e_in in ins:
                cond = safety(m.var(bank.tok_cur[e_in]), [e_in], [e_out])
                out.append((cond, writes([e_in], [e_out])))
        elif n.kind == FORK:
            e_in = ins[0]
            cond = safety(m.var(bank.tok_cur[e_in]), [e_in], outs)
            out.append((cond, writes([e_in], outs)))
        elif n.kind == JOIN:
            cond = TRUE
            for e in ins:
                cond = m.band(cond, m.var(bank.tok_cur[e]))
            cond = safety(cond, ins, outs)
            out.append((cond, writes(ins, outs)))
    return out


def _compose_closure(m: BddManager, base: int,
                     firings: list[tuple[int, dict[int, bool]]]) -> int:
    # Prepend silent steps: if firing f rewrites state s to s[w], then
    # T(s, .) includes cond_f(s) and T(s[w], .). Substituting the write
    # constants into T is exactly restrict. Terminates because silent
    # chains are acyclic.
    t = base
    while True:
        new = t
        for cond, w in firings:
            new = m.bor(new, m.band(cond, m.restrict(new, w)))
        if new == t:
            return t
        t = new


def _compile_bank(m: BddManager, bank: AdBank) -> None:
    ad = bank.ad
    dom = TRUE
    for b in bank.input_bundles.values():
        dom = m.band(dom, m.domain_cube(b))
    bank.input_domain = dom

    firings = _silent_firings(m, bank)
    quiet = TRUE
    for cond, _ in firings:
        quiet = m.band(quiet, m.bnot(cond))
    bank.quiescent = quiet

    fires: dict[str, int] = {}
    for n in ad.nodes:
        if n.kind != ACTION:
            continue
        fires[n.name()] = m.bor(fires.get(n.name(), FALSE), _action_fire(m, bank, n))
    nxt = bank.next_levels()
    for name, fire in sorted(fires.items()):
        t = _compose_closure(m, m.band(quiet, fire), firings)
        bank.t_by_action[name] = t
        bank.en_by_action[name] = m.exists(t, nxt)

    init_node = next(n for n in ad.nodes if n.kind == INITIAL)
    start = ad.out_edges(init_node.id)[0].id
    toks = {bank.tok_cur[e.id]: (e.id == start) for e in ad.edges}
    init = m.cube(toks)
    for v in ad.locals:
        init = m.band(init, m.value_cube(bank.loc_cur[v.name], v.init))
    bank.init = m.band(init, dom)

