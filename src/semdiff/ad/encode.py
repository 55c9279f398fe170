"""Symbolic product encoding of two activity diagrams.

State bits per diagram: one token bit per edge plus a binary bundle per
local variable, each with an adjacent next-state copy.  Each diagram's
token bits follow its net from the start edge (`_edge_order`), so a
copy with renamed nodes and reordered declarations lays its bits out as
the original does; the i-th token bit of one diagram sits next to the
i-th of the other, and locals at the same declaration position are
interleaved bit by bit, so relations between a left and a right counter
stay small.  Inputs get one copy only (they are read-only) and sit at
the top of the order.  An input both diagrams declare with the same
name and range is one bundle that both diagrams read; a shared name
whose ranges differ gets one bundle per diagram, interleaved bit by bit
and paired by value.

The relations are compiled from the diagram's net, the transitions the
explicit game fires.  An action's relation is silent closure followed
by one of its transitions.  The closure is composed once per diagram, by
constant substitution, into a relation from a marking to the quiescent
markings it settles in; that works because silent transitions write
nothing but token-bit constants, and it is why each action's token move
and effects can follow it as they are.

Guards, effects and the pairing of shared inputs are compiled bit-wise,
never by enumerating a domain: an integer expression becomes a
two's-complement vector of BDD nodes, least significant bit first, wide
enough for every value its leaves allow, and a comparison is the sign
bit and zero test of a difference. Each compiled set is conjoined with
the domains of the bundles it reads, so it is exactly the set of
in-range valuations the concrete semantics accepts.
"""

from __future__ import annotations

import sys
from collections import deque

from ..bdd import FALSE, TRUE, BddManager, VarBundle
from ..errors import LimitError
from ..record import field, record as dataclass
from .model import (ActivityDiagram, BoolOp, IntLit, Node, Not, Transition, Var,
                    expr_vars)

DEFAULT_BIT_BUDGET = 64
# The kernel recurses about two frames per BDD level (band and _shannon);
# these frames stay free for the engine's callers and its own calls.
_RESERVED_FRAMES = 100


class BitBudgetExceededError(LimitError):
    """One diagram's encoded state does not fit the bit budget, or the
    pair's product is deeper than the kernel's recursion can descend."""


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
    init: int = FALSE
    t_by_action: dict[str, int] = field(default_factory=dict)
    en_by_action: dict[str, int] = field(default_factory=dict)
    # levels of the input bundles, the current-state bits (tokens, then
    # locals) and their next-state copies, position by position
    input_bits: list[int] = field(default_factory=list)
    cur_bits: list[int] = field(default_factory=list)
    next_bits: list[int] = field(default_factory=list)

    def bundle_for(self, name: str) -> VarBundle:
        if name in self.input_bundles:
            return self.input_bundles[name]
        return self.loc_cur[name]


@dataclass
class ProductEncoding:
    manager: BddManager
    left: AdBank
    right: AdBank
    input_match: int  # shared-name inputs agree by value
    # report-facing input bundles: the left diagram's inputs in
    # declaration order, then inputs only the right diagram declares
    report_bundles: tuple[VarBundle, ...]
    report_levels: frozenset[int]  # the levels of report_bundles
    # (action, left relation, right relation) per shared action, sorted
    moves: list[tuple[str, int, int]]
    to_next: dict[int, int]  # both banks' current bits to their next copies
    to_cur: dict[int, int]  # and back
    # observable steps per (id(diagram), configuration); see ad.diff._memo
    steps: dict = field(default_factory=dict)
    # start configurations per (id(diagram), pinned valuation); see ad.diff._memo
    starts: dict = field(default_factory=dict)
    # least valuation and rendering per input-set node; see ad.diff.concretize
    inputs: dict = field(default_factory=dict)


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

    _allocate_inputs(m, left, right)
    _allocate_state(m, left, right)
    depth = (sys.getrecursionlimit() - _RESERVED_FRAMES) // 2
    if m.var_count > depth:
        raise BitBudgetExceededError(
            f"{ad1.name} and {ad2.name} need {m.var_count} BDD levels, "
            f"the recursion limit allows {depth}")

    shared = {v.name for v in ad1.inputs} & {v.name for v in ad2.inputs}
    # left.input_bundles is filled in declaration order
    report = tuple(left.input_bundles.values()) + tuple(
        right.input_bundles[v.name] for v in ad2.inputs if v.name not in shared)
    match = _input_match(m, left, right, shared)
    for bank in (left, right):
        _compile_bank(m, bank)
    cur, nxt = left.cur_bits + right.cur_bits, left.next_bits + right.next_bits
    return ProductEncoding(
        m, left, right, match, report, frozenset(lvl for b in report for lvl in b.levels),
        [(a, t1, right.t_by_action[a])
         for a, t1 in left.t_by_action.items() if a in right.t_by_action],
        dict(zip(cur, nxt)), dict(zip(nxt, cur)))


def _allocate_inputs(m: BddManager, left: AdBank, right: AdBank) -> None:
    # An input declared alike on both sides is one bundle both banks
    # read; a shared name whose ranges differ gets a bundle per side, the
    # two interleaved bit by bit and paired by value in _input_match.
    ad1, ad2 = left.ad, right.ad
    names2 = {v.name: v for v in ad2.inputs}
    done2: set[str] = set()

    def alloc(bank: AdBank, decl, bits: list[int]) -> None:
        bank.input_bundles[decl.name] = VarBundle(decl.name, decl.lo, decl.hi, tuple(bits))
        bank.input_bits += bits

    for v1 in ad1.inputs:
        v2 = names2.get(v1.name)
        alike = v2 is not None and (v2.lo, v2.hi) == (v1.lo, v1.hi)
        w1 = _width(v1.lo, v1.hi)
        w2 = _width(v2.lo, v2.hi) if v2 and not alike else 0
        bits1: list[int] = []
        bits2: list[int] = []
        for j in range(max(w1, w2)):
            if j < w1:
                bits1.append(m.new_var(f"{ad1.name}.{v1.name}.{j}"))
            if j < w2:
                bits2.append(m.new_var(f"{ad2.name}.{v1.name}.{j}"))
        alloc(left, v1, bits1)
        if v2:
            alloc(right, v2, bits1 if alike else bits2)
            done2.add(v1.name)
    for v2 in ad2.inputs:
        if v2.name in done2:
            continue
        bits = [m.new_var(f"{ad2.name}.{v2.name}.{j}") for j in range(_width(v2.lo, v2.hi))]
        alloc(right, v2, bits)


def _edge_order(ad: ActivityDiagram) -> list[str]:
    """The diagram's edges in structural order.

    e leads to f when a transition consumes e and produces f.  The walk
    goes breadth first from the start edge over the strongly connected
    components of that graph and depth first inside a component, so a
    loop's edges stay together.  Siblings go in the order of the
    transitions that read them (action labels, silent ones last, then
    guards), then of those that write them; only a tie falls back to
    declaration order, never to ids.  Edges the walk does not reach
    come last, in declaration order."""
    ids = [e.id for e in ad.edges]
    if not ids:  # such a diagram may lack the initial node start_edge needs
        return ids
    succ: dict[str, set[str]] = {e: set() for e in ids}
    sigs: dict[str, tuple[list, list]] = {e: ([], []) for e in ids}
    for t in ad.transitions:
        sig = (t.label is None, t.label or "", "" if t.guard is None else str(t.guard))
        for e in t.pre:
            succ[e] |= t.post
            sigs[e][0].append(sig)
        for e in t.post:
            sigs[e][1].append(sig)
    key = {e: (sorted(r), sorted(w), i) for i, (e, (r, w)) in enumerate(sigs.items())}
    kids = {e: sorted(s, key=key.__getitem__) for e, s in succ.items()}
    reach = {e: _reachable(kids, e) for e in ids}
    # e's strongly connected component: e and the edges on a cycle through it
    comp = {e: frozenset({e, *(f for f in reach[e] if e in reach[f])}) for e in ids}

    order: list[str] = []
    placed: set[str] = set()
    entered = {comp[ad.start_edge]}
    queue = deque([ad.start_edge])  # each component's first edge reached
    while queue:
        stack = [queue.popleft()]
        while stack:
            e = stack.pop()
            if e in placed:
                continue
            placed.add(e)
            order.append(e)
            for f in kids[e]:
                if comp[f] not in entered:
                    entered.add(comp[f])
                    queue.append(f)
            stack.extend(f for f in reversed(kids[e]) if f in comp[e])
    return order + [e for e in ids if e not in placed]


def _reachable(kids: dict[str, list[str]], e: str) -> set[str]:
    """The edges some nonempty path from e leads to."""
    seen: set[str] = set()
    todo = [e]
    while todo:
        for f in kids[todo.pop()]:
            if f not in seen:
                seen.add(f)
                todo.append(f)
    return seen


def _allocate_state(m: BddManager, left: AdBank, right: AdBank) -> None:
    # token bits, then locals; the i-th edge of each diagram's structural
    # order next to the other's i-th, locals at the same declaration
    # position bit by bit; every current bit immediately followed by its
    # next-state copy
    e1, e2 = _edge_order(left.ad), _edge_order(right.ad)
    for i in range(max(len(e1), len(e2))):
        for bank, edges in ((left, e1), (right, e2)):
            if i < len(edges):
                e = edges[i]
                bank.tok_cur[e] = m.new_var(f"{bank.ad.name}.tok.{e}")
                bank.tok_next[e] = m.new_var(f"{bank.ad.name}.tok.{e}'")
    for bank in (left, right):
        bank.cur_bits, bank.next_bits = [*bank.tok_cur.values()], [*bank.tok_next.values()]
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
            bank.cur_bits += c
            bank.next_bits += n


# -- bit vectors ------------------------------------------------------
#
# Vectors are two's complement, least significant bit first, and all
# arithmetic is modulo 2**len.  A vector is exact wherever the value it
# denotes fits its width; _bound gives the largest magnitude an
# expression takes on in-range variables, so a width of
# _bound(...).bit_length() + 1 makes every result exact.


def _bound(bank: AdBank, e: object) -> int:
    if isinstance(e, IntLit):
        return abs(e.value)
    if isinstance(e, Var):
        b = bank.bundle_for(e.name)
        return max(abs(b.lo), abs(b.hi))
    return _bound(bank, e.left) + _bound(bank, e.right)


def _const(value: int, width: int) -> list[int]:
    return [TRUE if (value >> i) & 1 else FALSE for i in range(width)]


def _resize(vec: list[int], width: int) -> list[int]:
    return vec[:width] + vec[-1:] * (width - len(vec))


def _add(m: BddManager, a: list[int], b: list[int], subtract: bool = False) -> list[int]:
    carry = TRUE if subtract else FALSE
    out = []
    for x, y in zip(a, b):
        if subtract:
            y = m.bnot(y)
        t = m.bxor(x, y)
        out.append(m.bxor(t, carry))
        carry = m.bor(m.band(x, y), m.band(carry, t))
    return out


def _bundle_vec(m: BddManager, b: VarBundle) -> list[int]:
    """lo + the bundle's offset bits; exact on the bundle's domain."""
    width = max(b.nbits, max(abs(b.lo), abs(b.hi)).bit_length()) + 1
    bits = [m.var(lvl) for lvl in reversed(b.levels)]
    return _add(m, _resize(bits + [FALSE], width), _const(b.lo, width))


def _int_vec(m: BddManager, e: object, env: dict[str, list[int]],
             width: int) -> list[int]:
    if isinstance(e, IntLit):
        return _const(e.value, width)
    if isinstance(e, Var):
        return _resize(env[e.name], width)
    return _add(m, _int_vec(m, e.left, env, width),
                _int_vec(m, e.right, env, width), e.op == "-")


def _eq(m: BddManager, a: list[int], b: list[int]) -> int:
    """Equality of two vectors, each exact at its own width."""
    width = max(len(a), len(b))
    node = TRUE
    for x, y in zip(_resize(a, width), _resize(b, width)):
        node = m.band(node, m.bnot(m.bxor(x, y)))
    return node


def _bool_node(m: BddManager, bank: AdBank, e: object,
               env: dict[str, list[int]]) -> int:
    if isinstance(e, Not):
        return m.bnot(_bool_node(m, bank, e.operand, env))
    if isinstance(e, BoolOp):
        a = _bool_node(m, bank, e.left, env)
        b = _bool_node(m, bank, e.right, env)
        return m.band(a, b) if e.op == "&&" else m.bor(a, b)
    width = (_bound(bank, e.left) + _bound(bank, e.right)).bit_length() + 1
    d = _add(m, _int_vec(m, e.left, env, width),
             _int_vec(m, e.right, env, width), subtract=True)
    lt, eq = d[-1], _eq(m, d, _const(0, width))
    le = m.bor(lt, eq)
    return {"<": lt, "<=": le, ">": m.bnot(le), ">=": m.bnot(lt),
            "==": eq, "!=": m.bnot(eq)}[e.op]


def _domains(m: BddManager, bundles) -> int:
    node = TRUE
    for b in bundles:
        node = m.band(node, m.domain_cube(b))
    return node


def _input_match(m: BddManager, left: AdBank, right: AdBank, shared: set[str]) -> int:
    eq = TRUE
    for name in sorted(shared):
        b1, b2 = left.input_bundles[name], right.input_bundles[name]
        if b1 == b2:  # declared alike: one bundle, in range
            eq = m.band(eq, m.domain_cube(b1))
            continue
        agree = _eq(m, _bundle_vec(m, b1), _bundle_vec(m, b2))
        eq = m.band(eq, m.band(agree, _domains(m, (b1, b2))))
    return eq


def _compile_bool(m: BddManager, bank: AdBank, expr: object) -> int:
    """Truth set of a guard over current-state bits: the compiled guard
    within the domains of the bundles it reads."""
    bundles = [bank.bundle_for(n) for n in sorted(expr_vars(expr))]
    env = {b.name: _bundle_vec(m, b) for b in bundles}
    return m.band(_bool_node(m, bank, expr, env), _domains(m, bundles))


def _frame_tokens(m: BddManager, bank: AdBank) -> int:
    """The marking stays as it is."""
    return _eq(m, [m.var(bank.tok_cur[e.id]) for e in bank.ad.edges],
               [m.var(bank.tok_next[e.id]) for e in bank.ad.edges])


def _frame_locals(m: BddManager, bank: AdBank, touched: set[str]) -> int:
    keep = [name for name in bank.loc_cur if name not in touched]
    return _eq(m, [m.var(lvl) for name in keep for lvl in bank.loc_cur[name].levels],
               [m.var(lvl) for name in keep for lvl in bank.loc_next[name].levels])


def _effects_relation(m: BddManager, bank: AdBank, node: Node) -> int:
    """Current-to-next relation of an action's effects over the locals.

    The effects run left to right over symbolic vectors, so later ones
    see earlier writes; a valuation where some write leaves its range
    never fires.  Each target's next bundle equals its final value and
    every other local keeps its value."""
    targets = [var for var, _ in node.effects]
    involved = [bank.bundle_for(n) for n in
                sorted(set(targets).union(*(expr_vars(x) for _, x in node.effects)))]
    env = {b.name: _bundle_vec(m, b) for b in involved}
    rel = _domains(m, involved)
    for var, expr in node.effects:
        b = bank.loc_cur[var]
        width = (_bound(bank, expr) + max(abs(b.lo), abs(b.hi))).bit_length() + 1
        val = _int_vec(m, expr, env, width)
        for low, high in ((_const(b.lo, width), val), (val, _const(b.hi, width))):
            # low <= high iff the sign bit of high - low is clear
            rel = m.band(rel, m.bnot(_add(m, high, low, subtract=True)[-1]))
        env[var] = val
    # each final value is in range here, and the bundle's out-of-domain
    # patterns denote values outside it, so equality pins the domain too
    for t in sorted(set(targets)):
        rel = m.band(rel, _eq(m, _bundle_vec(m, bank.loc_next[t]), env[t]))
    return m.band(rel, _frame_locals(m, bank, set(targets)))


def _marks(bits: dict[str, int], t: Transition) -> tuple[dict[int, bool], dict[int, bool]]:
    """The token bits t touches, as t needs them and as it leaves them:
    pre set and post - pre clear before, pre cleared then post set after."""
    touched = t.pre | t.post
    return ({bits[e]: e in t.pre for e in touched},
            {bits[e]: e in t.post for e in touched})


def _silent_firings(m: BddManager, bank: AdBank) -> list[tuple[int, dict[int, bool]]]:
    """(enabling condition over current bits, token-bit writes) per
    silent transition of the diagram's net: the touched bits as the
    transition needs them, and its compiled guard."""
    out: list[tuple[int, dict[int, bool]]] = []
    for t in bank.ad.transitions:
        if t.label is None:
            before, after = _marks(bank.tok_cur, t)
            guard = TRUE if t.guard is None else _compile_bool(m, bank, t.guard)
            out.append((m.band(m.cube(before), guard), after))
    return out


def _compose_closure(m: BddManager, base: int,
                     firings: list[tuple[int, dict[int, bool]]]) -> int:
    # Prepend silent steps: if firing f rewrites state s to s[w], then
    # T(s, .) includes cond_f(s) and T(s[w], .). Substituting the write
    # constants into T is exactly restrict. Terminates because silent
    # chains are acyclic. One restrict memo per firing serves every round.
    t = base
    memos: list[dict[int, int]] = [{} for _ in firings]
    while True:
        new = t
        for (cond, w), memo in zip(firings, memos):
            new = m.bor(new, m.band(cond, m.restrict(new, w, memo)))
        if new == t:
            return t
        t = new


def _compile_bank(m: BddManager, bank: AdBank) -> None:
    """Fill in the bank's relations and init.

    settle(s, tok') holds when silent firings lead s to a quiescent state
    whose marking is tok'; it is composed once.  Silent firings leave the
    locals alone, so a labelled transition's relation is settle read at
    the marking it fires from (pre set, post - pre clear: unsafe firings
    are absent), then its token move and its node's effects.  Transitions
    sharing a label share a relation, the union of theirs.
    """
    ad = bank.ad
    dom = _domains(m, bank.input_bundles.values())

    firings = _silent_firings(m, bank)
    quiet = TRUE
    for cond, _ in firings:
        quiet = m.band(quiet, m.bnot(cond))

    settle = _compose_closure(m, m.band(quiet, _frame_tokens(m, bank)), firings)
    rels: dict[str, int] = {}
    for t in ad.transitions:
        if t.label is None:
            continue
        before, after = _marks(bank.tok_next, t)
        rel = m.band(m.restrict(settle, before), m.cube(after))
        rel = m.band(rel, _effects_relation(m, bank, t.node))
        rels[t.label] = m.bor(rels.get(t.label, FALSE), rel)
    for name, t in sorted(rels.items()):
        bank.t_by_action[name] = t
        bank.en_by_action[name] = m.exists(t, bank.next_bits)

    toks = {bank.tok_cur[e.id]: (e.id == ad.start_edge) for e in ad.edges}
    init = m.cube(toks)
    for v in ad.locals:
        init = m.band(init, m.value_cube(bank.loc_cur[v.name], v.init))
    bank.init = m.band(init, dom)

