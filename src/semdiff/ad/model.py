"""Activity diagrams and their token-game semantics.

Tokens live on edges.  Decision, merge, fork, join and final nodes fire
silently; action nodes fire observably.  Silent firings are closed off
before an action fires, never after, so the configurations produced by
observable steps are the raw post-action ones.

Only this module maps node kinds to firing rules: each diagram compiles
once into a net (`ActivityDiagram.transitions`) that the explicit game
below and the BDD encoder of `ad/encode.py` both read.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from ..record import record as dataclass


# ---------------------------------------------------------------- expressions

class ExprTypeError(ValueError):
    pass


@dataclass(frozen=True)
class IntLit:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Arith:
    op: str  # + -
    left: object
    right: object

    def __str__(self) -> str:
        # + and - are left-associative; parenthesize a right-nested chain so
        # the printed form parses back to this exact tree.  The left spine
        # is walked in a loop, so a long sum costs no recursion per term.
        tail, e = [], self
        while isinstance(e, Arith):
            rhs = f"({e.right})" if isinstance(e.right, Arith) else str(e.right)
            tail.append(f" {e.op} {rhs}")
            e = e.left
        return str(e) + "".join(reversed(tail))


@dataclass(frozen=True)
class Cmp:
    op: str  # < <= > >= == !=
    left: object
    right: object

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


_BOOL_PREC = {"||": 1, "&&": 2}


@dataclass(frozen=True)
class BoolOp:
    op: str  # && ||
    left: object
    right: object

    def __str__(self) -> str:
        def side(e: object, right: bool) -> str:
            if isinstance(e, BoolOp):
                p, q = _BOOL_PREC[e.op], _BOOL_PREC[self.op]
                if p < q or (p == q and right):
                    return f"({e})"
            return str(e)
        return f"{side(self.left, False)} {self.op} {side(self.right, True)}"


@dataclass(frozen=True)
class Not:
    operand: object

    def __str__(self) -> str:
        inner = self.operand
        if isinstance(inner, (BoolOp, Cmp)):
            return f"!({inner})"
        return f"!{inner}"


def expr_vars(e: object) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, IntLit):
        return set()
    if isinstance(e, Not):
        return expr_vars(e.operand)
    if isinstance(e, (Arith, Cmp, BoolOp)):
        return expr_vars(e.left) | expr_vars(e.right)
    raise ExprTypeError(f"not an expression: {e!r}")


def eval_int(e: object, env: dict[str, int]) -> int:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Arith):
        a, b = eval_int(e.left, env), eval_int(e.right, env)
        return a + b if e.op == "+" else a - b
    raise ExprTypeError(f"expected an integer expression: {e}")


def eval_bool(e: object, env: dict[str, int]) -> bool:
    if isinstance(e, Cmp):
        a, b = eval_int(e.left, env), eval_int(e.right, env)
        return {"<": a < b, "<=": a <= b, ">": a > b,
                ">=": a >= b, "==": a == b, "!=": a != b}[e.op]
    if isinstance(e, BoolOp):
        if e.op == "&&":
            return eval_bool(e.left, env) and eval_bool(e.right, env)
        return eval_bool(e.left, env) or eval_bool(e.right, env)
    if isinstance(e, Not):
        return not eval_bool(e.operand, env)
    raise ExprTypeError(f"expected a boolean expression: {e}")


def check_int_expr(e: object) -> None:
    if isinstance(e, (IntLit, Var)):
        return
    if isinstance(e, Arith):
        check_int_expr(e.left)
        check_int_expr(e.right)
        return
    raise ExprTypeError(f"not an integer expression: {e}")


def check_bool_expr(e: object) -> None:
    if isinstance(e, Cmp):
        check_int_expr(e.left)
        check_int_expr(e.right)
        return
    if isinstance(e, BoolOp):
        check_bool_expr(e.left)
        check_bool_expr(e.right)
        return
    if isinstance(e, Not):
        check_bool_expr(e.operand)
        return
    raise ExprTypeError(f"not a boolean expression: {e}")


# --------------------------------------------------------------------- errors

class AdValidationError(ValueError):
    pass


class SilentCycleError(AdValidationError):
    pass


class BadDegreeError(AdValidationError):
    pass


class UndeclaredVariableError(AdValidationError):
    pass


class EmptyRangeError(AdValidationError):
    pass


class MissingGuardError(AdValidationError):
    pass


class MisplacedGuardError(AdValidationError):
    pass


class InputAssignmentError(AdValidationError):
    pass


class RangeViolationError(RuntimeError):
    """Effect drove a variable outside its declared range."""

    def __init__(self, node: str, var: str, value: int) -> None:
        super().__init__(f"{node}: {var} := {value} leaves its declared range")
        self.node = node
        self.var = var
        self.value = value


# ---------------------------------------------------------------------- model

INITIAL, FINAL, ACTION, DECISION, MERGE, FORK, JOIN = (
    "initial", "final", "action", "decision", "merge", "fork", "join")

NODE_KINDS = (INITIAL, FINAL, ACTION, DECISION, MERGE, FORK, JOIN)


@dataclass(frozen=True)
class VarDecl:
    name: str
    lo: int
    hi: int
    init: int | None = None  # None for inputs


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    # Action identity is the name, not the node id; two nodes may share one.
    action_name: str | None = None
    effects: tuple[tuple[str, object], ...] = ()

    def name(self) -> str:
        if self.kind != ACTION:
            raise ExprTypeError(f"{self.id} is not an action node")
        return self.action_name if self.action_name is not None else self.id


@dataclass(frozen=True)
class Edge:
    id: str
    source: str
    target: str
    guard: object | None = None


@dataclass(frozen=True)
class Transition:
    """One firing rule of the token game: when every edge of pre holds a
    token, every edge of post - pre is free and the guard (None: true)
    holds, the tokens of pre move onto post.  label is the action name,
    None for a silent firing; node is the node that fires."""

    label: str | None
    pre: frozenset[str]
    post: frozenset[str]
    guard: object | None
    node: Node


@dataclass(frozen=True)
class ActivityDiagram:
    name: str
    inputs: tuple[VarDecl, ...]
    locals: tuple[VarDecl, ...]
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def node(self, node_id: str) -> Node | None:
        for n in self.nodes:
            if n.id == node_id:
                return n
        return None

    @cached_property
    def _edges_at(self) -> dict[tuple[bool, str], tuple[Edge, ...]]:
        """(outgoing?, node id) -> the node's edges in declaration order."""
        at: dict[tuple[bool, str], list[Edge]] = {}
        for e in self.edges:
            at.setdefault((True, e.source), []).append(e)
            at.setdefault((False, e.target), []).append(e)
        return {k: tuple(v) for k, v in at.items()}

    def out_edges(self, node_id: str) -> tuple[Edge, ...]:
        return self._edges_at.get((True, node_id), ())

    def in_edges(self, node_id: str) -> tuple[Edge, ...]:
        return self._edges_at.get((False, node_id), ())

    def variables(self) -> tuple[VarDecl, ...]:
        return self.inputs + self.locals

    @cached_property
    def _ranges(self) -> dict[str, tuple[int, int]]:
        return {v.name: (v.lo, v.hi) for v in self.variables()}

    @cached_property
    def start_edge(self) -> str:
        """The initial node's out-edge: the one token of every start."""
        init = next((n for n in self.nodes if n.kind == INITIAL), None)
        if init is None or not self.out_edges(init.id):
            raise BadDegreeError(f"{self.name}: no initial node with an outgoing edge")
        return self.out_edges(init.id)[0].id

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """The diagram as a net, in node declaration order and within a
        node in edge order: one transition per guarded out-edge of a
        decision, per in-edge of a merge or a final node, and one for
        each fork, join and action node."""
        out: list[Transition] = []
        for n in self.nodes:
            ins = frozenset(e.id for e in self.in_edges(n.id))
            outs = frozenset(e.id for e in self.out_edges(n.id))
            if n.kind == DECISION:
                out += [Transition(None, ins, frozenset({e.id}), e.guard, n)
                        for e in self.out_edges(n.id)]
            elif n.kind in (MERGE, FINAL):
                out += [Transition(None, frozenset({e.id}), outs, None, n)
                        for e in self.in_edges(n.id)]
            elif n.kind == ACTION:
                out.append(Transition(n.name(), ins, outs, None, n))
            elif n.kind in (FORK, JOIN):
                out.append(Transition(None, ins, outs, None, n))
        return tuple(out)

    def action_names(self) -> list[str]:
        return sorted({n.name() for n in self.nodes if n.kind == ACTION})


@dataclass(frozen=True)
class Configuration:
    """Tokens (edge ids) plus a variable valuation."""

    tokens: frozenset[str]
    valuation: tuple[tuple[str, int], ...]  # sorted by name

    @staticmethod
    def make(tokens, valuation: dict[str, int]) -> "Configuration":
        return Configuration(frozenset(tokens), tuple(sorted(valuation.items())))

    def env(self) -> dict[str, int]:
        return dict(self.valuation)

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.tokens)), self.valuation)


@dataclass(frozen=True)
class ObservableStep:
    action: str
    successor: Configuration


def validate_ad(ad: ActivityDiagram) -> ActivityDiagram:
    """Structural checks; returns ad unchanged so calls can be chained."""
    names: set[str] = set()
    for v in ad.variables():
        if v.name in names:
            raise AdValidationError(f"variable declared twice: {v.name}")
        names.add(v.name)
        if v.hi < v.lo:
            raise EmptyRangeError(f"{v.name}: empty range {v.lo}..{v.hi}")
        if v.init is not None and not (v.lo <= v.init <= v.hi):
            raise EmptyRangeError(f"{v.name}: initial value {v.init} outside {v.lo}..{v.hi}")
    node_ids: set[str] = set()
    for n in ad.nodes:
        if n.id in node_ids:
            raise AdValidationError(f"node declared twice: {n.id}")
        node_ids.add(n.id)
        if n.kind not in NODE_KINDS:
            raise AdValidationError(f"{n.id}: unknown node kind {n.kind}")
        if n.effects and n.kind != ACTION:
            raise AdValidationError(f"{n.id}: only action nodes carry effects")
    edge_ids: set[str] = set()
    input_names = {v.name for v in ad.inputs}
    for e in ad.edges:
        if e.id in edge_ids:
            raise AdValidationError(f"edge declared twice: {e.id}")
        edge_ids.add(e.id)
        for end in (e.source, e.target):
            if end not in node_ids:
                raise AdValidationError(f"edge {e.id} references unknown node {end}")

    initials = [n for n in ad.nodes if n.kind == INITIAL]
    if len(initials) != 1:
        raise BadDegreeError(f"{ad.name}: need exactly one initial node, have {len(initials)}")

    degree = {INITIAL: (0, 0, 1, 1), FINAL: (1, None, 0, 0), ACTION: (1, 1, 1, 1),
              DECISION: (1, 1, 2, None), MERGE: (2, None, 1, 1),
              FORK: (1, 1, 2, None), JOIN: (2, None, 1, 1)}
    for n in ad.nodes:
        ins, outs = len(ad.in_edges(n.id)), len(ad.out_edges(n.id))
        in_lo, in_hi, out_lo, out_hi = degree[n.kind]
        if ins < in_lo or (in_hi is not None and ins > in_hi):
            raise BadDegreeError(f"{n.id} ({n.kind}): {ins} incoming edge(s)")
        if outs < out_lo or (out_hi is not None and outs > out_hi):
            raise BadDegreeError(f"{n.id} ({n.kind}): {outs} outgoing edge(s)")

    for e in ad.edges:
        src = ad.node(e.source)
        assert src is not None
        if src.kind == DECISION and e.guard is None:
            raise MissingGuardError(f"edge {e.source} -> {e.target} needs a guard")
        if src.kind != DECISION and e.guard is not None:
            raise MisplacedGuardError(
                f"edge {e.source} -> {e.target}: only decision out-edges carry guards")
        if e.guard is not None:
            check_bool_expr(e.guard)
            for v in expr_vars(e.guard):
                if v not in names:
                    raise UndeclaredVariableError(f"guard on {e.id} uses undeclared {v}")

    for n in ad.nodes:
        for var, expr in n.effects:
            if var in input_names:
                raise InputAssignmentError(f"{n.id} assigns to input {var}")
            if var not in names:
                raise UndeclaredVariableError(f"{n.id} assigns undeclared {var}")
            check_int_expr(expr)
            for v in expr_vars(expr):
                if v not in names:
                    raise UndeclaredVariableError(f"{n.id}: effect uses undeclared {v}")

    # A cycle visiting silent nodes only would let the token game spin
    # without ever producing an action.  Depth first with an explicit
    # stack: todo[i] holds the out-edges of path[i] not yet followed.
    silent = {n.id for n in ad.nodes if n.kind != ACTION}
    color: dict[str, int] = {}
    for root in sorted(silent):
        if color.get(root, 0):
            continue
        color[root] = 1
        path, todo = [root], [iter(ad.out_edges(root))]
        while todo:
            e = next(todo[-1], None)
            if e is None:
                todo.pop()
                color[path.pop()] = 2
                continue
            if e.target not in silent:
                continue
            c = color.get(e.target, 0)
            if c == 1:
                raise SilentCycleError(
                    "cycle through silent nodes: " + " -> ".join(path + [e.target]))
            if c == 0:
                color[e.target] = 1
                path.append(e.target)
                todo.append(iter(ad.out_edges(e.target)))
    return ad


def initial_configs(ad: ActivityDiagram,
                    pinned: dict[str, int] | None = None) -> list[Configuration]:
    """One configuration per input valuation, token on the initial out-edge.

    Valuations are enumerated in lexicographic order of the declared inputs.
    An input named in pinned takes only its pinned value, or none when
    that value is out of its range; other names in pinned are ignored.
    """
    base = {v.name: v.init for v in ad.locals}
    pinned = pinned or {}
    combos: list[dict[str, int]] = [{}]
    for v in ad.inputs:
        values = range(v.lo, v.hi + 1)
        if v.name in pinned:
            values = [pinned[v.name]] if pinned[v.name] in values else []
        combos = [dict(c, **{v.name: x}) for c in combos for x in values]
    return [Configuration.make({ad.start_edge}, {**base, **c}) for c in combos]


def _fire_silent(ad: ActivityDiagram, c: Configuration) -> list[Configuration]:
    """All configurations one silent firing away from c."""
    env = c.env()
    out = [_move(c, t.pre, t.post) for t in ad.transitions
           if t.label is None and t.pre <= c.tokens
           and (t.guard is None or eval_bool(t.guard, env))]
    return [s for s in out if s is not None]


def _move(c: Configuration, consume: frozenset, produce: frozenset) -> Configuration | None:
    """c with the consumed tokens moved onto produce, or None when that
    would put a second token on an edge: such a firing never happens."""
    left = c.tokens - consume
    if left & produce:
        return None
    return Configuration(left | produce, c.valuation)


def silent_closure(ad: ActivityDiagram, c: Configuration) -> frozenset[Configuration]:
    """Silent-quiescent configurations reachable from c.

    Only normal forms are returned; a configuration with a stuck decision
    (token present, no guard true) is quiescent and stays in the result.
    """
    seen = {c}
    queue = deque([c])
    quiescent: set[Configuration] = set()
    while queue:
        cur = queue.popleft()
        succs = _fire_silent(ad, cur)
        if not succs:
            quiescent.add(cur)
            continue
        for s in succs:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return frozenset(quiescent)


def _apply_effects(ad: ActivityDiagram, node: Node, env: dict[str, int]) -> dict[str, int]:
    ranges = ad._ranges
    env = dict(env)
    for var, expr in node.effects:  # left to right; later effects see earlier writes
        val = eval_int(expr, env)
        lo, hi = ranges[var]
        if not (lo <= val <= hi):
            raise RangeViolationError(node.id, var, val)
        env[var] = val
    return env


def observable_steps(ad: ActivityDiagram, c: Configuration) -> list[ObservableStep]:
    """Actions fireable from c after closing silent firings (closure first,
    never after: successors are raw post-action configurations).  A firing
    whose effects leave a declared range, or that would put a second token
    on an edge, does not happen."""
    steps: set[ObservableStep] = set()
    for cq in silent_closure(ad, c):
        for t in ad.transitions:
            if t.label is None or not t.pre <= cq.tokens:
                continue
            try:
                env = _apply_effects(ad, t.node, cq.env())
            except RangeViolationError:
                continue
            succ = _move(Configuration.make(cq.tokens, env), t.pre, t.post)
            if succ is not None:
                steps.add(ObservableStep(t.label, succ))
    return sorted(steps, key=lambda s: (s.action, s.successor.sort_key()))


@dataclass
class ExplicitTS:
    """Reachable transition system: states in BFS discovery order."""

    states: list[Configuration]
    initial: list[int]
    steps: list[list[tuple[str, int]]]  # per state: (action, successor index)


def build_explicit_ts(ad: ActivityDiagram, *, state_budget: int = 100_000) -> ExplicitTS:
    states: list[Configuration] = []
    index: dict[Configuration, int] = {}
    steps: list[list[tuple[str, int]]] = []

    def intern(c: Configuration) -> int:
        if c not in index:
            index[c] = len(states)
            states.append(c)
            steps.append([])
        return index[c]

    initial = [intern(c) for c in initial_configs(ad)]
    queue = deque(initial)
    done: set[int] = set()
    while queue:
        i = queue.popleft()
        if i in done:
            continue
        done.add(i)
        if len(states) > state_budget:
            raise RuntimeError(f"state budget exceeded building TS for {ad.name}")
        for st in observable_steps(ad, states[i]):
            j = intern(st.successor)
            steps[i].append((st.action, j))
            if j not in done:
                queue.append(j)
    return ExplicitTS(states, initial, steps)
