"""Semantic differencing of two activity diagrams.

The engine first computes the state pairs some joint run of the two
diagrams reaches, then plays a backward reachability game on those pairs
only: the base set holds the reachable pairs where the left diagram can
take an action the right one cannot match, and each layer adds the pairs
from which the left diagram can force the game into the previous layer
in one joint step.  A forward pass then splits the initial diff states
into symbolic traces, one per action list, and a replay against the
explicit token semantics turns each of those into a concrete,
independently checked trace.  Every joint image goes through one
diagram's relation and then the other's, so a left and a right relation
never meet in one BDD (the partitioned transition relation of Burch,
Clarke and Long, 1991).  Nodes stay for the whole run, but each stage's
computed-table entries are dropped when the stage ends.

The pair game computes a simulation-style difference.  It coincides
with trace difference when the right diagram declares no input the
left one lacks and is observably deterministic, under the actions both
diagrams take, at every state a joint run reaches; results are labelled
accordingly.  With every right input shared, the pairing fixes the right
start state, and each right state along the matched prefix of a left
trace is the right half of a jointly reachable pair; a right run
matching that prefix takes only left actions, so with one successor
under each, the right diagram has one run along the prefix at most, and
simulation is trace inclusion.  An input only the right side declares is
a choice the pairing leaves open, so it keeps the answer at simulation.

That determinism is checked once per run, and it also decides how the
layers grow: with one right reply per enabled shared action, "every
reply" equals "the one reply", the game is a plain joint pre-image
(trace inclusion into a deterministic system is forward simulation;
Lynch and Vaandrager, 1995), and each round images only the newest
frontier (see backward_fixpoint).  Every stage reads the move table and
the level maps encode_product builds once.
"""

from __future__ import annotations

from ..bdd import FALSE, TRUE, BddManager, SymbolicSet, VarBundle
from ..errors import InternalError
from ..record import record as dataclass
from ..summary import PartitionKey, SummaryReport, summarize
from .encode import DEFAULT_BIT_BUDGET, ProductEncoding, encode_product
from .model import ActivityDiagram, Configuration, initial_configs, observable_steps


class ReplayMismatchError(InternalError, RuntimeError):
    """A symbolic result failed its explicit replay.  Never a property of
    the input models; this is the engine contradicting itself."""

    what = "replay mismatch"


@dataclass(frozen=True)
class DiffLayers:
    """Ascending chain of divergence sets; the index is the number of
    joint steps the left diagram needs to force non-correspondence."""

    manager: BddManager
    layers: tuple[int, ...]

    def __post_init__(self) -> None:
        for prev, s in zip(self.layers, self.layers[1:]):
            if s == prev:
                raise ValueError("repeated layer in the chain")
            if self.manager.band(prev, s) != prev:
                raise ValueError("layers must grow monotonically")

    def depth(self) -> int:
        return len(self.layers) - 1

    def fixpoint(self) -> int:
        return self.layers[-1]


@dataclass(frozen=True)
class SymbolicTrace:
    """All divergences sharing one action list: the list itself plus the
    set of initial input valuations it starts from, over the input
    bundles a report renders (render_inputs)."""

    actions: tuple[str, ...]
    init_inputs: SymbolicSet
    bundles: tuple[VarBundle, ...]

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("a symbolic trace needs at least one action")
        if not self.init_inputs:
            raise ValueError("a symbolic trace needs a nonempty input set")


@dataclass(frozen=True)
class DiffTrace:
    """One concrete divergence, as a report shows it: the left diagram
    takes `actions` from `valuation`, and the right diagram matches every
    proper prefix (and, when trace-exact, not the full list); constraint
    renders the input set the valuation was picked from."""

    valuation: tuple[tuple[str, int], ...]
    actions: tuple[str, ...]
    constraint: str


def reachable_pairs(enc: ProductEncoding) -> int:
    """Pairs some joint run reaches from the paired initial states
    (shared inputs equal), moving both diagrams on one action a step.

    Each image goes through the left relation, then the right one; their
    conjunction is never built.  Each round takes the image of the newly
    reached pairs only; inputs are never quantified, so they ride along."""
    m = enc.manager
    cur1, cur2 = enc.left.cur_bits, enc.right.cur_bits
    reach = frontier = m.band(m.band(enc.left.init, enc.right.init), enc.input_match)
    while frontier != FALSE:
        img = FALSE
        for _, t1, t2 in enc.moves:
            img = m.bor(img, m.and_exists(m.and_exists(frontier, t1, cur1), t2, cur2))
        frontier = m.bdiff(m.rename(img, enc.to_cur), reach)
        reach = m.bor(reach, frontier)
    return reach


def backward_fixpoint(enc: ProductEncoding, reach: int,
                      deterministic: bool) -> DiffLayers:
    """Least fixpoint of the one-step forcing operator, played on reach,
    the pairs reachable_pairs returns.

    The base layer holds the pairs of reach where the left diagram has an
    enabled action the right one does not; reach holds in-range input
    valuations only, and the game reads nothing outside it.  A pair
    joins layer k+1 when for some action the left diagram has a
    successor, the action is enabled on the right, and every right
    successor lands the pair in layer k, that is ¬∃nxt2.(T2 ∧ ¬D'), one
    and_exists pass.  Inputs have no next-state copy, so they pass
    through the step untouched.  The step at a reachable pair reads only
    that pair's successors, which are reachable too, so each layer is
    exactly the unrestricted layer intersected with reach.

    deterministic, right_deterministic's answer, picks the step.  When
    no pair of reach has a right half with two successors under one
    shared action, an enabled right move has exactly one reply, so
    "every reply lands in layer k" is "some reply does": ∀ equals ∃, and
    the step is the plain joint pre-image of layer k.  A pre-image
    distributes over union, and the pre-image of every older layer is
    already inside layer k, so the step images the newest frontier
    alone (frontier-set iteration; Coudert, Berthet and Madre, 1989),
    and no layer is ever negated.  Both steps yield the same layers,
    hence the same nodes; the game is the only sound step when some
    reachable right state branches.
    """
    m = enc.manager
    nxt1, nxt2 = enc.left.next_bits, enc.right.next_bits
    d = FALSE
    for a, en1 in enc.left.en_by_action.items():
        d = m.bor(d, m.bdiff(m.band(reach, en1), enc.right.en_by_action.get(a, FALSE)))
    frontier, layers = d, [d]
    while True:
        step = FALSE
        if deterministic:
            moved = m.rename(frontier, enc.to_next)
            for _, t1, t2 in enc.moves:
                step = m.bor(step, m.and_exists(t1, m.and_exists(t2, moved, nxt2), nxt1))
        else:
            # negated before the rename, so the bdiff below reuses ¬d
            outside = m.rename(m.bnot(d), enc.to_next)
            for a, t1, t2 in enc.moves:
                replies = m.bnot(m.and_exists(t2, outside, nxt2))
                step = m.bor(step, m.and_exists(
                    t1, m.band(enc.right.en_by_action[a], replies), nxt1))
        frontier = m.bdiff(m.band(step, reach), d)
        if frontier == FALSE:
            return DiffLayers(m, tuple(layers))
        d = m.bor(d, frontier)
        layers.append(d)


def forward_split(enc: ProductEncoding, layers: DiffLayers) -> list[SymbolicTrace]:
    """Split the initial diff states into one symbolic trace per action
    list, shortest first per initial state.

    Frontiers start at the initial pairs grouped by minimal layer and
    descend one layer per joint action, so every branch reaches the base
    set in exactly as many steps as its group index; the divergence
    action closes the branch.  Initial left valuations no right initial
    state can pair with never enter the game, yet the right diagram has
    no run at all there, so each of their first actions diverges; they
    are emitted as one-action traces.

    A node's children depend only on its pair set and depth: the layer
    below and the per-action relations are fixed for the call.
    Interleavings converge on the same pair sets, so each (pairs, depth)
    is expanded once and its children serve every prefix reaching it.
    """
    m = enc.manager
    report = enc.report_levels
    found: dict[tuple[str, ...], int] = {}

    def emit(key: tuple[str, ...], inputs: int) -> None:
        found[key] = m.bor(found.get(key, FALSE), inputs)

    def project(leaf: int) -> int:
        # inputs are rigid, so projecting the leaf recovers the
        # valuations the whole branch started from
        return m.exists(leaf, [lvl for lvl in m.support(leaf) if lvl not in report])

    def expand(pairs: int, d: int) -> list[tuple[str, int]]:
        # (action, image within the layer below), or at depth 0
        # (action, inputs of the divergence)
        if d == 0:
            return [(a, project(leaf)) for a, en1, en2 in diverge
                    if (leaf := m.bdiff(m.band(pairs, en1), en2)) != FALSE]
        below = layers.layers[d - 1]
        return [(a, img) for a, t1, t2 in enc.moves
                if (img := m.band(m.rename(m.and_exists(m.and_exists(pairs, t1, cur1),
                                                        t2, cur2), enc.to_cur), below)) != FALSE]

    cur1, cur2 = enc.left.cur_bits, enc.right.cur_bits
    diverge = [(a, en1, enc.right.en_by_action.get(a, FALSE))
               for a, en1 in enc.left.en_by_action.items()]
    memo: dict[tuple[int, int], list[tuple[str, int]]] = {}
    # the paired initial states (shared inputs equal) inside the fixpoint
    init = m.band(m.band(enc.left.init, enc.right.init),
                  m.band(enc.input_match, layers.fixpoint()))
    prev = FALSE
    for depth, layer in enumerate(layers.layers):
        group = m.band(init, m.bdiff(layer, prev))
        prev = layer
        # depth first, actions in alphabet order: an explicit stack with
        # each node's children pushed in reverse
        stack = [(group, depth, ())] if group != FALSE else []
        while stack:
            pairs, d, prefix = stack.pop()
            children = memo.get((pairs, d))
            if children is None:
                children = memo[pairs, d] = expand(pairs, d)
            if d == 0:
                for a, inputs in children:
                    emit(prefix + (a,), inputs)
            else:
                stack.extend((img, d - 1, prefix + (a,)) for a, img in reversed(children))

    # an input both diagrams declare alike has one bundle, which this
    # quantifies too; harmless, as every left value of it is in the
    # right's range as well
    matched = m.exists(m.band(enc.right.init, enc.input_match),
                       cur2 + enc.right.input_bits)
    unmatched = m.band(enc.left.init, m.bnot(matched))
    if unmatched != FALSE:
        for a, en1 in sorted(enc.left.en_by_action.items()):
            leaf = m.band(unmatched, en1)
            if leaf != FALSE:
                emit((a,), project(leaf))

    return [SymbolicTrace(actions, SymbolicSet(m, found[actions]), enc.report_bundles)
            for actions in sorted(found)]


def right_deterministic(enc: ProductEncoding, reach: int) -> bool:
    """Does no pair of reach, the jointly reachable pairs, have a right
    half with two successors under one action both diagrams take?  One
    branching pass per shared action."""
    m, nxt2 = enc.manager, enc.right.next_bits
    return all(m.band(m.branching(t2, nxt2), reach) == FALSE for _, _, t2 in enc.moves)


def render_inputs(st: SymbolicTrace) -> str:
    """Per-variable range rendering of a trace's initial input set,
    e.g. "tickets ∈ [0..7]"; multiple maximal runs join with " ∪ ".  A
    set that is not the product of its per-bundle projections (one
    exists each) loses something per variable, so a "(projection)"
    qualifier follows."""
    m, node = st.init_inputs.manager, st.init_inputs.node
    parts, product = [], TRUE
    for b in st.bundles:
        others = [lvl for o in st.bundles for lvl in o.levels if lvl not in b.levels]
        product = m.band(product, m.exists(node, others))
        ranges = " ∪ ".join(f"[{lo}..{hi}]" for lo, hi in m.value_runs(node, b))
        parts.append(f"{b.name} ∈ {ranges}")
    text = "; ".join(parts)
    return text if product == node else text + " (projection)"


def _memo(table: dict, key: tuple, fn, *args):
    """fn(*args), computed once per key for the whole run.  The replay
    passes observable_steps and initial_configs as this module names
    them at the call, so a patched name takes effect."""
    hit = table.get(key)
    if hit is None:
        hit = table[key] = fn(*args)
    return hit


def _follow(enc: ProductEncoding, ad: ActivityDiagram, starts: list[Configuration],
            actions: tuple[str, ...]) -> list[set[Configuration]]:
    """The configurations of ad reached from starts along each prefix of
    actions, the empty prefix first: len(actions) + 1 sets."""
    out = [set(starts)]
    for a in actions:
        out.append({s.successor for c in out[-1]
                    for s in _memo(enc.steps, (id(ad), c), observable_steps, ad, c)
                    if s.action == a})
    return out


def concretize(enc: ProductEncoding, st: SymbolicTrace, *, exact: bool) -> DiffTrace:
    """Pick the least valuation of st and replay it explicitly.

    Both diagrams are followed as state sets (_follow).  The left one
    must have one start and take the full list.  The right one must
    match every proper prefix, which forward_split emits as joint steps
    under either semantics, and, when the direction is trace-exact, not
    the full list.  A violated check raises ReplayMismatchError.  The
    valuation and its rendering are computed once per input set, and
    starts and steps come from the encoding's caches.
    """
    ad1, ad2 = enc.left.ad, enc.right.ad
    # the rendering reads the node alone: every trace has the report bundles
    node = st.init_inputs.node
    hit = enc.inputs.get(node)
    if hit is None:
        chosen = enc.manager.pick_one(node, list(st.bundles))
        hit = enc.inputs[node] = (tuple(sorted((v.name, chosen[v.name]) for v in ad1.inputs)),
                                  render_inputs(st))
    valuation, constraint = hit

    start = _memo(enc.starts, (id(ad1), valuation), initial_configs, ad1, dict(valuation))
    if len(start) != 1:
        raise ReplayMismatchError(
            f"{ad1.name}: {len(start)} initial states for {valuation}")
    if not _follow(enc, ad1, start, st.actions)[-1]:
        raise ReplayMismatchError(
            f"{ad1.name} cannot replay {list(st.actions)} from {valuation}")

    right = _follow(enc, ad2, _memo(enc.starts, (id(ad2), valuation), initial_configs,
                                    ad2, dict(valuation)), st.actions)
    for i in range(1, len(st.actions)):
        if not right[i]:
            raise ReplayMismatchError(
                f"{ad2.name} cannot match the prefix {list(st.actions[:i])}")
    if exact and right[-1]:
        raise ReplayMismatchError(
            f"{ad2.name} matches the whole of {list(st.actions)}")

    return DiffTrace(valuation, st.actions, constraint)


def summarize_action_list(enc: ProductEncoding, traces: list[SymbolicTrace],
                          *, exact: bool) -> SummaryReport:
    """One entry per action list, annotated with its input constraint."""
    return summarize((concretize(enc, st, exact=exact) for st in traces),
                     lambda rep: PartitionKey.action_list(rep.actions),
                     partition_kind="action-list", annotate=lambda rep: rep.constraint)


def summarize_action_set(enc: ProductEncoding, traces: list[SymbolicTrace],
                         action_lists: SummaryReport) -> SummaryReport:
    """One entry per action-name set, folded by summarize from the traces
    in their sorted order, each read as the representative action_lists
    (the action-list summary of the same traces) holds for it, so a class
    keeps the one of its least action list.  The annotation renders the
    union of the class members' input sets."""
    m = enc.manager
    reps = {e.key.names: e.representative for e in action_lists.entries}
    keys: dict[tuple[str, ...], PartitionKey] = {}
    unions: dict[tuple[str, ...], int] = {}  # by key names: a tuple hashes in C
    for st in traces:
        key = keys[st.actions] = PartitionKey.action_set(st.actions)
        unions[key.names] = m.bor(unions.get(key.names, FALSE), st.init_inputs.node)
    return summarize((reps[st.actions] for st in traces), lambda rep: keys[rep.actions],
                     partition_kind="action-set",
                     annotate=lambda rep: render_inputs(SymbolicTrace(
                         rep.actions, SymbolicSet(m, unions[keys[rep.actions].names]),
                         enc.report_bundles)))


@dataclass(frozen=True)
class AdDiffResult:
    """Directional diff of two activity diagrams, fully summarized.

    semantics is "trace" when the symbolic game decides trace difference
    for this direction and "simulation" when it may only witness a
    failure of simulation (see the module docstring)."""

    semantics: str
    traces: tuple[SymbolicTrace, ...]
    action_lists: SummaryReport
    action_sets: SummaryReport

    @property
    def has_diffs(self) -> bool:
        return bool(self.traces)


def addiff(ad1: ActivityDiagram, ad2: ActivityDiagram,
           *, bit_budget: int = DEFAULT_BIT_BUDGET) -> AdDiffResult:
    """Diff traces of ad1 against ad2: divergences of ad1 the other
    diagram cannot follow, one symbolic trace per action list.  The
    right diagram's determinism on the reach, checked once, sets both
    the semantics label and how the fixpoint grows.  No stage reads
    another's computed tables, so each stage's end clears them."""
    enc = encode_product(ad1, ad2, bit_budget=bit_budget)
    clear = enc.manager.clear_cache
    clear()
    reach = reachable_pairs(enc)
    clear()
    deterministic = right_deterministic(enc, reach)
    exact = deterministic and {v.name for v in ad2.inputs} <= {v.name for v in ad1.inputs}
    clear()
    layers = backward_fixpoint(enc, reach, deterministic)
    clear()
    traces = forward_split(enc, layers)
    clear()
    lists = summarize_action_list(enc, traces, exact=exact)
    return AdDiffResult("trace" if exact else "simulation", tuple(traces), lists,
                        summarize_action_set(enc, traces, lists))
