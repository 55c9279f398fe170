"""Seeded random activity-diagram pairs, cross-checked against the oracle.

Each seed draws a small diagram through `random.Random(seed)` only, so
every case is reproducible from its seed: two blocks in sequence, each an
action with a counter effect (some leave the counter's range), a
decision on the input or on the counter (complementary, overlapping or
gapped guards), a bounded counter loop, or a fork closed by a join or by
a merge (which queues the branch tokens behind each other).  Input and
counter ranges may be negative.  The right diagram is a mutated copy:
two actions swap names, a threshold or loop bound moves, a fork changes
its closing node, an effect changes, or an action is dropped or renamed.
About half the copies also redeclare the input `x` with a range that is
shifted, narrower, wider or disjoint.  The encoder gives an input both
diagrams declare alike one set of BDD levels, so only a redeclared pair
exercises the other encoding (a bundle per diagram, paired by value)
and the left valuations no right start state can pair with.
Blocks do not nest deeper than one level of plain actions: with deeper
nesting, some pairs of about 15 edges already take the symbolic engine
seconds (ROADMAP item 13).

The checks: `addiff --oracle` never disagrees with the explicit
subset-construction oracle, a self-diff and a diff against a renamed,
shuffled copy are empty, every representative under trace semantics is
a diff trace by the oracle's own definition, the symbolic reach of
a diagram against itself holds exactly the pairs an explicit search
finds (the oracle stops at the first divergence, so it alone misses an
encoder that lets a firing happen that the token game blocks), and the
engine's one-side-at-a-time images give the reach and the traces the
conjoined relations of `tests/test_ad_reach.py` give.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

import semdiff.ad.model as model
from semdiff.ad import addiff, encode_product, validate_ad
from semdiff.ad.diff import reachable_pairs
from semdiff.ad.model import ActivityDiagram
from semdiff.cli import main
from semdiff.oracle import is_diff_trace
from semdiff.parsing import parse_ad

from test_ad_diff import bank_assignment
from test_ad_reach import assert_images_match_conjoined_relations, explicit_pairs

SEEDS = range(6)
EFFECTS = ("c + 1", "c - 1", "c + 2", "c + x")
# block kinds each mutation can change
MUTABLE = {"threshold": ("dec", "loop"), "close": ("fork",), "effect": ("act",),
           "drop": ("act",), "rename": ("act",)}

# A spec is {"x": input range, "c": counter range, "blocks": blocks}, and
# blocks is a tuple of
#   ("act", name, effect or None)
#   ("dec", variable, threshold, guard form, then-blocks, else-blocks)
#   ("loop", bound, name)
#   ("fork", "join" or "merge", (blocks, blocks), blocks after the join or merge)


def _block(rng: random.Random, names: list[str], kind: str) -> tuple:
    if kind == "dec":
        return ("dec", rng.choice("xc"), rng.randint(-1, 2),
                rng.choice(("split", "split", "overlap", "gap")),
                _plain(rng, names, 1), _plain(rng, names, rng.randint(0, 1)))
    if kind == "fork":
        # the action after the close holds a token back, so that the
        # merge can meet an occupied edge
        return ("fork", rng.choice(("join", "merge")),
                (_plain(rng, names, 1), _plain(rng, names, 1)), _plain(rng, names, 1))
    if kind == "loop":
        return ("loop", rng.randint(0, 4), names.pop(0))
    return ("act", names.pop(0), rng.choice(EFFECTS) if rng.random() < 0.5 else None)


def _plain(rng: random.Random, names: list[str], n: int) -> tuple:
    """n actions for a branch."""
    return tuple(_block(rng, names, "act") for _ in range(n))


def random_spec(rng: random.Random) -> dict:
    """Two top-level blocks of different kinds, each holding plain
    branches: the engine's relations grow quickly with nesting."""
    x_lo, c_lo = rng.randint(-2, 0), rng.randint(-2, 0)
    names = list("abcdeghkmnprstuvwy")
    kinds = rng.sample(("dec", "fork", "loop", "act"), 2)
    return {"x": (x_lo, x_lo + rng.randint(1, 3)), "c": (c_lo, c_lo + rng.randint(2, 3)),
            "blocks": tuple(_block(rng, names, kind) for kind in kinds)}


def _walk(blocks: tuple):
    for b in blocks:
        yield b
        if b[0] == "dec":
            yield from _walk(b[4])
            yield from _walk(b[5])
        elif b[0] == "fork":
            for branch in (*b[2], b[3]):
                yield from _walk(branch)


def _map(blocks: tuple, fn) -> tuple:
    """Rebuild blocks bottom-up through fn; a block fn maps to None goes."""
    out = []
    for b in blocks:
        if b[0] == "dec":
            b = b[:4] + (_map(b[4], fn), _map(b[5], fn))
        elif b[0] == "fork":
            b = (b[0], b[1], tuple(_map(branch, fn) for branch in b[2]), _map(b[3], fn))
        b = fn(b)
        if b is not None:
            out.append(b)
    return tuple(out)


def _mutate(rng: random.Random, blocks: tuple) -> tuple:
    how = rng.choice(("swap",) + tuple(MUTABLE))
    if how == "swap":
        names = [b[1] if b[0] == "act" else b[2] for b in _walk(blocks)
                 if b[0] in ("act", "loop")]
        if len(names) < 2:
            return blocks
        a, b = rng.sample(names, 2)
        swap = {a: b, b: a}

        def swapped(blk: tuple) -> tuple:
            if blk[0] == "act":
                return ("act", swap.get(blk[1], blk[1]), blk[2])
            if blk[0] == "loop":
                return ("loop", blk[1], swap.get(blk[2], blk[2]))
            return blk

        return _map(blocks, swapped)
    kinds = MUTABLE[how]
    eligible = sum(b[0] in kinds for b in _walk(blocks))
    if not eligible:
        return blocks
    target, step, effect = rng.randrange(eligible), rng.choice((-1, 1)), \
        rng.choice(EFFECTS + (None,))
    seen = [0]

    def change(b: tuple) -> tuple | None:
        if b[0] not in kinds:
            return b
        seen[0] += 1
        if seen[0] - 1 != target:
            return b
        if how == "threshold":
            return b[:2] + (b[2] + step,) + b[3:] if b[0] == "dec" else \
                ("loop", b[1] + step, b[2])
        if how == "close":
            return ("fork", "merge" if b[1] == "join" else "join") + b[2:]
        if how == "effect":
            return ("act", b[1], effect)
        if how == "rename":
            return ("act", b[1] + "z", b[2])
        return None  # drop

    return _map(blocks, change)


def _valid(blocks: tuple) -> bool:
    """The diagram and each fork branch keep at least one block."""
    return bool(blocks) and all(b[0] != "fork" or all(b[2]) for b in _walk(blocks))


def _redeclared(rng: random.Random, x: tuple[int, int]) -> tuple[int, int]:
    """Another range for the input: shifted, narrower, wider or disjoint."""
    lo, hi = x
    how = rng.choice(("shift", "narrow", "widen", "disjoint"))
    if how == "shift":
        step = rng.choice((-2, -1, 1, 2))
        return lo + step, hi + step
    if how == "narrow":
        return (lo + 1, hi) if rng.random() < 0.5 else (lo, hi - 1)
    if how == "widen":
        return lo - rng.randint(0, 1), hi + rng.randint(1, 2)
    return hi + 1, 2 * hi + 1 - lo


def random_pair(seed: int) -> tuple[dict, dict]:
    rng = random.Random(seed)
    while True:
        spec = random_spec(rng)
        blocks = spec["blocks"]
        for _ in range(rng.randint(1, 2)):
            blocks = _mutate(rng, blocks)
        if blocks != spec["blocks"] and _valid(spec["blocks"]) and _valid(blocks):
            x = _redeclared(rng, spec["x"]) if rng.random() < 0.5 else spec["x"]
            return spec, dict(spec, blocks=blocks, x=x)


def render(name: str, spec: dict, shuffle: random.Random | None = None) -> str:
    """The diagram's text.  With shuffle, every silent node gets another
    id and the node and edge declarations are shuffled, which changes no
    behaviour.  The encoder orders its BDD variables by the net, not by
    the declarations, so the shuffle leaves every token bit where the
    original text puts it."""
    prefix = "q" if shuffle else ""
    nodes = [f"initial {prefix}i;", f"final {prefix}f;"]
    edges: list[str] = []
    count = [0]

    def fresh(kind: str) -> str:
        count[0] += 1
        nodes.append(f"{kind} {prefix}{kind[0]}{count[0]};")
        return f"{prefix}{kind[0]}{count[0]}"

    def link(src: tuple[str, str | None], dst: str) -> None:
        node, guard = src
        edges.append(f"edge {node} -> {dst}" + (f" [{guard}];" if guard else ";"))

    def seq(blocks: tuple, src: tuple[str, str | None]) -> tuple[str, str | None]:
        for b in blocks:
            src = block(b, src)
        return src

    def block(b: tuple, src: tuple[str, str | None]) -> tuple[str, str | None]:
        if b[0] == "act":
            nodes.append(f"action {b[1]}" + (f" {{ c := {b[2]}; }};" if b[2] else ";"))
            link(src, b[1])
            return b[1], None
        if b[0] == "loop":
            _, bound, act = b
            m, d = fresh("merge"), fresh("decision")
            nodes.append(f"action {act} {{ c := c + 1; }};")
            link(src, m)
            link((m, None), d)
            link((d, f"c < {bound}"), act)
            link((act, None), m)
            return d, f"c >= {bound}"
        if b[0] == "dec":
            _, var, t, form, then, other = b
            d, m = fresh("decision"), fresh("merge")
            link(src, d)
            guards = (f"{var} < {t}", {"split": f"{var} >= {t}", "overlap": f"{var} > {t - 2}",
                                       "gap": f"{var} > {t}"}[form])
            for guard, blocks in zip(guards, (then, other)):
                link(seq(blocks, (d, guard)), m)
            return m, None
        k, j = fresh("fork"), fresh(b[1])
        link(src, k)
        for blocks in b[2]:
            link(seq(blocks, (k, None)), j)
        return seq(b[3], (j, None))

    link(seq(spec["blocks"], (f"{prefix}i", None)), f"{prefix}f")
    if shuffle:
        shuffle.shuffle(nodes)
        shuffle.shuffle(edges)
    (x_lo, x_hi), (c_lo, c_hi) = spec["x"], spec["c"]
    return "\n".join([f"activitydiagram {name} {{", f"  input x : {x_lo}..{x_hi};",
                      f"  local c : {c_lo}..{c_hi} = 0;",
                      *(f"  {line}" for line in nodes + edges), "}"])


def _ad(text: str) -> ActivityDiagram:
    return validate_ad(parse_ad(text))


def _texts(seed: int) -> tuple[str, str]:
    spec, other = random_pair(seed)
    return render(f"left{seed}", spec), render(f"right{seed}", other)


@lru_cache(maxsize=None)
def _results(seed: int):
    """(left, right, addiff(left, right)) for both directions of a seed."""
    left, right = map(_ad, _texts(seed))
    return tuple((a, b, addiff(a, b)) for a, b in ((left, right), (right, left)))


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_never_disagrees(seed, capsys, tmp_path):
    paths = []
    for i, text in enumerate(_texts(seed)):
        paths.append(str(tmp_path / f"{i}.ad"))
        (tmp_path / f"{i}.ad").write_text(text)
    for argv in (paths, paths[::-1]):
        code = main(["addiff", *argv, "--oracle"])
        err = capsys.readouterr().err
        assert code in (0, 1), err
        assert err.startswith(("oracle agreement", "oracle cross-check skipped")), err


@pytest.mark.parametrize("seed", SEEDS)
def test_self_and_renamed_shuffled_copy_diffs_are_empty(seed):
    spec, _ = random_pair(seed)
    ad = _ad(render("orig", spec))
    copy = _ad(render("copy", spec, random.Random(f"copy:{seed}")))
    assert not addiff(ad, ad).has_diffs
    assert not addiff(ad, copy).has_diffs
    assert not addiff(copy, ad).has_diffs


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_representatives_are_diff_traces(seed):
    for left, right, res in _results(seed):
        if res.semantics != "trace":
            continue
        for e in res.action_lists.entries:
            rep = e.representative
            assert is_diff_trace(left, right, dict(rep.valuation), rep.actions), e.key


@pytest.mark.parametrize("seed", SEEDS)
def test_symbolic_self_reach_matches_explicit_search(seed):
    for ad, _, _ in _results(seed):
        enc = encode_product(ad, ad)
        m, reach = enc.manager, reachable_pairs(enc)
        levels = [lvl for bank in (enc.left, enc.right)
                  for lvl in bank.cur_state_levels() + bank.input_levels()]
        pairs = explicit_pairs(ad, ad)
        assert m.count_sat(reach, levels) == len(pairs)
        for c1, c2 in pairs:
            assert m.eval_node(reach, {**bank_assignment(enc.left, c1),
                                       **bank_assignment(enc.right, c2)}), (c1, c2)


@pytest.mark.parametrize("seed", SEEDS)
def test_images_one_side_at_a_time_match_conjoined_relations(seed):
    for left, right, _ in _results(seed):
        assert_images_match_conjoined_relations(left, right)


def test_generator_reaches_every_construct(monkeypatch):
    """Across the seeds: every block kind, decisions on the input and on
    the counter, more than one guard form, negative ranges, inputs both
    declared alike and redeclared with left values the right range lacks,
    differences under trace semantics, and explicit firings blocked by a
    range and by an occupied edge."""
    blocked = {"range": 0, "token": 0}
    apply_effects, move = model._apply_effects, model._move

    def counting_apply(*args):
        try:
            return apply_effects(*args)
        except model.RangeViolationError:
            blocked["range"] += 1
            raise

    def counting_move(*args):
        out = move(*args)
        blocked["token"] += out is None
        return out

    monkeypatch.setattr(model, "_apply_effects", counting_apply)
    monkeypatch.setattr(model, "_move", counting_move)
    seen: set[str] = set()
    trace_diffs = 0
    for seed in SEEDS:
        for spec in random_pair(seed):
            for b in _walk(spec["blocks"]):
                seen |= {b[1]} if b[0] == "fork" else {b[0]}
                seen |= {f"dec-{b[1]}", b[3]} if b[0] == "dec" else set()
            seen |= {"negative"} if min(spec["x"] + spec["c"]) < 0 else set()
        (lo1, hi1), (lo2, hi2) = (spec["x"] for spec in random_pair(seed))
        seen |= {"x-alike"} if (lo1, hi1) == (lo2, hi2) else {"x-redeclared"}
        seen |= {"x-unpaired"} if lo1 < lo2 or hi1 > hi2 else set()
        for left, _, res in _results(seed):
            trace_diffs += res.has_diffs and res.semantics == "trace"
            model.build_explicit_ts(left)
    assert seen >= {"act", "loop", "join", "merge", "dec-x", "dec-c", "split",
                    "negative", "x-alike", "x-redeclared", "x-unpaired"} \
        and seen & {"overlap", "gap"}
    assert trace_diffs
    assert blocked["range"] and blocked["token"], blocked
