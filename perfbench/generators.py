"""Seeded model-pair generators for the semdiff benchmark.

Every generator takes a `random.Random` and returns model texts plus the
answer each direction must produce.  The answers come from how the pair
was built, not from running the engine, so they check the engine
independently.  Same seed, same bytes: nothing here reads the clock, the
environment or hash order.

A job is one CLI run over one ordered pair; every family emits both
directions of each pair.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

# Sizes of each family.  NOTES.md explains the choice and where today's
# engine stops coping.
INTERLEAVE_WIDTH = 4
INTERLEAVE_DEPTH = 1
INTERLEAVE_INPUT_HI = 7
INTERLEAVE_EDGE_MOVES = 3
WIDE_INPUT_HI = 767
CHAIN_CLASSES = 7
CHAIN_SCOPE = 5
EQUIV_AD_WIDTH = 3
EQUIV_AD_DEPTH = 1
EQUIV_CHAIN_CLASSES = 8


@dataclass(frozen=True)
class Answer:
    """What one direction of a pair must print.

    exit: the CLI exit status (0 differences, 1 none).
    classes: for AD jobs, every (action list, input annotation) entry of
    the action-list summary; empty when no differences are expected.
    """

    exit: int
    semantics: str | None = None
    classes: frozenset[tuple[tuple[str, ...], str]] = frozenset()


@dataclass(frozen=True)
class Job:
    """One CLI run: subcommand, the two model texts, extra flags, answer."""

    kind: str  # "ad" or "cd"
    left: str
    right: str
    flags: tuple[str, ...]
    answer: Answer
    label: str


def _shuffled(rng: random.Random, items: list[str]) -> list[str]:
    out = list(items)
    rng.shuffle(out)
    return out


def _moved(rng: random.Random, items: list[str], moves: int) -> list[str]:
    """items with `moves` entries cut out and pasted elsewhere."""
    out = list(items)
    for _ in range(moves):
        item = out.pop(rng.randrange(len(out)))
        out.insert(rng.randrange(len(out) + 1), item)
    return out


# ----------------------------------------------------------- ad_interleave
#
# Why: a fork of w branches with d actions each and a late divergence
# (only the action after the join differs) yields every interleaving of
# the branches as its own difference class, (w*d)! / (d!)^w of them.
# That stresses the BDD package, the backward fixpoint, the forward
# split, concretize and rendering, while the encoding stays small.  The
# right diagram gets a seeded edit, the way a second author's would: its
# node declarations are reordered and a few edge declarations move.  Edge
# order is BDD variable order, so the edit changes the BDD sizes; a full
# shuffle of the edges swung one job between 0.17 s and 1.2 s, too wide
# for a steady median, so only a few edges move.

def _branch_names(w: int, d: int) -> list[list[str]]:
    return [[f"{chr(ord('a') + i)}{j + 1}" for j in range(d)] for i in range(w)]


def interleave_text(name: str, w: int, d: int, finish: str, *,
                    ids: dict[str, str] | None = None,
                    rng: random.Random | None = None,
                    edge_moves: int | None = None) -> str:
    """Fork of w branches of d actions, join, then one `finish` action.

    ids renames the control nodes.  rng, when given, shuffles the node
    declarations, and either shuffles the edges too (edge_moves None) or
    moves that many edge declarations to new places.
    """
    ids = ids or {}
    start, split = ids.get("start", "start"), ids.get("split", "split")
    sync, done = ids.get("sync", "sync"), ids.get("done", "done")
    branches = _branch_names(w, d)
    nodes = [f"initial {start};", f"fork {split};", f"join {sync};",
             f"action {finish};", f"final {done};"]
    nodes += [f"action {a};" for chain in branches for a in chain]
    edges = [f"edge {start} -> {split};", f"edge {sync} -> {finish};",
             f"edge {finish} -> {done};"]
    for chain in branches:
        path = [split, *chain, sync]
        edges += [f"edge {u} -> {v};" for u, v in zip(path, path[1:])]
    if rng is not None:
        nodes = _shuffled(rng, nodes)
        edges = (_shuffled(rng, edges) if edge_moves is None
                 else _moved(rng, edges, edge_moves))
    body = [f"input x : 0..{INTERLEAVE_INPUT_HI};", *nodes, *edges]
    return f"activitydiagram {name} {{\n" + "".join(
        f"  {ln}\n" for ln in body) + "}\n"


def interleavings(chains: list[list[str]]) -> set[tuple[str, ...]]:
    """Every merge of the chains that keeps each chain's own order."""
    total = sum(len(c) for c in chains)
    out: set[tuple[str, ...]] = set()
    for owners in set(itertools.permutations(
            [i for i, c in enumerate(chains) for _ in c], total)):
        pos = [0] * len(chains)
        seq = []
        for i in owners:
            seq.append(chains[i][pos[i]])
            pos[i] += 1
        out.add(tuple(seq))
    return out


def interleave_answer(w: int, d: int, finish: str) -> Answer:
    chains = _branch_names(w, d)
    lists = {seq + (finish,) for seq in interleavings(chains)}
    expected = math.factorial(w * d) // math.factorial(d) ** w
    if len(lists) != expected:
        raise AssertionError("interleaving count disagrees with the multinomial")
    note = f"x ∈ [0..{INTERLEAVE_INPUT_HI}]"
    return Answer(0, "trace", frozenset((acts, note) for acts in lists))


def ad_interleave_jobs(rng: random.Random, n: int) -> list[Job]:
    w, d = INTERLEAVE_WIDTH, INTERLEAVE_DEPTH
    jobs = []
    for k in range(n):
        left = interleave_text(f"fork{k}_v1", w, d, "ship")
        right = interleave_text(f"fork{k}_v2", w, d, "archive", rng=rng,
                                edge_moves=INTERLEAVE_EDGE_MOVES)
        jobs.append(Job("ad", left, right, (), interleave_answer(w, d, "ship"),
                        f"fork{k} v1>v2"))
        jobs.append(Job("ad", right, left, (), interleave_answer(w, d, "archive"),
                        f"fork{k} v2>v1"))
    return jobs


# ----------------------------------------------------------- ad_wide_input
#
# Why: the ticket pipeline of fixtures/ad_v1.ad against ad_v2.ad, with the
# input range widened to 0..R and seeded thresholds.  The encoding
# enumerates the whole input domain to compile each guard, and the
# determinism check builds the explicit transition system over R+1
# initial states, so `ad.encode` and `ad.model` carry the work while the
# fixpoint stays shallow.  The answer is the threshold interval that
# moved, plus the pipeline tails that differ below both thresholds.

def pipeline_text(name: str, hi: int, threshold: int, concurrent: bool) -> str:
    """ad_v1 shape (sequential, ends in report) or ad_v2 shape (fork)."""
    lines = [f"input tickets : 0..{hi};", "initial start;", "action register;",
             "decision route;", "action welcome_msg;"]
    if concurrent:
        lines += ["fork split;", "action reserve;", "action accounts;",
                  "action update;", "join sync;"]
    else:
        lines += ["action reserve;", "action accounts;", "action update;",
                  "action report;"]
    lines += ["final done;", "edge start -> register;", "edge register -> route;",
              f"edge route -> welcome_msg [tickets < {threshold}];",
              f"edge route -> done [tickets >= {threshold}];"]
    if concurrent:
        branches = ("reserve", "accounts", "update")
        lines += ["edge welcome_msg -> split;"]
        lines += [f"edge split -> {a};" for a in branches]
        lines += [f"edge {a} -> sync;" for a in branches]
        lines += ["edge sync -> done;"]
    else:
        chain = ["welcome_msg", "reserve", "accounts", "update", "report", "done"]
        lines += [f"edge {u} -> {v};" for u, v in zip(chain, chain[1:])]
    return f"activitydiagram {name} {{\n" + "".join(
        f"  {ln}\n" for ln in lines) + "}\n"


def _span(lo: int, hi: int) -> str:
    return f"tickets ∈ [{lo}..{hi}]"


def pipeline_answers(seq_threshold: int, fork_threshold: int) -> tuple[Answer, Answer]:
    """(sequential vs fork, fork vs sequential) for the two thresholds.

    Below both thresholds the sequential side's `report` has no match, and
    the fork side's `accounts`/`update` cannot follow `welcome_msg` on the
    sequential side.  Between the thresholds, the side with the higher one
    sends a welcome message the other never sends.
    """
    low = min(seq_threshold, fork_threshold)
    seq = {(("register", "welcome_msg", "reserve", "accounts", "update",
             "report"), _span(0, low - 1))}
    fork = {(("register", "welcome_msg", a), _span(0, low - 1))
            for a in ("accounts", "update")}
    moved = (("register", "welcome_msg"), _span(low, max(seq_threshold,
                                                         fork_threshold) - 1))
    if seq_threshold > fork_threshold:
        seq.add(moved)
    elif fork_threshold > seq_threshold:
        fork.add(moved)
    return (Answer(0, "trace", frozenset(seq)), Answer(0, "trace", frozenset(fork)))


def ad_wide_input_jobs(rng: random.Random, n: int) -> list[Job]:
    hi = WIDE_INPUT_HI
    jobs = []
    for k in range(n):
        t_seq, t_fork = rng.sample(range(3 * hi // 8, 5 * hi // 8), 2)
        seq = pipeline_text(f"tickets{k}_v1", hi, t_seq, concurrent=False)
        fork = pipeline_text(f"tickets{k}_v2", hi, t_fork, concurrent=True)
        a_seq, a_fork = pipeline_answers(t_seq, t_fork)
        jobs.append(Job("ad", seq, fork, (), a_seq, f"tickets{k} v1>v2"))
        jobs.append(Job("ad", fork, seq, (), a_fork, f"tickets{k} v2>v1"))
    return jobs


# ---------------------------------------------------------------- cd_chain
#
# Why: a chain of k classes linked by associations whose multiplicities
# alternate between tight ([1]) and loose ([0..1]); the other version
# flips the pattern.  Dozens of class sets differ, so the summary
# restarts its witness search once per class set and the conformance
# check is hot; no BDD work happens.  The seed picks which classes extend
# an abstract base class `Item`, which lengthens conformance walks
# without changing which object models are instances.  Seeded `extends`
# between chain classes made the number of differing class sets swing
# from 3 to 94 between seeds, too wide for a steady median.  The
# reference answer is the exhaustive oracle at scope 3, run by the gate.

def _chain_shape(rng: random.Random, k: int) -> tuple[list[str], set[str]]:
    """Class names of the chain and the seeded subset extending `Item`."""
    names = [chr(ord("A") + i) for i in range(k)]
    return names, set(rng.sample(names, k // 2))


def chain_text(name: str, names: list[str], extending: set[str], flipped: bool,
               *, rng: random.Random | None = None) -> str:
    classes = ["class Item abstract;"]
    classes += [f"class {c} extends Item;" if c in extending else f"class {c};"
                for c in names]
    assocs = []
    for i, (a, b) in enumerate(zip(names, names[1:])):
        tight_a = (i % 2 == 0) != flipped
        ma, mb = ("1", "0..1") if tight_a else ("0..1", "1")
        assocs.append(f"association r{i + 1} [{ma}] {a} -- {b} [{mb}];")
    if rng is not None:
        classes = _shuffled(rng, classes)
        assocs = _shuffled(rng, assocs)
    return f"classdiagram {name} {{\n" + "".join(
        f"  {ln}\n" for ln in classes + assocs) + "}\n"


def cd_chain_jobs(rng: random.Random, n: int) -> list[Job]:
    flags = ("--scope", str(CHAIN_SCOPE))
    jobs = []
    for k in range(n):
        shape = _chain_shape(rng, CHAIN_CLASSES)
        left = chain_text(f"chain{k}_v1", *shape, flipped=False)
        right = chain_text(f"chain{k}_v2", *shape, flipped=True)
        jobs.append(Job("cd", left, right, flags, Answer(0), f"chain{k} v1>v2"))
        jobs.append(Job("cd", right, left, flags, Answer(0), f"chain{k} v2>v1"))
    return jobs


# ------------------------------------------------------------------ equiv
#
# Why: refactoring checks.  A diagram against a renamed, declaration-
# shuffled copy of itself has no differences in either direction.  The
# AD fixpoint then saturates over pairs no run reaches, with no
# concretize or rendering, and the CD search exhausts the scope in a
# single witness search.  Gains for the diff-rich workloads that cost
# this use show up here.  Three AD pairs to one CD pair keep both the
# median and the 75th percentile inside the AD jobs' times.  The AD copy
# is shuffled in full, as a refactoring tool would; at this width that
# keeps job times within a narrow band.

def equiv_jobs(rng: random.Random, n: int) -> list[Job]:
    w, d = EQUIV_AD_WIDTH, EQUIV_AD_DEPTH
    none = Answer(1, "trace")
    jobs = []
    for k in range(n):
        if k % 4 == 3:
            shape = _chain_shape(rng, EQUIV_CHAIN_CLASSES)
            left = chain_text(f"model{k}", *shape, flipped=False)
            right = chain_text(f"model{k}_refactored", *shape, flipped=False,
                               rng=rng)
            flags = ("--scope", str(CHAIN_SCOPE))
            jobs.append(Job("cd", left, right, flags, Answer(1), f"model{k} >"))
            jobs.append(Job("cd", right, left, flags, Answer(1), f"model{k} <"))
            continue
        tag = f"{rng.randrange(16 ** 4):04x}"
        ids = {n_: f"{n_}_{tag}" for n_ in ("start", "split", "sync", "done")}
        left = interleave_text(f"flow{k}", w, d, "ship")
        right = interleave_text(f"flow{k}_refactored", w, d, "ship", ids=ids,
                                rng=rng)
        jobs.append(Job("ad", left, right, (), none, f"flow{k} >"))
        jobs.append(Job("ad", right, left, (), none, f"flow{k} <"))
    return jobs


FAMILIES = {
    "ad_interleave": ad_interleave_jobs,
    "ad_wide_input": ad_wide_input_jobs,
    "cd_chain": cd_chain_jobs,
    "equiv": equiv_jobs,
}


def make_jobs(workload: str, seed: int, pairs: int) -> list[Job]:
    """The job list of one workload; the seed alone fixes every byte."""
    return FAMILIES[workload](random.Random(f"{workload}:{seed}"), pairs)
