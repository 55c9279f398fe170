"""Brute-force reference implementations for both diff engines.

Everything here trades speed for obviousness: exhaustive enumeration for
class diagrams, explicit subset-construction BFS for activity diagrams.
Desk scale only; the engines are tested against these, never built on them.
"""

from __future__ import annotations

from collections import deque
from itertools import product

from .ad.model import (ActivityDiagram, Configuration, initial_configs,
                       observable_steps)
from .cd.model import (ClassDiagram, Link, ObjectModel, classes_of, is_instance,
                       name_objects)
from .errors import LimitError
from .record import record as dataclass


class ScopeTooLargeError(ValueError):
    """cd_enumerate_all refuses scopes past 4 objects."""


class StateBudgetExceededError(LimitError, RuntimeError):
    """ad_diff_bfs walked past its node budget."""


MAX_ORACLE_SCOPE = 4


# ------------------------------------------------------------ class diagrams

def enumerate_object_models(cd: ClassDiagram, scope: int):
    """Every object model over cd's concrete classes with 1..scope objects.

    Objects are named by `name_objects`; link sets are enumerated as
    bitmasks over the conforming pairs, ascending.  Isomorphic relabelings
    are not deduplicated.
    """
    classes = cd.concrete_classes()
    for total in range(1, scope + 1):
        for counts in _count_vectors(total, len(classes)):
            objects = name_objects(zip(classes, counts))
            pairs = _link_pairs(cd, objects)
            for mask in range(1 << len(pairs)):
                links = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
                yield ObjectModel("candidate", objects, links)


def _count_vectors(total: int, k: int):
    # all ways to split `total` objects over k classes (zeros allowed)
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _count_vectors(total - first, k - 1):
            yield (first,) + rest


def _link_pairs(cd: ClassDiagram, objects) -> list[Link]:
    from .cd.model import conforms
    pairs = []
    for asc in cd.associations:
        for oa, ca in objects:
            if not conforms(cd, ca, asc.class_a):
                continue
            for ob, cb in objects:
                if conforms(cd, cb, asc.class_b):
                    pairs.append(Link(asc.name, oa, ob))
    return pairs


@dataclass
class CdDiffOracle:
    witnesses: list[ObjectModel]
    by_class_set: dict[tuple[str, ...], list[ObjectModel]]

    def keys(self) -> list[tuple[str, ...]]:
        return sorted(self.by_class_set)


def cd_enumerate_all(cd1: ClassDiagram, cd2: ClassDiagram, scope: int) -> CdDiffOracle:
    """All witnesses in sem(cd1) \\ sem(cd2) with at most `scope` objects."""
    if scope > MAX_ORACLE_SCOPE:
        raise ScopeTooLargeError(f"oracle scope capped at {MAX_ORACLE_SCOPE}, got {scope}")
    witnesses = []
    by_key: dict[tuple[str, ...], list[ObjectModel]] = {}
    for om in enumerate_object_models(cd1, scope):
        if is_instance(om, cd1) and not is_instance(om, cd2):
            witnesses.append(om)
            by_key.setdefault(classes_of(om), []).append(om)
    return CdDiffOracle(witnesses, by_key)


# --------------------------------------------------------- activity diagrams

Valuation = tuple[tuple[str, int], ...]


def input_valuation(ad: ActivityDiagram, c: Configuration) -> Valuation:
    names = {v.name for v in ad.inputs}
    return tuple((k, v) for k, v in c.valuation if k in names)


@dataclass
class AdDiffOracle:
    """Shortest diff traces of ad1 against ad2, per initial valuation.

    ql maps each action list to the sorted valuations it is minimal for;
    shortest maps each diverging valuation to its minimal diff-trace length.
    """

    ql: dict[tuple[str, ...], tuple[Valuation, ...]]
    shortest: dict[Valuation, int]

    def qs(self) -> dict[tuple[str, ...], tuple[Valuation, ...]]:
        out: dict[tuple[str, ...], set[Valuation]] = {}
        for actions, vals in self.ql.items():
            key = tuple(sorted(set(actions)))
            out.setdefault(key, set()).update(vals)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    def projections(self, key: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
        per_var: dict[str, set[int]] = {}
        for val in self.ql[key]:
            for name, x in val:
                per_var.setdefault(name, set()).add(x)
        return {k: tuple(sorted(v)) for k, v in per_var.items()}


def ad_diff_bfs(ad1: ActivityDiagram, ad2: ActivityDiagram,
                *, node_budget: int = 200_000) -> AdDiffOracle:
    """Subset-construction BFS for the shortest diff traces per valuation.

    A node is (ad1 configuration, set of ad2 configurations reached by the
    same observable trace).  On the first level where any ad1 action has no
    ad2 match, all the diverging traces of that level are recorded and the
    valuation's search ends.
    """
    shared = {v.name for v in ad1.inputs} & {v.name for v in ad2.inputs}
    inits2 = initial_configs(ad2)
    steps1: dict[Configuration, list] = {}
    steps2: dict[Configuration, list] = {}

    def st(ad, cache, c):
        if c not in cache:
            cache[c] = observable_steps(ad, c)
        return cache[c]

    ql: dict[tuple[str, ...], set[Valuation]] = {}
    shortest: dict[Valuation, int] = {}
    expanded = 0

    for c1 in initial_configs(ad1):
        val = input_valuation(ad1, c1)
        pin = {k: v for k, v in val if k in shared}
        s2 = frozenset(c for c in inits2
                       if all(c.env()[k] == v for k, v in pin.items()))
        # frontier: (c1, s2) -> the action lists that reached it
        frontier: dict[tuple[Configuration, frozenset], set[tuple[str, ...]]] = {
            (c1, s2): {()}}
        visited = {(c1, s2)}
        length = 0
        while frontier:
            length += 1
            nxt: dict[tuple[Configuration, frozenset], set[tuple[str, ...]]] = {}
            diverged: set[tuple[str, ...]] = set()
            for (c1_, s2_), ws in frontier.items():
                expanded += 1
                if expanded > node_budget:
                    raise StateBudgetExceededError(
                        f"{ad1.name} vs {ad2.name}: more than {node_budget} nodes")
                for step in st(ad1, steps1, c1_):
                    succ2 = frozenset(
                        t.successor for c2 in s2_ for t in st(ad2, steps2, c2)
                        if t.action == step.action)
                    if not succ2:
                        diverged.update(w + (step.action,) for w in ws)
                    else:
                        node = (step.successor, succ2)
                        if node in visited and node not in nxt:
                            continue  # reached earlier: longer paths lose
                        visited.add(node)
                        nxt.setdefault(node, set()).update(
                            w + (step.action,) for w in ws)
            if diverged:
                shortest[val] = length
                for w in sorted(diverged):
                    ql.setdefault(w, set()).add(val)
                break
            frontier = nxt

    return AdDiffOracle({k: tuple(sorted(v)) for k, v in ql.items()}, shortest)


def trace_in(ad: ActivityDiagram, valuation: dict[str, int],
             actions: tuple[str, ...]) -> bool:
    """Is `actions` a trace of ad from the given input valuation?"""
    configs = {c for c in initial_configs(ad)
               if all(c.env()[k] == v for k, v in valuation.items())}
    for a in actions:
        configs = {s.successor for c in configs for s in observable_steps(ad, c)
                   if s.action == a}
        if not configs:
            return False
    return True


def is_diff_trace(ad1: ActivityDiagram, ad2: ActivityDiagram,
                  valuation: dict[str, int], actions: tuple[str, ...]) -> bool:
    """Trace of ad1, every proper prefix a trace of ad2, full list not."""
    if not actions:
        return False
    if not trace_in(ad1, valuation, actions):
        return False
    shared = {v.name for v in ad1.inputs} & {v.name for v in ad2.inputs}
    pin = {k: v for k, v in valuation.items() if k in shared}
    for i in range(len(actions)):
        if not trace_in(ad2, pin, actions[:i]):
            return False
    return not trace_in(ad2, pin, actions)
