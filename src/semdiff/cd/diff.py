"""Bounded witness search between two class diagrams.

A witness is an object model valid in cd1 and invalid in cd2.  The search
visits object universes (class multisets within scope) in one order:
ascending object count, class sets in canonical order, object counts in
composition order.  One loop (`_witnessed_universes`) walks it, decides
each universe at most once and re-checks every witness it finds against
both diagrams, so the summary and the enumeration (`--no-summary`) are
checked alike.  The summary folds the first witness of each class set
with `summarize`, skipping the set from then on; the enumeration streams
every instance of each witnessed universe.  A class set is skipped up
front when one of its classes needs a partner (an end with lo >= 1) that
no class in the set conforms to: no cd1-instance instantiates such a set.

Per universe, witness existence is decided exactly instead of by
enumerating link sets: multiplicities bound each object's per-position link
count, so one association's admissible link sets are the integral flows of
a small bipartite network with degree ranges.  The search builds a
canonical minimal instance, and if that already conforms to cd2 it retries
with one violation pinned (a link cd2 forbids, or a partner count outside
cd2's range); if no pin is feasible, no instance over the universe can
violate cd2, because cd2 checks links and per-object counts independently.

The same independence proves a class set free of witnesses without
searching it (`_covered`): when cd2 declares each class of the set
concrete, accepts every link cd1 allows between them, and admits every
partner count cd1 allows each object (zero where cd1 cannot link it), every
cd1-instance over the set is a cd2-instance, at any size.  The test runs
once on all of cd1's concrete classes, which covers every subset, and
otherwise on a set after one of its universes came back without a witness.
A "no differences" answer reached through the whole-diagram cover holds at
every size, not only up to the scope; stdout does not say which way it was
reached.

Facts of one diagram (the classes conforming to each class, the partner
needs the prune reads) are worked out once, on first use, and kept on it.
Once per run come the candidate sets, the whole-diagram cover, the skip
table and each flow network's answer by its shape, which `_choose_links`
alone decides (a 7-class chain at scope 5 asks 171 flows of 5 shapes).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from ..errors import InternalError
from ..summary import PartitionKey, SummaryReport, summarize
from .model import (UNBOUNDED, Association, ClassDiagram, Link, MultRange,
                    ObjectModel, check_instance, classes_of, is_instance)


ClassSet = tuple[str, ...]  # sorted class names


class WitnessCheckError(InternalError):
    """A witness failed its own re-check: an engine fault, never a
    property of the input diagrams."""

    what = "witness check failed"


def _check_scope(scope: int) -> None:
    """A scope is the most objects a witness may have; it must allow one."""
    if scope < 1:
        raise ValueError(f"scope must allow at least one object, got {scope}")


def _candidate_class_sets(cd1: ClassDiagram, size_cap: int) -> list[ClassSet]:
    names = sorted(cd1.concrete_classes())
    out: list[ClassSet] = []
    for k in range(1, min(size_cap, len(names)) + 1):
        out.extend(combinations(names, k))
    return sorted(out)  # canonical payload order


def _count_vectors(total: int, k: int) -> Iterator[tuple[int, ...]]:
    # every class in the candidate set gets at least one object
    if k == 1:
        yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _count_vectors(total - first, k - 1):
            yield (first,) + rest


def _hosts(cd: ClassDiagram, asc: Association, objects):
    members_a, members_b = cd.members(asc.class_a), cd.members(asc.class_b)
    return ([oid for oid, cls in objects if cls in members_a],
            [oid for oid, cls in objects if cls in members_b])


def _assoc_link_sets(cd1: ClassDiagram, asc: Association, objects) -> Iterator[tuple[Link, ...]]:
    """Link subsets for one association that meet cd1's multiplicities.

    Backtracks over the conforming pairs (exclude before include), pruning on
    the upper bounds as links are added and on the lower bounds as an
    object's pair block closes.
    """
    a_objs, b_objs = _hosts(cd1, asc, objects)
    pairs = [Link(asc.name, oa, ob) for oa in a_objs for ob in b_objs]
    a_count = dict.fromkeys(a_objs, 0)
    b_count = dict.fromkeys(b_objs, 0)
    lo_b, hi_b = asc.mult_b.lo, asc.mult_b.hi  # bounds position-B partners of an A object
    lo_a, hi_a = asc.mult_a.lo, asc.mult_a.hi  # bounds position-A partners of a B object

    chosen: list[Link] = []

    def rec(i: int) -> Iterator[tuple[Link, ...]]:
        if i == len(pairs):
            if all(c >= lo_b for c in a_count.values()) and \
               all(c >= lo_a for c in b_count.values()):
                yield tuple(chosen)
            return
        ln = pairs[i]
        # pairs are grouped by obj_a, so after the group's last pair the
        # object's position-B tally is final
        last_of_a = i + 1 == len(pairs) or pairs[i + 1].obj_a != ln.obj_a

        # leave the pair out
        if not (last_of_a and a_count[ln.obj_a] < lo_b):
            yield from rec(i + 1)

        # take it
        if (hi_b == -1 or a_count[ln.obj_a] < hi_b) and \
           (hi_a == -1 or b_count[ln.obj_b] < hi_a):
            a_count[ln.obj_a] += 1
            b_count[ln.obj_b] += 1
            chosen.append(ln)
            yield from rec(i + 1)
            chosen.pop()
            a_count[ln.obj_a] -= 1
            b_count[ln.obj_b] -= 1

    yield from rec(0)


def _universe_objects(class_set: ClassSet, counts: tuple[int, ...]):
    objects = []
    for cls, n in zip(class_set, counts):
        objects.extend((f"{cls.lower()}{i}", cls) for i in range(1, n + 1))
    return tuple(objects)


def _may_instantiate(cd1: ClassDiagram, class_set: ClassSet) -> bool:
    """False when some class of the set needs a partner (an end with lo >= 1)
    that no class of the set can be; then no cd1-instance has this set."""
    return all(needy.isdisjoint(class_set) or not partners.isdisjoint(class_set)
               for needy, partners in cd1.needs)


def _within(inner: MultRange, outer: MultRange) -> bool:
    return inner.lo >= outer.lo and (outer.hi == UNBOUNDED or
                                     inner.hi != UNBOUNDED and inner.hi <= outer.hi)


def _covered(cd1: ClassDiagram, cd2: ClassDiagram, class_set: Sequence[str]) -> bool:
    """True only when every cd1-instance whose classes all lie in the set,
    at any size, is also a cd2-instance; no universe of the set, or of a
    subset, then holds a witness.

    cd2 checks object classes, per-object counts and link endpoints
    independently, so it suffices that cd2 declares each class concrete,
    bounds every object it counts by a range containing each count cd1
    allows (cd1's range where cd1 can link the object there, else zero),
    and accepts every link cd1 allows between the set's classes.  An
    object that cd1 requires to have a partner the set lacks is in no
    cd1-instance over the set, so it needs no such range.  The counts are
    checked before the links: a changed multiplicity fails there within a
    few member-table lookups, where the link check scans every association.
    """
    for c in class_set:
        decl = cd2.decl(c)
        if decl is None or decl.abstract:
            return False
    for asc2 in cd2.associations:
        asc = cd1.association(asc2.name)
        ends1 = asc.ends() if asc is not None else (None, None)
        for (own2, range2, _), end1 in zip(asc2.ends(), ends1):
            linkable = end1 is not None and \
                not cd1.members(end1[2]).isdisjoint(class_set)
            counted2 = cd2.members(own2)
            for c in class_set:
                if c not in counted2:
                    continue  # cd2 does not count c's objects here
                own1 = end1 is not None and c in cd1.members(end1[0])
                if own1 and linkable:
                    if not _within(end1[1], range2):
                        return False
                # else c's objects have no link here: cd2 must admit 0, unless
                # cd1 needs a partner here and so admits no such object
                elif range2.lo > 0 and not (own1 and end1[1].lo > 0):
                    return False
    for asc in cd1.associations:
        ends_a = cd1.members(asc.class_a).intersection(class_set)
        ends_b = cd1.members(asc.class_b).intersection(class_set)
        if not (ends_a and ends_b):
            continue  # no link of asc between classes of the set
        asc2 = cd2.association(asc.name)
        if asc2 is None or not ends_a <= cd2.members(asc2.class_a) or \
           not ends_b <= cd2.members(asc2.class_b):
            return False
    return True


def _universes(cd1: ClassDiagram, scope: int,
               skip: dict[ClassSet, bool]) -> Iterator[tuple[ClassSet, tuple]]:
    """(class set, objects) of every universe in search order, pruned; a
    set is passed over once the caller's `skip` maps it to True."""
    class_sets = [cs for cs in _candidate_class_sets(cd1, scope)
                  if _may_instantiate(cd1, cs)]
    for total in range(1, scope + 1):
        for cs in class_sets:
            if len(cs) <= total:
                for counts in _count_vectors(total, len(cs)):
                    if skip.get(cs):
                        break
                    yield cs, _universe_objects(cs, counts)


def _universe_instances(cd1: ClassDiagram, objects,
                        name: str) -> Iterator[ObjectModel]:
    """All cd1-instances over a fixed object tuple, in backtracking order."""

    def rec(ai: int, links: tuple[Link, ...]) -> Iterator[ObjectModel]:
        if ai == len(cd1.associations):
            om = ObjectModel(name, objects, links)
            if is_instance(om, cd1):  # authoritative re-check
                yield om
            return
        for chunk in _assoc_link_sets(cd1, cd1.associations[ai], objects):
            yield from rec(ai + 1, links + chunk)

    yield from rec(0, ())


class _FlowNet:
    """Max flow by shortest augmenting paths; just big enough for link search."""

    def __init__(self, n: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def arc(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(idx + 1)  # residual twin at idx ^ 1
        self.to.append(u)
        self.cap.append(0)
        return idx

    def flow_on(self, idx: int) -> int:
        return self.cap[idx ^ 1]

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            prev = [-1] * len(self.adj)
            prev[s] = -2
            queue = [s]
            for u in queue:
                for idx in self.adj[u]:
                    v = self.to[idx]
                    if prev[v] == -1 and self.cap[idx] > 0:
                        prev[v] = idx
                        queue.append(v)
                if prev[t] != -1:
                    break
            if prev[t] == -1:
                return total
            push = min(self.cap[idx] for idx in _walk(prev, self.to, s, t))
            for idx in _walk(prev, self.to, s, t):
                self.cap[idx] -= push
                self.cap[idx ^ 1] += push
            total += push


def _walk(prev: list[int], to: list[int], s: int, t: int) -> Iterator[int]:
    v = t
    while v != s:
        idx = prev[v]
        yield idx
        v = to[idx ^ 1]


def _choose_links(n_a: int, n_b: int, a_rng, b_rng,
                  forced: tuple[int, int] | None = None) -> list[tuple[int, int]] | None:
    """One set of (a-index, b-index) pairs meeting per-node degree ranges.

    a_rng[i] bounds object i's pair count (links are simple, so at most one
    pair per partner); `forced` demands one specific pair be present.
    Feasibility with lower bounds reduces to plain max flow by routing each
    bound through a super source/sink.  Returns None when no set exists.
    """
    if any(lo > hi for lo, hi in a_rng) or any(lo > hi for lo, hi in b_rng):
        return None
    # nodes: 0 source, 1 sink, 2 super source, 3 super sink, then a, then b
    net = _FlowNet(4 + n_a + n_b)
    need = 0

    def bounded(u: int, v: int, lo: int, hi: int) -> int:
        nonlocal need
        idx = net.arc(u, v, hi - lo)
        if lo:
            net.arc(2, v, lo)
            net.arc(u, 3, lo)
            need += lo
        return idx

    for i, (lo, hi) in enumerate(a_rng):
        bounded(0, 4 + i, lo, hi)
    pair_arcs: list[tuple[int, int, int, int]] = []  # (i, j, arc, lo)
    for i in range(n_a):
        for j in range(n_b):
            lo = 1 if forced == (i, j) else 0
            pair_arcs.append((i, j, bounded(4 + i, 4 + n_a + j, lo, 1), lo))
    for j, (lo, hi) in enumerate(b_rng):
        bounded(4 + n_a + j, 1, lo, hi)
    net.arc(1, 0, sum(hi for _, hi in a_rng))  # close the circulation

    if net.max_flow(2, 3) != need:
        return None
    return sorted((i, j) for i, j, arc, lo in pair_arcs if net.flow_on(arc) + lo)


def _degree_caps(asc: Association, n_a: int, n_b: int) -> tuple[int, int]:
    hi_a = n_b if asc.mult_b.hi == UNBOUNDED else min(asc.mult_b.hi, n_b)
    hi_b = n_a if asc.mult_a.hi == UNBOUNDED else min(asc.mult_a.hi, n_a)
    return hi_a, hi_b


def _assoc_links(asc: Association, a_objs: list[str], b_objs: list[str],
                 forced: tuple[str, str] | None = None,
                 pin: tuple[str, str, int] | None = None,
                 flows: dict | None = None) -> tuple[Link, ...] | None:
    """Links from a_objs to b_objs, the hosts `_hosts` finds, within the
    association's multiplicities, or None.

    `forced` requires the given (obj_a, obj_b) link; `pin` fixes one object's
    partner count to an exact value ("a" pins a position-A object's count).
    `flows` maps `_choose_links` arguments to its answers, filled as asked.
    """
    hi_a, hi_b = _degree_caps(asc, len(a_objs), len(b_objs))
    a_rng = [(asc.mult_b.lo, hi_a)] * len(a_objs)
    b_rng = [(asc.mult_a.lo, hi_b)] * len(b_objs)
    if pin is not None:
        side, oid, v = pin
        if side == "a":
            a_rng[a_objs.index(oid)] = (v, v)
        else:
            b_rng[b_objs.index(oid)] = (v, v)
    f = (a_objs.index(forced[0]), b_objs.index(forced[1])) if forced else None
    args = (len(a_objs), len(b_objs), tuple(a_rng), tuple(b_rng), f)
    flows = {} if flows is None else flows
    chosen = flows[args] = flows[args] if args in flows else _choose_links(*args)
    if chosen is None:
        return None
    return tuple(Link(asc.name, a_objs[i], b_objs[j]) for i, j in chosen)


def _universe_witness(cd1: ClassDiagram, cd2: ClassDiagram, objects,
                      name: str, flows: dict) -> ObjectModel | None:
    """A witness instantiating exactly `objects`, or None when none exists.

    Builds a canonical cd1-instance first; if that conforms to cd2, any
    witness over the universe must bend one association into a link cd2
    rejects (unknown name or bad endpoint) or pin one object's partner count
    outside cd2's range, and each candidate bend is tried directly.  The
    count of links not owned by cd1 associations is zero in every
    cd1-instance, so conformance of the canonical instance rules those out.
    An association no object can join is skipped: it has no link to bend.
    `flows` is the run's memo of `_choose_links` answers.
    """
    base: dict[str, tuple[Link, ...]] = {}
    hosts: dict[str, tuple[list[str], list[str]]] = {}  # per universe, not per call
    for asc in cd1.associations:
        ends = _hosts(cd1, asc, objects)
        if not (ends[0] or ends[1]):
            continue
        links = _assoc_links(asc, *ends, flows=flows)
        if links is None:
            return None  # universe admits no cd1-instance
        hosts[asc.name], base[asc.name] = ends, links

    def build(override_name: str | None = None,
              override: tuple[Link, ...] = ()) -> ObjectModel:
        links: list[Link] = []
        for asc_name, chosen in base.items():
            links.extend(override if asc_name == override_name else chosen)
        om = ObjectModel(name, objects, tuple(links))
        if not is_instance(om, cd1):
            raise WitnessCheckError(f"a model built as an instance of {cd1.name} is not one")
        return om

    om = build()
    if not is_instance(om, cd2):
        return om

    cls_of = dict(objects)
    for asc in sorted(cd1.associations, key=lambda a: a.name):
        if asc.name not in hosts:
            continue
        a_objs, b_objs = hosts[asc.name]
        asc2 = cd2.association(asc.name)
        ok_a, ok_b = (cd2.members(asc2.class_a), cd2.members(asc2.class_b)) if asc2 else ((), ())
        # links cd2 rejects: every link when it lacks the name, else bad ends
        for oa in a_objs:
            for ob in b_objs:
                if cls_of[oa] in ok_a and cls_of[ob] in ok_b:
                    continue
                links = _assoc_links(asc, a_objs, b_objs, forced=(oa, ob), flows=flows)
                if links is not None:
                    return build(asc.name, links)
        if asc2 is None:
            continue
        # partner counts cd1 allows but cd2 rejects, pinned one object at a
        # time; objects outside cd2's end class are not counted by cd2, and
        # a zero count shared with the canonical instance cannot violate
        hi_a, hi_b = _degree_caps(asc, len(a_objs), len(b_objs))
        for side, objs, counted, lo, hi, allowed in (
                ("a", a_objs, ok_a, asc.mult_b.lo, hi_a, asc2.mult_b),
                ("b", b_objs, ok_b, asc.mult_a.lo, hi_b, asc2.mult_a)):
            for oid in objs:
                if cls_of[oid] not in counted:
                    continue
                for v in range(lo, hi + 1):
                    if allowed.contains(v):
                        continue
                    links = _assoc_links(asc, a_objs, b_objs, pin=(side, oid, v), flows=flows)
                    if links is not None:
                        return build(asc.name, links)
    return None


def _witnessed_universes(cd1: ClassDiagram, cd2: ClassDiagram, scope: int,
                         first_only: bool) -> Iterator[tuple[tuple, ObjectModel]]:
    """(objects, witness) per witnessed universe, in search order; with
    first_only, a class set is skipped after its first witness.

    Each witness is re-checked here, valid in cd1 (check_instance) and
    not an instance of cd2, else WitnessCheckError; _universe_witness
    checks each model it builds against cd1 as well.  A set is tested
    for a cover only once one of its universes has no witness, so sets
    that are witnessed at once never pay for the test.
    """
    _check_scope(scope)
    if _covered(cd1, cd2, cd1.concrete_classes()):
        return
    skip: dict[ClassSet, bool] = {}  # True: covered, or witnessed under first_only
    flows: dict = {}  # _choose_links answers, shared by every universe of the run
    for cs, objects in _universes(cd1, scope, skip):
        om = _universe_witness(cd1, cd2, objects, "witness", flows)
        if om is None:
            if cs not in skip:
                skip[cs] = _covered(cd1, cd2, cs)
            continue
        verdict = check_instance(om, cd1)
        if not verdict.ok:
            raise WitnessCheckError(
                f"a witness is invalid in {cd1.name}: {verdict.violations}")
        if is_instance(om, cd2):
            raise WitnessCheckError(f"a witness is an instance of {cd2.name}")
        if first_only:
            skip[cs] = True
        yield objects, om


def find_witness(cd1: ClassDiagram, cd2: ClassDiagram,
                 scope: int) -> ObjectModel | None:
    """Smallest witness by object count, or None when none exists in scope.

    Deterministic: the first witness of the search order the summary uses.
    """
    return next((om for _, om in _witnessed_universes(cd1, cd2, scope, True)), None)


def enumerate_witnesses(cd1: ClassDiagram, cd2: ClassDiagram, scope: int,
                        limit: int | None = None) -> Iterator[ObjectModel]:
    """Witnesses in search order, up to `limit`; every one, not one per set.

    The instance stream of a universe, possibly huge, runs only where the
    per-universe decision found a witness, read from the summary's loop
    without its skip after a first witness.
    """
    emitted = 0
    for objects, _ in _witnessed_universes(cd1, cd2, scope, False):
        for om in _universe_instances(cd1, objects, "witness"):
            if not is_instance(om, cd2):
                emitted += 1  # each witness is named by its own ordinal
                yield ObjectModel(f"witness{emitted}", om.objects, om.links)
                if limit is not None and emitted >= limit:
                    return


def cddiff_summary(cd1: ClassDiagram, cd2: ClassDiagram,
                   scope: int = 10) -> SummaryReport:
    """One representative witness per instantiated class set, exhaustively:
    the search loop's witnesses, re-checked there, folded by summarize.
    They are collected first, so a span around summarize times the fold alone."""
    found = [om for _, om in _witnessed_universes(cd1, cd2, scope, True)]
    return summarize(found, lambda om: PartitionKey.class_set(classes_of(om)),
                     partition_kind="class-set",
                     annotate=lambda om: f"{len(om.objects)} object(s)")
