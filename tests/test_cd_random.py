"""Seeded random class-diagram pairs, cross-checked against the oracle.

Each seed draws a small diagram (at most four classes, inheritance,
abstract classes, mixed multiplicities) and a mutated copy of it, through
`random.Random(seed)` only, so every case is reproducible from its seed.
The mutation changes multiplicities, or from RETARGET_FROM on moves one
end of each kept association to another class and keeps its
multiplicities, so that only link endpoints tell those pairs apart.
From RAISE_FROM on it only raises one finite upper bound by one, so one
direction's witnesses need an object with more partners than the other
diagram allows: the search finds them by pinning a partner count.
The checks compare the bounded search with the exhaustive enumeration of
`semdiff.oracle`, and conformance, the member table and the partner
prune with references written here, the last on deeper hierarchies.

The oracle enumerates every link subset of every universe, 2^pairs models
each, so a draw is repeated (from the same generator) until that total at
scope 3 stays within ORACLE_BUDGET models.
"""

from __future__ import annotations

import random

import pytest

from semdiff.cd import (Association, ClassDecl, ClassDiagram, MultRange,
                        cddiff_summary, check_instance, classes_of, conforms,
                        enumerate_witnesses, is_instance, validate_cd)
from semdiff.cd.diff import (_assoc_links, _candidate_class_sets, _covered,
                             _may_instantiate)
from semdiff.cd.model import UNBOUNDED
from semdiff.oracle import cd_enumerate_all, enumerate_object_models

SCOPE = 3
SEEDS = range(30)
RETARGET_FROM = 12
RAISE_FROM = 24
ORACLE_BUDGET = 20_000
NAMES = ("A", "B", "C", "D")
MULTS = (MultRange(0, 1), MultRange(1, 1), MultRange(0, UNBOUNDED),
         MultRange(1, UNBOUNDED), MultRange(0, 2), MultRange(2, 2))


def _classes(rng: random.Random, names) -> list[ClassDecl]:
    """Parents only point backwards, so the hierarchy is acyclic."""
    out = []
    for i, name in enumerate(names):
        parent = rng.choice(names[:i]) if i and rng.random() < 0.4 else None
        out.append(ClassDecl(name, rng.random() < 0.25, parent))
    if all(c.abstract for c in out):
        out[-1] = ClassDecl(out[-1].name, False, out[-1].parent)
    return out


def _mutated(rng: random.Random, cd: ClassDiagram, retarget: bool) -> ClassDiagram:
    names = [c.name for c in cd.classes]
    classes = []
    for i, c in enumerate(cd.classes):
        abstract = c.abstract != (rng.random() < 0.2)
        parent = c.parent
        if rng.random() < 0.3:
            parent = rng.choice((None,) + tuple(names[:i]))
        classes.append(ClassDecl(c.name, abstract, parent))
    if all(c.abstract for c in classes):
        classes[0] = ClassDecl(classes[0].name, False, classes[0].parent)
    assocs = []
    for a in cd.associations:
        if rng.random() < 0.15:
            continue
        if retarget:
            ends = [a.class_a, a.class_b]
            side = rng.randrange(2)
            ends[side] = rng.choice([n for n in names if n != ends[side]])
            assocs.append(Association(a.name, ends[0], a.mult_a, ends[1], a.mult_b))
            continue
        mult_a, mult_b = a.mult_a, a.mult_b
        if rng.random() < 0.5:
            mult_a = rng.choice(MULTS)
        if rng.random() < 0.5:
            mult_b = rng.choice(MULTS)
        assocs.append(Association(a.name, a.class_a, mult_a, a.class_b, mult_b))
    return validate_cd(ClassDiagram(cd.name + "_mutated", tuple(classes), tuple(assocs)))


def _raised(rng: random.Random, cd: ClassDiagram) -> ClassDiagram | None:
    """cd with one finite upper bound raised by one, or None when it has none."""
    ends = [(i, side) for i, a in enumerate(cd.associations)
            for side in ("mult_a", "mult_b") if getattr(a, side).hi != UNBOUNDED]
    if not ends:
        return None
    i, side = rng.choice(ends)
    a = cd.associations[i]
    old = getattr(a, side)
    mults = {"mult_a": a.mult_a, "mult_b": a.mult_b, side: MultRange(old.lo, old.hi + 1)}
    raised = Association(a.name, a.class_a, mults["mult_a"], a.class_b, mults["mult_b"])
    assocs = cd.associations[:i] + (raised,) + cd.associations[i + 1:]
    return validate_cd(ClassDiagram(cd.name + "_raised", cd.classes, assocs))


def _oracle_work(cd: ClassDiagram, scope: int) -> int:
    """Models the oracle enumerates: 2^pairs summed over its universes."""
    concrete = cd.concrete_classes()

    def counts(total, k):
        if k == 0:
            if total == 0:
                yield ()
            return
        for first in range(total + 1):
            for rest in counts(total - first, k - 1):
                yield (first,) + rest

    work = 0
    for total in range(1, scope + 1):
        for vec in counts(total, len(concrete)):
            n = dict(zip(concrete, vec))
            pairs = 0
            for a in cd.associations:
                na = sum(m for c, m in n.items() if conforms(cd, c, a.class_a))
                nb = sum(m for c, m in n.items() if conforms(cd, c, a.class_b))
                pairs += na * nb
            work += 1 << pairs
    return work


def random_pair(seed: int) -> tuple[ClassDiagram, ClassDiagram]:
    rng = random.Random(seed)
    while True:
        names = NAMES[:rng.randint(2, 4)]
        assocs = tuple(
            Association(f"r{i + 1}", rng.choice(names), rng.choice(MULTS),
                        rng.choice(names), rng.choice(MULTS))
            for i in range(rng.randint(1, 2)))
        cd1 = validate_cd(ClassDiagram(f"rand{seed}", tuple(_classes(rng, names)), assocs))
        if seed >= RAISE_FROM:
            cd2 = _raised(rng, cd1)
            if cd2 is None:
                continue
        else:
            cd2 = _mutated(rng, cd1, retarget=seed >= RETARGET_FROM)
        if max(_oracle_work(cd1, SCOPE), _oracle_work(cd2, SCOPE)) <= ORACLE_BUDGET:
            return cd1, cd2


def _renamed_shuffled(rng: random.Random, cd: ClassDiagram) -> ClassDiagram:
    classes, assocs = list(cd.classes), list(cd.associations)
    rng.shuffle(classes)
    rng.shuffle(assocs)
    return validate_cd(ClassDiagram(cd.name + "_copy", tuple(classes), tuple(assocs)))


@pytest.mark.parametrize("seed", SEEDS)
def test_summary_matches_exhaustive_oracle(seed):
    for cd1, cd2 in (random_pair(seed), random_pair(seed)[::-1]):
        report = cddiff_summary(cd1, cd2, SCOPE)
        assert sorted(e.key.names for e in report.entries) == \
            cd_enumerate_all(cd1, cd2, SCOPE).keys()
        for e in report.entries:
            om = e.representative
            assert check_instance(om, cd1).ok and not is_instance(om, cd2)
            assert classes_of(om) == e.key.names


@pytest.mark.parametrize("seed", SEEDS)
def test_self_and_refactored_copy_diffs_are_empty(seed):
    rng = random.Random(f"copy:{seed}")
    for cd in random_pair(seed):
        copy = _renamed_shuffled(rng, cd)
        assert cddiff_summary(cd, cd, SCOPE).entries == []
        assert cddiff_summary(cd, copy, SCOPE).entries == []
        assert cddiff_summary(copy, cd, SCOPE).entries == []


def _pruned_sets(cd: ClassDiagram) -> list[tuple[str, ...]]:
    return [cs for cs in _candidate_class_sets(cd, SCOPE) if not _may_instantiate(cd, cs)]


@pytest.mark.parametrize("seed", SEEDS)
def test_pruned_class_sets_have_no_instance(seed):
    for cd in random_pair(seed):
        instantiated = {classes_of(om) for om in enumerate_object_models(cd, SCOPE)
                        if is_instance(om, cd)}
        assert instantiated.isdisjoint(_pruned_sets(cd))


def test_prune_fires_on_some_seed():
    assert any(_pruned_sets(cd) for seed in SEEDS for cd in random_pair(seed))


def test_a_pinned_partner_count_finds_a_witness_on_some_seed(monkeypatch):
    # `_universe_witness` pins one object's partner count only once the
    # canonical instance conforms to cd2 and no link cd2 rejects can be forced
    found = []

    def recording(*args, pin=None, **kwargs):
        links = _assoc_links(*args, pin=pin, **kwargs)
        if pin is not None and links is not None:
            found.append(pin)
        return links

    monkeypatch.setattr("semdiff.cd.diff._assoc_links", recording)
    for seed in range(RAISE_FROM, SEEDS.stop):
        for cd1, cd2 in (random_pair(seed), random_pair(seed)[::-1]):
            cddiff_summary(cd1, cd2, SCOPE)
    assert found


def _walk_conforms(cd: ClassDiagram, sub: str, sup: str) -> bool:
    """Follow parents from `sub` for at most len(classes) hops; the first
    declaration of a name is the one that counts."""
    parent: dict[str, str | None] = {}
    for c in cd.classes:
        parent.setdefault(c.name, c.parent)
    cur: str | None = sub
    for _ in range(len(cd.classes) + 1):
        if cur == sup:
            return True
        if cur not in parent:
            return False
        cur = parent[cur]
    return False


@pytest.mark.parametrize("seed", SEEDS)
def test_conforms_matches_a_parent_walk(seed):
    # unvalidated hierarchies too: duplicates, dangling parents, cycles
    rng = random.Random(f"conforms:{seed}")
    names = list(NAMES[:rng.randint(1, 4)])
    pool = names + ["Ghost"]
    raw = ClassDiagram("raw", tuple(
        ClassDecl(rng.choice(names), False,
                  rng.choice(pool) if rng.random() < 0.7 else None)
        for _ in range(rng.randint(1, 5))), ())
    queries = pool + ["Nobody"]
    for cd in random_pair(seed) + (raw,):
        for sub in queries:
            for sup in queries:
                assert conforms(cd, sub, sup) == _walk_conforms(cd, sub, sup), \
                    (cd.classes, sub, sup)


# -- the per-diagram tables: who conforms to each class, and who needs whom --

def deep_hierarchy(seed: int) -> ClassDiagram:
    """A seeded hierarchy three or four levels deep: a root, abstract middle
    classes under it, concrete classes under those or under each other,
    and associations between any of them.  Unvalidated: one class extends
    the undeclared `Ghost`."""
    rng = random.Random(f"deep:{seed}")
    classes = [ClassDecl("Root", rng.random() < 0.5)]
    middles = [f"M{i}" for i in range(rng.randint(1, 3))]
    classes += [ClassDecl(m, True, "Root") for m in middles]
    leaves: list[str] = []
    for i in range(rng.randint(2, 5)):
        parent = rng.choice(middles + leaves[:1])
        leaves.append(f"L{i}")
        classes.append(ClassDecl(leaves[-1], rng.random() < 0.2, parent))
    classes.append(ClassDecl("Orphan", False, "Ghost"))
    names = [c.name for c in classes]
    assocs = tuple(
        Association(f"r{i + 1}", rng.choice(names), rng.choice(MULTS),
                    rng.choice(names), rng.choice(MULTS))
        for i in range(rng.randint(2, 4)))
    return ClassDiagram(f"deep{seed}", tuple(classes), assocs)


@pytest.mark.parametrize("seed", SEEDS)
def test_member_table_matches_a_parent_walk(seed):
    cd = deep_hierarchy(seed)
    assert any(_walk_conforms(cd, c.name, "Root") and c.parent not in ("Root", None)
               for c in cd.classes)  # three levels at least
    queries = [c.name for c in cd.classes] + ["Ghost", "Nobody"]
    for sup in queries:
        assert cd.members(sup) <= set(queries)
        for sub in queries:
            assert (sub in cd.members(sup)) == conforms(cd, sub, sup) == \
                _walk_conforms(cd, sub, sup), (sub, sup)


def _may_instantiate_by_conforms(cd: ClassDiagram, class_set) -> bool:
    for a in cd.associations:
        for own, rng, other in ((a.class_a, a.mult_b, a.class_b),
                                (a.class_b, a.mult_a, a.class_a)):
            if rng.lo >= 1 and any(conforms(cd, c, own) for c in class_set) and \
               not any(conforms(cd, c, other) for c in class_set):
                return False
    return True


def test_may_instantiate_matches_a_conforms_reference():
    verdicts = set()
    for seed in SEEDS:
        cd = deep_hierarchy(seed)
        for cs in _candidate_class_sets(cd, len(cd.classes)):
            verdict = _may_instantiate(cd, cs)
            assert verdict == _may_instantiate_by_conforms(cd, cs), (seed, cs)
            verdicts.add(verdict)
    assert verdicts == {True, False}


# -- the cover: class sets proven free of witnesses without a search ----------

@pytest.mark.parametrize("seed", SEEDS)
def test_covered_class_sets_have_no_oracle_witness(seed):
    # a cover holds at every size and for every subset of the set; the
    # largest set, all of cd1's concrete classes, is the whole-diagram cover
    for cd1, cd2 in (random_pair(seed), random_pair(seed)[::-1]):
        witnessed = cd_enumerate_all(cd1, cd2, SCOPE).keys()
        for cs in _candidate_class_sets(cd1, len(cd1.classes)):
            if _covered(cd1, cd2, cs):
                assert not [w for w in witnessed if set(w) <= set(cs)], cs


def _canonical(om) -> tuple[frozenset, frozenset]:
    return frozenset(om.objects), frozenset(om.links)


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_enumeration_matches_the_oracle_witnesses(seed):
    for cd1, cd2 in (random_pair(seed), random_pair(seed)[::-1]):
        engine = [_canonical(om) for om in enumerate_witnesses(cd1, cd2, SCOPE)]
        oracle = [_canonical(om) for om in cd_enumerate_all(cd1, cd2, SCOPE).witnesses]
        assert len(engine) == len(set(engine))
        assert set(engine) == set(oracle)


@pytest.mark.parametrize("seed", SEEDS)
def test_refactored_copies_are_covered_as_whole_diagrams(seed):
    rng = random.Random(f"cover:{seed}")
    for cd in random_pair(seed):
        copy = _renamed_shuffled(rng, cd)
        for left, right in ((cd, cd), (cd, copy), (copy, cd)):
            assert _covered(left, right, left.concrete_classes())


def _cover_calls(monkeypatch, cd1: ClassDiagram, cd2: ClassDiagram):
    """(class set, verdict) of every cover test one summary makes."""
    calls = []

    def recording(left, right, class_set):
        verdict = _covered(left, right, class_set)
        calls.append((tuple(class_set), verdict))
        return verdict

    monkeypatch.setattr("semdiff.cd.diff._covered", recording)
    cddiff_summary(cd1, cd2, SCOPE)
    return calls


def test_whole_and_per_set_covers_each_fire_on_some_seed(monkeypatch):
    whole = per_set = False
    for seed in SEEDS:
        for cd1, cd2 in (random_pair(seed), random_pair(seed)[::-1]):
            first, *rest = _cover_calls(monkeypatch, cd1, cd2)
            whole |= first[1]
            per_set |= any(verdict for _, verdict in rest)
    assert whole and per_set


def test_a_changed_endpoint_alone_is_not_covered():
    # B leaves A's hierarchy: cd2 no longer counts B objects at r's end, so
    # only the endpoint check sees that B -- C links became illegal
    many = MultRange(0, UNBOUNDED)
    r = (Association("r", "A", many, "C", many),)
    cd1 = validate_cd(ClassDiagram("ends_v1", (
        ClassDecl("A"), ClassDecl("B", parent="A"), ClassDecl("C")), r))
    cd2 = validate_cd(ClassDiagram("ends_v2", (
        ClassDecl("A"), ClassDecl("B"), ClassDecl("C")), r))
    assert not _covered(cd1, cd2, cd1.concrete_classes())
    assert _covered(cd2, cd1, cd2.concrete_classes())
    assert [e.key.names for e in cddiff_summary(cd1, cd2, SCOPE).entries] == \
        cd_enumerate_all(cd1, cd2, SCOPE).keys() == [("A", "B", "C"), ("B", "C")]


def _instance_verdicts(seed: int) -> list[tuple[bool, bool]]:
    """(is_instance, check_instance(...).ok) for every model of either
    diagram up to two objects, checked against both diagrams."""
    cd1, cd2 = random_pair(seed)
    return [(is_instance(om, cd), check_instance(om, cd).ok)
            for source in (cd1, cd2) for om in enumerate_object_models(source, 2)
            for cd in (cd1, cd2)]


@pytest.mark.parametrize("seed", SEEDS)
def test_is_instance_agrees_with_check_instance(seed):
    verdicts = _instance_verdicts(seed)
    assert verdicts and all(lazy == full for lazy, full in verdicts)


def test_instance_verdicts_cover_both_answers():
    assert {full for seed in SEEDS for _, full in _instance_verdicts(seed)} == {True, False}
