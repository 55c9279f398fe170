from __future__ import annotations

import json

import pytest

from semdiff.cd import (cddiff_summary, check_instance, classes_of, enumerate_witnesses,
                        find_witness, is_instance, validate_cd, validate_om)
from semdiff.cd import diff
from semdiff.cd.diff import (_assoc_links, _candidate_class_sets, _choose_links,
                             _count_vectors, _hosts, _universe_witness)
from semdiff.oracle import cd_enumerate_all
from semdiff.cli import _as_sets, main
from semdiff.parsing import parse_cd, parse_od, print_od


def test_scope_must_be_positive(cd_v1):
    # a self-diff is covered as a whole diagram, so the check must come
    # before the cover test returns
    for bad in (0, -1):
        with pytest.raises(ValueError, match="at least one object"):
            cddiff_summary(cd_v1, cd_v1, bad)
        with pytest.raises(ValueError, match="at least one object"):
            find_witness(cd_v1, cd_v1, bad)
        with pytest.raises(ValueError, match="at least one object"):
            list(enumerate_witnesses(cd_v1, cd_v1, bad))


def test_count_vectors_are_positive_compositions():
    assert list(_count_vectors(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(_count_vectors(3, 3)) == [(1, 1, 1)]
    assert list(_count_vectors(2, 3)) == []


def test_candidate_class_sets_are_canonical(cd_v1):
    sets = _candidate_class_sets(cd_v1, 2)
    assert sets == sorted(sets)
    assert all(cs == tuple(sorted(cs)) for cs in sets)
    assert ("Employee",) in sets and ("Employee", "Manager") in sets


# ------------------------------------------------------------- witnesses

def test_smallest_witness_is_the_self_managed_manager(cd_v1, cd_v2):
    om = find_witness(cd_v2, cd_v1, 5)
    assert om is not None
    assert [c for _, c in om.objects] == ["Manager"]
    (ln,) = om.links
    assert (ln.association, ln.obj_a, ln.obj_b) == ("manages", "manager1", "manager1")
    assert is_instance(om, cd_v2) and not is_instance(om, cd_v1)


def test_no_witness_between_equal_diagrams(cd_v1, cd_v2):
    assert find_witness(cd_v1, cd_v1, 10) is None
    assert find_witness(cd_v2, cd_v2, 10) is None


def test_witnesses_get_canonical_object_names(cd_v1, cd_v2):
    om = find_witness(cd_v1, cd_v2, 6)
    for oid, cls in om.objects:
        assert oid.startswith(cls.lower())


CASES_V1 = """classdiagram cases_v1 {
  class A;
  class a;
  association r [0..1] A -- a [0..1];
}
"""
CASES_V2 = CASES_V1.replace("cases_v1", "cases_v2").replace("a [0..1];", "a [1];")


def test_classes_differing_in_case_get_witnesses_that_declare_each_object_once(
        tmp_path, capsys):
    cd1, cd2 = parse_cd(CASES_V1), parse_cd(CASES_V2)
    summary = [e.representative for e in cddiff_summary(cd1, cd2, 3).entries]
    listed = list(enumerate_witnesses(cd1, cd2, 3))
    assert ("A", "a") in {classes_of(om) for om in summary}
    for om in summary + listed:
        assert validate_om(parse_od(print_od(om))) == om
        assert check_instance(om, cd1).ok and not is_instance(om, cd2)
    oracle = cd_enumerate_all(cd1, cd2, 3)
    assert {_as_sets(om) for om in listed} == {_as_sets(om) for om in oracle.witnesses}
    paths = []
    for name, text in (("cases_v1.cd", CASES_V1), ("cases_v2.cd", CASES_V2)):
        paths.append(tmp_path / name)
        paths[-1].write_text(text, encoding="utf-8")
    for flags in ((), ("--no-summary",)):
        assert main(["cddiff", *map(str, paths), "--scope", "3", "--oracle", *flags]) == 0
        assert capsys.readouterr().err.startswith("oracle agreement: ")


def test_a_lowered_upper_bound_is_witnessed_through_a_pinned_count(monkeypatch):
    # the canonical instance has no links and conforms to cd2, and cd2
    # rejects no link, so only pinning a1 to two partners finds the witness
    cd1 = parse_cd("classdiagram p1 { class A; class B; association r [0..1] A -- B [0..2]; }")
    cd2 = parse_cd("classdiagram p2 { class A; class B; association r [0..1] A -- B [0..1]; }")
    pins = []

    def recording(*args, pin=None, **kwargs):
        links = _assoc_links(*args, pin=pin, **kwargs)
        if pin is not None and links is not None:
            pins.append(pin)
        return links

    monkeypatch.setattr(diff, "_assoc_links", recording)
    (entry,) = cddiff_summary(cd1, cd2, 4).entries
    om = entry.representative
    assert entry.key.names == ("A", "B") and pins == [("a", "a1", 2)]
    assert om.objects == (("a1", "A"), ("b1", "B"), ("b2", "B"))
    assert sorted((ln.obj_a, ln.obj_b) for ln in om.links) == [("a1", "b1"), ("a1", "b2")]
    oracle = cd_enumerate_all(cd1, cd2, 4)
    assert oracle.keys() == [("A", "B")]
    assert _as_sets(om) in {_as_sets(w) for w in oracle.witnesses}


def test_a_lowered_upper_bound_at_position_b_is_witnessed_through_a_pinned_count(
        monkeypatch):
    # the mirror of the test above: b1 is pinned to two partners
    cd1 = parse_cd("classdiagram q1 { class A; class B; association r [0..2] A -- B [0..1]; }")
    cd2 = parse_cd("classdiagram q2 { class A; class B; association r [0..1] A -- B [0..1]; }")
    pinned = []

    def recording(*args):
        chosen = _choose_links(*args)
        if chosen is not None and args[3] == ((2, 2),):
            pinned.append(args)
        return chosen

    monkeypatch.setattr(diff, "_choose_links", recording)
    (entry,) = cddiff_summary(cd1, cd2, 4).entries
    om = entry.representative
    assert entry.key.names == ("A", "B") and pinned == [(2, 1, ((0, 1), (0, 1)), ((2, 2),), None)]
    assert om.objects == (("a1", "A"), ("a2", "A"), ("b1", "B"))
    assert sorted((ln.obj_a, ln.obj_b) for ln in om.links) == [("a1", "b1"), ("a2", "b1")]
    oracle = cd_enumerate_all(cd1, cd2, 4)
    assert oracle.keys() == [("A", "B")]
    assert _as_sets(om) in {_as_sets(w) for w in oracle.witnesses}


# ------------------------------------------------------------- summaries

def test_summary_partitions_by_class_set(cd_v1, cd_v2):
    report = cddiff_summary(cd_v2, cd_v1, 6)
    assert report.partition_kind == "class-set"
    assert [e.key.names for e in report.entries] == [
        ("Employee", "Manager"),
        ("Employee", "Manager", "Task"),
        ("Manager",),
        ("Manager", "Task"),
    ]
    for e in report.entries:
        assert check_instance(e.representative, cd_v2).ok
        assert not is_instance(e.representative, cd_v1)
        assert classes_of(e.representative) == e.key.names
        assert e.annotation == f"{len(e.representative.objects)} object(s)"


def test_summary_reverse_direction(cd_v1, cd_v2):
    report = cddiff_summary(cd_v1, cd_v2, 6)
    assert [e.key.names for e in report.entries] == [
        ("Employee", "Manager"),
        ("Employee", "Manager", "Task"),
        ("Manager",),
    ]


def test_summary_empty_for_self_diff(cd_v1, cd_v2):
    assert cddiff_summary(cd_v1, cd_v1, 6).entries == []
    assert cddiff_summary(cd_v2, cd_v2, 6).entries == []


def test_summary_is_deterministic(cd_v1, cd_v2):
    a = cddiff_summary(cd_v2, cd_v1, 6)
    b = cddiff_summary(cd_v2, cd_v1, 6)
    assert a.entries == b.entries


def test_summary_accepts_plain_int_scope(cd_v1, cd_v2):
    assert [e.key.names for e in cddiff_summary(cd_v2, cd_v1, 3).entries] == \
        cd_enumerate_all(cd_v2, cd_v1, 3).keys()


# ------------------------------------------------------------- enumeration

def test_enumeration_matches_exhaustive_oracle_counts(cd_v1, cd_v2):
    assert len(list(enumerate_witnesses(cd_v1, cd_v2, 3))) == \
        len(cd_enumerate_all(cd_v1, cd_v2, 3).witnesses) == 9
    assert len(list(enumerate_witnesses(cd_v2, cd_v1, 3))) == \
        len(cd_enumerate_all(cd_v2, cd_v1, 3).witnesses) == 54


def test_enumeration_is_sound_and_respects_limit(cd_v1, cd_v2):
    ws = list(enumerate_witnesses(cd_v2, cd_v1, 10, limit=20))
    assert len(ws) == 20
    for w in ws:
        assert is_instance(w, cd_v2) and not is_instance(w, cd_v1)
    covered = {classes_of(w) for w in ws}
    assert covered == {
        ("Employee", "Manager"),
        ("Employee", "Manager", "Task"),
        ("Manager",),
        ("Manager", "Task"),
    }


def test_enumeration_orders_by_object_count(cd_v1, cd_v2):
    sizes = [len(w.objects) for w in enumerate_witnesses(cd_v2, cd_v1, 3)]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize("limit", [None, 7])
def test_enumerated_witnesses_are_named_by_their_ordinal(cd_v1, cd_v2, limit):
    # several witnesses share a universe; each still gets its own name
    ws = list(enumerate_witnesses(cd_v2, cd_v1, 3, limit=limit))
    assert [w.name for w in ws] == [f"witness{i}" for i in range(1, len(ws) + 1)]
    assert len({(w.objects, w.links) for w in ws}) == len(ws)


# ----------------------------------------------- per-universe decision bits

def test_universe_decision_agrees_with_summary_keys(cd_v1, cd_v2):
    # every scope-3 universe: decision is nonempty iff the oracle has a
    # witness with exactly that class multiset
    oracle = cd_enumerate_all(cd_v2, cd_v1, 3)
    witnessed = set()
    for om in oracle.witnesses:
        counts: dict[str, int] = {}
        for _, cls in om.objects:
            counts[cls] = counts.get(cls, 0) + 1
        witnessed.add(tuple(sorted(counts.items())))
    for total in range(1, 4):
        for cs in _candidate_class_sets(cd_v2, total):
            for counts in _count_vectors(total, len(cs)):
                objects = tuple(
                    (f"{c.lower()}{i}", c)
                    for c, n in zip(cs, counts) for i in range(1, n + 1))
                om = _universe_witness(cd_v2, cd_v1, objects, "probe", {})
                key = tuple(sorted(zip(cs, counts)))
                assert (om is not None) == (key in witnessed), key


def test_choose_links_respects_degree_ranges():
    # 2 left objects each needing 1..2 partners, 2 right objects exactly 1
    got = _choose_links(2, 2, [(1, 2)] * 2, [(1, 1)] * 2)
    assert got is not None
    left = [sum(1 for i, _ in got if i == k) for k in range(2)]
    right = [sum(1 for _, j in got if j == k) for k in range(2)]
    assert all(1 <= d <= 2 for d in left) and right == [1, 1]


def test_choose_links_honors_forced_pair():
    got = _choose_links(2, 2, [(0, 2)] * 2, [(0, 2)] * 2, forced=(1, 0))
    assert got is not None and (1, 0) in got


def test_choose_links_detects_infeasible_sums():
    # left wants 2 links total, right cannot absorb more than 1
    assert _choose_links(2, 1, [(1, 1)] * 2, [(0, 1)]) is None
    assert _choose_links(1, 1, [(2, 2)], [(0, 1)]) is None


def test_assoc_links_come_back_sorted(cd_v2):
    manages = cd_v2.association("manages")
    objects = (("employee1", "Employee"), ("manager1", "Manager"),
               ("manager2", "Manager"))
    links = _assoc_links(manages, *_hosts(cd_v2, manages, objects))
    assert links is not None
    assert list(links) == sorted(links, key=lambda ln: (ln.obj_a, ln.obj_b))


def test_antisymmetry_of_witness_sets(cd_v1, cd_v2):
    """A witness for one direction is never a witness for the other."""
    left = list(enumerate_witnesses(cd_v1, cd_v2, 3))
    right = list(enumerate_witnesses(cd_v2, cd_v1, 3))
    sig = lambda om: (om.objects, tuple(
        sorted(om.links, key=lambda ln: (ln.association, ln.obj_a, ln.obj_b))))
    assert {sig(w) for w in left} & {sig(w) for w in right} == set()


# ---------------------------------------------------------- the per-run flow memo

def test_each_network_shape_runs_one_max_flow(monkeypatch):
    # one summary of the 10-class chain against its flipped copy: the
    # run's memo answers every repeat of a network shape, and the report
    # is the one a search without the memo gives
    from test_golden import chain_text

    def pair():
        return (validate_cd(parse_cd(chain_text("chain_v1", 10, False))),
                validate_cd(parse_cd(chain_text("chain_v2", 10, True))))

    runs, shapes = [], set()
    max_flow, choose_links = diff._FlowNet.max_flow, diff._choose_links

    def counted(self, s, t):
        runs.append(1)
        return max_flow(self, s, t)

    def recorded(n_a, n_b, a_rng, b_rng, forced=None):
        shapes.add((n_a, n_b, tuple(a_rng), tuple(b_rng), forced))
        return choose_links(n_a, n_b, a_rng, b_rng, forced)

    monkeypatch.setattr(diff._FlowNet, "max_flow", counted)
    monkeypatch.setattr(diff, "_choose_links", recorded)
    report = cddiff_summary(*pair(), 5)
    assert report.entries and len(runs) == len(shapes)

    memo_runs = len(runs)
    witness = diff._universe_witness
    monkeypatch.setattr(diff, "_universe_witness",
                        lambda cd1, cd2, objects, name, flows: witness(cd1, cd2, objects, name, {}))
    assert cddiff_summary(*pair(), 5) == report
    assert len(runs) - memo_runs > memo_runs


def test_no_association_without_hosts_asks_for_links(monkeypatch, tmp_path):
    # one summary of the golden 10-class chain: an association no object
    # of a universe can join is passed over, and stdout keeps its digest
    from test_golden import GENERATED, run_generated

    calls, hostless = [], []
    assoc_links = diff._assoc_links

    def counted(asc, a_objs, b_objs, **kw):
        calls.append(1)
        if not (a_objs or b_objs):
            hostless.append(asc.name)
        return assoc_links(asc, a_objs, b_objs, **kw)

    monkeypatch.setattr(diff, "_assoc_links", counted)
    status, digest = run_generated("chain10-v1-v2", tmp_path)
    want = json.loads(GENERATED.read_text(encoding="utf-8"))["chain10-v1-v2"]
    assert (status, digest) == (want["status"], want["sha256"])
    assert calls and hostless == []
