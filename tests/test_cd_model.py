from __future__ import annotations

import pytest

from semdiff.cd import (Association, ClassDecl, ClassDiagram, Link, MultRange,
                        ObjectModel, check_instance, classes_of, conforms,
                        is_instance, validate_cd, validate_om)
from semdiff.cd import model
from semdiff.cd.model import (BadMultiplicityError, DanglingReferenceError,
                              DuplicateNameError, InheritanceCycleError,
                              OdValidationError, UNBOUNDED)
from semdiff.parsing import parse_cd, parse_od


def _cd(*, classes, associations=()):
    return validate_cd(ClassDiagram("t", tuple(classes), tuple(associations)))


# ------------------------------------------------------------ multiplicities

def test_mult_range_contains():
    r = MultRange(1, 3)
    assert not r.contains(0)
    assert all(r.contains(v) for v in (1, 2, 3))
    assert not r.contains(4)


def test_unbounded_range_has_no_ceiling():
    r = MultRange(2, UNBOUNDED)
    assert not r.contains(1)
    assert r.contains(2) and r.contains(10 ** 6)


def test_bad_ranges_rejected_eagerly():
    with pytest.raises(BadMultiplicityError):
        MultRange(3, 2)
    with pytest.raises(BadMultiplicityError):
        MultRange(-1, 2)


# ------------------------------------------------------------ validation

def test_validate_cd_accepts_fixtures(cd_v1, cd_v2):
    assert validate_cd(cd_v1) is cd_v1
    assert validate_cd(cd_v2) is cd_v2


def test_duplicate_class_rejected():
    with pytest.raises(DuplicateNameError, match="declared twice"):
        _cd(classes=[ClassDecl("A", False, None), ClassDecl("A", False, None)])


def test_duplicate_association_rejected():
    r = Association("r", "A", MultRange(0, 1), "A", MultRange(0, 1))
    with pytest.raises(DuplicateNameError, match="^association declared twice: r$"):
        _cd(classes=[ClassDecl("A")], associations=[r, r])


def test_dangling_parent_rejected():
    with pytest.raises(DanglingReferenceError, match="unknown class"):
        _cd(classes=[ClassDecl("A", False, "Ghost")])


def test_dangling_association_end_rejected():
    with pytest.raises(DanglingReferenceError, match="references unknown class"):
        _cd(classes=[ClassDecl("A", False, None)],
            associations=[Association("x", "A", MultRange(0, 1), "B", MultRange(0, 1))])


def test_inheritance_cycle_rejected():
    with pytest.raises(InheritanceCycleError):
        _cd(classes=[ClassDecl("A", False, "B"), ClassDecl("B", False, "A")])


def test_validate_om_rejects_duplicate_ids_and_dangling_links():
    with pytest.raises(OdValidationError):
        validate_om(parse_od("objectdiagram o { a : A; a : B; }"))
    with pytest.raises(OdValidationError):
        validate_om(parse_od("objectdiagram o { a : A; link m a -- ghost; }"))
    with pytest.raises(OdValidationError):
        validate_om(parse_od("objectdiagram o { a : A; link m a -- a; link m a -- a; }"))


# ------------------------------------------------------------ object names

def test_objects_are_named_after_their_lowercased_class():
    assert model.name_objects([("Employee", 2), ("Task", 0), ("Manager", 1)]) == (
        ("employee1", "Employee"), ("employee2", "Employee"), ("manager1", "Manager"))


@pytest.mark.parametrize("counts", [
    [("A", 1), ("a", 1)],  # one lowercased name
    [("A", 11), ("A1", 1)],  # the eleventh A and the first A1 are both a11
])
def test_colliding_object_ids_fall_back_to_the_class_name(counts):
    objects = model.name_objects(counts)
    assert len({oid for oid, _ in objects}) == len(objects) == sum(n for _, n in counts)
    assert all(oid.startswith(cls + "_") for oid, cls in objects)
    # the ids depend on the counts, not on their order
    assert set(model.name_objects(counts[::-1])) == set(objects)


# ------------------------------------------------------------ conformance

def test_conforms_is_reflexive_and_follows_extends(cd_v1, cd_v2):
    assert conforms(cd_v2, "Manager", "Manager")
    assert conforms(cd_v2, "Manager", "Employee")
    assert not conforms(cd_v2, "Employee", "Manager")
    # v1 has no inheritance at all
    assert not conforms(cd_v1, "Manager", "Employee")


def test_conforms_walks_chains():
    cd = _cd(classes=[ClassDecl("A", False, None), ClassDecl("B", False, "A"),
                      ClassDecl("C", False, "B")])
    assert conforms(cd, "C", "A")
    assert not conforms(cd, "A", "C")


def test_concrete_classes_skip_abstract():
    cd = parse_cd("classdiagram t { class A abstract; class B extends A; }")
    assert cd.concrete_classes() == ["B"]


# ------------------------------------------------------------ instance check

def test_fixture_witnesses_separate_the_diagrams(om1, om2, cd_v1, cd_v2):
    assert is_instance(om1, cd_v2) and not is_instance(om1, cd_v1)
    assert is_instance(om2, cd_v2) and not is_instance(om2, cd_v1)


def test_empty_model_is_instance_of_anything_without_lower_bounds(empty_om, cd_v1, cd_v2):
    assert is_instance(empty_om, cd_v1)
    assert is_instance(empty_om, cd_v2)


def test_om1_violations_against_v1_name_the_real_bugs(om1, cd_v1):
    verdict = check_instance(om1, cd_v1)
    assert not verdict.ok
    kinds = {v.kind for v in verdict.violations}
    assert kinds == {"endpoint", "multiplicity"}
    mult = [v for v in verdict.violations if v.kind == "multiplicity"]
    assert any(v.association == "handles" and "[0..2]" in v.message for v in mult)


def test_unknown_class_is_closed_world(cd_v1):
    om = parse_od("objectdiagram o { x : Alien; }")
    verdict = check_instance(om, cd_v1)
    assert [v.kind for v in verdict.violations] == ["unknown-class"]


def test_abstract_class_cannot_be_instantiated():
    cd = parse_cd("classdiagram t { class A abstract; class B extends A; }")
    verdict = check_instance(parse_od("objectdiagram o { a : A; }"), cd)
    assert [v.kind for v in verdict.violations] == ["abstract-class"]
    assert is_instance(parse_od("objectdiagram o { b : B; }"), cd)


def test_unknown_association_flagged(cd_v1):
    om = parse_od("objectdiagram o { e : Employee; link mentors e -- e; }")
    verdict = check_instance(om, cd_v1)
    assert any(v.kind == "unknown-association" for v in verdict.violations)


def test_self_link_counts_once_per_position():
    cd = parse_cd("classdiagram t { class A; association m [1] A -- A [1]; }")
    om = parse_od("objectdiagram o { a : A; link m a -- a; }")
    assert is_instance(om, cd)


def test_multiplicity_counts_use_link_positions():
    cd = parse_cd("classdiagram t { class A; class B;"
                  " association m [1] A -- B [2]; }")
    # each A needs exactly 2 B partners, each B exactly 1 A partner
    ok = parse_od("objectdiagram o { a : A; b1 : B; b2 : B;"
                  " link m a -- b1; link m a -- b2; }")
    assert is_instance(ok, cd)
    bad = parse_od("objectdiagram o { a : A; b1 : B; b2 : B; link m a -- b1; }")
    verdict = check_instance(bad, cd)
    msgs = [v.message for v in verdict.violations]
    assert any("a has 1 B partner(s)" in m for m in msgs)
    assert any("b2 has 0 A partner(s)" in m for m in msgs)


def test_subclass_objects_are_counted_for_superclass_ends(cd_v2):
    # a Manager is an Employee, so it needs a manager of its own
    lonely = parse_od("objectdiagram o { m : Manager; }")
    verdict = check_instance(lonely, cd_v2)
    assert not verdict.ok
    assert any(v.kind == "multiplicity" and v.obj == "m" for v in verdict.violations)


def test_classes_of_sorted_and_deduped(om1):
    assert classes_of(om1) == ("Employee", "Manager", "Task")


# ------------------------------------------------------------ lazy violations

EVERY_KIND_CD = ("classdiagram t { class A abstract; class B extends A; class C;"
                 " association m [1] A -- C [0..1]; }")
EVERY_KIND_OM = ("objectdiagram o { a : A; x : Alien; b : B; c1 : C; c2 : C;"
                 " link m c1 -- b; link m b -- c1; link m b -- c2; link q b -- c1; }")


def _rows(verdict):
    return [(v.kind, v.message, v.association, v.obj) for v in verdict.violations]


def test_violations_of_every_kind_keep_their_order():
    verdict = check_instance(parse_od(EVERY_KIND_OM), parse_cd(EVERY_KIND_CD))
    assert not verdict.ok
    assert _rows(verdict) == [
        ("abstract-class", "a instantiates abstract class A", None, "a"),
        ("unknown-class", "x : Alien is not declared in t", None, "x"),
        ("endpoint", "c1 does not conform to A (position A of m)", "m", "c1"),
        ("endpoint", "b does not conform to C (position B of m)", "m", "b"),
        ("unknown-association", "link q is not declared in t", "q", None),
        ("multiplicity", "b has 2 C partner(s) via m, multiplicity is [0..1]", "m", "b"),
    ]


def test_fixture_violations_are_unchanged(om1, om2, empty_om, cd_v1, cd_v2):
    endpoint = ("endpoint", "m1 does not conform to Employee (position B of manages)",
                "manages", "m1")
    handles = ("multiplicity", "e1 has 3 Task partner(s) via handles, multiplicity is [0..2]",
               "handles", "e1")
    assert _rows(check_instance(om1, cd_v1)) == [endpoint, handles]
    assert _rows(check_instance(om2, cd_v1)) == [endpoint]
    for om, cd in ((om1, cd_v2), (om2, cd_v2), (empty_om, cd_v1), (empty_om, cd_v2)):
        assert check_instance(om, cd).ok and _rows(check_instance(om, cd)) == []


def test_is_instance_agrees_with_check_instance_on_the_fixtures(om1, om2, empty_om,
                                                                cd_v1, cd_v2):
    every_kind = parse_od(EVERY_KIND_OM), parse_cd(EVERY_KIND_CD)
    pairs = [(om, cd) for om in (om1, om2, empty_om) for cd in (cd_v1, cd_v2)]
    for om, cd in pairs + [every_kind]:
        assert is_instance(om, cd) == check_instance(om, cd).ok


def test_is_instance_stops_at_the_first_violation(monkeypatch):
    built = []
    real = model.Violation

    def counted(*args, **kwargs):
        built.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "Violation", counted)
    cd = parse_cd(EVERY_KIND_CD)
    om = parse_od("objectdiagram o { a : A; x : Alien; link q a -- x; }")
    assert len(check_instance(om, cd).violations) == 3
    assert built == ["abstract-class", "unknown-class", "unknown-association"]
    built.clear()
    assert not is_instance(om, cd)
    assert len(built) <= 1
