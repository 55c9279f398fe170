"""Class diagrams, object models, and the conformance check between them.

The instance check is closed-world: an object of a class the diagram does
not declare is a violation, not an unknown.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from ..record import record as dataclass


class CdValidationError(ValueError):
    """Structurally broken class diagram."""


class InheritanceCycleError(CdValidationError):
    pass


class DanglingReferenceError(CdValidationError):
    pass


class DuplicateNameError(CdValidationError):
    pass


class BadMultiplicityError(CdValidationError):
    pass


class OdValidationError(ValueError):
    """Structurally broken object model (duplicate ids, unknown link ends)."""


UNBOUNDED = -1  # hi sentinel: no upper bound


@dataclass(frozen=True)
class MultRange:
    """Multiplicity [lo..hi]; hi == UNBOUNDED means '*'."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0:
            raise BadMultiplicityError(f"negative lower bound: {self.lo}")
        if self.hi != UNBOUNDED and self.hi < self.lo:
            raise BadMultiplicityError(f"empty multiplicity [{self.lo}..{self.hi}]")

    def contains(self, n: int) -> bool:
        return n >= self.lo and (self.hi == UNBOUNDED or n <= self.hi)

    def __str__(self) -> str:
        if self.lo == 0 and self.hi == UNBOUNDED:
            return "*"
        if self.hi == UNBOUNDED:
            return f"{self.lo}..*"
        if self.lo == self.hi:
            return str(self.lo)
        return f"{self.lo}..{self.hi}"


@dataclass(frozen=True)
class ClassDecl:
    name: str
    abstract: bool = False
    parent: str | None = None


@dataclass(frozen=True)
class Association:
    """Binary association.  side_a/side_b are (class name, multiplicity).

    mult_a bounds, for each object conforming to class_b, how many position-A
    partners it has; mult_b bounds position-B partners of class_a objects.
    """

    name: str
    class_a: str
    mult_a: MultRange
    class_b: str
    mult_b: MultRange

    def ends(self) -> tuple[tuple[str, MultRange, str], ...]:
        """(own class, the range of its objects' partner counts, partner
        class) for position A, then position B."""
        return ((self.class_a, self.mult_b, self.class_b),
                (self.class_b, self.mult_a, self.class_a))


@dataclass(frozen=True)
class ClassDiagram:
    name: str
    classes: tuple[ClassDecl, ...]
    associations: tuple[Association, ...]

    def concrete_classes(self) -> list[str]:
        return [c.name for c in self.classes if not c.abstract]

    def decl(self, name: str) -> ClassDecl | None:
        return self._decls.get(name)

    def association(self, name: str) -> Association | None:
        return self._assocs.get(name)

    # lookup tables, built on first use; the first declaration of a name wins
    @cached_property
    def _decls(self) -> dict[str, ClassDecl]:
        return {c.name: c for c in reversed(self.classes)}

    @cached_property
    def _assocs(self) -> dict[str, Association]:
        return {a.name: a for a in reversed(self.associations)}

    def members(self, name: str) -> frozenset[str]:
        """The classes that conform to `name`: the declared classes whose
        parent walk reaches it, and `name` itself, declared or not."""
        return self._members.get(name) or frozenset((name,))

    @cached_property
    def _members(self) -> dict[str, frozenset[str]]:
        """`members` of each name on a declared class's parent walk, which
        stops after an undeclared name or on a cycle."""
        out: dict[str, set[str]] = {}
        for name in self._decls:
            seen: set[str] = set()
            cur: str | None = name
            while cur is not None and cur not in seen:
                seen.add(cur)
                out.setdefault(cur, {cur}).add(name)
                decl = self._decls.get(cur)
                cur = decl.parent if decl is not None else None
        return {sup: frozenset(subs) for sup, subs in out.items()}

    @cached_property
    def needs(self) -> tuple[tuple[frozenset[str], frozenset[str]], ...]:
        """(needy classes, partner classes) per association end with lo >= 1:
        an object of a needy class needs a partner of a partner class."""
        return tuple((self.members(own), self.members(other)) for a in self.associations
                     for own, rng, other in a.ends() if rng.lo >= 1)


@dataclass(frozen=True)
class Link:
    association: str
    obj_a: str
    obj_b: str


@dataclass(frozen=True)
class ObjectModel:
    name: str
    objects: tuple[tuple[str, str], ...]  # (object id, class name)
    links: tuple[Link, ...]


def validate_cd(cd: ClassDiagram) -> ClassDiagram:
    """Reject duplicate names, dangling references, inheritance cycles."""
    seen: set[str] = set()
    for c in cd.classes:
        if c.name in seen:
            raise DuplicateNameError(f"class declared twice: {c.name}")
        seen.add(c.name)
    assoc_seen: set[str] = set()
    for a in cd.associations:
        if a.name in assoc_seen:
            raise DuplicateNameError(f"association declared twice: {a.name}")
        assoc_seen.add(a.name)
    for c in cd.classes:
        if c.parent is not None and c.parent not in seen:
            raise DanglingReferenceError(
                f"class {c.name} extends unknown class {c.parent}"
            )
    for a in cd.associations:
        for end in (a.class_a, a.class_b):
            if end not in seen:
                raise DanglingReferenceError(
                    f"association {a.name} references unknown class {end}"
                )
    # Walk parent chains; a chain longer than the class count must loop.
    for c in cd.classes:
        hops = 0
        cur: str | None = c.name
        while cur is not None:
            decl = cd.decl(cur)
            assert decl is not None
            cur = decl.parent
            hops += 1
            if hops > len(cd.classes):
                raise InheritanceCycleError(f"inheritance cycle through {c.name}")
    return cd


def validate_om(om: ObjectModel) -> ObjectModel:
    seen: set[str] = set()
    for oid, _ in om.objects:
        if oid in seen:
            raise OdValidationError(f"object declared twice: {oid}")
        seen.add(oid)
    links_seen: set[Link] = set()
    for ln in om.links:
        for end in (ln.obj_a, ln.obj_b):
            if end not in seen:
                raise OdValidationError(
                    f"link {ln.association} references unknown object {end}"
                )
        if ln in links_seen:
            raise OdValidationError(
                f"duplicate link {ln.association} {ln.obj_a} -- {ln.obj_b}"
            )
        links_seen.add(ln)
    return om


def conforms(cd: ClassDiagram, sub: str, sup: str) -> bool:
    """Reflexive-transitive subclassing; an undeclared class conforms only to itself."""
    return sub in cd.members(sup)


@dataclass(frozen=True)
class Violation:
    kind: str  # unknown-class | abstract-class | unknown-association | endpoint | multiplicity
    message: str
    association: str | None = None
    obj: str | None = None


@dataclass(frozen=True)
class InstanceVerdict:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _violations(om: ObjectModel, cd: ClassDiagram):
    """The instance check's violations in report order, built lazily."""
    for oid, cls in om.objects:
        decl = cd.decl(cls)
        if decl is None:
            yield Violation("unknown-class", f"{oid} : {cls} is not declared in {cd.name}", obj=oid)
        elif decl.abstract:
            yield Violation("abstract-class", f"{oid} instantiates abstract class {cls}", obj=oid)

    cls_of = dict(reversed(om.objects))  # the first declaration of an id wins
    for ln in om.links:
        asc = cd.association(ln.association)
        if asc is None:
            yield Violation("unknown-association",
                            f"link {ln.association} is not declared in {cd.name}",
                            association=ln.association)
            continue
        for oid, end, pos in ((ln.obj_a, asc.class_a, "A"), (ln.obj_b, asc.class_b, "B")):
            if cls_of.get(oid) not in cd.members(end):
                yield Violation("endpoint", f"{oid} does not conform to {end} "
                                f"(position {pos} of {asc.name})", association=asc.name, obj=oid)

    # Multiplicities.  A self-link counts once per position.
    a_deg = Counter((ln.association, ln.obj_a) for ln in om.links)
    b_deg = Counter((ln.association, ln.obj_b) for ln in om.links)
    for asc in cd.associations:
        members_a, members_b = cd.members(asc.class_a), cd.members(asc.class_b)
        for oid, cls in om.objects:
            if cls in members_a:
                n = a_deg[asc.name, oid]
                if not asc.mult_b.contains(n):
                    yield Violation(
                        "multiplicity",
                        f"{oid} has {n} {asc.class_b} partner(s) via {asc.name}, "
                        f"multiplicity is [{asc.mult_b}]",
                        association=asc.name, obj=oid)
            if cls in members_b:
                n = b_deg[asc.name, oid]
                if not asc.mult_a.contains(n):
                    yield Violation(
                        "multiplicity",
                        f"{oid} has {n} {asc.class_a} partner(s) via {asc.name}, "
                        f"multiplicity is [{asc.mult_a}]",
                        association=asc.name, obj=oid)


def check_instance(om: ObjectModel, cd: ClassDiagram) -> InstanceVerdict:
    """Full closed-world instance check with the complete violation list."""
    out = tuple(_violations(om, cd))
    return InstanceVerdict(not out, out)


def is_instance(om: ObjectModel, cd: ClassDiagram) -> bool:
    return next(_violations(om, cd), None) is None


def classes_of(om: ObjectModel) -> tuple[str, ...]:
    """Sorted names of the classes the model instantiates."""
    return tuple(sorted({cls for _, cls in om.objects}))
