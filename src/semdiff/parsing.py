"""Textual formats for class diagrams, object models and activity diagrams.

One lexer, three recursive-descent parsers, three printers.  The printers
are exact inverses on models: parse(print(m)) == m.
"""

from __future__ import annotations

from .ad.model import (ActivityDiagram, Arith, BoolOp, Cmp, Edge, IntLit, Node,
                       Not, Var, VarDecl, ACTION, NODE_KINDS, check_bool_expr,
                       check_int_expr, ExprTypeError)
from .cd.model import (Association, ClassDecl, ClassDiagram, Link, MultRange,
                       ObjectModel, UNBOUNDED)
from .record import record as dataclass


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, source: str | None = None):
        where = f"{source}:{line}:{col}" if source else f"{line}:{col}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col


_PUNCT = ("<=", ">=", "==", "!=", "&&", "||", ":=", "..", "->", "--",
          "{", "}", ";", ":", "[", "]", "(", ")", "<", ">", "=", "!",
          "+", "-", "*")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | punct | eof
    value: str
    line: int
    col: int


def tokenize(text: str, source: str | None = None) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"stray character {ch!r}", line, col, source)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, source: str | None = None):
        self.toks = tokenize(text, source)
        self.pos = 0
        self.source = source

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        t = tok or self.peek()
        found = t.value if t.kind != "eof" else "end of input"
        return ParseError(f"{message}, found {found!r}", t.line, t.col, self.source)

    def expect(self, value: str) -> Token:
        t = self.peek()
        if t.value != value or t.kind == "eof":
            raise self.error(f"expected {value!r}")
        return self.next()

    def accept(self, value: str) -> bool:
        if self.peek().value == value and self.peek().kind != "eof":
            self.next()
            return True
        return False

    def ident(self, what: str = "name") -> str:
        t = self.peek()
        if t.kind != "ident":
            raise self.error(f"expected {what}")
        return self.next().value

    def integer(self) -> int:
        t = self.peek()
        if t.kind != "int":
            raise self.error("expected integer")
        return int(self.next().value)

    def signed(self) -> int:
        """An integer with an optional leading '-' (ranges, literals)."""
        return -self.integer() if self.accept("-") else self.integer()

    def head(self, keyword: str) -> str:
        """`keyword name {`, which opens every model; returns the name."""
        self.expect(keyword)
        name = self.ident()
        self.expect("{")
        return name

    def tail(self) -> None:
        """`}` and then the end of input, which close every model."""
        self.expect("}")
        if self.peek().kind != "eof":
            raise self.error("expected end of input")

    # expressions: || < && < ! < comparison < additive < primary
    def expression(self) -> object:
        return self._or()

    def _or(self) -> object:
        e = self._and()
        while self.peek().value == "||":
            self.next()
            e = BoolOp("||", e, self._and())
        return e

    def _and(self) -> object:
        e = self._unary()
        while self.peek().value == "&&":
            self.next()
            e = BoolOp("&&", e, self._unary())
        return e

    def _unary(self) -> object:
        if self.accept("!"):
            return Not(self._unary())
        return self._comparison()

    def _comparison(self) -> object:
        e = self._additive()
        t = self.peek()
        if t.kind == "punct" and t.value in ("<", "<=", ">", ">=", "==", "!="):
            self.next()
            return Cmp(t.value, e, self._additive())
        return e

    def _additive(self) -> object:
        e = self._primary()
        while self.peek().value in ("+", "-") and self.peek().kind == "punct":
            op = self.next().value
            e = Arith(op, e, self._primary())
        return e

    def _primary(self) -> object:
        t = self.peek()
        if t.value == "(":
            self.next()
            e = self.expression()
            self.expect(")")
            return e
        if t.value == "-" or t.kind == "int":
            return IntLit(self.signed())
        if t.kind == "ident":
            return Var(self.ident())
        raise self.error("expected an expression")


# ------------------------------------------------------------ class diagrams

def parse_cd(text: str, source: str | None = None) -> ClassDiagram:
    return _cd(_Parser(text, source))


def _cd(p: _Parser) -> ClassDiagram:
    name = p.head("classdiagram")
    classes: list[ClassDecl] = []
    while p.peek().value == "class":
        p.next()
        cname = p.ident("class name")
        abstract = p.accept("abstract")
        parent = None
        if p.accept("extends"):
            parent = p.ident("class name")
        p.expect(";")
        classes.append(ClassDecl(cname, abstract, parent))
    associations: list[Association] = []
    while p.peek().value == "association":
        p.next()
        aname = p.ident("association name")
        mult_a = _parse_mult(p)
        class_a = p.ident("class name")
        p.expect("--")
        class_b = p.ident("class name")
        mult_b = _parse_mult(p)
        p.expect(";")
        associations.append(Association(aname, class_a, mult_a, class_b, mult_b))
    p.tail()
    return ClassDiagram(name, tuple(classes), tuple(associations))


def _parse_mult(p: _Parser) -> MultRange:
    opening = p.expect("[")
    if p.accept("*"):
        p.expect("]")
        return MultRange(0, UNBOUNDED)
    lo = p.integer()
    hi = lo
    if p.accept(".."):
        hi = UNBOUNDED if p.accept("*") else p.integer()
    p.expect("]")
    try:
        return MultRange(lo, hi)
    except ValueError as exc:
        raise ParseError(str(exc), opening.line, opening.col, p.source) from exc


def print_cd(cd: ClassDiagram) -> str:
    lines = [f"classdiagram {cd.name} {{"]
    for c in cd.classes:
        decl = f"  class {c.name}"
        if c.abstract:
            decl += " abstract"
        if c.parent is not None:
            decl += f" extends {c.parent}"
        lines.append(decl + ";")
    for a in cd.associations:
        lines.append(f"  association {a.name} [{a.mult_a}] {a.class_a}"
                     f" -- {a.class_b} [{a.mult_b}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- object models

def parse_od(text: str, source: str | None = None) -> ObjectModel:
    return _od(_Parser(text, source))


def _od(p: _Parser) -> ObjectModel:
    name = p.head("objectdiagram")
    objects: list[tuple[str, str]] = []
    while p.peek().kind == "ident" and p.peek().value != "link":
        oid = p.ident("object id")
        p.expect(":")
        cls = p.ident("class name")
        p.expect(";")
        objects.append((oid, cls))
    links: list[Link] = []
    while p.peek().value == "link":
        p.next()
        asc = p.ident("association name")
        a = p.ident("object id")
        p.expect("--")
        b = p.ident("object id")
        p.expect(";")
        links.append(Link(asc, a, b))
    p.tail()
    return ObjectModel(name, tuple(objects), tuple(links))


def print_od(om: ObjectModel) -> str:
    lines = [f"objectdiagram {om.name} {{"]
    for oid, cls in om.objects:
        lines.append(f"  {oid} : {cls};")
    for ln in om.links:
        lines.append(f"  link {ln.association} {ln.obj_a} -- {ln.obj_b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------- activity diagrams

def parse_ad(text: str, source: str | None = None) -> ActivityDiagram:
    return _ad(_Parser(text, source))


def _ad(p: _Parser) -> ActivityDiagram:
    name = p.head("activitydiagram")
    inputs, locals_ = _var_decls(p, "input"), _var_decls(p, "local")
    nodes: list[Node] = []
    while p.peek().value in NODE_KINDS and p.peek().kind == "ident":
        kind = p.next().value
        nid = p.ident("node name")
        effects: list[tuple[str, object]] = []
        if p.peek().value == "{":
            if kind != ACTION:
                raise p.error("only action nodes carry effects")
            p.next()
            while not p.accept("}"):
                var = p.ident("variable name")
                p.expect(":=")
                expr = p.expression()
                try:
                    check_int_expr(expr)
                except ExprTypeError as exc:
                    raise p.error(str(exc)) from exc
                p.expect(";")
                effects.append((var, expr))
        p.expect(";")
        action_name = nid if kind == ACTION else None
        nodes.append(Node(nid, kind, action_name, tuple(effects)))
    edges: list[Edge] = []
    while p.peek().value == "edge":
        p.next()
        src = p.ident("node name")
        p.expect("->")
        dst = p.ident("node name")
        guard = None
        if p.accept("["):
            guard = p.expression()
            try:
                check_bool_expr(guard)
            except ExprTypeError as exc:
                raise p.error(str(exc)) from exc
            p.expect("]")
        p.expect(";")
        edges.append(Edge(f"e{len(edges) + 1}", src, dst, guard))
    p.tail()
    return ActivityDiagram(name, inputs, locals_, tuple(nodes), tuple(edges))


def _var_decls(p: _Parser, keyword: str) -> tuple[VarDecl, ...]:
    """`keyword name : lo .. hi;` declarations; a local puts `= init`
    before the `;`."""
    decls = []
    while p.accept(keyword):
        vname = p.ident("variable name")
        p.expect(":")
        lo = p.signed()
        p.expect("..")
        hi = p.signed()
        init = None
        if keyword == "local":
            p.expect("=")
            init = p.signed()
        p.expect(";")
        decls.append(VarDecl(vname, lo, hi, init))
    return tuple(decls)


def print_ad(ad: ActivityDiagram) -> str:
    lines = [f"activitydiagram {ad.name} {{"]
    for v in ad.inputs:
        lines.append(f"  input {v.name} : {v.lo}..{v.hi};")
    for v in ad.locals:
        lines.append(f"  local {v.name} : {v.lo}..{v.hi} = {v.init};")
    for n in ad.nodes:
        if n.kind == ACTION and n.action_name not in (None, n.id):
            raise ValueError(
                f"{n.id}: the textual format cannot express an action name "
                f"({n.action_name}) different from the node id")
        decl = f"  {n.kind} {n.id}"
        if n.effects:
            body = " ".join(f"{var} := {expr};" for var, expr in n.effects)
            decl += f" {{ {body} }}"
        lines.append(decl + ";")
    for e in ad.edges:
        decl = f"  edge {e.source} -> {e.target}"
        if e.guard is not None:
            decl += f" [{e.guard}]"
        lines.append(decl + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- dispatch

_KINDS = {"classdiagram": "cd", "objectdiagram": "od", "activitydiagram": "ad"}


def _kind(p: _Parser) -> str:
    head = p.peek()
    if head.kind == "ident" and head.value in _KINDS:
        return _KINDS[head.value]
    raise ParseError("expected classdiagram, objectdiagram or activitydiagram",
                     head.line, head.col, p.source)


def model_kind(text: str, source: str | None = None) -> str:
    """Kind from the top-level keyword, not the file extension."""
    return _kind(_Parser(text, source))


def parse_model(text: str, source: str | None = None):
    """Parse a model of any kind, dispatching on its top-level keyword."""
    p = _Parser(text, source)
    return {"cd": _cd, "od": _od, "ad": _ad}[_kind(p)](p)
