"""Textual formats for class diagrams, object models and activity diagrams.

One lexer pattern, three recursive-descent parsers, and three printers that
share one `head { ... }` frame.  The printers are exact inverses on models:
parse(print(m)) == m.
"""

from __future__ import annotations

import re

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

# One alternative per token kind, tried in this order; `stray` takes any
# other character.  A name is a word that starts with a letter or `_`, so a
# word starting with a digit that is not decimal (`²`) is stray at its start.
_TOKEN = re.compile("|".join((
    r"(?P<skip>[ \t\r]+|//[^\n]*)", r"(?P<newline>\n)", r"(?P<int>\d+)",
    r"(?P<ident>[^\W\d]\w*)", f"(?P<punct>{'|'.join(map(re.escape, _PUNCT))})",
    r"(?P<stray>.)")))


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | punct | eof
    value: str
    line: int
    col: int


def tokenize(text: str, source: str | None = None) -> list[Token]:
    toks: list[Token] = []
    line, first = 1, 0  # first: offset of the line's first character
    m = None
    for m in _TOKEN.finditer(text):
        kind, value, col = m.lastgroup, m[0], m.start() - first + 1
        if kind == "newline":
            line, first = line + 1, m.end()
        elif kind == "stray" or kind == "ident" and not (value[0].isalpha() or value[0] == "_"):
            raise ParseError(f"stray character {value[0]!r}", line, col, source)
        elif kind != "skip":
            toks.append(Token(kind, value, line, col))
    # a comment ending the text leaves the end at the comment's start
    end = m.start() if m and m[0].startswith("//") else len(text)
    toks.append(Token("eof", "", line, end - first + 1))
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

    def typed(self, check, expr: object) -> object:
        """`expr` once `check` (check_int_expr or check_bool_expr) accepts
        it; a type error is reported at the token after it."""
        try:
            check(expr)
        except ExprTypeError as exc:
            raise self.error(str(exc)) from exc
        return expr

    # expressions: || < && < ! < comparison < additive < primary; the &&
    # level runs in `_chain` directly, which keeps a parenthesis at the
    # seven frames it took when every level had a method of its own
    def expression(self) -> object:
        return self._chain(("||",), BoolOp, self._chain, ("&&",), BoolOp, self._unary)

    def _chain(self, ops: tuple[str, ...], make, operand, *args) -> object:
        """`operand(*args)` joined by the operators `ops`, folded to the
        left with `make(op, left, right)`."""
        e = operand(*args)
        while self.peek().value in ops:
            e = make(self.next().value, e, operand(*args))
        return e

    def _unary(self) -> object:
        """`!` and its operand, or a sum, or one comparison of two sums."""
        if self.accept("!"):
            return Not(self._unary())
        e = self._additive()
        if self.peek().value in ("<", "<=", ">", ">=", "==", "!="):
            return Cmp(self.next().value, e, self._additive())
        return e

    def _additive(self) -> object:
        return self._chain(("+", "-"), Arith, self._primary)

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


def _frame(head: str, statements) -> str:
    """The printed form of every model: `head {`, one indented
    `statement;` line each, and `}`."""
    return "".join([f"{head} {{\n", *(f"  {s};\n" for s in statements), "}\n"])


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
    return _frame(f"classdiagram {cd.name}", [
        *(f"class {c.name}" + " abstract" * c.abstract
          + ("" if c.parent is None else f" extends {c.parent}") for c in cd.classes),
        *(f"association {a.name} [{a.mult_a}] {a.class_a} -- {a.class_b} [{a.mult_b}]"
          for a in cd.associations)])


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
    return _frame(f"objectdiagram {om.name}", [
        *(f"{oid} : {cls}" for oid, cls in om.objects),
        *(f"link {ln.association} {ln.obj_a} -- {ln.obj_b}" for ln in om.links)])


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
                effects.append((var, p.typed(check_int_expr, p.expression())))
                p.expect(";")
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
            guard = p.typed(check_bool_expr, p.expression())
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


def _node_decl(n: Node) -> str:
    if n.kind == ACTION and n.action_name not in (None, n.id):
        raise ValueError(
            f"{n.id}: the textual format cannot express an action name "
            f"({n.action_name}) different from the node id")
    if not n.effects:
        return f"{n.kind} {n.id}"
    return f"{n.kind} {n.id} {{ {' '.join(f'{var} := {expr};' for var, expr in n.effects)} }}"


def print_ad(ad: ActivityDiagram) -> str:
    return _frame(f"activitydiagram {ad.name}", [
        *(f"input {v.name} : {v.lo}..{v.hi}" for v in ad.inputs),
        *(f"local {v.name} : {v.lo}..{v.hi} = {v.init}" for v in ad.locals),
        *map(_node_decl, ad.nodes),
        *(f"edge {e.source} -> {e.target}" + ("" if e.guard is None else f" [{e.guard}]")
          for e in ad.edges)])


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
