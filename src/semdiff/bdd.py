"""Reduced ordered binary decision diagrams over a shared unique table.

Nodes are plain ints. 0 and 1 are the terminals; every other id u names
the row _nodes[u], the tuple (level, low, high) that is also u's key in
the unique table. The table is hash-consed and children are never equal,
so two functions are the same iff their root ids are the same.
Variables are identified by their level in the fixed order; there is no
dynamic reordering and no complement edges.

Each operation keeps its own computed table (Brace, Rudell and Bryant,
DAC 1990), so no key carries an op tag and no step dispatches on one;
exists is and_exists with a TRUE operand and shares its table.
Negation is a memoised traversal that records each result both ways, as
negation is an involution.  rename rebuilds through the unique table
while every node stays above its rebuilt children, as under the engine's
current/next-state maps (each current bit is directly followed by its
next-state copy); other maps fall back to ite.  The quantifiers find the
next level to quantify through a table built once per level set.
"""

from __future__ import annotations

from .record import record as dataclass

FALSE = 0
TRUE = 1

# terminals sort below every real level
_TERMINAL = 1 << 62


class BddError(Exception):
    pass


class ManagerMismatchError(BddError):
    """Operands created by different managers were mixed."""


class EmptySetError(BddError):
    """A witness was requested from the empty set."""


class IndexOutOfRangeError(BddError):
    """A level outside the manager's allocation."""


class _OrderBroken(Exception):
    """A rename would put a node at or below one of its children."""


class BddManager:
    def __init__(self) -> None:
        # row u is (level, low, high); a terminal is its own child
        self._nodes: list[tuple[int, int, int]] = [(_TERMINAL, 0, 0), (_TERMINAL, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        # computed tables, one per operation
        self._and: dict[tuple[int, int], int] = {}
        self._or: dict[tuple[int, int], int] = {}
        self._xor: dict[tuple[int, int], int] = {}
        self._not: dict[int, int] = {}
        self._ae: dict[tuple[int, int, int], int] = {}
        self._br: dict[tuple[int, int], int] = {}
        self._tables = (self._and, self._or, self._xor, self._not, self._ae, self._br)
        self._names: list[str] = []
        # sorted quantified levels -> their _intern_qset result
        self._qsets: dict[tuple[int, ...], tuple[int, tuple[int, ...], dict[int, int]]] = {}
        # Arguments already checked, so a repeated one costs one lookup.
        # Levels are never freed, so a checked argument stays valid; one
        # with a bad level is never stored and raises on every call.
        self._qargs: dict[tuple, tuple[int, tuple[int, ...], dict[int, int]]] = {}
        self._checked_maps: set[tuple[tuple[int, int], ...]] = set()

    # -- variables ---------------------------------------------------

    def new_var(self, name: str | None = None) -> int:
        lvl = len(self._names)
        self._names.append(name if name is not None else f"v{lvl}")
        return lvl

    @property
    def var_count(self) -> int:
        return len(self._names)

    def var_name(self, level: int) -> str:
        self._check_level(level)
        return self._names[level]

    def var(self, level: int) -> int:
        self._check_level(level)
        return self._make(level, FALSE, TRUE)

    def nvar(self, level: int) -> int:
        self._check_level(level)
        return self._make(level, TRUE, FALSE)

    def _check_level(self, level: int) -> None:
        if not 0 <= level < len(self._names):
            raise IndexOutOfRangeError(f"no variable at level {level}")

    @property
    def true_set(self) -> "SymbolicSet":
        return SymbolicSet(self, TRUE)

    @property
    def false_set(self) -> "SymbolicSet":
        return SymbolicSet(self, FALSE)

    @staticmethod
    def _as_levels(items) -> list[int]:
        # quantifier arguments may mix raw levels and VarBundles
        out: list[int] = []
        for it in items:
            if isinstance(it, VarBundle):
                out.extend(it.levels)
            else:
                out.append(it)
        return out

    # -- construction ------------------------------------------------

    def _make(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        hit = self._unique.get(key)
        if hit is not None:
            return hit
        idx = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = idx
        return idx

    def _cof(self, u: int, level: int) -> tuple[int, int]:
        lvl, low, high = self._nodes[u]
        return (low, high) if lvl == level else (u, u)

    # band, bor and bxor: each has its own terminal cases and its own
    # table under the ordered operand pair; a miss takes one Shannon step
    # on the top level, reading the children straight from the rows.

    def band(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1 or a == b:
            return a
        if a > b:
            a, b = b, a
        hit = self._and.get((a, b))
        if hit is None:
            hit = self._and[a, b] = self._shannon(self.band, a, b)
        return hit

    def bor(self, a: int, b: int) -> int:
        if a == 1 or b == 1:
            return 1
        if a == 0:
            return b
        if b == 0 or a == b:
            return a
        if a > b:
            a, b = b, a
        hit = self._or.get((a, b))
        if hit is None:
            hit = self._or[a, b] = self._shannon(self.bor, a, b)
        return hit

    def bxor(self, a: int, b: int) -> int:
        if a == b:
            return 0
        if a > b:
            a, b = b, a
        if a < 2:
            return self.bnot(b) if a else b
        hit = self._xor.get((a, b))
        if hit is None:
            hit = self._xor[a, b] = self._shannon(self.bxor, a, b)
        return hit

    def _shannon(self, op, a: int, b: int) -> int:
        la, a0, a1 = self._nodes[a]
        lb, b0, b1 = self._nodes[b]
        if la == lb:
            return self._make(la, op(a0, b0), op(a1, b1))
        if la < lb:
            return self._make(la, op(a0, b), op(a1, b))
        return self._make(lb, op(a, b0), op(a, b1))

    def bnot(self, a: int) -> int:
        if a < 2:
            return 1 - a
        hit = self._not.get(a)
        if hit is not None:
            return hit
        lvl, low, high = self._nodes[a]
        r = self._make(lvl, self.bnot(low), self.bnot(high))
        # negation is an involution, so one traversal answers both ways
        self._not[a] = r
        self._not[r] = a
        return r

    def bdiff(self, a: int, b: int) -> int:
        return self.band(a, self.bnot(b))

    def ite(self, f: int, g: int, h: int) -> int:
        return self.bor(self.band(f, g), self.band(self.bnot(f), h))

    # -- quantification ----------------------------------------------

    def _intern_qset(self, levels) -> tuple[int, tuple[int, ...], dict[int, int]]:
        """(id, sorted levels, next-level table) of a quantifier argument.

        The table, built once per level set, maps each level up to the
        deepest quantified one to the first quantified level at or after
        it, so a recursive step finds what is left to quantify with one
        lookup.  A level past the table's end, a terminal's or that of a
        variable made later, has nothing left below it."""
        key = tuple(levels)
        hit = self._qargs.get(key)
        if hit is None:
            qs = tuple(sorted(set(self._as_levels(key))))
            for lvl in qs:
                self._check_level(lvl)
            hit = self._qsets.get(qs)
            if hit is None:
                table = {lvl: q for prev, q in zip((-1, *qs), qs)
                         for lvl in range(prev + 1, q + 1)}
                hit = self._qsets[qs] = (len(self._qsets), qs, table)
            self._qargs[key] = hit
        return hit

    def exists(self, u: int, levels) -> int:
        return self.and_exists(u, TRUE, levels)

    def forall(self, u: int, levels) -> int:
        return self.bnot(self.exists(self.bnot(u), levels))

    def and_exists(self, a: int, b: int, levels) -> int:
        """exists(band(a, b), levels) without building the conjunction."""
        qid, _, nxt = self._intern_qset(levels)
        return self._and_exists(a, b, qid, nxt)

    def _and_exists(self, a: int, b: int, qid: int, nxt: dict[int, int]) -> int:
        if a == 0 or b == 0:
            return 0
        if a == 1 and b == 1:
            return 1
        if a > b:
            a, b = b, a
        la, a0, a1 = self._nodes[a]
        lb, b0, b1 = self._nodes[b]
        lvl = la if la < lb else lb
        q = nxt.get(lvl)
        if q is None:
            return self.band(a, b)
        key = (a, b, qid)
        hit = self._ae.get(key)
        if hit is not None:
            return hit
        a0, a1 = (a0, a1) if la == lvl else (a, a)
        b0, b1 = (b0, b1) if lb == lvl else (b, b)
        if q == lvl:
            r0 = self._and_exists(a0, b0, qid, nxt)
            r = TRUE if r0 == TRUE else self.bor(r0, self._and_exists(a1, b1, qid, nxt))
        else:
            r = self._make(lvl, self._and_exists(a0, b0, qid, nxt),
                           self._and_exists(a1, b1, qid, nxt))
        self._ae[key] = r
        return r

    def branching(self, u: int, levels) -> int:
        """The valuations of the other variables under which u holds for
        at least two valuations of levels, in one memoised pass.  A
        quantified level that a path skips is free, so below it one
        solution makes two and the answer is exists."""
        qid, _, nxt = self._intern_qset(levels)
        return self._branching(u, qid, nxt, -1)

    def _branching(self, u: int, qid: int, nxt: dict[int, int], above: int) -> int:
        # above: the level of u's parent on this path, -1 at the root
        q = nxt.get(above + 1)
        lvl, low, high = self._nodes[u]
        if q is not None and q < lvl:
            return self._and_exists(u, TRUE, qid, nxt)
        if u < 2 or q is None:
            return FALSE
        hit = self._br.get((u, qid))
        if hit is None:
            r0 = self._branching(low, qid, nxt, lvl)
            r1 = self._branching(high, qid, nxt, lvl)
            if q == lvl:
                both = self.band(self._and_exists(low, TRUE, qid, nxt),
                                 self._and_exists(high, TRUE, qid, nxt))
                hit = self.bor(self.bor(r0, r1), both)
            else:
                hit = self._make(lvl, r0, r1)
            self._br[u, qid] = hit
        return hit

    # -- substitution ------------------------------------------------

    def rename(self, u: int, mapping: dict[int, int]) -> int:
        """u with every level `old` read as level mapping[old]: one pass
        through _make while each node stays above its rebuilt children,
        else (say, a swap of adjacent banks) a rebuild with ite."""
        key = tuple(mapping.items())
        if key not in self._checked_maps:
            for old, new in key:
                self._check_level(old)
                self._check_level(new)
            self._checked_maps.add(key)
        try:
            return self._rename_ordered(u, mapping, {})
        except _OrderBroken:
            return self._rename_ite(u, mapping, {})

    # The recursive helpers are methods with the memo passed in, not
    # closures: a nested function that calls itself is a reference cycle
    # that would keep the manager alive until a full collection.

    def _rename_ordered(self, x: int, mapping: dict[int, int], memo: dict[int, int]) -> int:
        if x < 2:
            return x
        hit = memo.get(x)
        if hit is not None:
            return hit
        nodes = self._nodes
        lvl, low, high = nodes[x]
        lvl = mapping.get(lvl, lvl)
        r0 = self._rename_ordered(low, mapping, memo)
        r1 = self._rename_ordered(high, mapping, memo)
        if lvl >= nodes[r0][0] or lvl >= nodes[r1][0]:
            raise _OrderBroken
        r = memo[x] = self._make(lvl, r0, r1)
        return r

    def _rename_ite(self, x: int, mapping: dict[int, int], memo: dict[int, int]) -> int:
        if x < 2:
            return x
        hit = memo.get(x)
        if hit is not None:
            return hit
        lvl, low, high = self._nodes[x]
        v = self.var(mapping.get(lvl, lvl))
        r = memo[x] = self.ite(v, self._rename_ite(high, mapping, memo),
                               self._rename_ite(low, mapping, memo))
        return r

    def restrict(self, u: int, consts: dict[int, bool], memo: dict[int, int] | None = None) -> int:
        """One memo may serve every call with the same consts: nodes never change."""
        for lvl in consts:
            self._check_level(lvl)
        return self._restrict(u, consts, {} if memo is None else memo)

    def _restrict(self, x: int, consts: dict[int, bool], memo: dict[int, int]) -> int:
        if x < 2:
            return x
        hit = memo.get(x)
        if hit is not None:
            return hit
        lvl, low, high = self._nodes[x]
        if lvl in consts:
            r = self._restrict(high if consts[lvl] else low, consts, memo)
        else:
            r = self._make(lvl, self._restrict(low, consts, memo),
                           self._restrict(high, consts, memo))
        memo[x] = r
        return r

    # -- inspection --------------------------------------------------

    def support(self, u: int) -> tuple[int, ...]:
        seen: set[int] = set()
        out: set[int] = set()
        stack = [u]
        while stack:
            x = stack.pop()
            if x < 2 or x in seen:
                continue
            seen.add(x)
            lvl, low, high = self._nodes[x]
            out.add(lvl)
            stack += (low, high)
        return tuple(sorted(out))

    def eval_node(self, u: int, assignment: dict[int, bool]) -> bool:
        while u > 1:
            lvl, low, high = self._nodes[u]
            if lvl not in assignment:
                raise BddError(f"variable {self._names[lvl]} (level {lvl}) is unassigned")
            u = high if assignment[lvl] else low
        return u == TRUE

    def cube(self, literals: dict[int, bool]) -> int:
        node = TRUE
        for lvl in sorted(literals, reverse=True):
            self._check_level(lvl)
            node = self._make(lvl, FALSE, node) if literals[lvl] else self._make(lvl, node, FALSE)
        return node

    def count_sat(self, u: int, levels) -> int:
        """Satisfying valuations over the given levels and bundles.

        Bundles contribute their bit levels and their domain constraint,
        so out-of-range bit patterns never count.
        """
        items = list(levels)
        for it in items:
            if isinstance(it, VarBundle):
                u = self.band(u, self.domain_cube(it))
        qs = self._intern_qset(items)[1]
        covered = set(qs)
        missing = [lvl for lvl in self.support(u) if lvl not in covered]
        if missing:
            raise BddError(f"support not covered by count_sat levels: {missing}")
        rank = {lvl: i for i, lvl in enumerate(qs)}
        n = len(qs)
        memo: dict[int, int] = {}

        def below(x: int) -> int:
            # assignments over the levels ranked at or under x's own
            hit = memo.get(x)
            if hit is not None:
                return hit
            r = rank[self._nodes[x][0]]
            total = 0
            for child in self._nodes[x][1:]:
                if child < 2:
                    total += child << (n - r - 1)
                else:
                    total += below(child) << (rank[self._nodes[child][0]] - r - 1)
            memo[x] = total
            return total

        if u < 2:
            return u << n
        return below(u) << rank[self._nodes[u][0]]

    def pick_one(self, u: int, bundles) -> dict[str, int]:
        """Lexicographically least valuation of the bundles, in list order."""
        if u == FALSE:
            raise EmptySetError("pick_one on the empty set")
        out: dict[str, int] = {}
        for b in bundles:
            value, u = self.pick_least(u, b)
            out[b.name] = value
        return out

    def pick_assignment(self, u: int) -> dict[int, bool]:
        """Deterministic satisfying assignment, low branch preferred."""
        if u == FALSE:
            raise EmptySetError("pick_assignment on the empty set")
        path: dict[int, bool] = {}
        while u > 1:
            lvl, low, high = self._nodes[u]
            path[lvl] = low == FALSE
            u = high if low == FALSE else low
        return path

    def audit(self) -> dict[str, int]:
        """Verify table invariants; raises BddError on any breach."""
        nodes = self._nodes
        n = len(nodes)
        if len(self._unique) != n - 2:
            raise BddError("unique table entry count does not match node count")
        for key, idx in self._unique.items():
            if not 2 <= idx < n:
                raise BddError(f"table points at invalid node {idx}")
            if nodes[idx] != key:
                raise BddError(f"table key disagrees with node {idx}")
            lvl, low, high = key
            if low == high:
                raise BddError(f"node {idx} has equal children")
            if not (0 <= low < n and 0 <= high < n):
                raise BddError(f"node {idx} has a dangling child")
            if nodes[low][0] <= lvl or nodes[high][0] <= lvl:
                raise BddError(f"node {idx} breaks the level order")
        return {
            "nodes": n,
            "internal": n - 2,
            "vars": len(self._names),
            "cache_entries": sum(len(t) for t in self._tables),
        }

    def clear_cache(self) -> None:
        """Empty the computed tables, keeping every node; addiff calls it per stage."""
        for t in self._tables:
            t.clear()

    # -- integer bundles ---------------------------------------------

    def value_cube(self, bundle: VarBundle, value: int) -> int:
        return self.cube(bundle.bits_of(value))

    def domain_cube(self, bundle: VarBundle) -> int:
        # comparator for offset <= hi - lo, assembled from the LSB up
        node = TRUE
        span = bundle.hi - bundle.lo
        for i, lvl in enumerate(reversed(bundle.levels)):
            if (span >> i) & 1:
                node = self._make(lvl, TRUE, node)
            else:
                node = self._make(lvl, node, FALSE)
        return node

    def _projection(self, u: int, bundle: VarBundle) -> int:
        # the bundle's in-range values some valuation of u takes
        own = set(bundle.levels)
        shadow = self.exists(u, [lvl for lvl in self.support(u) if lvl not in own])
        return self.band(shadow, self.domain_cube(bundle))

    def value_runs(self, u: int, bundle: VarBundle) -> list[tuple[int, int]]:
        """Maximal runs [lo..hi] of the bundle's values in u, ascending.

        Walks the projection most significant bit first, low branch
        first; a TRUE subtree at depth i is a whole aligned block of
        2**(nbits - i) values."""
        n = bundle.nbits
        runs: list[list[int]] = []
        stack = [(self._projection(u, bundle), 0, 0)]
        while stack:
            x, i, prefix = stack.pop()
            if x == FALSE:
                continue
            if x == TRUE:
                lo = bundle.lo + (prefix << (n - i))
                hi = lo + (1 << (n - i)) - 1
                if runs and runs[-1][1] == lo - 1:
                    runs[-1][1] = hi
                else:
                    runs.append([lo, hi])
                continue
            low, high = self._cof(x, bundle.levels[i])
            stack.append((high, i + 1, 2 * prefix + 1))
            stack.append((low, i + 1, 2 * prefix))
        return [(lo, hi) for lo, hi in runs]

    def project_values(self, u: int, bundle: VarBundle) -> tuple[int, ...]:
        return tuple(v for lo, hi in self.value_runs(u, bundle)
                     for v in range(lo, hi + 1))

    def pick_least(self, u: int, bundle: VarBundle) -> tuple[int, int]:
        """Smallest bundle value in the set, plus the narrowed set."""
        x = self._projection(u, bundle)
        if x == FALSE:
            raise EmptySetError(f"no value of {bundle.name} satisfies the set")
        off = 0
        for lvl in bundle.levels:
            low, high = self._cof(x, lvl)
            off = 2 * off + (low == FALSE)
            x = high if low == FALSE else low
        value = bundle.lo + off
        return value, self.band(u, self.value_cube(bundle, value))


@dataclass(frozen=True)
class VarBundle:
    """An integer in [lo, hi] spread over bit levels, most significant first."""

    name: str
    lo: int
    hi: int
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"{self.name}: empty range {self.lo}..{self.hi}")
        if len(self.levels) != (self.hi - self.lo).bit_length():
            raise ValueError(
                f"{self.name}: {len(self.levels)} bits cannot hold {self.lo}..{self.hi}")
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError(f"{self.name}: bundle levels must be strictly increasing")

    @property
    def nbits(self) -> int:
        return len(self.levels)

    def bits_of(self, value: int) -> dict[int, bool]:
        if not self.lo <= value <= self.hi:
            raise ValueError(f"{self.name}: {value} outside {self.lo}..{self.hi}")
        off = value - self.lo
        n = self.nbits
        return {lvl: bool((off >> (n - 1 - i)) & 1) for i, lvl in enumerate(self.levels)}

    def decode(self, assignment: dict[int, bool]) -> int:
        off = 0
        for lvl in self.levels:
            off = (off << 1) | (1 if assignment.get(lvl, False) else 0)
        return self.lo + off


@dataclass(frozen=True, eq=False)
class SymbolicSet:
    """Operator sugar over a manager node."""

    manager: BddManager
    node: int

    def _peer(self, other: "SymbolicSet") -> int:
        if not isinstance(other, SymbolicSet):
            raise TypeError(f"expected SymbolicSet, got {type(other).__name__}")
        if other.manager is not self.manager:
            raise ManagerMismatchError("operands come from different managers")
        return other.node

    def __and__(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet(self.manager, self.manager.band(self.node, self._peer(other)))

    def __or__(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet(self.manager, self.manager.bor(self.node, self._peer(other)))

    def __xor__(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet(self.manager, self.manager.bxor(self.node, self._peer(other)))

    def __sub__(self, other: "SymbolicSet") -> "SymbolicSet":
        return SymbolicSet(self.manager, self.manager.bdiff(self.node, self._peer(other)))

    def __invert__(self) -> "SymbolicSet":
        return SymbolicSet(self.manager, self.manager.bnot(self.node))

    def __bool__(self) -> bool:
        return self.node != FALSE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicSet):
            return NotImplemented
        return self.manager is other.manager and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def exists(self, levels) -> "SymbolicSet":
        return SymbolicSet(self.manager, self.manager.exists(self.node, levels))

    def forall(self, levels) -> "SymbolicSet":
        return SymbolicSet(self.manager, self.manager.forall(self.node, levels))

    def rename(self, mapping: dict[int, int]) -> "SymbolicSet":
        return SymbolicSet(self.manager, self.manager.rename(self.node, mapping))

    def restrict(self, consts: dict[int, bool]) -> "SymbolicSet":
        return SymbolicSet(self.manager, self.manager.restrict(self.node, consts))


def mk_var(manager: BddManager, index: int) -> SymbolicSet:
    return SymbolicSet(manager, manager.var(index))
