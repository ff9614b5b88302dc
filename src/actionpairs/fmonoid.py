"""Finite semigroup/monoid engine.

Elements of a finite semigroup are integer ids attached to a CayleyTable.
A table stores right multiplication by its generators plus, for every
element, a shortlex-minimal word over the generators; the word list doubles
as the normal-form function used by the presentation machinery.

This module is the table layer, and it decides three things in one place
each.  A known element list becomes a table only through
`table_from_elements` (a generator closure that must reach exactly that
list; `subtable` is that call on element ids).  A table built over payload
objects keeps the payload -> id dict its closure built as `index`, so no
caller numbers `elements` again.  And a table without an identity hint
finds its own: `CayleyTable.__init__` detects it.

Presented monoids are enumerated with a node/coincidence procedure over the
right Cayley graph (bounded rewriting cannot certify completeness; a closed
graph can): one HLT-style construction pass, then a certifying check that
traces every relation column by column over the compacted graph.  A closed
graph only ever shows a finite monoid; `verify_presentation` pairs the
enumerator with completed rewriting systems (`rewriting`), which can show an
infinite one.

Words evaluate one way: `evaluate` takes a word through letter values and
a product, for tables (`CayleyTable.eval_word`), for presentation checks
(`verify_presentation`) and for outside models.

The closure layer has three routines.  `right_orbit` closes seeds under
right multiplication by generators, recording each element's word and
parent; `_close` is the one loop that closes payload objects under a
product, filling the right table as it goes, and with prune=True it skips
each candidate generator that the closure so far holds (Froidure & Pin).
`closure_from_generators` builds every payload table from it, renumbering
a pruned closure in shortlex-BFS order, and `greedy_generators` is its kept
list alone.  `CongruencePartition.close` is the one congruence closure,
reading each element's images under the generators from a successor
function as `right_orbit` does; `is_compatible` reads compatibility off it
as a fixed point (an equivalence is a congruence exactly when its two-sided
closure merges nothing more).  `CongruencePartition` is also the one
union-find: `enumerate_presentation` keeps its coincidence classes in one
and writes its parent list directly on the hot paths.
No closure materialises an m x m table: `mul` walks normal forms, and the
callers that multiply by arbitrary elements at scale call `rows()`
themselves (the m x m table up to FULL_TABLE_CAP, rows built as they are
read past it).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import rewriting

Word = tuple[int, ...]

NODE_CAP = 5_000_000        # default enumeration budget (elements / nodes)
FULL_TABLE_CAP = 5000       # materialize the m x m table only below this


class SizeBoundExceeded(Exception):
    """Raised when a closure grows past its element cap."""


class BoundExceeded(Exception):
    """Raised by enumerate_presentation.

    undecided=True means the node budget ran out (no finiteness claim);
    undecided=False means the monoid is larger than the requested bound:
    enumeration finished with its actual size in `size`.
    """

    def __init__(self, msg, *, undecided, size=None, nodes=None):
        super().__init__(msg)
        self.undecided = undecided
        self.size = size
        self.nodes = nodes


class NotACongruence(Exception):
    pass


def shortlex_key(w: Word):
    return (len(w), w)


def evaluate(word: Word, values: Sequence, product: Callable, identity=None):
    """The value of a word under a letter map: values[word[0]] times the
    values of the later letters in turn, by `product`.  The empty word
    evaluates to `identity`, and raises ValueError when that is None."""
    if not word:
        if identity is None:
            raise ValueError("empty word needs an identity")
        return identity
    x = values[word[0]]
    for k in word[1:]:
        x = product(x, values[k])
    return x


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """A monoid or semigroup presentation over a named alphabet.

    Relations are stored canonically: shortlex-larger side first, duplicates
    and trivial pairs (w, w) removed, original order otherwise preserved.  A
    semigroup presentation needs a letter and relations with non-empty
    sides.
    """

    alphabet: tuple[str, ...]
    relations: tuple[tuple[Word, Word], ...]
    kind: str  # "monoid" | "semigroup"

    @staticmethod
    def make(alphabet: Sequence[str], relations: Iterable[tuple[Sequence[int], Sequence[int]]],
             kind: str = "monoid") -> "Presentation":
        if kind not in ("monoid", "semigroup"):
            raise ValueError(f"bad presentation kind {kind!r}")
        names = tuple(alphabet)
        if len(set(names)) != len(names):
            raise ValueError("alphabet letters must be distinct")
        if kind == "semigroup" and not names:
            raise ValueError("a semigroup presentation needs at least one letter")
        seen = set()
        out = []
        for lhs, rhs in relations:
            u, v = tuple(lhs), tuple(rhs)
            for w in (u, v):
                if any(not (0 <= i < len(names)) for i in w):
                    raise ValueError(f"relation word {w} escapes the alphabet")
            if kind == "semigroup" and (not u or not v):
                raise ValueError("semigroup relations must have non-empty sides")
            if u == v:
                continue
            if shortlex_key(u) < shortlex_key(v):
                u, v = v, u
            if (u, v) in seen:
                continue
            seen.add((u, v))
            out.append((u, v))
        return Presentation(names, tuple(out), kind)

    def letter(self, name: str) -> int:
        return self.alphabet.index(name)

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "alphabet": list(self.alphabet),
            "relations": [[list(u), list(v)] for u, v in self.relations],
        })

    @staticmethod
    def from_json(text: str) -> "Presentation":
        d = json.loads(text)
        return Presentation.make(d["alphabet"],
                                 [(tuple(u), tuple(v)) for u, v in d["relations"]],
                                 d["kind"])


# ---------------------------------------------------------------------------
# Cayley tables
# ---------------------------------------------------------------------------

class CayleyTable:
    """A concretely enumerated finite semigroup or monoid.

    right[e][k] is e * gens[k].  nf[e] is a shortlex-minimal word over the
    generators evaluating to e (empty word = identity, monoids only).
    parent[e] encodes nf[e] = nf[p] + (k,), with p = -1 for one-letter words
    with no identity present; it lets products be evaluated without the full
    table.  elements, when set, carries the original payload objects and
    index maps each payload back to its id (tables built by a closure have
    both; quotients, presented monoids and `from_json` tables have neither).
    When no identity is given the table looks for one (an element fixing
    every generator on both sides) and leaves None when there is none.
    """

    __slots__ = ("size", "gens", "right", "nf", "parent", "identity",
                 "elements", "index", "_full", "_left")

    def __init__(self, size, gens, right, nf, parent, identity=None,
                 elements=None, index=None):
        self.size = size
        self.gens = list(gens)
        self.right = right
        self.nf = nf
        self.parent = parent
        self.identity = identity
        self.elements = elements
        self.index = index
        self._full = None
        self._left = None
        if identity is None:
            self.identity = _detect_identity(self)

    # -- products ----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self._full is not None:
            return self._full[a][b]
        x = a
        right = self.right
        for k in self.nf[b]:
            x = right[x][k]
        return x

    def eval_word(self, word: Word) -> int:
        """Evaluate a generator word to an element (`evaluate`)."""
        return evaluate(word, self.gens, self.mul, self.identity)

    def _parents_first(self) -> list:
        """Element ids by normal-form length: each element's parent comes
        before it whatever the numbering (`from_json` accepts any)."""
        return sorted(range(self.size), key=lambda e: len(self.nf[e]))

    def full_table(self):
        """Materialize and cache the m x m table (sizes under FULL_TABLE_CAP)."""
        if self._full is None:
            if self.size > FULL_TABLE_CAP:
                raise SizeBoundExceeded(f"table too big to materialize: {self.size}")
            order = self._parents_first()
            self._full = [self._row(a, order) for a in range(self.size)]
        return self._full

    def rows(self):
        """The products as rows[a][b] = a * b.

        Up to FULL_TABLE_CAP elements this is `full_table()`.  Past it, a
        dict that builds row a the first time it is read: the caller holds
        the dict and the table keeps nothing, so only the rows read are
        built."""
        if self.size <= FULL_TABLE_CAP:
            return self.full_table()
        return _RowsOnDemand(self)

    def column(self, g: int) -> list:
        """x * g for every element x, as a list indexed by x.

        Read from the m x m table when it is built; otherwise the right
        table's columns composed along nf[g], one pass per letter.  Never
        builds an m x m table."""
        if self._full is not None:
            return [row[g] for row in self._full]
        right = self.right
        col = list(range(self.size))
        for k in self.nf[g]:
            col = [right[x][k] for x in col]
        return col

    def _row(self, a: int, order: Sequence) -> list:
        """a * b for every b, by the parent recurrence: nf[b] = nf[p] + (k,)
        gives a * b = (a * p) * gens[k], read from the right table, with the
        parents first in `order`."""
        row = [0] * self.size
        right, parent, identity = self.right, self.parent, self.identity
        right_a = right[a]
        for b in order:
            if b == identity:
                row[b] = a
            else:
                p, k = parent[b]
                row[b] = right_a[k] if p < 0 or p == identity else right[row[p]][k]
        return row

    def left_by_gen(self):
        """left[e][k] = gens[k] * e, built by the same parent recurrence."""
        if self._left is None:
            right = self.right
            left: list = [None] * self.size
            for e in self._parents_first():
                if e == self.identity:
                    left[e] = list(self.gens)
                    continue
                p, j = self.parent[e]
                src = self.gens if p < 0 or p == self.identity else left[p]
                left[e] = [right[x][j] for x in src]
            self._left = left
        return self._left

    # -- misc ----------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "size": self.size,
            "gens": list(self.gens),
            "table": [list(r) for r in self.right],
            "nf": [list(w) for w in self.nf],
        })

    @staticmethod
    def from_json(text: str) -> "CayleyTable":
        """Load a table written by `to_json`, validated before use.

        Raises ValueError unless the document is an object whose gens,
        table and nf are lists (table and nf of lists), every table entry
        and generator is an element id, every normal form evaluates to its
        own element (the empty word marking an identity), every column
        agrees with the product by its generator, and the product is
        associative (`associativity_audit`).  When no word is empty, the
        identity is the one the table detects on construction.
        """
        d = json.loads(text)
        if not (isinstance(d, dict)
                and all(isinstance(d.get(k), list) for k in ("gens", "table", "nf"))
                and all(isinstance(r, list) for r in d["table"] + d["nf"])):
            raise ValueError("a table is an object with lists gens, table and nf")
        size = d.get("size")
        gens = list(d["gens"])
        right = [list(r) for r in d["table"]]
        nf = [tuple(w) for w in d["nf"]]

        def ids(xs, bound):
            return all(type(x) is int and 0 <= x < bound for x in xs)

        if type(size) is not int or size < 1 or len(right) != size or len(nf) != size:
            raise ValueError("table, nf and size disagree")
        if not gens or not ids(gens, size):
            raise ValueError("generator ids out of range")
        if any(len(r) != len(gens) or not ids(r, size) for r in right):
            raise ValueError("table entries out of range")
        if any(not ids(w, len(gens)) for w in nf):
            raise ValueError("normal-form letters out of range")
        by_word = {w: e for e, w in enumerate(nf)}
        identity = by_word.get(())
        parent: list = [None] * size
        for e, w in enumerate(nf):
            if len(w) == 1:
                parent[e] = (identity if identity is not None else -1, w[0])
            elif w:
                if w[:-1] not in by_word:
                    raise ValueError(f"normal form of {e} has no prefix element")
                parent[e] = (by_word[w[:-1]], w[-1])
        t = CayleyTable(size, gens, right, nf, parent, identity)
        for e, w in enumerate(nf):
            if t.eval_word(w) != e:
                raise ValueError(f"normal form {list(w)} does not evaluate to {e}")
        if identity is not None and right[identity] != gens:
            raise ValueError(f"element {identity} with the empty word is no identity")
        full = t.full_table()
        if any(right[a][k] != full[a][g] for a in range(size)
               for k, g in enumerate(gens)):
            raise ValueError("table columns disagree with the product")
        if not associativity_audit(t):
            raise ValueError("table is not associative")
        return t


class _RowsOnDemand(dict):
    """`CayleyTable.rows()` past FULL_TABLE_CAP: row a is built on its first
    read (`CayleyTable._row`) and kept in this dict."""

    def __init__(self, table: CayleyTable):
        super().__init__()
        self.table = table
        self.order = table._parents_first()

    def __missing__(self, a):
        row = self[a] = self.table._row(a, self.order)
        return row


def _detect_identity(t: CayleyTable) -> Optional[int]:
    # e is a two-sided identity iff it fixes every generator on both sides
    for e in range(t.size):
        if all(t.right[e][k] == t.gens[k] for k in range(len(t.gens))) and \
           all(t.mul(g, e) == g for g in t.gens):
            return e
    return None


def _close(gens: Iterable, product: Callable, identity_hint, cap: Optional[int],
           prune: bool) -> tuple:
    """The generator closure of Froidure & Pin, "Algorithms for computing
    finite semigroups" (1997): the one loop that closes payloads under a
    product.  Returns (kept, elems, index, nf, parent, right, identity).

    The identity hint, if given, is element 0 with the empty word.  A fixed
    list (prune=False) is kept whole, repeats included: every generator is
    registered before any product is formed, so elements are numbered in
    shortlex-BFS order.  With prune=True the closure grows one candidate at
    a time and skips a candidate it already holds.  On each kept candidate
    the rows so far are multiplied by it alone and the new elements by
    every kept generator, so each product is formed once: about
    |closure| x |kept| products rather than |closure|^2.  The numbering and
    words are then those of discovery, not shortlex-BFS.  Either way
    right[e][k] = elems[e] * kept[k] and nf[e] evaluates to elems[e].  A
    product that raises stops the closure at its first escape.
    """
    if cap is None:
        cap = NODE_CAP
    kept, elems, nf, parent, right, index = [], [], [], [], [], {}

    def register(x, word, par):
        if len(elems) >= cap:
            raise SizeBoundExceeded(f"closure exceeded cap {cap}")
        index[x] = len(elems)
        elems.append(x)
        nf.append(word)
        parent.append(par)
        return len(elems) - 1

    identity = None if identity_hint is None else register(identity_hint, (), None)
    root = -1 if identity is None else identity
    done = 0                        # the rows built so far
    for batch in ([g] for g in gens) if prune else [list(gens)]:
        if prune and batch[0] in index:
            continue
        for g in batch:
            if g not in index:
                register(g, (len(kept),), (root, len(kept)))
            kept.append(g)
        k = len(kept) - 1
        for e in range(done):       # pruning: the rows so far times g alone
            p = product(elems[e], g)
            j = index.get(p)
            if j is None:
                j = register(p, nf[e] + (k,), (e, k))
            right[e].append(j)
        while done < len(elems):    # the new elements times every generator
            x, row = elems[done], []
            for k, g in enumerate(kept):
                p = product(x, g)
                j = index.get(p)
                if j is None:
                    j = register(p, nf[done] + (k,), (done, k))
                row.append(j)
            right.append(row)
            done += 1
    return kept, elems, index, nf, parent, right, identity


def closure_from_generators(gens: Iterable, product: Callable,
                            identity_hint=None, *, cap: Optional[int] = None,
                            prune: bool = False) -> CayleyTable:
    """Enumerate the semigroup generated by `gens` under `product`.

    Elements are numbered in shortlex-BFS discovery order over the
    generators (the identity hint, if given, comes first with the empty
    word as its normal form).  Deterministic for a fixed generator order.
    `cap` defaults to NODE_CAP.  Only the right table over the generators
    is built; call `full_table()` on the result for the m x m table.  The
    result keeps the payloads as `elements` and the payload -> id dict as
    `index`.

    A fixed list is taken whole.  With prune=True `gens` are candidates:
    the table is generated by those that the ones kept before them do not
    generate (`_close`), or by the identity alone when they generate
    nothing else, and it is the table this function builds over that kept
    list, renumbered from discovery order by one shortlex BFS over its
    right table (`_bfs_trail`).
    """
    kept, elems, index, nf, parent, right, identity = _close(
        gens, product, identity_hint, cap, prune)
    if not kept:
        if not prune or identity is None:
            raise ValueError("need at least one generator")
        kept.append(identity_hint)              # it generates itself alone
        right.append([identity])
    gen_ids = [index[g] for g in kept]
    if prune:
        found = _bfs_trail(right, gen_ids, identity)
        new = dict(zip(found, range(len(found))))
        new[-1] = -1                            # the root of one-letter words
        elems = [elems[e] for e in found]
        index.update(zip(elems, range(len(elems))))
        nf = [word for word, _ in found.values()]
        parent = [par and (new[par[0]], par[1]) for _, par in found.values()]
        right = [right[e] for e in found]
        for row in right:
            row[:] = map(new.__getitem__, row)
        gen_ids = [new[g] for g in gen_ids]
    t = CayleyTable(len(elems), gen_ids, right, nf, parent, identity, elems, index)
    if identity is not None and not all(
            right[identity][k] == gen_ids[k] and
            product(g, identity_hint) == g for k, g in enumerate(kept)):
        raise ValueError("identity hint is not a two-sided identity")
    return t


def greedy_generators(candidates: Iterable, product: Callable) -> list:
    """The candidates, in order, that the ones kept before them do not
    generate: the kept list of the pruning closure (`_close`), with no
    table numbered.  The kept list generates everything the candidates
    generate.  A product that raises stops the closure at the first escape:
    `AmbientContext` certifies that a set is closed this way.
    """
    return _close(candidates, product, None, None, True)[0]


def right_orbit(seeds: Iterable, successors: Callable,
                trail: Optional[Sequence[tuple]] = None) -> dict:
    """The right orbit of the seeds: every element reached from them by
    repeatedly taking `successors(x)`, the right multiples of x by the
    generators in generator order.

    This is the generator-closure step of Froidure & Pin, "Algorithms for
    computing finite semigroups" (1997).  Elements are visited first in,
    first out, and the returned dict lists them in that order.  Each seed
    maps to its trail entry (word, parent), or to ((), None) without a
    trail; an element first reached as successors(x)[k] maps to
    (x's word + (k,), (x, k)).  When the trail's words are in shortlex
    order (the empty word, or (k,) for letter k), the visiting order makes
    each element's word the shortlex-least one.
    """
    found: dict = {}
    frontier = []
    for i, x in enumerate(seeds):
        if x not in found:
            found[x] = ((), None) if trail is None else trail[i]
            frontier.append(x)
    for x in frontier:
        word = found[x][0]
        for k, y in enumerate(successors(x)):
            if y not in found:
                found[y] = (word + (k,), (x, k))
                frontier.append(y)
    return found


def table_from_elements(elements: Sequence, product: Callable, *,
                        gens: Optional[Sequence] = None, identity=None
                        ) -> CayleyTable:
    """The table over an explicitly known element list: the one path from a
    list of elements to a table.

    The elements are numbered by the closure of `gens` (with the identity,
    if given, first), which must reach exactly the given elements; anything
    else raises ValueError, or SizeBoundExceeded once the closure passes one
    element more than the list.  When no generating set is known
    (gens=None), the elements in list order are the candidates of a pruned
    closure (`closure_from_generators` with prune=True): the generators are
    the elements that the ones before them do not generate, the identity
    aside, or the identity alone when nothing else is listed.
    """
    t = closure_from_generators(elements if gens is None else gens, product,
                                identity_hint=identity, cap=len(elements) + 1,
                                prune=gens is None)
    if t.index.keys() != set(elements):
        raise ValueError("given generators do not generate the given elements")
    return t


def associativity_audit(table: CayleyTable) -> bool:
    """Exhaustive (xy)z == x(yz) scan; meant for small tables."""
    full = table.full_table()
    n = table.size
    for a in range(n):
        fa = full[a]
        for b in range(n):
            fab = full[fa[b]]
            fb = full[b]
            for c in range(n):
                if fab[c] != fa[fb[c]]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Congruences
# ---------------------------------------------------------------------------

class CongruencePartition:
    """Union-find partition of 0..n-1 (given n), or of a list of members.

    Classes list their members in member order and come in the order of
    their first members; partitions of the same members compare equal
    exactly when they have the same classes.
    """

    __slots__ = ("parent",)

    def __init__(self, members):
        if isinstance(members, int):
            self.parent = list(range(members))
        else:
            self.parent = {x: x for x in members}

    @property
    def members(self):
        """0..n-1 for the list form, the keys in insertion order otherwise:
        read from `parent`, so a node appended to it is a member."""
        p = self.parent
        return range(len(p)) if isinstance(p, list) else p.keys()

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        # `find`'s path halving, inline on both members; the least root wins
        p = self.parent
        while p[a] != a:
            p[a] = a = p[p[a]]
        while p[b] != b:
            p[b] = b = p[p[b]]
        if a == b:
            return False
        if b < a:
            a, b = b, a
        p[b] = a
        return True

    def close(self, pairs: Iterable[tuple], successors: Callable
              ) -> "CongruencePartition":
        """Merge the pairs, then the images of both members of every
        effective merge under each generator, until nothing new merges.

        successors(x) lists x's images under the generators in generator
        order, as for `right_orbit`.  The result is the least equivalence
        containing the pairs and the earlier merges that is compatible with
        every successor map.  Returns self.
        """
        queue = [(a, b) for a, b in pairs if self.union(a, b)]
        p = self.parent
        while queue:
            a, b = queue.pop()
            for x, y in zip(successors(a), successors(b)):
                # `union(x, y)` inline: the roots rx, ry, then the merge
                rx, ry = x, y
                while p[rx] != rx:
                    p[rx] = rx = p[p[rx]]
                while p[ry] != ry:
                    p[ry] = ry = p[p[ry]]
                if rx != ry:
                    if ry < rx:
                        p[rx] = ry
                    else:
                        p[ry] = rx
                    queue.append((x, y))
        return self

    def canonical(self) -> tuple[int, ...]:
        """Per member, the first member of its class."""
        first: dict = {}
        find = self.find
        return tuple([first.setdefault(find(x), x) for x in self.members])

    def classes(self) -> list[list[int]]:
        by_root: dict = {}
        find = self.find
        for x in self.members:
            by_root.setdefault(find(x), []).append(x)
        return list(by_root.values())

    def is_trivial(self) -> bool:
        return all(len(c) == 1 for c in self.classes())

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def __eq__(self, other):
        return isinstance(other, CongruencePartition) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())


def congruence_closure(table: CayleyTable, pairs: Iterable[tuple[int, int]],
                       side: str = "two_sided") -> CongruencePartition:
    """Smallest equivalence containing `pairs`, compatible on the given side(s).

    `CongruencePartition.close` over the right table's rows for the right
    side, the rows of `left_by_gen()` for the left side, and both for the
    two-sided closure.
    """
    if side not in ("left", "right", "two_sided"):
        raise ValueError(f"bad side {side!r}")
    pairs = list(pairs)
    for a, b in pairs:
        if not (0 <= a < table.size and 0 <= b < table.size):
            raise ValueError(f"pair ({a},{b}) out of range")
    right = table.right
    if side == "right":
        successors = right.__getitem__
    elif side == "left":
        successors = table.left_by_gen().__getitem__
    else:
        left = table.left_by_gen()
        successors = lambda x: right[x] + left[x]
    return CongruencePartition(table.size).close(pairs, successors)


def is_compatible(table: CayleyTable, part: CongruencePartition) -> bool:
    """Two-sided compatibility of an equivalence, as the closure's fixed
    point: the least two-sided congruence containing `part` is `part`
    itself exactly when `part` is a congruence."""
    pairs = [(c[0], x) for c in part.classes() for x in c[1:]]
    return congruence_closure(table, pairs) == part


def quotient(table: CayleyTable, part: CongruencePartition) -> CayleyTable:
    """Quotient by a two-sided congruence; classes numbered by least member.

    The quotient's right table over the images of the generators is read
    off the class representatives; no m x m table is built (`mul` walks
    normal forms, `full_table()` builds one on demand).
    """
    if not is_compatible(table, part):
        raise NotACongruence("partition is not two-sided compatible")
    classes = part.classes()
    rep = [c[0] for c in classes]
    cls_of = {}
    for i, c in enumerate(classes):
        for x in c:
            cls_of[x] = i
    g = len(table.gens)
    right = [[cls_of[table.right[rep[i]][k]] for k in range(g)] for i in range(len(rep))]
    gens = [cls_of[x] for x in table.gens]
    identity = cls_of[table.identity] if table.identity is not None else None
    nf, parent = _bfs_words(right, gens, identity)
    return CayleyTable(len(rep), gens, right, nf, parent, identity)


def _bfs_trail(right, gens, identity) -> dict:
    """Shortlex-BFS words over `gens` reaching every element of a right
    table: each element maps to its word and parent trail (see
    CayleyTable), in BFS order."""
    root = -1 if identity is None else identity
    seeds = [] if identity is None else [identity]
    found = right_orbit(seeds + list(gens), right.__getitem__,
                        [((), None)] * len(seeds) +
                        [((k,), (root, k)) for k in range(len(gens))])
    if len(found) != len(right):
        raise ValueError("generators do not reach every element")
    return found


def _bfs_words(right, gens, identity):
    """The `_bfs_trail` words and parents, listed by element id."""
    nf, parent = zip(*map(_bfs_trail(right, gens, identity).__getitem__,
                          range(len(right))))
    return list(nf), list(parent)


# ---------------------------------------------------------------------------
# Presented monoids: node/coincidence enumeration
# ---------------------------------------------------------------------------

BUDGET_FACTOR = 60


def node_budget(bound: int, cap: Optional[int] = None) -> int:
    """Nodes an enumeration up to `bound` elements may create: the cap
    (NODE_CAP by default), lowered to BUDGET_FACTOR * bound + 1000."""
    if cap is None:
        cap = NODE_CAP
    return min(cap, max(2000, BUDGET_FACTOR * bound + 1000))


def enumerate_presentation(p: Presentation, bound: int, *,
                           node_cap: Optional[int] = None,
                           stats: Optional[dict] = None) -> CayleyTable:
    """Enumerate the monoid/semigroup presented by `p` when it has <= bound elements.

    One construction pass builds the right Cayley graph by HLT-style
    relation tracing with coincidence processing: every live node gets a
    complete row and every relation is traced from it.  A coincidence keeps
    the smaller node, which is scanned no later than the larger one, and
    keeps every closed trace closed, so after the pass the graph is closed.
    When the younger end of a coincidence has no edges yet (mostly the node
    its trace just made), it joins the older in one union-find write.  Both
    ends are representatives, so `merge` would copy no edge and queue no
    pair there: nodes, rows and counts stay the same.  That is then
    certified on the compacted graph: every row is complete and every
    relation, applied column by column to all nodes at once, ends on equal
    nodes.  A failed certificate is a bug in the pass, so it raises
    RuntimeError instead of returning.  A returned table is therefore
    certified complete.  Its numbering is canonical (shortlex-BFS from the
    empty word) and independent of processing order.  No m x m table is
    materialised; call `full_table()` for one.

    `node_cap` is the exact node budget (default `node_budget(bound)`);
    `stats`, when given, receives the number of nodes created.  The run is
    deterministic: the same input and budget create the same nodes.
    """
    if node_cap is None:
        node_cap = node_budget(bound)
    nl = len(p.alphabet)
    rels = p.relations

    blank = [-1] * nl
    rows: list[list[int]] = [[-1] * nl]
    # the coincidence classes: new nodes append to their `parent` list
    # (`uf`), and `merge` and the blank-row join below write it directly
    classes = CongruencePartition(1)
    uf, find = classes.parent, classes.find

    def new_node():
        n = len(uf)
        if n >= node_cap:
            raise BoundExceeded(f"node budget {node_cap} exhausted",
                                undecided=True, nodes=n)
        uf.append(n)
        rows.append([-1] * nl)
        return n

    def merge(a, b):
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            uf[y] = x
            rx, ry = rows[x], rows[y]
            for k in range(nl):
                t1, t2 = rx[k], ry[k]
                if t1 == -1:
                    rx[k] = t2
                elif t2 != -1:
                    stack.append((t1, t2))

    def construct():
        i = 0
        while i < len(rows):
            if uf[i] == i:
                row = rows[i]
                for k in range(nl):
                    if row[k] == -1:
                        row[k] = new_node()
                for u, v in rels:
                    # trace u, then v, from the class of i (a merge by an
                    # earlier relation may have moved i; tracing does not)
                    a = b = i if uf[i] == i else find(i)
                    for k in u:
                        row = rows[a]
                        t = row[k]
                        if t == -1:
                            t = row[k] = new_node()
                        elif uf[t] != t:
                            t = row[k] = find(t)
                        a = t
                    for k in v:
                        row = rows[b]
                        t = row[k]
                        if t == -1:
                            t = row[k] = new_node()
                        elif uf[t] != t:
                            t = row[k] = find(t)
                        b = t
                    if a != b:
                        if b < a:
                            a, b = b, a
                        if rows[b] == blank:
                            uf[b] = a
                        else:
                            merge(a, b)
            i += 1

    def certified():
        """The graph compacted in BFS order from the root (node 0, which
        no merge removes), or None unless it is closed: every row complete
        and every relation ending on equal nodes from every node."""
        newid = [-1] * len(rows)
        newid[0] = 0
        order = [0]
        right = []
        for e in order:
            out = []
            for t in rows[e]:
                if t == -1:
                    return None
                if uf[t] != t:
                    t = find(t)
                j = newid[t]
                if j == -1:
                    j = newid[t] = len(order)
                    order.append(t)
                out.append(j)
            right.append(out)
        cols = [list(c) for c in zip(*right)]
        nodes = list(range(len(right)))
        for u, v in rels:
            ends = []
            for w in (u, v):
                a = cols[w[0]] if w else nodes
                for k in w[1:]:
                    col = cols[k]
                    a = [col[x] for x in a]
                ends.append(a)
            if ends[0] != ends[1]:
                return None
        return right

    construct()
    right = certified()
    if right is None:
        raise RuntimeError("one construction pass left the graph open")
    if stats is not None:
        stats["nodes"] = len(uf)

    drop_root = p.kind == "semigroup" and not any(0 in row for row in right)
    size = len(right) - drop_root
    if size > bound:
        raise BoundExceeded(f"presented size {size} exceeds bound {bound}",
                            undecided=False, size=size, nodes=len(uf))
    gens = right[0]
    identity = 0
    if drop_root:
        # the empty-word class leaves the semigroup iff nothing maps into it;
        # BFS from the letter images is the same order without the root
        right = [[j - 1 for j in row] for row in right[1:]]
        gens = [j - 1 for j in gens]
        identity = None
    nf, parent = _bfs_words(right, gens, identity)
    return CayleyTable(size, gens, right, nf, parent, identity)


# ---------------------------------------------------------------------------
# Presentation verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    relations_hold: bool
    surjective: bool
    size_match: Optional[bool]          # None when enumeration was inconclusive
    presented_size: Optional[int]
    expected_size: int
    isomorphic: Optional[bool] = None
    failed_relation: Optional[tuple[Word, Word]] = None
    nodes: Optional[int] = None         # nodes the enumeration created
    node_budget: Optional[int] = None   # the node budget it was given
    infinite: bool = False              # certified infinite by completion
    completion_rules: Optional[int] = None     # rules the completion added
    completion_overlaps: Optional[int] = None  # overlaps it examined
    completion_orders: Optional[int] = None    # letter orders it was tried under
    completion_order: Optional[tuple[str, ...]] = None  # letters of the one that finished
    zero_letters: Optional[tuple[str, ...]] = None  # sent to zero, when that decided

    @property
    def ok(self) -> bool:
        return bool(self.relations_hold and self.surjective and self.size_match)

    @property
    def inconclusive(self) -> bool:
        return self.size_match is None

    def to_dict(self):
        return {**asdict(self), "failed_relation":
                [list(w) for w in self.failed_relation or ()] or None}


def verify_presentation(p: Presentation, m: CayleyTable,
                        gen_map: Sequence[int], *,
                        node_cap: Optional[int] = None) -> VerificationReport:
    """Three-verdict check that `p` presents `m` via letter -> element.

    relations_hold + surjective + size_match together certify the
    presentation by a finite cardinality argument; on success the presented
    table is also matched to `m` letter by letter (`iso_by_generators`,
    which seeds the identity pair itself).  Only the relation check forms
    products by `mul`: the surjectivity orbit reads one column of `m` per
    letter (`CayleyTable.column`), and so does the match.
    The enumeration gets `node_budget(bound, node_cap)` nodes; the report
    records that budget and the nodes created.

    A closed enumeration can only show a finite monoid, and dropping a
    relation often leaves an infinite one, so the schedule is:
      1. enumerate with a quarter of the budget (every catalogue
         presentation that closes does so well below it);
      2. if that runs out, run shortlex Knuth-Bendix completions under the
         n rotations of the letter order, identity first, then the n
         rotations of the reversed order, each under the fixed budget of
         `rewriting` (rules added, left-side length), and stop at the
         first completion that finishes; unless that completion finished,
         send to zero the letters `rewriting.zero_quotient` finds and run
         the same completions on the presentation of what is left;
      3. unless step 2 certified the monoid infinite, enumerate again with
         the full budget.  The enumeration is deterministic, so the second
         run repeats the first one's nodes before it creates more.
    Proof sketch for step 2: shortlex over any total order of the letters
    is a reduction order, so a completion under it that resolves every
    overlap is a confluent, terminating rewriting system for the same
    congruence, and each element has exactly one irreducible word; the
    irreducible words are those avoiding every left side, and a cycle of
    the left sides' Aho-Corasick automaton that is reachable from the start
    without a match spells infinitely many of them.  A completion that
    finishes with finitely many irreducible words proves the monoid
    finite, so no later certificate could succeed.  For the zero quotient:
    let Z be the letters that every relation has on both sides or on
    neither.  Sending each letter of Z to a new zero and every other letter
    to itself respects every relation (both sides go to zero, or the
    relation avoids Z), so the monoid maps onto N with a zero adjoined,
    where N is presented by the other letters and the relations that avoid
    Z; if N is infinite, so is the monoid.  (In Tn, Z is the `l` and `r`
    letters and N is a Coxeter presentation: with one braid or commuting
    relation dropped, that m_ij becomes infinite and so does the group.)

    When step 2 certifies the monoid infinite, size_match is False,
    presented_size stays None, `infinite` is set and `nodes` is the
    quarter mark; `zero_letters` names the letters sent to zero when the
    zero quotient decided.  Whenever step 2 ran, the number of orders
    tried and the rules added and overlaps examined by the last
    completion on the whole presentation are reported; when that
    completion finished, `completion_order` lists the letters under its
    order, smallest first, so its rules can be rebuilt and re-checked.
    """
    if len(gen_map) != len(p.alphabet):
        raise ValueError("gen_map must cover the alphabet")
    if p.kind == "monoid" and m.identity is None:
        raise ValueError("monoid presentation against a table without identity")
    rep = VerificationReport(True, False, None, None, m.size)

    mul = m.mul
    for u, v in p.relations:
        if evaluate(u, gen_map, mul, m.identity) != evaluate(v, gen_map, mul, m.identity):
            rep.relations_hold = False
            rep.failed_relation = (u, v)
            break

    seeds = list(gen_map)
    if p.kind == "monoid":
        seeds.append(m.identity)
    succ = list(zip(*[m.column(g) for g in gen_map])) or [()] * m.size
    rep.surjective = len(right_orbit(seeds, succ.__getitem__)) == m.size

    bound = 4 * m.size + 16
    rep.node_budget = node_budget(bound, node_cap)
    stats: dict = {}
    try:
        try:
            t = enumerate_presentation(p, bound, node_cap=rep.node_budget // 4,
                                       stats=stats)
        except BoundExceeded as e:
            if not e.undecided:
                raise
            _certify_infinite(p, rep)
            if rep.infinite:
                rep.nodes, rep.size_match = e.nodes, False
                return rep
            t = enumerate_presentation(p, bound, node_cap=rep.node_budget,
                                       stats=stats)
    except BoundExceeded as e:
        rep.nodes = e.nodes
        rep.size_match = None if e.undecided else False   # None: inconclusive
        rep.presented_size = e.size
        return rep
    rep.nodes = stats["nodes"]
    rep.presented_size = t.size
    rep.size_match = t.size == m.size

    if rep.ok:
        rep.isomorphic = iso_by_generators(t, m, zip(t.gens, gen_map)) is not None
    return rep


def _certify_infinite(p: Presentation, rep: VerificationReport) -> None:
    """Step 2 of `verify_presentation`'s schedule, recorded in `rep`."""
    nl = len(p.alphabet)
    rep.infinite, c, rep.completion_orders = rewriting.certify_infinite(p.relations, nl)
    rep.completion_rules, rep.completion_overlaps = c.added, c.overlaps
    if c.confluent:
        order = rewriting.letter_orders(nl)[rep.completion_orders - 1]
        rep.completion_order = tuple(p.alphabet[a] for a in order)
        return
    q = rewriting.zero_quotient(p.relations, nl)
    if q is not None and rewriting.certify_infinite(q[1], q[2])[0]:
        rep.infinite = True
        rep.zero_letters = tuple(p.alphabet[a] for a in q[0])


def iso_by_generators(t1: CayleyTable, t2: CayleyTable,
                      pairs: Iterable[tuple[int, int]]) -> Optional[dict]:
    """The isomorphism t1 -> t2 sending each g1 to g2 over the pairs (g1, g2),
    or None when there is none.

    The pairs' first components must generate t1 (together with its
    identity, which goes to t2's).  Every element is reached along its
    `right_orbit` trail from the seeds, and f(x g1_k) = f(x) g2_k fixes its
    image; a seed given two images fails at once.  The map must then be a
    bijection that respects every generator column, which makes it a
    homomorphism on the generated sets.  Each pair's columns are read once
    on each side (`CayleyTable.column`), so no product is a `mul` call.
    """
    pairs = list(pairs)
    if t1.size != t2.size:
        return None
    seeds = pairs[:]
    if t1.identity is not None and t2.identity is not None:
        seeds.append((t1.identity, t2.identity))
    fmap: dict[int, int] = {}
    for a, b in seeds:
        if fmap.setdefault(a, b) != b:
            return None
    cols1 = [t1.column(g1) for g1, _ in pairs]
    cols2 = [t2.column(g2) for _, g2 in pairs]
    succ = list(zip(*cols1)) or [()] * t1.size
    for y, (_, par) in right_orbit(list(fmap), succ.__getitem__).items():
        if par is not None:
            x, k = par
            fmap[y] = cols2[k][fmap[x]]
    if len(fmap) != t1.size or len(set(fmap.values())) != t1.size:
        return None
    # full homomorphism audit on the matched bijection, column by column
    f = [fmap[x] for x in range(t1.size)]
    for c1, c2 in zip(cols1, cols2):
        if [f[y] for y in c1] != [c2[x] for x in f]:
            return None
    return fmap


def subtable(m: CayleyTable, subset: Iterable[int], *,
             gens: Optional[Sequence[int]] = None) -> tuple[CayleyTable, dict]:
    """Table of a subsemigroup of `m` on the given ids; returns (table, old->new).

    `table_from_elements` over the sorted ids, with m's identity as the
    identity when the subset holds it; old->new is the table's `index`.
    With no generating set the members in id order are pruned to the ones
    the earlier members do not generate.  The subset must be closed under
    the product and generated by `gens`.
    """
    ids = set(subset)
    t = table_from_elements(sorted(ids), m.mul, gens=gens,
                            identity=m.identity if m.identity in ids else None)
    return t, t.index


def table_presentation(m: CayleyTable) -> tuple[Presentation, list[int]]:
    """Multiplication-table presentation of a monoid: one letter per
    non-identity element, relations x_a x_b = word(ab)."""
    if m.identity is None:
        raise ValueError("table presentation requires a monoid")
    elems = [e for e in range(m.size) if e != m.identity]
    pos = {e: i for i, e in enumerate(elems)}
    names = [f"x{i}" for i in range(len(elems))]
    rels = []
    for a in elems:
        for b in elems:
            c = m.mul(a, b)
            rhs = () if c == m.identity else (pos[c],)
            rels.append(((pos[a], pos[b]), rhs))
    return Presentation.make(names, rels, "monoid"), elems
