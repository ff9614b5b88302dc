"""Tuples over M with an adjoined zero, and transformational wreath products.

A wreath element is a pair (tuple, partial map) whose tuple support equals
the map's domain; the product is (a, f)(b, g) = (a * f·b, fg) where f·b moves
entry b_{xf} to position x.  Entries are element ids of a base monoid table;
-1 is the reserved zero marker.

The public constructors `MTuple(...)`, `WreathElement(...)` and
`WreathElement.from_json` validate their input.  The products and unary
operations on valid operands skip validation; each docstring says why its
result is valid.  `MTuple.__mul__` and `act` build their results through the
trusted `_mtuple`, and `wr_product` and `wr_plus` build theirs in one step,
with no helper call.  `enumerate_wreath` builds its tables over integer
digit codes of the elements, not over payloads, and decodes them through the
trusted `_mtuple`, `_wreath` and `ptrans._pmap`.  It closes the natural
generators of `wreath_gens`, which for PT, T, I, G and E embeds the
family's one standard list, `ptrans.family_gens`, beside unit tuples.

Base entries are multiplied one way throughout: the product a b is read as
`full[a][b]` from the base table's `full_table()`, which a table builds on
first use and refuses (SizeBoundExceeded) past `fmonoid.FULL_TABLE_CAP`.
`MTuple.__mul__`, `wr_product` and `_digit_code` all follow this rule; the
two payload products read the rows a table has already built straight from
its `_full` slot, and call `full_table()` only when there are none yet.

Hashes are computed on first use and cached, with the values
hash(entries) for a tuple and hash((entries, img)) for a wreath element,
whichever path built the object.  Equality compares the flat fields: a
wreath element compares its map's image tuple, then its tuple's entries,
then the identity of the base table.  Each class defines `!=` as the
negation of that test, so `x != y` is one call.

`wr_product` builds its map half in its own loop beside the base products:
it neither calls `ptrans.compose` nor fills the left factor's cached gather
(`PartialMap._get`), and the maps it and `wr_plus` build start with that
slot empty, as `ptrans._pmap` leaves it.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Optional, Sequence

from . import ptrans
from .ptrans import UNDEF, _pmap
from .fmonoid import CayleyTable, SizeBoundExceeded, closure_from_generators

ZERO = -1


class BaseMismatch(Exception):
    pass


class MTuple:
    """A length-n tuple over M_0 = M + {0}; entries index the base table."""

    __slots__ = ("base", "entries", "_hash")

    def __init__(self, base: CayleyTable, entries: Sequence[int]):
        if base.identity is None:
            raise ValueError("base must be a monoid table")
        entries = tuple(entries)
        if any(not (v == ZERO or 0 <= v < base.size) for v in entries):
            raise ValueError(f"bad entries {entries}")
        self.base = base
        self.entries = entries
        self._hash = None

    def __eq__(self, other):
        return (isinstance(other, MTuple) and self.base is other.base
                and self.entries == other.entries)

    def __ne__(self, other):
        return not (isinstance(other, MTuple) and self.base is other.base
                    and self.entries == other.entries)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.entries)
        return h

    def __repr__(self):
        return f"MTuple({self.entries})"

    @property
    def n(self) -> int:
        return len(self.entries)

    def supp(self) -> frozenset:
        return frozenset(i + 1 for i, v in enumerate(self.entries) if v != ZERO)

    def __mul__(self, other: "MTuple") -> "MTuple":
        """Entrywise product; a base product is an element id, never ZERO.
        Each base product is read from the base's full table, as
        `_digit_code` reads it."""
        base = self.base
        if base is not other.base or self.n != other.n:
            raise BaseMismatch("mismatched tuples")
        full = base._full or base.full_table()
        return _mtuple(base, tuple([ZERO if a == ZERO or b == ZERO else full[a][b]
                                    for a, b in zip(self.entries, other.entries)]))

    def restrict(self, points: Iterable[int]) -> "MTuple":
        keep = set(points)
        return MTuple(self.base, tuple(v if i + 1 in keep else ZERO
                                       for i, v in enumerate(self.entries)))


def _mtuple(base: CayleyTable, entries: tuple) -> MTuple:
    """Trusted constructor: `entries` must already be valid for `base`.
    The hash is left to be computed on first use."""
    t = object.__new__(MTuple)
    t.base = base
    t.entries = entries
    t._hash = None
    return t


def ones(base: CayleyTable, n: int, support: Optional[Iterable[int]] = None) -> MTuple:
    """The indicator tuple 1_B (all-ones when no support is given)."""
    if support is None:
        return MTuple(base, (base.identity,) * n)
    keep = set(support)
    return MTuple(base, tuple(base.identity if i in keep else ZERO
                              for i in range(1, n + 1)))


def unit_tuple(base: CayleyTable, n: int, pos: int, a: int) -> MTuple:
    """Full-support tuple with entry a at pos and identities elsewhere."""
    return MTuple(base, tuple(a if i == pos else base.identity
                              for i in range(1, n + 1)))


def act(a: ptrans.PartialMap, t: MTuple) -> MTuple:
    """Position x of the result reads entry xa of t when x is in dom(a), else 0.
    Every entry is one of t's entries or ZERO, so the result is valid."""
    if a.n != t.n:
        raise ptrans.DegreeMismatch(f"degrees {a.n} and {t.n}")
    ent = (ZERO,) + t.entries
    return _mtuple(t.base, tuple([ent[v] for v in a.img]))


class WreathElement:
    __slots__ = ("tup", "pmap", "_hash")

    def __init__(self, tup: MTuple, pmap: ptrans.PartialMap):
        if tup.n != pmap.n:
            raise ptrans.DegreeMismatch(f"degrees {tup.n} and {pmap.n}")
        if tup.supp() != pmap.dom():
            raise ValueError("support must equal the map's domain")
        self.tup = tup
        self.pmap = pmap
        self._hash = None

    def __eq__(self, other):
        return (isinstance(other, WreathElement)
                and self.pmap.img == other.pmap.img
                and self.tup.entries == other.tup.entries
                and self.tup.base is other.tup.base)

    def __ne__(self, other):
        return not (isinstance(other, WreathElement)
                    and self.pmap.img == other.pmap.img
                    and self.tup.entries == other.tup.entries
                    and self.tup.base is other.tup.base)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.tup.entries, self.pmap.img))
        return h

    def __repr__(self):
        return f"WreathElement({self.tup.entries}, {self.pmap.two_line()!r})"

    def __mul__(self, other):
        return wr_product(self, other)

    def to_json(self) -> str:
        return json.dumps({
            "tuple": [None if v == ZERO else v for v in self.tup.entries],
            "map": [None if v == ptrans.UNDEF else v for v in self.pmap.img],
        })

    @staticmethod
    def from_json(base: CayleyTable, text: str) -> "WreathElement":
        d = json.loads(text)
        tup = MTuple(base, tuple(ZERO if v is None else v for v in d["tuple"]))
        pmap = ptrans.PartialMap(
            len(d["map"]),
            tuple(ptrans.UNDEF if v is None else v for v in d["map"]))
        return WreathElement(tup, pmap)

    def diagram(self) -> str:
        """Two-row picture: labelled top vertices over the map's two-line form."""
        lab = " ".join("." if v == ZERO else str(v) for v in self.tup.entries)
        return f"[{lab}] over {self.pmap.two_line()}"


def _wreath(tup: MTuple, pmap: ptrans.PartialMap) -> WreathElement:
    """Trusted constructor: supp(tup) must already equal dom(pmap).
    The hash is left to be computed on first use."""
    w = object.__new__(WreathElement)
    w.tup = tup
    w.pmap = pmap
    w._hash = None
    return w


def wr_product(x: WreathElement, y: WreathElement) -> WreathElement:
    """(a, f)(b, g) = (a * f·b, fg), computed in one pass beside fg.

    Position p of the tuple is non-zero exactly when p is in dom(fg): then p
    is in dom(f) = supp(a) and pf is in dom(g) = supp(b), and a base product
    is never ZERO.  So the result keeps support = domain.  The map fg reads
    g's image tuple as `ptrans.compose` does, and each base product a_p b_pf
    is read from the base's full table, as `_digit_code` reads it."""
    xt, yt, f, g = x.tup, y.tup, x.pmap, y.pmap
    base = xt.base
    if base is not yt.base:
        raise BaseMismatch("different base monoids")
    if f.n != g.n:
        raise ptrans.DegreeMismatch(f"degrees {f.n} and {g.n}")
    gi = (UNDEF,) + g.img
    ye = (ZERO,) + yt.entries
    full = base._full or base.full_table()
    img, ent = [], []
    for a, v in zip(xt.entries, f.img):
        c = gi[v]
        img.append(c)
        ent.append(ZERO if c == UNDEF else full[a][ye[v]])
    pm = object.__new__(ptrans.PartialMap)
    pm.n = f.n
    pm.img = tuple(img)
    pm._hash = None
    pm._get = None
    t = object.__new__(MTuple)
    t.base = base
    t.entries = tuple(ent)
    t._hash = None
    w = object.__new__(WreathElement)
    w.tup = t
    w.pmap = pm
    w._hash = None
    return w


def wr_plus(x: WreathElement) -> WreathElement:
    """The embedded partial identity on dom of the map part: the base identity
    on that domain and ZERO elsewhere, over the partial identity on it, so
    support = domain."""
    f = x.pmap
    base = x.tup.base
    e = base.identity
    img, ent = [], []
    for p, v in enumerate(f.img, 1):
        if v == UNDEF:
            img.append(UNDEF)
            ent.append(ZERO)
        else:
            img.append(p)
            ent.append(e)
    pm = object.__new__(ptrans.PartialMap)
    pm.n = f.n
    pm.img = tuple(img)
    pm._hash = None
    pm._get = None
    t = object.__new__(MTuple)
    t.base = base
    t.entries = tuple(ent)
    t._hash = None
    w = object.__new__(WreathElement)
    w.tup = t
    w.pmap = pm
    w._hash = None
    return w


def embed_pmap(base: CayleyTable, a: ptrans.PartialMap) -> WreathElement:
    return WreathElement(ones(base, a.n, a.dom()), a)


def embed_tuple(t: MTuple) -> WreathElement:
    return WreathElement(t, ptrans.id_on(t.supp(), t.n))


def wreath_identity(base: CayleyTable, n: int) -> WreathElement:
    return WreathElement(ones(base, n), ptrans.identity(n))


def wreath_elements(M: CayleyTable, kind: str, n: int) -> list[WreathElement]:
    """All pairs (tuple, map) with map in the family and support = domain."""
    out = []
    for a in ptrans.family(kind, n):
        dom = sorted(a.dom())
        for assign in itertools.product(range(M.size), repeat=len(dom)):
            ent = [ZERO] * n
            for p, v in zip(dom, assign):
                ent[p - 1] = v
            out.append(WreathElement(MTuple(M, ent), a))
    return out


def wreath_size(M_size: int, kind: str, n: int) -> int:
    """Sum over the family of |M|^(domain size); an independent counting oracle."""
    return sum(M_size ** len(a.dom()) for a in ptrans.family(kind, n))


def wreath_gens(M: CayleyTable, kind: str, n: int) -> Optional[list[WreathElement]]:
    """Natural generators.  For PT, T, I, G and E: the per-coordinate base
    generators as unit tuples over the identity map, then the family's
    standard generators (`ptrans.family_gens`) embedded with identity
    entries.  For SingT one element per idempotent eps and pair of base
    elements, and for SingPT those and the embedded corank-one partial
    identities.  None when no standard set is known."""
    if kind in ("PT", "T", "I", "G", "E"):
        return ([embed_tuple(unit_tuple(M, n, i, g)) for i in range(1, n + 1) for g in M.gens]
                + [embed_pmap(M, a) for a in ptrans.family_gens(kind, n)])
    if kind == "SingT":
        return [WreathElement(MTuple(M, tuple(
                    a if k == i else (b if k == j else M.identity)
                    for k in range(1, n + 1))), ptrans.eps(i, j, n))
                for i in range(1, n + 1) for j in range(1, n + 1) if i != j
                for a in range(M.size) for b in range(M.size)]
    if kind == "SingPT":
        return wreath_gens(M, "SingT", n) + [
            embed_pmap(M, ptrans.id_on(set(range(1, n + 1)) - {i}, n))
            for i in range(1, n + 1)]
    return None


WREATH_CAP = 200_000     # largest wreath product enumerate_wreath builds


def _digit_code(M: CayleyTable, n: int):
    """The digit coding of M wr PT_n, as (encode, decode, product).

    `encode` takes a `WreathElement` to its digit tuple, `decode` takes a
    digit tuple back through the trusted constructors, and `product`
    multiplies two digit tuples through the column of its right factor
    (see `enumerate_wreath`).  The columns live in `product`'s closure, so
    they last as long as the caller keeps it.
    """
    m = M.size
    full = M.full_table()
    digits = range(1, n * m + 1)
    image = [UNDEF] + [(d - 1) // m + 1 for d in digits]
    entry = [ZERO] + [(d - 1) % m for d in digits]
    comb = [None] + [[0] + [1 + (image[e] - 1) * m + full[entry[d]][entry[e]]
                            for e in digits] for d in digits]
    cols: dict = {}

    def encode(w: WreathElement) -> tuple:
        return tuple([0 if q == UNDEF else 1 + (q - 1) * m + a
                      for a, q in zip(w.tup.entries, w.pmap.img)])

    def decode(c: tuple) -> WreathElement:
        return _wreath(_mtuple(M, tuple(map(entry.__getitem__, c))),
                       _pmap(n, tuple(map(image.__getitem__, c))))

    def product(x: tuple, y: tuple) -> tuple:
        col = cols.get(y)
        if col is None:
            col = cols[y] = [0] + [comb[d][y[image[d] - 1]] for d in digits]
        return tuple(map(col.__getitem__, x))

    return encode, decode, product


def enumerate_wreath(M: CayleyTable, kind: str, n: int) -> CayleyTable:
    """Cayley table of the wreath product M wr F of M with a named family F.

    Size.  Every map of F carries |M|^(domain size) >= 1 elements, so
    |F| <= |M wr F|: a family already larger than WREATH_CAP is refused
    (SizeBoundExceeded) before anything is listed, and otherwise so is a
    product whose `wreath_size` is.

    Coding (`_digit_code`).  With m = |M|, the element (a, f) is the n-tuple
    of digits whose digit p is 0 when p is outside dom f and
    1 + (pf - 1)*m + a_p otherwise; support = domain makes the coding
    one-to-one.  Digit p of (a, f)(b, g) is 0 unless digit d of (a, f) at p
    and digit e of (b, g) at pf are both non-zero, and then it is
    1 + (pfg - 1)*m + a_p b_pf: a function C[d][e] of the two digits, read
    once from M's full table.  So right multiplication by y maps each digit
    d to col_y[d] = C[d][y at the image point of d].  A right factor gets
    its column the first time a product needs it; the columns are dropped
    with the closure.

    Numbering.  `closure_from_generators` closes the codes of the family's
    natural generators (`wreath_gens`), with the identity first when F
    holds it.  A family without them (SingI, SingE, PTminusT) offers every
    element in `wreath_elements` order as a candidate, and the closure keeps
    those that the ones before them do not generate (prune=True).  The
    numbering depends only on the generator order and on equality of
    products, so it is the one the payload product `wr_product` gives, and
    `elements` and `index` are decoded back to `WreathElement`s.

    Certificate.  Each generator's map is checked to lie in F, so every
    generator lies in M wr F.  F is closed under composition (a monoid, an
    ideal of one, or PTminusT, where dom(fg) lies inside dom f), so M wr F
    is closed under the product and the closure lies inside it.  A closure
    of exactly `wreath_size(|M|, kind, n)` elements is therefore all of
    M wr F, and any other count raises ValueError.
    """
    if ptrans.family_size(kind, n) > WREATH_CAP:
        raise SizeBoundExceeded(f"wreath product over {kind}{n} has more than "
                                f"{WREATH_CAP} elements")
    size = wreath_size(M.size, kind, n)
    if size > WREATH_CAP:
        raise SizeBoundExceeded(f"wreath product has {size} elements")
    family = set(ptrans.family(kind, n))
    ident = wreath_identity(M, n) if ptrans.identity(n) in family else None
    gens = wreath_gens(M, kind, n)
    prune = gens is None
    if prune:
        gens = wreath_elements(M, kind, n)
    if any(g.pmap not in family for g in gens):
        raise ValueError(f"a generator lies outside the wreath product over {kind}")

    encode, decode, product = _digit_code(M, n)
    table = closure_from_generators(map(encode, gens), product,
                                    identity_hint=None if ident is None else encode(ident),
                                    cap=size + 1, prune=prune)
    if table.size != size:
        raise ValueError(f"generators reach {table.size} of {size} elements")
    table.elements = [decode(c) for c in table.elements]
    table.index = {w: i for i, w in enumerate(table.elements)}
    return table
