"""Partial transformations of degree n and the standard families.

Points are 1-based externally and in serialized forms; internally the image
tuple stores 0 as the undefined marker, so entries live in {0} | {1..n}.
Composition is left to right: x(ab) is defined iff xa and (xa)b are.

The public constructor `PartialMap(n, img)` and every parser validate the
image tuple.  `compose` and `plus` take maps that are already valid and build
their results directly, skipping that check: each result is valid by
construction (see their docstrings).  Other modules build trusted maps
through `_pmap`.  From degree 2 on, `compose` gathers the composite's image
tuple in C, with an `operator.itemgetter` over a's image tuple applied to
b's padded image tuple.  A map builds that itemgetter the first time it is
a left factor and keeps it in its `_get` slot, so a map that stays a left
factor across many products builds it once.

The hash of a map is computed on first use and cached; its value is always
hash((n, img)), whichever path built the map.  Equality compares the image
tuples alone, since a valid map has len(img) == n; `!=` is its negation.
Equality, the hash, repr and the text and JSON forms never read `_get`.
"""

from __future__ import annotations

import itertools
import json
import math
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .fmonoid import SizeBoundExceeded

UNDEF = 0


class DegreeMismatch(Exception):
    pass


class BadParams(Exception):
    pass


class PartialMap:
    __slots__ = ("n", "img", "_hash", "_get")

    def __init__(self, n: int, img: Sequence[int]):
        img = tuple(img)
        if len(img) != n or any(not (v == UNDEF or 1 <= v <= n) for v in img):
            raise BadParams(f"bad image tuple {img} for degree {n}")
        self.n = n
        self.img = img
        self._hash = None
        self._get = None

    def __eq__(self, other):
        return isinstance(other, PartialMap) and self.img == other.img

    def __ne__(self, other):
        return not (isinstance(other, PartialMap) and self.img == other.img)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.n, self.img))
        return h

    def __repr__(self):
        return f"PartialMap({self.n}, {self.two_line()!r})"

    def __call__(self, x: int) -> Optional[int]:
        v = self.img[x - 1]
        return None if v == UNDEF else v

    def __mul__(self, other: "PartialMap") -> "PartialMap":
        return compose(self, other)

    # -- basic attributes ---------------------------------------------------

    def dom(self) -> frozenset:
        return frozenset(x + 1 for x, v in enumerate(self.img) if v != UNDEF)

    def im(self) -> frozenset:
        return frozenset(v for v in self.img if v != UNDEF)

    def rank(self) -> int:
        return len(self.im())

    def is_total(self) -> bool:
        return UNDEF not in self.img

    def is_injective(self) -> bool:
        vals = [v for v in self.img if v != UNDEF]
        return len(vals) == len(set(vals))

    def is_bijection(self) -> bool:
        return self.is_total() and self.is_injective()

    def ker(self) -> frozenset:
        """Kernel classes on the domain, as a frozenset of frozensets."""
        by_val: dict[int, list[int]] = {}
        for x, v in enumerate(self.img):
            if v != UNDEF:
                by_val.setdefault(v, []).append(x + 1)
        return frozenset(frozenset(c) for c in by_val.values())

    def restrict(self, points: Iterable[int]) -> "PartialMap":
        keep = set(points)
        return PartialMap(self.n, tuple(v if x + 1 in keep else UNDEF
                                        for x, v in enumerate(self.img)))

    def preimage(self, points: Iterable[int]) -> frozenset:
        tgt = set(points)
        return frozenset(x + 1 for x, v in enumerate(self.img)
                         if v != UNDEF and v in tgt)

    # -- text and JSON forms -------------------------------------------------

    def two_line(self) -> str:
        top = " ".join(str(i) for i in range(1, self.n + 1))
        bot = " ".join("-" if v == UNDEF else str(v) for v in self.img)
        return f"{top} / {bot}"

    @staticmethod
    def from_two_line(text: str) -> "PartialMap":
        top, bot = (part.split() for part in text.split("/"))
        if [int(t) for t in top] != list(range(1, len(top) + 1)):
            raise BadParams(f"top row must read 1..n: {text!r}")
        if len(bot) != len(top):
            raise BadParams(f"row lengths differ: {text!r}")
        return PartialMap(len(top), tuple(UNDEF if b == "-" else int(b) for b in bot))

    def to_json(self) -> str:
        return json.dumps([None if v == UNDEF else v for v in self.img])

    @staticmethod
    def from_json(text: str, n: Optional[int] = None) -> "PartialMap":
        seq = json.loads(text)
        return PartialMap(len(seq) if n is None else n,
                          tuple(UNDEF if v is None else v for v in seq))


def _pmap(n: int, img: tuple) -> PartialMap:
    """Trusted constructor: `img` must already be a valid image tuple of
    degree n.  Sets the slots, leaves the hash and the gather to be built on
    first use and checks nothing."""
    a = object.__new__(PartialMap)
    a.n = n
    a.img = img
    a._hash = None
    a._get = None
    return a


def compose(a: PartialMap, b: PartialMap) -> PartialMap:
    """The left-to-right composite ab.  Each image reads b's image tuple (or
    stays 0), so the result lies in {0..n} and needs no validation.

    Point x of ab is bi[xa] with bi = (0,) + b.img, so the image tuple is
    bi gathered at a's image tuple.  For n >= 2 `itemgetter(*a.img)` does
    that gather in C and returns a tuple; a builds it on its first product
    as a left factor and keeps it in `a._get`, which is valid for as long
    as a, since a's image tuple never changes.  Degrees 0 and 1 keep the
    comprehension and cache nothing: itemgetter refuses zero keys and
    returns a scalar, not a tuple, for one key."""
    n = a.n
    if n != b.n:
        raise DegreeMismatch(f"degrees {n} and {b.n}")
    c = object.__new__(PartialMap)
    c.n = n
    get = a._get
    if get is not None:
        c.img = get((UNDEF,) + b.img)
    elif n > 1:
        get = a._get = itemgetter(*a.img)
        c.img = get((UNDEF,) + b.img)
    else:
        bi = (UNDEF,) + b.img
        c.img = tuple([bi[v] for v in a.img])
    c._hash = None
    c._get = None
    return c


def plus(a: PartialMap) -> PartialMap:
    """The partial identity on dom(a); each image is its own point or 0."""
    c = object.__new__(PartialMap)
    c.n = a.n
    c.img = tuple([UNDEF if v == UNDEF else x for x, v in enumerate(a.img, 1)])
    c._hash = None
    c._get = None
    return c


# -- constructors ------------------------------------------------------------

def from_images(seq: Sequence[Optional[int]]) -> PartialMap:
    return PartialMap(len(seq), tuple(UNDEF if v is None else v for v in seq))


def identity(n: int) -> PartialMap:
    return PartialMap(n, tuple(range(1, n + 1)))


def empty_map(n: int) -> PartialMap:
    return PartialMap(n, (UNDEF,) * n)


def id_on(points: Iterable[int], n: int) -> PartialMap:
    keep = set(points)
    if any(not 1 <= x <= n for x in keep):
        raise BadParams(f"points {sorted(keep)} outside 1..{n}")
    return PartialMap(n, tuple(x if x in keep else UNDEF for x in range(1, n + 1)))


def eps(x: int, y: int, n: int) -> PartialMap:
    """The total idempotent with image {1..n}-{y}, sending y to x."""
    if x == y or not (1 <= x <= n and 1 <= y <= n):
        raise BadParams(f"eps needs distinct points in 1..{n}, got {x},{y}")
    return PartialMap(n, tuple(x if z == y else z for z in range(1, n + 1)))


def tau(x: int, y: int, n: int) -> PartialMap:
    """The transposition of x and y."""
    if x == y or not (1 <= x <= n and 1 <= y <= n):
        raise BadParams(f"tau needs distinct points in 1..{n}, got {x},{y}")
    img = list(range(1, n + 1))
    img[x - 1], img[y - 1] = y, x
    return PartialMap(n, img)


def constant(v: int, n: int) -> PartialMap:
    return PartialMap(n, (v,) * n)


# -- families -----------------------------------------------------------------

FAMILY_KINDS = ("PT", "T", "I", "G", "E", "SingPT", "SingT", "SingI",
                "SingE", "PTminusT")

FAMILY_CAP = 7  # exhaustive listing cap on the degree


def family(kind: str, n: int) -> list[PartialMap]:
    """Exhaustive, canonically ordered element list of a named family.

    A degree past FAMILY_CAP is a size cap (SizeBoundExceeded); an unknown
    kind or a negative degree raises BadParams."""
    if kind not in FAMILY_KINDS:
        raise BadParams(f"unknown family {kind!r}")
    if n < 0:
        raise BadParams("negative degree")
    if n > FAMILY_CAP:
        raise SizeBoundExceeded(f"degree {n} past FAMILY_CAP = {FAMILY_CAP}")
    vals = range(0, n + 1)   # 0 is the undefined marker
    if kind in ("PT", "SingPT", "PTminusT"):
        maps = [PartialMap(n, img) for img in itertools.product(vals, repeat=n)]
        if kind == "SingPT":
            maps = [a for a in maps if not a.is_bijection()]
        elif kind == "PTminusT":
            maps = [a for a in maps if not a.is_total()]
    elif kind in ("T", "SingT"):
        maps = [PartialMap(n, img) for img in itertools.product(range(1, n + 1), repeat=n)]
        if kind == "SingT":
            maps = [a for a in maps if not a.is_bijection()]
    elif kind in ("I", "SingI"):
        maps = [PartialMap(n, img) for img in itertools.product(vals, repeat=n)]
        maps = [a for a in maps if a.is_injective()]
        if kind == "SingI":
            maps = [a for a in maps if not a.is_bijection()]
    elif kind == "G":
        maps = [PartialMap(n, perm) for perm in itertools.permutations(range(1, n + 1))]
    else:  # E, SingE
        maps = [id_on(sub, n) for k in range(n + 1)
                for sub in itertools.combinations(range(1, n + 1), k)]
        if kind == "SingE":
            maps = [a for a in maps if a != identity(n)]
    return sorted(maps, key=lambda a: a.img)


def family_gens(kind: str, n: int) -> Optional[list[PartialMap]]:
    """Standard generator lists: adjacent transpositions for G, those plus
    the adjacent eps idempotents for T (and a lost point for PT/I), all eps
    for the singular part of T, and the corank-one partial identities for E.
    None for a family with no standard list (SingI, SingE, PTminusT); an
    unknown kind or a negative degree raises BadParams."""
    if n < 0:
        raise BadParams("negative degree")
    if kind == "G":
        if n <= 1:
            return [identity(n)]
        return [tau(i, i + 1, n) for i in range(1, n)]
    if kind == "T":
        if n <= 1:
            return [identity(n)]
        return (family_gens("G", n)
                + [eps(i, i + 1, n) for i in range(1, n)]
                + [eps(i + 1, i, n) for i in range(1, n)])
    if kind == "PT":
        return family_gens("T", n) + [id_on(set(range(1, n + 1)) - {i}, n)
                                      for i in range(1, n + 1)]
    if kind == "I":
        base = family_gens("G", n)
        if n >= 1:
            base = base + [id_on(set(range(2, n + 1)), n)]
        return base
    if kind == "E":
        return [id_on(set(range(1, n + 1)) - {i}, n) for i in range(1, n + 1)] or [identity(0)]
    if kind == "SingT":
        return [eps(x, y, n) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
    if kind == "SingPT":
        return family_gens("SingT", n) + [id_on(set(range(1, n + 1)) - {i}, n)
                                          for i in range(1, n + 1)]
    if kind in FAMILY_KINDS:
        return None
    raise BadParams(f"unknown family {kind!r}")


def family_size(kind: str, n: int) -> int:
    """Counting formulas: independent oracles in tests, and the size bound
    `wreath.enumerate_wreath` checks before listing a family."""
    if n < 0:
        raise BadParams("negative degree")
    if kind == "PT":
        return (n + 1) ** n
    if kind == "T":
        return n ** n
    if kind == "G":
        return math.factorial(n)
    if kind == "I":
        return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
    if kind == "E":
        return 2 ** n
    if kind == "SingE":
        return 2 ** n - 1
    if kind == "SingT":
        return n ** n - math.factorial(n)
    if kind == "SingPT":
        return (n + 1) ** n - math.factorial(n)
    if kind == "SingI":
        return family_size("I", n) - math.factorial(n)
    if kind == "PTminusT":
        return (n + 1) ** n - n ** n
    raise BadParams(f"unknown family {kind!r}")
