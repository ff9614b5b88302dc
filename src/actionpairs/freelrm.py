"""The free left restriction monoid as a concrete decision procedure.

Elements are pairs (A, w) with A a non-empty finite prefix-closed set of
words and w a member of A; the product is (A, w)(B, v) = (A + wB, wv) and
the unary operation drops the word part.  Words are plain strings over a
single-character alphabet, with 'e' printing as the empty word.

The public constructors `PrefixSet(...)` and `LRElement(...)` and `parse`
validate their input.  `lr_product`, `lr_plus` and `Sampler` build their
results through the trusted path instead, skipping validation; each
docstring says why its result is valid.

Hashes are computed on first use and cached, with the values hash(words)
for a prefix set and hash((pset, word)) for an element, whichever path
built the object.  Element equality compares the word, then the prefix
set's words; each class defines `!=` as the negation of its `==` test, so
`x != y` is one call.
"""

from __future__ import annotations

import json
import random
from typing import Iterable

from .fmonoid import right_orbit


class AlphabetMismatch(Exception):
    pass


def prefixes(w: str) -> frozenset:
    return frozenset(w[:i] for i in range(len(w) + 1))


def down(words: Iterable[str]) -> frozenset:
    """Prefix closure of a set of words (always contains the empty word)."""
    out = {""}
    for w in words:
        out |= prefixes(w)
    return frozenset(out)


class PrefixSet:
    __slots__ = ("words", "_hash")

    def __init__(self, words: Iterable[str]):
        ws = frozenset(words)
        if not ws:
            raise ValueError("prefix sets are non-empty")
        if any(w[:i] not in ws for w in ws for i in range(len(w))):
            raise ValueError("set is not prefix-closed")
        if "" not in ws:
            raise ValueError("the empty word is always present")
        self.words = ws
        self._hash = None

    def __eq__(self, other):
        return isinstance(other, PrefixSet) and self.words == other.words

    def __ne__(self, other):
        return not (isinstance(other, PrefixSet) and self.words == other.words)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.words)
        return h

    def __contains__(self, w):
        return w in self.words

    def __or__(self, other):
        return PrefixSet(self.words | other.words)

    def shift(self, w: str) -> "PrefixSet":
        """wA together with the prefixes of w; prefix-closure is automatic."""
        return PrefixSet(prefixes(w) | {w + v for v in self.words})

    def sorted_words(self) -> list:
        return sorted(self.words, key=lambda v: (len(v), v))

    def __repr__(self):
        return "{" + ",".join(w or "e" for w in self.sorted_words()) + "}"


class LRElement:
    __slots__ = ("pset", "word", "_hash")

    def __init__(self, pset: PrefixSet, word: str):
        if word not in pset:
            raise ValueError(f"{word!r} is not in the prefix set")
        self.pset = pset
        self.word = word
        self._hash = None

    def __eq__(self, other):
        return (isinstance(other, LRElement) and self.word == other.word
                and self.pset.words == other.pset.words)

    def __ne__(self, other):
        return not (isinstance(other, LRElement) and self.word == other.word
                    and self.pset.words == other.pset.words)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.pset, self.word))
        return h

    def __mul__(self, other):
        return lr_product(self, other)

    def __repr__(self):
        return f"{self.pset!r}@{self.word or 'e'}"

    def to_json(self):
        return json.dumps({"set": self.pset.sorted_words(), "word": self.word})


def _prefix_set(words: frozenset) -> PrefixSet:
    """Trusted constructor: `words` must already be a prefix-closed
    frozenset holding the empty word.  The hash is left to be computed on
    first use."""
    a = object.__new__(PrefixSet)
    a.words = words
    a._hash = None
    return a


def _lr_element(pset: PrefixSet, word: str) -> LRElement:
    """Trusted constructor: `word` must already be a member of `pset`."""
    z = object.__new__(LRElement)
    z.pset = pset
    z.word = word
    z._hash = None
    return z


def element(words: Iterable[str], word: str = "") -> LRElement:
    return LRElement(PrefixSet(down(words)), word)


def lr_identity() -> LRElement:
    return LRElement(PrefixSet({""}), "")


def embed_word(w: str) -> LRElement:
    return LRElement(PrefixSet(prefixes(w)), w)


def lr_product(x: LRElement, y: LRElement) -> LRElement:
    """(A, w)(B, v) = (A + wB, wv).  A + wB is prefix-closed because w is in
    A: a prefix of wu is a prefix of w or w followed by a prefix of u.  And
    wv is in wB because v is in B."""
    w = x.word
    a = object.__new__(PrefixSet)
    a.words = x.pset.words | {w + v for v in y.pset.words}
    a._hash = None
    z = object.__new__(LRElement)
    z.pset = a
    z.word = w + y.word
    z._hash = None
    return z


def lr_plus(x: LRElement) -> LRElement:
    """(A, w)+ = (A, e); the empty word is in every prefix set."""
    z = object.__new__(LRElement)
    z.pset = x.pset
    z.word = ""
    z._hash = None
    return z


def act_word(w: str, a: PrefixSet) -> PrefixSet:
    """The action of a word on prefix sets: prefix closure of the shift."""
    return a.shift(w)


def sigma_related(x: LRElement, y: LRElement) -> bool:
    """The least congruence collapsing all projections relates two elements
    exactly when their word parts agree."""
    return x.word == y.word


def min_genset(alphabet: Iterable[str], length_bound: int) -> list[LRElement]:
    """The unique minimum monoid generating set, truncated to projections of
    words up to the length bound: all w-downsets as projections, plus the
    letters themselves."""
    letters = sorted(alphabet)
    if any(len(c) != 1 for c in letters):
        raise AlphabetMismatch("letters must be single characters")
    return ([LRElement(PrefixSet(prefixes(w)), "") for w in words_up_to(letters, length_bound)]
            + [embed_word(c) for c in letters])


def words_up_to(alphabet: Iterable[str], length_bound: int) -> list[str]:
    """Every non-empty word over the sorted letters of length up to the
    bound, shorter words first and each length in lexicographic order."""
    letters = sorted(alphabet)
    out = []
    layer = [""]
    for _ in range(length_bound):
        layer = [w + c for w in layer for c in letters]
        out.extend(layer)
    return out


def all_prefix_sets(alphabet: Iterable[str], length_bound: int) -> list[PrefixSet]:
    """Every prefix-closed set of words of length <= the bound (small scales)."""
    letters = sorted(alphabet)
    found = right_orbit([frozenset({""})],
                        lambda ws: [ws | {w + c} for w in ws if len(w) < length_bound
                                    for c in letters])
    return [PrefixSet(ws) for ws in found]


def is_atom(target: PrefixSet, pool: Iterable[PrefixSet]) -> bool:
    """No factorization target = A | B in the pool without one factor equal
    to the target (union is the semilattice product on prefix sets)."""
    for a in pool:
        if not a.words <= target.words:
            continue
        for b in pool:
            if a.words | b.words == target.words and \
                    a != target and b != target:
                return False
    return True


class Sampler:
    """Seeded random elements: prefix sets from up to four words of length
    up to four, paired with a random member word.

    Both draws build through the trusted constructors, as `lr_product`
    does, because they cannot fail the public checks: `down` returns a
    prefix-closed frozenset holding the empty word, and the word is drawn
    from that set.  The public constructors would make the same RNG calls,
    so a seed gives the same elements either way."""

    def __init__(self, alphabet="xy", seed=0x5EED):
        self.alphabet = sorted(alphabet)
        self.rng = random.Random(seed)

    def word(self, max_len=4) -> str:
        k = self.rng.randint(0, max_len)
        return "".join(self.rng.choice(self.alphabet) for _ in range(k))

    def prefix_set(self) -> PrefixSet:
        k = self.rng.randint(0, 4)
        return _prefix_set(down(self.word() for _ in range(k)))

    def element(self) -> LRElement:
        ps = self.prefix_set()
        return _lr_element(ps, self.rng.choice(ps.sorted_words()))


def parse(text: str) -> LRElement:
    """Text form "{e,x,xy}@xy" with 'e' for the empty word."""
    body, _, word = text.partition("@")
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"bad element text {text!r}")
    words = [w.strip() for w in body[1:-1].split(",") if w.strip()]
    words = ["" if w == "e" else w for w in words]
    word = word.strip()
    return LRElement(PrefixSet(down(words) | frozenset(words)),
                     "" if word in ("e", "") else word)
