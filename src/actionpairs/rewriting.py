"""Shortlex Knuth–Bendix completion and the normal-form count.

`complete` turns the relations of a presentation into a rewriting system
oriented by shortlex (each left side shortlex-larger than its right side), so
every rewrite shortens a word or keeps its length and makes it smaller, and
rewriting terminates.  It resolves the overlaps of left sides (critical
pairs) until none is left, and keeps the system interreduced: no left side
contains another, and every right side is irreducible.  When it finishes,
the system is confluent, so every word rewrites to one irreducible word and
two words are equal in the presented monoid iff their irreducible forms
are equal: the irreducible words are in bijection with the elements (Knuth &
Bendix, "Simple word problems in universal algebras", 1970; Sims,
*Computation with Finitely Presented Groups*, 1994, ch. 2).

`count_normal_forms` counts the words that contain no left side, through the
Aho–Corasick automaton of the left sides: the count, or None when a cycle
that avoids every match is reachable from the start, i.e. when there are
infinitely many such words.

Shortlex is an order for any total order of the letters, and a completion
under any of them is a certificate; the letter order decides whether the
completion is finite.  `certify_infinite` tries a fixed schedule of orders
(`letter_orders`: the rotations of the alphabet, identity first, then the
rotations of the reversed alphabet) and stops at the first completion that
finishes: the monoid is infinite iff that completion's irreducible words
are infinitely many, whatever the order.

`zero_quotient` sends to a new zero the largest set of letters that every
relation has on both sides or on neither, and returns the presentation of
what is left; `fmonoid.verify_presentation` runs `certify_infinite` on it.

The budget is deterministic: a completion gives up once it would add more
than MAX_RULES rules or a left side longer than MAX_LHS letters, and
`certify_infinite` runs at most 2n completions for n letters.  Words are
strings of code points inside the completion (one letter per character, so
factor tests and overlaps are string operations) and tuples of letter
indices outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Word = tuple[int, ...]

MAX_RULES = 64      # rules a completion may add, deleted ones included
MAX_LHS = 12        # longest left side a completion may add


@dataclass
class Completion:
    rules: dict             # left side -> right side, both words
    confluent: bool         # every overlap resolved within the budget
    added: int              # rules added, deleted ones included
    overlaps: int           # overlaps of left sides examined


class _OverBudget(Exception):
    pass


def complete(relations: Iterable[tuple[Word, Word]]) -> Completion:
    """Shortlex completion of `relations` under the budget; `confluent` is
    False when the budget ran out first."""
    rules: dict[str, str] = {}
    order: list[str] = []           # left sides in the order they were added
    added = overlaps = 0

    def reduce(w: str) -> str:
        changed = True
        while changed:
            changed = False
            for lhs, rhs in rules.items():
                if lhs in w:
                    w = w.replace(lhs, rhs)
                    changed = True
        return w

    def push(pending: list) -> None:
        nonlocal added
        while pending:
            u, v = pending.pop()
            u, v = reduce(u), reduce(v)
            if u == v:
                continue
            if (len(u), u) < (len(v), v):      # orient by shortlex
                u, v = v, u
            if len(u) > MAX_LHS or added == MAX_RULES:
                raise _OverBudget
            added += 1
            # interreduce: a left side containing u leaves the system and
            # its rule comes back as an equation; right sides are re-reduced
            for lhs in [lhs for lhs in rules if u in lhs]:
                pending.append((lhs, rules.pop(lhs)))
            rules[u] = v
            order.append(u)
            for lhs, rhs in rules.items():
                if u in rhs:
                    rules[lhs] = reduce(rhs)

    def resolve(a: str, b: str) -> None:
        """Every overlap of a suffix of `a` with a prefix of `b`."""
        nonlocal overlaps
        for k in range(1, min(len(a), len(b))):
            if a.endswith(b[:k]):
                overlaps += 1
                push([(rules[a] + b[k:], a[:-k] + rules[b])])
                if a not in rules or b not in rules:
                    return

    def code(w: Word) -> str:
        return "".join(map(chr, w))

    try:
        push([(code(u), code(v)) for u, v in relations])
        # every pair of live rules is resolved once both are live, in both
        # orders; a rule added later is paired with all earlier ones in turn
        i = 0
        while i < len(order):
            for j in range(i + 1):
                a, b = order[i], order[j]
                if a not in rules:
                    break
                if b in rules:
                    resolve(a, b)
                if a != b and a in rules and b in rules:
                    resolve(b, a)
            i += 1
        confluent = True
    except _OverBudget:
        confluent = False
    return Completion({tuple(map(ord, lhs)): tuple(map(ord, rhs))
                       for lhs, rhs in rules.items()},
                      confluent, added, overlaps)


def count_normal_forms(lefts: Iterable[Sequence[int]], nletters: int) -> Optional[int]:
    """Number of words over letters 0..nletters-1 that contain no word of
    `lefts` as a factor, the empty word included; None when infinite."""
    children: list[dict] = [{}]
    match = [False]
    for w in lefts:
        s = 0
        for c in w:
            t = children[s].get(c)
            if t is None:
                t = children[s][c] = len(children)
                children.append({})
                match.append(False)
            s = t
        match[s] = True
    # Aho–Corasick: delta[s][c] is the state of the longest suffix of s + c
    # that is a prefix of a left side; a state matches when one of its
    # suffixes is a left side, i.e. when it or its failure state matches
    delta = [[children[0].get(c, 0) for c in range(nletters)]]
    delta += [None] * (len(children) - 1)
    queue = [(t, 0) for t in children[0].values()]
    for s, fail in queue:
        match[s] = match[s] or match[fail]
        delta[s] = [children[s].get(c, delta[fail][c]) for c in range(nletters)]
        queue += [(t, delta[fail][c]) for c, t in children[s].items()]
    if match[0]:
        return 0
    # depth-first from the start over states that match nothing: a back
    # edge is a reachable cycle; otherwise count[s] is the number of words
    # read from s without a match, the empty word included
    count: dict[int, int] = {}
    on_path = {0}
    stack = [(0, iter(delta[0]))]
    while stack:
        s, it = stack[-1]
        for t in it:
            if match[t] or t in count:
                continue
            if t in on_path:
                return None
            on_path.add(t)
            stack.append((t, iter(delta[t])))
            break
        else:
            stack.pop()
            on_path.discard(s)
            count[s] = 1 + sum(count[t] for t in delta[s] if not match[t])
    return count[0]


def letter_orders(nletters: int) -> list[Word]:
    """The letter orders `certify_infinite` tries, each listing the letters
    from smallest to largest: the rotations of 0..n-1, identity first, then
    the rotations of n-1..0, each once (below three letters they repeat)."""
    up = tuple(range(nletters))
    down = up[::-1]
    return list(dict.fromkeys(w[k:] + w[:k] for w in (up, down)
                              for k in range(max(nletters, 1))))


def certify_infinite(relations: Iterable[tuple[Word, Word]],
                     nletters: int) -> tuple[bool, Completion, int]:
    """Complete `relations` under each of `letter_orders(nletters)` in turn,
    up to the first completion that finishes.

    Returns whether that completion certifies the monoid infinite (its
    irreducible words are infinitely many), the last completion run and the
    number of orders tried.  A finished completion with a finite count
    proves the monoid finite, so no later order could certify it infinite.
    Under an order, letter a is relabelled to its rank, so the completion's
    rules are over ranks; its count does not depend on the relabelling.
    """
    relations = list(relations)
    for tried, order in enumerate(letter_orders(nletters), 1):
        rank = {a: r for r, a in enumerate(order)}
        c = complete([(tuple(map(rank.__getitem__, u)), tuple(map(rank.__getitem__, v)))
                      for u, v in relations])
        if c.confluent:
            return count_normal_forms(c.rules, nletters) is None, c, tried
    return False, c, tried


def zero_quotient(relations: Iterable[tuple[Word, Word]], nletters: int
                  ) -> Optional[tuple[Word, list[tuple[Word, Word]], int]]:
    """The letters sent to zero, the relations that avoid them and the
    number of letters kept, or None when no letter or every letter goes.

    The letters sent to zero are the largest set Z that every relation has
    on both sides or on neither.  Z is unique, since the condition is closed
    under union, and is reached from the whole alphabet by removing the
    Z-letters of each relation that has them on one side only, until none
    does.  The kept letters are renumbered in order.
    """
    relations = list(relations)
    zero = set(range(nletters))
    changed = True
    while changed:
        changed = False
        for u, v in relations:
            zu, zv = zero.intersection(u), zero.intersection(v)
            if bool(zu) != bool(zv):
                zero -= zu | zv
                changed = True
    if not zero or len(zero) == nletters:
        return None
    rank = {a: r for r, a in enumerate(a for a in range(nletters) if a not in zero)}
    kept = [(tuple(map(rank.__getitem__, u)), tuple(map(rank.__getitem__, v)))
            for u, v in relations if zero.isdisjoint(u + v)]
    return tuple(sorted(zero)), kept, len(rank)
