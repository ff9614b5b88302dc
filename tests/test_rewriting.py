"""Knuth–Bendix completion and the normal-form count, against enumeration
and against the plain definitions."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from actionpairs import presentations as pr
from actionpairs import rewriting
from actionpairs.fmonoid import BoundExceeded, Presentation, enumerate_presentation
from actionpairs.registry import monoid_table


def _has_factor(word, factor):
    n = len(factor)
    return any(word[i:i + n] == factor for i in range(len(word) - n + 1))


def _normal_form(rules, word):
    """Rewrite the leftmost-ending left side until none occurs."""
    word = tuple(word)
    while True:
        for lhs, rhs in rules.items():
            for i in range(len(word) - len(lhs) + 1):
                if word[i:i + len(lhs)] == lhs:
                    word = word[:i] + rhs + word[i + len(lhs):]
                    break
            else:
                continue
            break
        else:
            return word


def _window_count(lefts, nletters):
    """Irreducible words through their last m - 1 letters (m the longest
    left side), which decide whether the next letter ends a left side: the
    count, or None when a window recurs along a path."""
    m = max(map(len, lefts))
    count, path = {}, set()

    def visit(s):
        if s in path:
            raise OverflowError
        if s not in count:
            path.add(s)
            total = 1
            for c in range(nletters):
                w = s + (c,)
                if not any(w[len(w) - len(lhs):] == lhs
                           for lhs in lefts if len(lhs) <= len(w)):
                    total += visit(w[max(0, len(w) - (m - 1)):])
            path.discard(s)
            count[s] = total
        return count[s]

    try:
        return visit(())
    except OverflowError:
        return None


def _assert_complete(relations, c):
    """Interreduced, equivalent to the relations, and every overlap of two
    left sides resolves (an interreduced system has no other critical
    pairs)."""
    rules = c.rules
    for lhs, rhs in rules.items():
        assert (len(rhs), rhs) < (len(lhs), lhs)
        assert _normal_form(rules, rhs) == rhs
        assert not any(other != lhs and _has_factor(lhs, other) for other in rules)
    for u, v in relations:
        assert _normal_form(rules, u) == _normal_form(rules, v)
    for a, ra in rules.items():
        for b, rb in rules.items():
            for k in range(1, min(len(a), len(b))):
                if a[len(a) - k:] == b[:k]:                      # a = xy, b = yz
                    assert _normal_form(rules, ra + b[k:]) == \
                        _normal_form(rules, a[:len(a) - k] + rb)


words = st.lists(st.integers(0, 2), min_size=0, max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(st.tuples(words.filter(bool), words),
                                   min_size=1, max_size=4))
def test_completion_agrees_with_enumeration(nletters, rels):
    rels = [(tuple(x % nletters for x in u), tuple(x % nletters for x in v))
            for u, v in rels]
    p = Presentation.make([str(i) for i in range(nletters)], rels)
    c = rewriting.complete(p.relations)
    if not c.confluent:
        return
    _assert_complete(p.relations, c)
    count = rewriting.count_normal_forms(c.rules, nletters)
    try:
        size = enumerate_presentation(p, 2000, node_cap=4000).size
    except BoundExceeded as e:
        # a presentation certified infinite never closes within its budget
        assert count is not None or e.undecided
        size = e.size
    if count is None:
        assert size is None
    elif size is not None:
        assert count == size


def _relabelled(relations, order):
    """The relations with letter a renamed to its rank in `order`."""
    rank = {a: r for r, a in enumerate(order)}
    return [(tuple(rank[a] for a in u), tuple(rank[a] for a in v))
            for u, v in relations]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3), st.lists(st.tuples(words.filter(bool), words),
                                   min_size=1, max_size=4))
def test_no_letter_order_contradicts_a_closed_enumeration(nletters, rels):
    rels = [(tuple(x % nletters for x in u), tuple(x % nletters for x in v))
            for u, v in rels]
    p = Presentation.make([str(i) for i in range(nletters)], rels)
    try:
        size = enumerate_presentation(p, 2000, node_cap=4000).size
    except BoundExceeded as e:
        size = e.size
    if size is None:
        return
    infinite, c, orders = rewriting.certify_infinite(p.relations, nletters)
    assert not infinite and 1 <= orders <= 2 * nletters
    for order in rewriting.letter_orders(nletters):
        c = rewriting.complete(_relabelled(p.relations, order))
        if c.confluent:
            assert rewriting.count_normal_forms(c.rules, nletters) == size


def test_letter_orders_are_the_rotations_then_the_reversed_rotations():
    assert rewriting.letter_orders(2) == [(0, 1), (1, 0)]
    orders = rewriting.letter_orders(4)
    assert orders[0] == (0, 1, 2, 3) and orders[4] == (3, 2, 1, 0)
    assert orders[1] == (1, 2, 3, 0) and orders[5] == (2, 1, 0, 3)
    assert len(set(orders)) == 8
    assert all(sorted(o) == [0, 1, 2, 3] for o in orders)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(st.lists(st.integers(0, 2), min_size=1,
                                            max_size=4).map(tuple),
                                   min_size=1, max_size=4))
@example(2, [(0,), (1, 1), (1, 0, 0)])     # state 10 matches through its suffix 0
def test_count_matches_the_words_avoiding_every_left_side(nletters, lefts):
    lefts = [tuple(x % nletters for x in w) for w in lefts]
    assert rewriting.count_normal_forms(lefts, nletters) == \
        _window_count(lefts, nletters)


def test_small_groups_and_the_free_product():
    z2z2 = [((0, 0), ()), ((1, 1), ())]
    s3 = z2z2 + [((1, 0, 1), (0, 1, 0))]
    d8 = z2z2 + [((0, 1) * 4, ())]
    for rels, size in ((z2z2, None), (s3, 6), (d8, 8)):
        c = rewriting.complete(rels)
        assert c.confluent and c.overlaps > 0
        assert rewriting.count_normal_forms(c.rules, 2) == size


def test_budget_is_a_count_of_rules():
    # the positive braid monoid on two letters has no finite shortlex
    # completion: the budget stops it after the same number of rules
    c = rewriting.complete([((1, 0, 1), (0, 1, 0))])
    assert not c.confluent and c.added <= rewriting.MAX_RULES
    assert c == rewriting.complete([((1, 0, 1), (0, 1, 0))])


def test_budget_admits_exactly_64_rules_and_left_sides_of_12_letters():
    # k idempotent letters with no overlaps between them need exactly k rules
    def idempotents(k):
        return [((i, i), (i,)) for i in range(k)]
    c = rewriting.complete(idempotents(64))
    assert c.confluent and c.added == 64
    c = rewriting.complete(idempotents(65))
    assert not c.confluent and c.added == 64
    # a^12 = b adds a^12 -> b itself; a^13 = b has no left side under the cap
    assert rewriting.complete([((0,) * 12, (1,))]).confluent
    c = rewriting.complete([((0,) * 13, (1,))])
    assert not c.confluent and c.added == 0


@pytest.fixture(scope="module")
def catalogue_bundles():
    return {"Gn(5)": pr.build_catalog("Gn", n=5),
            "M0n(c2,3)": pr.build_catalog("M0n", n=3, base=monoid_table("c2")),
            "Tn(4)": pr.build_catalog("Tn", n=4)}


def _drop(bundle, j):
    rels = [r for i, r in enumerate(bundle.pres.relations) if i != j]
    return Presentation.make(bundle.pres.alphabet, rels, bundle.pres.kind)


@pytest.mark.parametrize("label,j", [("Gn(5)", j) for j in range(4)] +
                         [("M0n(c2,3)", j) for j in (12, 13, 17, 18, 22, 23)])
def test_catalogue_drops_count_the_enumerated_size(catalogue_bundles, label, j):
    b = catalogue_bundles[label]
    rels = [r for i, r in enumerate(b.pres.relations) if i != j]
    p = Presentation.make(b.pres.alphabet, rels, b.pres.kind)
    c = rewriting.complete(p.relations)
    assert c.confluent
    t = enumerate_presentation(p, 4 * b.target.size + 16)
    assert rewriting.count_normal_forms(c.rules, len(p.alphabet)) == t.size


@pytest.mark.parametrize("label,j", [("M0n(c2,3)", j) for j in
                                     (1, 2, 4, 5, 6, 7, 9, 14, 15, 16)] +
                         [("Gn(5)", 4)])
def test_another_letter_order_certifies_the_drop_infinite(catalogue_bundles, label, j):
    p = _drop(catalogue_bundles[label], j)
    assert not rewriting.complete(p.relations).confluent   # not under identity
    infinite, c, orders = rewriting.certify_infinite(p.relations, len(p.alphabet))
    assert infinite and c.confluent and 1 < orders <= 2 * len(p.alphabet)
    assert c.added <= rewriting.MAX_RULES
    order = rewriting.letter_orders(len(p.alphabet))[orders - 1]
    _assert_complete(_relabelled(p.relations, order), c)


@pytest.mark.parametrize("j", (47, 48, 55))
def test_a_dropped_coxeter_relation_finishes_under_no_order(catalogue_bundles, j):
    p = _drop(catalogue_bundles["Tn(4)"], j)
    infinite, c, orders = rewriting.certify_infinite(p.relations, len(p.alphabet))
    assert not infinite and not c.confluent
    assert orders == 2 * len(p.alphabet) == 18 and c.added == rewriting.MAX_RULES


def _largest_zero_set(relations, nletters):
    """Over every subset of the letters, the largest that each relation has
    on both sides or on neither."""
    sets = [set(z) for k in range(nletters + 1)
            for z in itertools.combinations(range(nletters), k)
            if all(bool(set(z) & set(u)) == bool(set(z) & set(v)) for u, v in relations)]
    return max(sets, key=len)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(*[st.lists(st.integers(0, 4), max_size=3)
                                               .map(tuple)] * 2), max_size=5))
@example(3, [((0, 1), (2,)), ((1,), ())])  # 1 goes, 0 and 2 stay two-sided
@example(2, [((1,), (0,)), ((0,), ())])    # 0 goes, then 1 is one-sided too
def test_zero_quotient_sends_the_largest_two_sided_set_to_zero(nletters, rels):
    rels = [(tuple(x % nletters for x in u), tuple(x % nletters for x in v))
            for u, v in rels]
    zero = _largest_zero_set(rels, nletters)
    q = rewriting.zero_quotient(rels, nletters)
    if not zero or len(zero) == nletters:
        assert q is None
        return
    letters, kept, nkept = q
    assert letters == tuple(sorted(zero)) and nkept == nletters - len(zero)
    others = [a for a in range(nletters) if a not in zero]
    assert kept == [(tuple(others.index(a) for a in u), tuple(others.index(a) for a in v))
                    for u, v in rels if not zero & set(u + v)]


def test_zero_quotient_is_none_when_no_letter_or_every_letter_goes():
    z2z2 = [((0, 0), ()), ((1, 1), ())]
    assert rewriting.zero_quotient(z2z2, 2) is None            # Z empty
    assert rewriting.zero_quotient([((0, 1), (1, 0))], 2) is None   # Z everything
    assert rewriting.zero_quotient([], 3) is None
    # a letter no relation mentions goes to zero
    assert rewriting.zero_quotient(z2z2, 3) == ((2,), z2z2, 2)


@pytest.mark.parametrize("j", (66, 67, 73, 80, 81, 91))
def test_the_zero_quotient_certifies_a_dropped_tn5_coxeter_relation(j):
    # the l and r letters go to zero and leave S5's Coxeter presentation
    # with one m_ij set to infinity: an infinite group, so Tn(5) without
    # relation j is infinite, with no enumeration at all
    tn5 = pr.build_catalog("Tn", n=5)
    names = tn5.pres.alphabet
    letters, kept, nkept = rewriting.zero_quotient(_drop(tn5, j).relations, len(names))
    assert [names[a] for a in letters] == [a for a in names if a[0] in "lr"]
    infinite, c, orders = rewriting.certify_infinite(kept, nkept)
    assert infinite and c.confluent
    # the whole of Tn(5) is not certified: its zero quotient is S5
    letters, kept, nkept = rewriting.zero_quotient(tn5.pres.relations, len(names))
    assert not rewriting.certify_infinite(kept, nkept)[0]
