"""Partial transformation tests: composition, families, unary structure."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from actionpairs import ptrans
from actionpairs.fmonoid import SizeBoundExceeded
from actionpairs.ptrans import (BadParams, DegreeMismatch, PartialMap, compose,
                                eps, empty_map, family, family_gens,
                                family_size, from_images, id_on, identity,
                                plus, tau)


def test_compose_product_figure():
    a = from_images([2, None, 3, 2, 6, 6])
    b = from_images([1, 1, None, 4, None, 4])
    assert (a * b).img == (1, 0, 0, 1, 4, 4)


def test_identity_and_empty_absorption():
    a = from_images([2, None, 3, 2, 6, 6])
    assert identity(6) * a == a == a * identity(6)
    assert empty_map(6) * a == empty_map(6)
    assert (a * empty_map(6)) == empty_map(6)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(identity(2), identity(3))


def test_plus_examples():
    a = from_images([2, None, 3, 2, 6, 6])
    assert plus(a) == id_on({1, 3, 4, 5, 6}, 6)
    b = id_on({2, 5}, 6)
    assert plus(b) == b
    assert plus(from_images([3, 1, 2])) == identity(3)


def test_constructors():
    assert eps(2, 4, 6).img == (1, 2, 3, 2, 5, 6)
    assert tau(1, 2, 2).img == (2, 1)
    assert id_on(set(), 3) == empty_map(3)
    with pytest.raises(BadParams):
        eps(2, 2, 4)
    with pytest.raises(BadParams):
        id_on({5}, 3)


def test_attributes():
    a = from_images([2, None, 3, 2, 6, 6])
    assert a.dom() == frozenset({1, 3, 4, 5, 6})
    assert a.im() == frozenset({2, 3, 6})
    assert a.rank() == 3
    assert not a.is_total() and not a.is_injective()
    assert a.ker() == frozenset({frozenset({1, 4}), frozenset({3}),
                                 frozenset({5, 6})})


def test_family_sizes_against_formulas():
    for kind in ptrans.FAMILY_KINDS:
        for n in range(0, 4):
            assert len(family(kind, n)) == family_size(kind, n), (kind, n)
    assert family_size("PT", 2) == 9
    assert family_size("T", 3) == 27
    assert family_size("G", 3) == 6
    assert family_size("I", 2) == 7


def test_family_refuses_past_its_degree_cap_and_rejects_bad_params():
    # a degree past FAMILY_CAP is a size refusal, not bad input
    with pytest.raises(SizeBoundExceeded, match="past FAMILY_CAP"):
        family("E", ptrans.FAMILY_CAP + 1)
    with pytest.raises(BadParams, match="negative degree"):
        family("E", -1)
    with pytest.raises(BadParams, match="unknown family"):
        family("Sing", 2)


def test_sing_t2_elements():
    assert family("SingT", 2) == [from_images([1, 1]), from_images([2, 2])]


def test_family_gens_generate():
    from conftest import brute_closure
    # degrees 1 and 2 sit on either side of the n <= 1 shortcuts
    for kind, n in [("G", 3), ("T", 3), ("PT", 3), ("I", 3), ("E", 4),
                    ("SingT", 3), ("SingPT", 3), ("G", 1), ("G", 2),
                    ("T", 1), ("T", 2), ("PT", 2), ("I", 2)]:
        gens = family_gens(kind, n)
        got = brute_closure(gens, compose)
        want = set(family(kind, n))
        if identity(n) in want and identity(n) not in got:
            got.add(identity(n))
        assert got == want, (kind, n)


def test_family_gens_is_none_only_for_a_known_family_without_a_list():
    for n in range(4):
        for kind in ptrans.FAMILY_KINDS:
            gens = family_gens(kind, n)
            assert (gens is None) == (kind in ("SingI", "SingE", "PTminusT")), (kind, n)
    with pytest.raises(BadParams, match="unknown family"):
        family_gens("Sing", 2)
    with pytest.raises(BadParams, match="negative degree"):
        family_gens("SingI", -1)
    with pytest.raises(BadParams, match="negative degree"):
        family_gens("T", -1)


# --- unary identities ------------------------------------------------------------

def left_restriction_laws(elements):
    for x in elements:
        assert plus(x) * x == x                               # absorb on the left
    for x in elements:
        for y in elements:
            px, py = plus(x), plus(y)
            assert px * py == py * px                         # projections commute
            assert plus(px * y) == px * py                    # plus is a prefix
            assert x * py == plus(x * y) * x                  # shift a projection
            # derived laws: idempotency of the projections and of plus
            assert px * px == px
            assert plus(px) == px


def test_left_restriction_identities_small():
    for n in (0, 1, 2, 3):
        left_restriction_laws(family("PT", n))


def test_partial_identity_shift_laws():
    # alpha restricted on either side by a partial identity
    for n in (2, 3):
        pts = set(range(1, n + 1))
        for a in family("PT", n):
            for r in range(n + 1):
                for sub in itertools.combinations(sorted(pts), r):
                    ida = id_on(sub, n)
                    assert a * ida == id_on(a.preimage(sub), n) * a
                    assert ida * a == a.restrict(sub)


def test_rank_submultiplicative():
    for a in family("PT", 3):
        for b in family("PT", 3):
            assert (a * b).rank() <= min(a.rank(), b.rank())


def test_family_product_identities():
    for n in (2, 3, 4):
        E = family("E", n)
        T = family("T", n)
        G = family("G", n)
        SingE = family("SingE", n)
        SingT = family("SingT", n)
        prod = lambda A, B: {a * b for a in A for b in B}
        assert prod(E, T) == set(family("PT", n))
        assert prod(E, SingT) == set(family("SingPT", n))
        assert prod(SingE, T) == set(family("PTminusT", n))
        assert prod(SingE, SingT) == set(family("PTminusT", n))
        assert prod(E, G) == set(family("I", n))
        assert prod(SingE, G) == set(family("SingI", n))


# --- text and JSON ----------------------------------------------------------------

def test_two_line_round_trip():
    a = from_images([2, None, 3, 2, 6, 6])
    assert a.two_line() == "1 2 3 4 5 6 / 2 - 3 2 6 6"
    assert PartialMap.from_two_line(a.two_line()) == a
    with pytest.raises(BadParams):
        PartialMap.from_two_line("1 3 2 / 1 2 3")


def test_json_round_trip():
    a = from_images([2, None, 3, 2, 6, 6])
    assert PartialMap.from_json(a.to_json()) == a


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=4, max_size=4),
       st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=4, max_size=4),
       st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=4, max_size=4))
def test_composition_associative(xa, xb, xc):
    a, b, c = from_images(xa), from_images(xb), from_images(xc)
    assert (a * b) * c == a * (b * c)


# --- the trusted fast paths against the plain definitions -------------------------

@st.composite
def same_degree_maps(draw, k=2, max_n=ptrans.FAMILY_CAP):
    n = draw(st.integers(0, max_n))
    img = st.lists(st.integers(0, n), min_size=n, max_size=n)
    return [PartialMap(n, draw(img)) for _ in range(k)]


def assert_rebuilds(a):
    """The public constructor accepts the result and gives an equal map with
    the same hash."""
    b = PartialMap(a.n, a.img)
    assert b == a and hash(b) == hash(a)


@settings(max_examples=300, deadline=None)
@given(same_degree_maps())
def test_compose_and_plus_match_their_definitions(maps):
    a, b = maps
    pts = range(1, a.n + 1)
    want = from_images([None if a(x) is None else b(a(x)) for x in pts])
    for got in (compose(a, b), a * b):
        assert got == want and hash(got) == hash(want)
        assert_rebuilds(got)
    want = id_on({x for x in pts if a(x) is not None}, a.n)
    got = plus(a)
    assert got == want and hash(got) == hash(want)
    assert_rebuilds(got)


@pytest.mark.parametrize("n", range(5))
def test_compose_matches_the_definition_on_every_pair_of_small_degree(n):
    # degrees 0 and 1 take the comprehension; from 2 on a left factor builds
    # its itemgetter gather on first use and keeps it in `_get`: every pair
    # is composed once with an unused left factor and once with a reused one
    maps = family("PT", n)
    for a in maps:
        ax = [a(x) for x in range(1, n + 1)]
        left = ptrans._pmap(n, a.img)
        for b in maps:
            want = tuple(0 if y is None or b(y) is None else b(y) for y in ax)
            for c in (compose(ptrans._pmap(n, a.img), b), compose(left, b)):
                assert type(c.img) is tuple and c.img == want and c.n == n
                assert hash(c) == hash((n, c.img)) and c._get is None
        assert (left._get is None) is (n < 2)


def test_a_left_factor_copies_and_pickles_as_a_fresh_map():
    for n in range(5):
        maps = family("PT", n)
        a, b = maps[len(maps) // 3], maps[-1]
        compose(a, b)
        assert (a._get is None) is (n < 2)
        fresh = PartialMap(n, a.img)
        for c in (a, copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert c == fresh and not c != fresh
            assert hash(c) == hash(fresh) == hash((n, a.img))
            assert repr(c) == repr(fresh) and c.to_json() == fresh.to_json()
            for d in maps:
                assert compose(c, d) == compose(fresh, d)
                assert compose(d, c) == compose(d, fresh)


def test_ne_is_the_negation_of_eq():
    a = from_images([2, None, 3])
    others = [a, PartialMap(3, a.img), compose(a, identity(3)), from_images([2, None, 1]),
              identity(3), empty_map(2), a.img, (2, 0, 3), None, 3, "map", object()]
    for x in (a, compose(identity(3), a)):
        for y in others:
            assert (x != y) is (not x == y)
            assert (y != x) is (not y == x)
    assert not a != PartialMap(3, a.img) and a != a.img and a != from_images([2, None, 1])


def test_public_constructor_rejects_bad_image_tuples():
    for n, img in ((3, (4, 0, 0)), (2, (1,)), (2, (-1, 1)), (2, (1, 2, 0))):
        with pytest.raises(BadParams):
            PartialMap(n, img)
    with pytest.raises(BadParams):
        PartialMap.from_json("[1, 7]")


# --- hashes and equality on every construction path ---------------------------

def assert_same_map(got, want):
    """Equal and not unequal to the validated map, with its hash, and the
    hash is the documented hash((n, img)) whichever path built `got`."""
    assert got == want and not got != want
    assert hash(got) == hash(want) == hash((want.n, want.img))


@settings(max_examples=300, deadline=None)
@given(same_degree_maps())
def test_fast_paths_hash_by_the_documented_formula(maps):
    a, b = maps
    pts = range(1, a.n + 1)
    got = compose(a, b)
    assert_same_map(got, PartialMap(a.n, [0 if a(x) is None or b(a(x)) is None
                                         else b(a(x)) for x in pts]))
    assert_same_map(plus(a), PartialMap(a.n, [0 if a(x) is None else x for x in pts]))
    # equality is decided by the image tuples, and by nothing else
    for x, y in ((got, a), (got, b), (a, b)):
        same = x.img == y.img
        assert (x == y) is same and (x != y) is not same
    assert got != a.img and not got == a.img


def test_every_construction_path_is_hashable():
    a = from_images([2, None, 3, 2])
    built = [a, a.restrict({1, 3}), PartialMap.from_json(a.to_json()),
             PartialMap.from_json("[2, null]", 2), PartialMap.from_two_line(a.two_line()),
             identity(3), empty_map(3), id_on({1}, 3), eps(1, 2, 3), tau(1, 2, 3),
             ptrans.constant(1, 3), compose(a, a), plus(a), ptrans._pmap(2, (2, 0))]
    built += family("PT", 2) + family("E", 2) + family("G", 3) + family_gens("PT", 2)
    for x in built:
        assert hash(x) == hash((x.n, x.img))
    assert len(set(built)) == len({(x.n, x.img) for x in built})
