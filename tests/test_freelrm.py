"""Free left restriction monoid tests: products, the unary operation, the
word-collapsing relation, generators and the seeded sampling suite."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from actionpairs import freelrm
from actionpairs.freelrm import (LRElement, PrefixSet, Sampler, act_word,
                                 all_prefix_sets, down, element, embed_word,
                                 is_atom, lr_identity, lr_plus, lr_product,
                                 min_genset, parse, prefixes, sigma_related)


def test_product_example():
    x = element(["x"], "x")
    y = element(["y"], "y")
    assert x * y == element(["x", "xy"], "xy")


def test_identity_element():
    e = lr_identity()
    a = element(["xy", "yx"], "yx")
    assert e * a == a == a * e


def test_projection_product_is_union():
    a = element(["xx"], "")
    b = element(["yy"], "")
    assert a * b == element(["xx", "yy"], "")
    assert a * b == b * a
    assert a * a == a


def test_plus_examples():
    assert lr_plus(element(["x"], "x")) == element(["x"], "")
    p = element(["xy"], "")
    assert lr_plus(p) == p
    a = element(["xy", "yx"], "yx")
    assert lr_plus(lr_plus(a)) == lr_plus(a)


def test_act_word():
    A = PrefixSet(down(["y"]))
    assert act_word("", A) == A
    assert act_word("x", PrefixSet({""})) == PrefixSet(prefixes("x"))
    assert act_word("x", A) == PrefixSet(down(["xy"]))


def test_word_embedding_projection():
    w = embed_word("xy")
    assert lr_plus(w) == element(["xy"], "")


def test_sigma():
    a = element(["x"], "x")
    b = element(["x", "y"], "x")
    assert sigma_related(a, b)
    assert not sigma_related(a, element(["x"], ""))
    assert sigma_related(a, a)


def test_min_genset():
    gens = min_genset("x", 2)
    assert element(["x"], "") in gens
    assert element(["xx"], "") in gens
    assert embed_word("x") in gens
    assert len(gens) == 3

    # the generators generate everything of bounded size
    pool = {lr_identity()}
    frontier = [lr_identity()]
    gens2 = min_genset("xy", 3)
    seen = set(pool)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens2:
                c = a * g
                if max(len(w) for w in c.pset.words) <= 3 and c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    small = {LRElement(ps, w)
             for ps in all_prefix_sets("xy", 2) for w in ps.words}
    assert small <= seen


def _layered_words(alphabet, bound):
    """The non-empty words up to the bound, one length after another, each
    length built by appending every sorted letter to the one before."""
    out, layer = [], [""]
    for _ in range(bound):
        layer = [w + c for w in layer for c in sorted(alphabet)]
        out += layer
    return out


@pytest.mark.parametrize("alphabet", ["x", "yx", "zxy"])
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_one_word_lister_serves_the_generators_and_the_truncations(alphabet, bound):
    from actionpairs import presentations as pr
    words = _layered_words(alphabet, bound)
    assert min_genset(alphabet, bound) == \
        [element([w], "") for w in words] + [embed_word(c) for c in sorted(alphabet)]
    # LX needs a length of one at least: its letter relations name the
    # one-letter words
    for family in ["PX_truncated"] + (["LX_truncated"] if bound else []):
        bundle = pr.build_catalog(family, alphabet=alphabet, length=bound)
        assert bundle.notes["proj_words"] == words, family


def test_atoms():
    pool = all_prefix_sets("xy", 3)
    for w in ("x", "xy", "yxx"):
        assert is_atom(PrefixSet(prefixes(w)), pool)
    assert not is_atom(PrefixSet(down(["x", "y"])), pool)


def test_parse_round_trip():
    a = element(["xy", "y"], "xy")
    assert parse(repr(a)) == a
    assert parse("{e}@e") == lr_identity()


def test_prefix_set_validation():
    with pytest.raises(ValueError):
        PrefixSet({"xy"})
    with pytest.raises(ValueError):
        PrefixSet(set())
    with pytest.raises(ValueError):
        LRElement(PrefixSet({""}), "x")


def test_sampled_laws():
    s = Sampler(seed=0xBEEF)
    for _ in range(1000):
        x, y, z = s.element(), s.element(), s.element()
        px, py = lr_plus(x), lr_plus(y)
        assert px * x == x
        assert px * py == py * px
        assert lr_plus(px * y) == px * py
        assert x * py == lr_plus(x * y) * x
        assert px * px == px
        assert lr_plus(px) == px
        assert (x * y) * z == x * (y * z)
        # right uniqueness and properness
        if x * y == x * z:
            assert y.word == z.word
        same = (lr_plus(x) == lr_plus(y)) and sigma_related(x, y)
        assert (x == y) == same


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_proper_by_construction(seed):
    s = Sampler(seed=seed)
    x, y = s.element(), s.element()
    assert (x == y) == (lr_plus(x) == lr_plus(y) and sigma_related(x, y))


# --- the trusted fast paths against the plain definitions ---------------------

def assert_rebuilds(x):
    """The public constructors accept the result and give an equal element
    with the same hash."""
    y = LRElement(PrefixSet(x.pset.words), x.word)
    assert y == x and hash(y) == hash(x)
    assert hash(y.pset) == hash(x.pset)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_product_and_plus_match_their_definitions(seed):
    s = Sampler(seed=seed)
    x, y = s.element(), s.element()
    # (A, w)(B, v) = (A + wB, wv); `element` takes the prefix closure itself,
    # so a result that were not prefix-closed would differ from it
    w = x.word
    want = element(list(x.pset.words) + [w + v for v in y.pset.words], w + y.word)
    for got in (lr_product(x, y), x * y):
        assert got == want and hash(got) == hash(want)
        assert_rebuilds(got)
    want = element(x.pset.words, "")
    got = lr_plus(x)
    assert got == want and hash(got) == hash(want)
    assert_rebuilds(got)


@pytest.mark.parametrize("seed", [0x5EED, 7, 2 ** 31 + 11])
def test_sampler_draws_what_the_public_constructors_build(seed):
    # the same RNG calls, made here through the validating constructors
    s, rng = Sampler(seed=seed), random.Random(seed)

    def word():
        return "".join(rng.choice("xy") for _ in range(rng.randint(0, 4)))

    for _ in range(5000):
        ps = PrefixSet(down(word() for _ in range(rng.randint(0, 4))))
        want = LRElement(ps, rng.choice(ps.sorted_words()))
        got = s.element()
        assert type(got) is LRElement and type(got.pset) is PrefixSet
        assert got == want and got.pset == want.pset
        assert hash(got) == hash(want) and repr(got) == repr(want)


def test_ne_is_the_negation_of_eq():
    x = element(["xy", "y"], "xy")
    y = element(["xy", "y"], "y")
    cases = [(x, x), (x, parse(repr(x))), (x, lr_product(x, lr_identity())), (x, y),
             (x, lr_plus(x)), (x, x.pset), (x, "xy"), (x, None), (x, object()),
             (x.pset, x.pset), (x.pset, PrefixSet(x.pset.words)), (x.pset, y.pset),
             (x.pset, PrefixSet({""})), (x.pset, x.pset.words), (x.pset, x), (x.pset, 1)]
    for u, v in cases:
        assert (u != v) is (not u == v)
        assert (v != u) is (not v == u)
    assert not x != parse(repr(x)) and x != lr_plus(x) and x.pset != PrefixSet({""})


def test_public_constructors_still_validate():
    with pytest.raises(ValueError):
        PrefixSet({"", "x", "xyx"})
    with pytest.raises(ValueError):
        LRElement(PrefixSet(down(["xy"])), "yx")
    with pytest.raises(ValueError):
        parse("{e,x}@y")


# --- hashes and equality on every construction path ---------------------------

def assert_same_element(got, want):
    """Equal and not unequal to the validated element, with its hash, and
    the hashes are the documented hash((pset, word)) and hash(words)."""
    assert got == want and not got != want
    assert hash(got) == hash(want) == hash((want.pset, want.word))
    assert got.pset == want.pset and hash(got.pset) == hash(want.pset.words)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_fast_paths_hash_by_the_documented_formula(seed):
    s = Sampler(seed=seed)
    x, y = s.element(), s.element()
    w = x.word
    got = lr_product(x, y)
    assert_same_element(got, LRElement(PrefixSet(x.pset.words | {w + v for v in y.pset.words}),
                                       w + y.word))
    assert_same_element(lr_plus(x), LRElement(PrefixSet(x.pset.words), ""))
    # equality reads the word, then the prefix set
    for u, v in ((got, x), (got, y), (x, y), (lr_plus(x), lr_plus(y))):
        same = u.word == v.word and u.pset.words == v.pset.words
        assert (u == v) is same and (u != v) is not same
    assert got != got.word and not got == got.pset


def test_every_construction_path_is_hashable():
    a = PrefixSet(down(["xy"]))
    sets = [a, a.shift("y"), a | PrefixSet(down(["yy"])), PrefixSet({""})]
    sets += all_prefix_sets("xy", 2)
    for p in sets:
        assert hash(p) == hash(p.words)
    x = element(["xy", "y"], "xy")
    built = [x, parse(repr(x)), lr_identity(), embed_word("xyx"), Sampler(seed=3).element(),
             lr_product(x, x), lr_plus(x), LRElement(a.shift("x"), "xxy")]
    built += min_genset("xy", 2)
    for e in built:
        assert hash(e) == hash((e.pset, e.word)) and hash(e.pset) == hash(e.pset.words)
