"""Wreath product tests: the action on tuples, products, unary structure."""

import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from actionpairs import ptrans, wreath
from actionpairs import fmonoid
from actionpairs.fmonoid import (CayleyTable, SizeBoundExceeded,
                                 closure_from_generators, iso_by_generators,
                                 table_from_elements)
from actionpairs.ptrans import PartialMap, from_images, id_on, identity
from actionpairs.registry import monoid_table, ptrans_table
from actionpairs.wreath import (MTuple, WreathElement, ZERO, act, embed_pmap,
                                embed_tuple, enumerate_wreath, ones,
                                unit_tuple, wr_plus, wr_product, wreath_elements,
                                wreath_gens, wreath_identity, wreath_size)


def test_act_figure(c3):
    a = from_images([2, None, 3, 2, 6, 6])
    t = MTuple(c3, (0, 1, 2, 0, 1, 2))      # stands for (a1..a6)
    moved = act(a, t)
    # position x reads entry x*a: (a2, 0, a3, a2, a6, a6)
    assert moved.entries == (1, ZERO, 2, 1, 2, 2)


def test_act_is_monoidal_and_hits_indicators(c2):
    for ent in itertools.product((ZERO, 0, 1), repeat=2):
        t = MTuple(c2, ent)
        assert act(identity(2), t) == t
    a = from_images([2, None, 3, 2, 6, 6])
    assert act(a, ones(c2, 6)) == ones(c2, 6, a.dom())


def test_support_identities(c3):
    tuples = [MTuple(c3, ent)
              for ent in itertools.product((ZERO, 0, 1, 2), repeat=3)]
    for x in tuples:
        for y in tuples:
            assert (x * y).supp() == x.supp() & y.supp()
    for a in ptrans.family("PT", 3):
        for x in tuples:
            assert act(a, x).supp() == frozenset(a.preimage(x.supp()))


def test_product_figure(c3):
    alpha = from_images([2, None, 3, 2, 6, 6])
    beta = from_images([1, 1, None, 4, None, 4])
    a = WreathElement(MTuple(c3, (1, ZERO, 2, 1, 2, 2)), alpha)
    b = WreathElement(MTuple(c3, (1, 2, ZERO, 1, ZERO, 1)), beta)
    prod = a * b
    assert prod.pmap == alpha * beta
    # entries a_x b_{x alpha} on the surviving positions 1, 4, 5, 6
    expect = {1: c3.mul(1, 2), 4: c3.mul(1, 2), 5: c3.mul(2, 1),
              6: c3.mul(2, 1)}
    for pos in range(1, 7):
        v = prod.tup.entries[pos - 1]
        assert v == expect.get(pos, ZERO)


def test_support_domain_invariant(c2):
    with pytest.raises(ValueError):
        WreathElement(ones(c2, 2), id_on({1}, 2))


def test_embedded_maps_multiply_like_maps(c2):
    for a in ptrans.family("PT", 2):
        for b in ptrans.family("PT", 2):
            assert embed_pmap(c2, a) * embed_pmap(c2, b) == embed_pmap(c2, a * b)


def test_embedded_tuples_multiply_componentwise(c2):
    tuples = [MTuple(c2, ent)
              for ent in itertools.product((ZERO, 0, 1), repeat=2)]
    for x in tuples:
        for y in tuples:
            got = embed_tuple(x) * embed_tuple(y)
            assert got == embed_tuple(x * y)


def test_map_commutes_past_tuple(c2):
    # embedded alpha times embedded tuple equals the acted tuple times alpha
    tuples = [MTuple(c2, ent)
              for ent in itertools.product((ZERO, 0, 1), repeat=3)]
    for a in ptrans.family("PT", 3):
        ea = embed_pmap(c2, a)
        for t in tuples:
            assert ea * embed_tuple(t) == embed_tuple(act(a, t)) * ea


def test_partial_identity_shift(c2):
    w = enumerate_wreath(c2, "PT", 2)
    pts = {1, 2}
    for x in w.elements:
        for r in range(3):
            for sub in itertools.combinations(sorted(pts), r):
                idb = embed_pmap(c2, id_on(sub, 2))
                lhs = idb * x
                assert lhs.tup == x.tup.restrict(sub)
                assert lhs.pmap == x.pmap.restrict(sub)
                rhs = x * idb
                pre = x.pmap.preimage(sub)
                assert rhs == embed_pmap(c2, id_on(pre, 2)) * x


def test_wr_plus(c2):
    w = enumerate_wreath(c2, "PT", 2)
    ident = w.elements[w.identity]
    assert wr_plus(ident) == ident
    for a in ptrans.family("PT", 2):
        assert wr_plus(embed_pmap(c2, a)) == embed_pmap(c2, ptrans.plus(a))
    for x in w.elements:
        d = x.pmap.dom()
        assert wr_plus(x) == WreathElement(ones(c2, 2, d), id_on(d, 2))


def test_left_restriction_laws_wreath(c2):
    w = enumerate_wreath(c2, "PT", 2)
    els = w.elements
    for x in els:
        assert wr_plus(x) * x == x
    for x in els:
        for y in els:
            px, py = wr_plus(x), wr_plus(y)
            assert px * py == py * px
            assert wr_plus(px * y) == px * py
            assert x * py == wr_plus(x * y) * x


def test_sizes_and_trivial_collapse(c2, c3):
    from actionpairs.registry import monoid_table
    c1 = monoid_table("c1")
    assert enumerate_wreath(c1, "PT", 2).size == 9
    assert enumerate_wreath(c2, "PT", 2).size == 25
    assert enumerate_wreath(c2, "G", 2).size == 8
    assert enumerate_wreath(c3, "I", 2).size == 31
    for kind in ("PT", "T", "I", "G", "SingT", "SingPT", "SingI"):
        t = enumerate_wreath(c2, kind, 2)
        assert t.size == wreath_size(2, kind, 2), kind


def test_wreath_over_total_family_is_semidirect(c2):
    # the wreath product over total maps coincides with the semidirect
    # product of the tuple monoid by the map monoid
    from actionpairs import actionpair as ap
    from actionpairs import registry
    amb = registry.ambient_wreath("c2", 2)
    base = amb.elements[0].tup.base
    ctx = registry.make_pair(amb, "Mn", "T", 2)
    rep, act_t = ap.check_pair_from_plus(ctx)
    sd = ap.semidirect(ctx, act_t)
    w = enumerate_wreath(base, "T", 2)
    assert sd.table.size == w.size
    # generator-respecting matching between the two constructions
    idx = {e: i for i, e in enumerate(w.elements)}
    pairs = []
    for i, g in enumerate(sd.table.gens):
        u, s = sd.table.elements[g]
        wu = amb.elements[u]
        ws = amb.elements[s]
        pairs.append((g, idx[wu * ws]))
    assert iso_by_generators(sd.table, w, pairs) is not None


def test_json_and_diagram(c2):
    x = WreathElement(MTuple(c2, (1, ZERO)), id_on({1}, 2))
    assert "tuple" in x.to_json() and "map" in x.to_json()
    assert WreathElement.from_json(c2, x.to_json()) == x
    assert "over" in x.diagram()


def test_pair_report_is_json_ready(c2):
    import json
    from actionpairs import actionpair as ap
    from actionpairs import registry
    ctx = registry.catalogue_pair("c2", 2, "E", "G")
    rep, act = ap.check_pair_from_plus(ctx)
    ap.classify_proper(ctx, act, rep)
    blob = json.dumps(rep.to_dict(ctx))
    back = json.loads(blob)
    assert back["strong"] is True and back["proper"] is False
    # projection elements render as generator words
    assert all(isinstance(w, list) for w in back["p_elements"])
    # a failing pair: the kernel-condition witness of the idempotents
    # against the units of T2 nests two (u, s) pairs, each member a word
    t2 = ptrans_table("T", 2)
    idx = {w: i for i, w in enumerate(t2.elements)}
    one, tau = t2.identity, idx[ptrans.tau(1, 2, 2)]
    ctx = ap.AmbientContext(t2, frozenset({idx[ptrans.constant(1, 2)],
                                           idx[ptrans.constant(2, 2)], one}),
                            frozenset({one, tau}), {one: one, tau: one})
    rep, _ = ap.check_pair_from_plus(ctx)
    back = json.loads(json.dumps(rep.to_dict(ctx)))
    [(u0, s0), (u, s)] = dict(rep.failures)["kernel-condition"]
    assert back["action"] is False
    assert dict(back["failures"])["kernel-condition"] == \
        [[list(t2.nf[u0]), list(t2.nf[s0])], [list(t2.nf[u]), list(t2.nf[s])]]


# --- the trusted fast paths against the plain definitions -------------------------

BASES = {name: monoid_table(name) for name in ("c1", "c2", "sl2")}


@st.composite
def wreath_operands(draw, k=2, max_n=3, bases=BASES):
    """k wreath elements over one base and degree, and k free tuples."""
    base = bases[draw(st.sampled_from(sorted(bases)))]
    n = draw(st.integers(0, max_n))
    entry = st.integers(0, base.size - 1)
    elems, tuples = [], []
    for _ in range(k):
        img = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        ent = [draw(entry) if v else ZERO for v in img]
        elems.append(WreathElement(MTuple(base, ent), PartialMap(n, img)))
        free = st.one_of(st.just(ZERO), entry)
        tuples.append(MTuple(base, draw(st.lists(free, min_size=n, max_size=n))))
    return base, elems, tuples


def assert_rebuilds(x):
    """The public constructors accept the result and give an equal value
    with the same hash."""
    if isinstance(x, MTuple):
        y = MTuple(x.base, x.entries)
    else:
        y = WreathElement(MTuple(x.tup.base, x.tup.entries),
                          PartialMap(x.pmap.n, x.pmap.img))
    assert y == x and hash(y) == hash(x)


@settings(max_examples=300, deadline=None)
@given(wreath_operands())
def test_wreath_fast_paths_match_their_definitions(operands):
    base, (x, y), (s, t) = operands
    n = x.pmap.n
    pts = range(1, n + 1)

    # (a, f)(b, g) = (a * f.b, fg): position p carries a_p b_{pf} when p(fg)
    # is defined and 0 otherwise
    img, ent = [], []
    for p in pts:
        f = x.pmap(p)
        c = None if f is None else y.pmap(f)
        img.append(c)
        ent.append(ZERO if c is None else
                   base.mul(x.tup.entries[p - 1], y.tup.entries[f - 1]))
    want = WreathElement(MTuple(base, ent), from_images(img))
    for got in (wr_product(x, y), x * y):
        assert got == want and hash(got) == hash(want)
        assert_rebuilds(got)

    d = x.pmap.dom()
    want = WreathElement(ones(base, n, d), id_on(d, n))
    got = wr_plus(x)
    assert got == want and hash(got) == hash(want)
    assert_rebuilds(got)

    # position p of a.t reads entry pa of t, or 0 off dom(a)
    a = x.pmap
    want = MTuple(base, [ZERO if a(p) is None else t.entries[a(p) - 1] for p in pts])
    got = act(a, t)
    assert got == want and hash(got) == hash(want)
    assert_rebuilds(got)

    want = MTuple(base, [ZERO if ZERO in (u, v) else base.mul(u, v)
                         for u, v in zip(s.entries, t.entries)])
    got = s * t
    assert got == want and hash(got) == hash(want)
    assert_rebuilds(got)


# the built-in bases are all commutative; T_2 is not, so it tells a_p b_pf
# from b_pf a_p
CODED_BASES = {**BASES, "T2": ptrans_table("T", 2)}


@settings(max_examples=300, deadline=None)
@given(wreath_operands(bases=CODED_BASES))
def test_digit_code_matches_the_payload_product(operands):
    base, (x, y), _ = operands
    encode, decode, product = wreath._digit_code(base, x.pmap.n)
    for w in (x, y):
        back = decode(encode(w))
        assert back == w and hash(back) == hash(w)
    got = decode(product(encode(x), encode(y)))
    want = wr_product(x, y)
    assert got == want and hash(got) == hash(want)
    assert_rebuilds(got)


# every wreath target of the presentation suite (criterion 2), the three
# larger verify-presentation cases, two families without natural generators
WREATH_TARGETS = (
    [(b, k, n) for b in ("c1", "c2", "sl2") for n in (2, 3) for k in ("SingT", "SingPT")]
    + [(b, k, 2) for k in ("PT", "G", "T", "I") for b in ("c1", "c2", "c3", "sl2")]
    + [(b, k, 3) for k in ("PT", "G", "T", "I") for b in ("c1", "c2", "sl2")]
    + [("c3", "PT", 3), ("c3", "T", 3), ("c3", "I", 3), ("c2", "SingI", 2), ("c2", "E", 2)])


def _oracle_table(M, kind, n):
    """The table built the literal way: every element listed, numbered by
    the closure of the natural generators under the payload product."""
    elems = wreath_elements(M, kind, n)
    ident = wreath_identity(M, n)
    return table_from_elements(elems, wr_product, gens=wreath_gens(M, kind, n),
                               identity=ident if ident in set(elems) else None)


def _assert_same_table(got, want):
    for field in ("right", "nf", "parent", "gens", "identity", "elements", "index"):
        assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize("base,kind,n", WREATH_TARGETS)
def test_wreath_table_matches_the_literal_construction(base, kind, n):
    M = monoid_table(base)
    _assert_same_table(enumerate_wreath(M, kind, n), _oracle_table(M, kind, n))


def _closed_from_every_element(elems, ident, product):
    """The plain rule for a family with no generator list: close every
    element but the identity, in list order, or the identity alone."""
    gens = [x for x in elems if x != ident]
    if not gens and ident is not None:
        gens = [ident]
    return closure_from_generators(gens, product, identity_hint=ident)


@pytest.mark.parametrize("kind", ["SingI", "SingE", "PTminusT"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_family_without_a_generator_list_is_closed_from_every_element(kind, n):
    elems = ptrans.family(kind, n)
    want = _closed_from_every_element(
        elems, identity(n) if identity(n) in elems else None, ptrans.compose)
    got = ptrans_table(kind, n)
    assert (got.right, got.nf, got.elements) == (want.right, want.nf, want.elements)
    for base in ("c1", "c2"):
        M = monoid_table(base)
        elems = wreath_elements(M, kind, n)
        ident = wreath_identity(M, n)
        want = _closed_from_every_element(
            elems, ident if ident in elems else None, wr_product)
        got = enumerate_wreath(M, kind, n)
        assert (got.right, got.nf, got.elements) == \
            (want.right, want.nf, want.elements), base


def test_ambient_wreath_matches_the_literal_construction():
    from actionpairs import registry
    amb = registry.ambient_wreath("c2", 4)
    # tuples are equal only over the same base object: use the ambient's
    _assert_same_table(amb, _oracle_table(amb.elements[0].tup.base, "PT", 4))


def test_over_cap_wreath_is_refused_before_listing(monkeypatch):
    # |PT_7| = 8^7 is already past the cap, so nothing is listed
    def no_listing(kind, n):
        raise AssertionError(f"listed {kind}{n}")
    monkeypatch.setattr(ptrans, "family", no_listing)
    with pytest.raises(SizeBoundExceeded):
        enumerate_wreath(monoid_table("c1"), "PT", 7)


def _fresh_c3():
    """c3 as a closure leaves it, with no full table built yet."""
    t = table_from_elements([0, 1, 2], lambda a, b: (a + b) % 3, identity=0)
    assert t._full is None
    return t


def test_base_products_read_the_full_table_of_any_base(c3):
    # products are entrywise element ids, so they agree over tables that
    # number the base alike; tuples over different tables never compare equal
    elems = wreath_elements(c3, "PT", 2)
    tuples = [MTuple(c3, e) for e in itertools.product((ZERO, 0, 1, 2), repeat=2)]
    for base in (CayleyTable.from_json(c3.to_json()), _fresh_c3()):
        moved = [WreathElement(MTuple(base, w.tup.entries), w.pmap) for w in elems]
        for x, u in zip(elems, moved):
            for y, v in zip(elems, moved):
                got, want = wr_product(u, v), wr_product(x, y)
                assert got.tup.base is base
                assert (got.tup.entries, got.pmap) == (want.tup.entries, want.pmap)
        for s in tuples:
            for t in tuples:
                got = MTuple(base, s.entries) * MTuple(base, t.entries)
                assert got.base is base and got.entries == (s * t).entries


def test_base_past_the_full_table_cap_is_refused(monkeypatch):
    base = _fresh_c3()
    monkeypatch.setattr(fmonoid, "FULL_TABLE_CAP", base.size - 1)
    x = embed_pmap(base, identity(2))
    with pytest.raises(SizeBoundExceeded):
        wr_product(x, x)
    with pytest.raises(SizeBoundExceeded):
        x.tup * x.tup
    with pytest.raises(SizeBoundExceeded):
        enumerate_wreath(base, "PT", 2)


def test_ne_is_the_negation_of_eq(c2, sl2):
    x = wreath_identity(c2, 2)
    y = wr_product(x, embed_pmap(c2, id_on({1}, 2)))
    same = WreathElement(MTuple(c2, x.tup.entries), identity(2))
    other_base = WreathElement(MTuple(sl2, x.tup.entries), identity(2))
    assert other_base.tup.entries == x.tup.entries and other_base.pmap == x.pmap
    cases = [(x, x), (x, same), (x, wr_product(x, x)), (x, y), (x, other_base),
             (x, x.tup), (x, x.pmap), (x, None), (x, object()),
             (x.tup, same.tup), (x.tup, y.tup), (x.tup, other_base.tup),
             (x.tup, x.tup.entries), (x.tup, x), (x.tup, "t")]
    for u, v in cases:
        assert (u != v) is (not u == v)
        assert (v != u) is (not v == u)
    assert not x != same and x != other_base and x.tup != other_base.tup and x != y


def test_public_constructors_still_validate(c2):
    with pytest.raises(ValueError):
        MTuple(c2, (0, 2))
    with pytest.raises(ValueError):
        WreathElement(MTuple(c2, (0, ZERO)), id_on({2}, 2))
    with pytest.raises(ValueError):
        WreathElement.from_json(c2, '{"tuple": [0, 1], "map": [1, null]}')
    with pytest.raises(ptrans.DegreeMismatch):
        WreathElement(ones(c2, 2), identity(3))


# --- hashes and equality on every construction path ---------------------------

def assert_same_tuple(got, want):
    """Equal and not unequal to the validated tuple, with its hash, and the
    hash is the documented hash(entries)."""
    assert got == want and not got != want
    assert hash(got) == hash(want) == hash(want.entries)


def assert_same_element(got, want):
    """As `assert_same_tuple`, for the documented hash((entries, img))."""
    assert got == want and not got != want
    assert hash(got) == hash(want) == hash((want.tup.entries, want.pmap.img))
    assert_same_tuple(got.tup, want.tup)
    assert got.pmap == want.pmap and hash(got.pmap) == hash((want.pmap.n, want.pmap.img))


@settings(max_examples=300, deadline=None)
@given(wreath_operands())
def test_fast_paths_hash_by_the_documented_formula(operands):
    base, (x, y), (s, t) = operands
    n = x.pmap.n
    f, g = x.pmap, y.pmap
    img = [0 if f(p) is None or g(f(p)) is None else g(f(p)) for p in range(1, n + 1)]
    ent = [ZERO if c == 0 else base.mul(x.tup.entries[p], y.tup.entries[f(p + 1) - 1])
           for p, c in enumerate(img)]
    got = wr_product(x, y)
    assert_same_element(got, WreathElement(MTuple(base, ent), PartialMap(n, img)))
    dom = [p if v else 0 for p, v in enumerate(f.img, 1)]
    assert_same_element(wr_plus(x), WreathElement(
        MTuple(base, [base.identity if v else ZERO for v in dom]), PartialMap(n, dom)))
    assert_same_tuple(act(f, t), MTuple(base, [t.entries[v - 1] if v else ZERO
                                               for v in f.img]))
    assert_same_tuple(s * t, MTuple(base, [ZERO if ZERO in (u, v) else base.mul(u, v)
                                           for u, v in zip(s.entries, t.entries)]))
    # equality reads the map's image, the entries and the base table's identity
    for u, v in ((got, x), (got, y), (x, y)):
        same = u.pmap.img == v.pmap.img and u.tup.entries == v.tup.entries
        assert (u == v) is same and (u != v) is not same
    twin = copy.copy(base)
    moved = WreathElement(MTuple(twin, got.tup.entries), got.pmap)
    assert moved != got and not moved == got and MTuple(twin, t.entries) != t
    assert got != got.pmap and not got == got.pmap


def test_every_construction_path_is_hashable(c2):
    a = from_images([2, None, 1])
    x = embed_pmap(c2, a)
    built = [x, WreathElement.from_json(c2, x.to_json()), embed_tuple(unit_tuple(c2, 3, 2, 1)),
             wreath_identity(c2, 3), wr_product(x, x), wr_plus(x),
             wreath._wreath(wreath._mtuple(c2, (1, ZERO)), ptrans._pmap(2, (1, 0)))]
    built += wreath_elements(c2, "PT", 2) + wreath_gens(c2, "SingPT", 2)
    built += enumerate_wreath(c2, "I", 2).elements
    for w in built:
        assert hash(w) == hash((w.tup.entries, w.pmap.img))
        assert hash(w.tup) == hash(w.tup.entries)
        assert hash(w.pmap) == hash((w.pmap.n, w.pmap.img))
    tuples = [ones(c2, 3), ones(c2, 3, {1}), x.tup.restrict({1}), MTuple(c2, (0, ZERO)),
              act(a, ones(c2, 3)), ones(c2, 3) * x.tup]
    for t in tuples:
        assert hash(t) == hash(t.entries)


def test_tuples_of_another_length_or_base_do_not_multiply(c2, c3):
    # each mismatch alone is refused, not only both at once
    with pytest.raises(wreath.BaseMismatch):
        MTuple(c2, (0, 1)) * MTuple(c2, (0, 1, 1))
    with pytest.raises(wreath.BaseMismatch):
        MTuple(c2, (0, 1)) * MTuple(c3, (0, 1))
    with pytest.raises(wreath.BaseMismatch):
        wr_product(wreath_identity(c2, 2), wreath_identity(c3, 2))


def test_diagram_marks_the_points_off_the_domain(c2):
    x = WreathElement(MTuple(c2, (1, ZERO)), id_on({1}, 2))
    assert x.diagram() == "[1 .] over 1 2 / 1 -"
