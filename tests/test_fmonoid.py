"""Engine tests: closure, congruences, enumeration, verification, quotients."""

import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from actionpairs import fmonoid, ptrans, rewriting
from actionpairs.fmonoid import (BoundExceeded, CayleyTable, CongruencePartition,
                                 NotACongruence, Presentation, SizeBoundExceeded,
                                 associativity_audit, closure_from_generators,
                                 congruence_closure, enumerate_presentation,
                                 greedy_generators, is_compatible,
                                 iso_by_generators, quotient,
                                 subtable, table_from_elements,
                                 table_presentation, verify_presentation)
from actionpairs.actionpair import check_pair_from_plus, semidirect
from actionpairs.presentations import build_catalog
from actionpairs.registry import catalogue_pair, monoid_table, ptrans_table

from conftest import (TABLE_FIELDS, all_total_maps, brute_closure, brute_congruence,
                      naive_enumerate, plain_closure, plain_greedy)


# --- closure_from_generators ---------------------------------------------------

def test_transposition_generates_two_elements():
    t = closure_from_generators([ptrans.tau(1, 2, 2)], ptrans.compose,
                                identity_hint=ptrans.identity(2))
    assert t.size == 2
    assert t.identity == 0


def test_t2_closure_against_brute_force():
    gens = [ptrans.tau(1, 2, 2), ptrans.eps(1, 2, 2)]
    t = closure_from_generators(gens, ptrans.compose,
                                identity_hint=ptrans.identity(2))
    brute = brute_closure(gens + [ptrans.identity(2)], ptrans.compose)
    assert t.size == len(brute) == 4
    assert set(t.elements) == brute


def test_three_coatoms_generate_the_cube():
    pts = {1, 2, 3}
    gens = [ptrans.id_on(pts - {i}, 3) for i in (1, 2, 3)]
    t = closure_from_generators(gens, ptrans.compose,
                                identity_hint=ptrans.identity(3))
    assert t.size == 8


def test_closure_cap():
    with pytest.raises(SizeBoundExceeded):
        closure_from_generators([ptrans.tau(1, 2, 3), ptrans.tau(2, 3, 3)],
                                ptrans.compose, cap=3)


def test_closure_is_deterministic():
    gens = [ptrans.eps(1, 2, 3), ptrans.tau(1, 3, 3), ptrans.eps(3, 1, 3)]
    t1 = closure_from_generators(gens, ptrans.compose)
    t2 = closure_from_generators(gens, ptrans.compose)
    assert t1.nf == t2.nf and t1.right == t2.right and t1.gens == t2.gens


def test_normal_forms_evaluate_and_are_shortlex():
    t = ptrans_table("E", 2)
    for e in range(t.size):
        assert t.eval_word(t.nf[e]) == e
    idx = {w: i for i, w in enumerate(t.elements)}
    empty = idx[ptrans.empty_map(2)]
    assert t.nf[empty] == (0, 1)
    assert t.nf[t.identity] == ()
    for k, g in enumerate(t.gens):
        assert t.nf[g] == (k,)


def test_identity_detection_without_hint():
    t = closure_from_generators([ptrans.tau(1, 2, 2)], ptrans.compose)
    assert t.identity is not None
    assert t.elements[t.identity] == ptrans.identity(2)


def test_associativity_audit_small_tables():
    for t in (ptrans_table("T", 3), ptrans_table("PT", 3), ptrans_table("E", 6)):
        assert associativity_audit(t)


# --- congruence closure ---------------------------------------------------------

def test_empty_pairs_discrete():
    t = ptrans_table("E", 2)
    part = congruence_closure(t, [], "right")
    assert all(len(c) == 1 for c in part.classes())


def test_right_closure_on_e2_matches_brute_force():
    t = ptrans_table("E", 2)
    idx = {w: i for i, w in enumerate(t.elements)}
    i12 = t.identity
    i1 = idx[ptrans.id_on({1}, 2)]
    i2 = idx[ptrans.id_on({2}, 2)]
    iempty = idx[ptrans.empty_map(2)]
    part = congruence_closure(t, [(i1, i12)], "right")
    got = {frozenset(c) for c in part.classes()}
    assert got == {frozenset({i12, i1}), frozenset({i2, iempty})}
    assert got == brute_congruence(t, [(i1, i12)], "right")


def test_two_sided_closure_of_transposition_on_g3_is_universal():
    t = ptrans_table("G", 3)
    idx = {w: i for i, w in enumerate(t.elements)}
    pair = (idx[ptrans.tau(1, 2, 3)], t.identity)
    part = congruence_closure(t, [pair], "two_sided")
    assert len(part.classes()) == 1
    assert brute_congruence(t, [pair], "two_sided") == {frozenset(range(t.size))}


def test_left_closure_differs_from_right():
    t = ptrans_table("T", 2)
    idx = {w: i for i, w in enumerate(t.elements)}
    a = idx[ptrans.constant(1, 2)]
    pair = [(a, t.identity)]
    left = congruence_closure(t, pair, "left")
    right = congruence_closure(t, pair, "right")
    assert left != right


def test_closure_idempotence():
    t = ptrans_table("T", 3)
    rng_pairs = [(1, 5), (7, 2), (11, 11)]
    part = congruence_closure(t, rng_pairs, "two_sided")
    again = congruence_closure(t, [(c[0], x) for c in part.classes()
                                   for x in c[1:]], "two_sided")
    assert part == again


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 26), st.integers(0, 26)), max_size=4),
       st.sampled_from(["left", "right", "two_sided"]))
def test_congruence_closure_matches_brute_force(pairs, side):
    t = ptrans_table("T", 3)
    part = congruence_closure(t, pairs, side)
    assert {frozenset(c) for c in part.classes()} == \
        brute_congruence(t, pairs, side)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.just(n), st.booleans(),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))))
def test_union_merges_like_naive_classes_with_the_least_member_as_root(case):
    n, listed, pairs = case
    # CongruencePartition(n) keeps a parent list, a list of members a dict
    part = CongruencePartition([(x,) for x in range(n)] if listed else n)
    key = (lambda x: (x,)) if listed else (lambda x: x)
    classes = [{key(x)} for x in range(n)]
    for a, b in pairs:
        ca = next(c for c in classes if key(a) in c)
        cb = next(c for c in classes if key(b) in c)
        assert part.union(key(a), key(b)) is (ca is not cb)
        if ca is not cb:
            ca |= cb
            classes.remove(cb)
    assert sorted(map(sorted, classes)) == sorted(part.classes())
    assert all(part.find(x) == min(c) for c in classes for x in c)
    assert part.canonical() == tuple(part.find(key(x)) for x in range(n))


def test_partition_grown_by_appending_lists_every_node():
    # enumerate_presentation appends each new node to `parent`: the members
    # are read from it, so the grown nodes are classified like the first
    part = CongruencePartition(1)
    part.parent.extend(range(1, 6))
    part.union(4, 1)
    part.union(5, 3)
    assert list(part.members) == [0, 1, 2, 3, 4, 5]
    assert part.classes() == [[0], [1, 4], [2], [3, 5]]
    assert part.canonical() == (0, 1, 2, 3, 1, 3)


# --- enumeration of presented monoids -------------------------------------------

def test_idempotent_letter():
    p = Presentation.make(["x"], [((0, 0), (0,))], "monoid")
    t = enumerate_presentation(p, 10)
    assert t.size == 2 and t.identity == 0


def test_symmetric_group_presentation_n3():
    rels = [((0, 0), ()), ((1, 1), ()), ((0, 1, 0), (1, 0, 1))]
    p = Presentation.make(["s1", "s2"], rels, "monoid")
    t = enumerate_presentation(p, 10)
    brute = brute_closure([ptrans.tau(1, 2, 3), ptrans.tau(2, 3, 3),
                           ptrans.identity(3)], ptrans.compose)
    assert t.size == len(brute) == 6


def test_braid_deleted_is_inconclusive():
    # dropping the braid relation leaves an infinite monoid; enumeration
    # must exhaust its budget, never claim success
    p = Presentation.make(["s1", "s2"], [((0, 0), ()), ((1, 1), ())], "monoid")
    with pytest.raises(BoundExceeded) as exc:
        enumerate_presentation(p, 10, node_cap=500)
    assert exc.value.undecided


def test_oversize_reports_actual_size():
    # involutions with a fourth-power braid present an 8-element group
    rels = [((0, 0), ()), ((1, 1), ()), ((0, 1) * 4, ())]
    p = Presentation.make(["a", "b"], rels, "monoid")
    with pytest.raises(BoundExceeded) as exc:
        enumerate_presentation(p, 6)
    assert not exc.value.undecided and exc.value.size == 8


def test_semigroup_kind_discards_isolated_identity():
    # free idempotent pair: the empty-word class is isolated and dropped
    # (the lone survivor is trivially an identity of itself)
    p = Presentation.make(["a"], [((0, 0), (0,))], "semigroup")
    t = enumerate_presentation(p, 10)
    assert t.size == 1

    # x^3 = x reaches the identity class: x^2 acts as identity on {x, x^2}
    p2 = Presentation.make(["x"], [((0, 0, 0), (0,))], "semigroup")
    t2 = enumerate_presentation(p2, 10)
    assert t2.size == 2 and t2.identity is not None


def test_enumeration_canonical_under_relation_shuffle():
    base = [((0, 0), ()), ((1, 1), ()), ((0, 1, 0), (1, 0, 1))]
    p1 = Presentation.make(["a", "b"], base, "monoid")
    p2 = Presentation.make(["a", "b"], list(reversed(base)), "monoid")
    t1, t2 = enumerate_presentation(p1, 10), enumerate_presentation(p2, 10)
    assert t1.right == t2.right and t1.nf == t2.nf


# --- verification ----------------------------------------------------------------

def _symmetric3():
    return Presentation.make(
        ["s1", "s2"], [((0, 0), ()), ((1, 1), ()), ((0, 1, 0), (1, 0, 1))],
        "monoid")


def test_verify_presentation_pass():
    g3 = ptrans_table("G", 3)
    idx = {w: i for i, w in enumerate(g3.elements)}
    gm = [idx[ptrans.tau(1, 2, 3)], idx[ptrans.tau(2, 3, 3)]]
    rep = verify_presentation(_symmetric3(), g3, gm)
    assert rep.ok and rep.isomorphic and rep.presented_size == 6
    assert rep.to_dict()["failed_relation"] is None


def test_the_report_dict_lists_the_failed_relation():
    # s1 s1 = s1 fails at a transposition: the report names it as two lists
    g3 = ptrans_table("G", 3)
    idx = {w: i for i, w in enumerate(g3.elements)}
    p = Presentation.make(["s1"], [((0, 0), (0,))], "monoid")
    rep = verify_presentation(p, g3, [idx[ptrans.tau(1, 2, 3)]])
    assert not rep.relations_hold and rep.failed_relation == ((0, 0), (0,))
    assert rep.to_dict()["failed_relation"] == [[0, 0], [0]]


def test_verify_presentation_size_mismatch():
    rels = [((0, 0), ()), ((1, 1), ()), ((0, 1) * 4, ())]
    p = Presentation.make(["a", "b"], rels, "monoid")
    g3 = ptrans_table("G", 3)
    idx = {w: i for i, w in enumerate(g3.elements)}
    gm = [idx[ptrans.tau(1, 2, 3)], idx[ptrans.tau(2, 3, 3)]]
    rep = verify_presentation(p, g3, gm)
    # the braid-free relations do not even hold in the target
    assert not rep.ok and rep.presented_size == 8 and rep.size_match is False


def test_verify_presentation_inconclusive_never_success(monkeypatch):
    import actionpairs.fmonoid as fm
    monkeypatch.setattr(fm, "BUDGET_FACTOR", 1)
    p = Presentation.make(["s1", "s2"], [((0, 0), ()), ((1, 1), ())], "monoid")
    g3 = ptrans_table("G", 3)
    idx = {w: i for i, w in enumerate(g3.elements)}
    gm = [idx[ptrans.tau(1, 2, 3)], idx[ptrans.tau(2, 3, 3)]]
    rep = verify_presentation(p, g3, gm)
    # Z2 * Z2 is infinite: the completion at a quarter of the budget says so
    assert not rep.ok and rep.size_match is False and rep.infinite
    assert rep.presented_size is None and rep.nodes == rep.node_budget // 4
    # Tn(4) overruns the completion's rule budget, so at 40 nodes the
    # enumeration runs out: inconclusive, never success
    rep = build_catalog("Tn", n=4).verify(node_cap=40)
    assert rep.size_match is None and not rep.ok and rep.inconclusive
    assert not rep.infinite and rep.completion_rules == rewriting.MAX_RULES


def test_verify_reports_nodes_and_the_budget_applied():
    g3 = ptrans_table("G", 3)
    idx = {w: i for i, w in enumerate(g3.elements)}
    gm = [idx[ptrans.tau(1, 2, 3)], idx[ptrans.tau(2, 3, 3)]]
    rep = verify_presentation(_symmetric3(), g3, gm)
    # bound 4 * 6 + 16 = 40, so the budget is 60 * 40 + 1000 nodes
    assert rep.ok and rep.node_budget == 3400 and 6 <= rep.nodes < 3400
    assert rep.to_dict()["nodes"] == rep.nodes
    # an explicit cap lowers the budget for this call only
    free = Presentation.make(["s1", "s2"], [((0, 0), ()), ((1, 1), ())], "monoid")
    rep = verify_presentation(free, g3, gm, node_cap=40)
    assert not rep.ok and rep.size_match is False and rep.infinite
    assert rep.node_budget == 40 and rep.nodes == 40 // 4
    d = rep.to_dict()
    assert d["infinite"] and d["presented_size"] is None
    assert (d["completion_rules"], d["completion_overlaps"]) == (2, 2)
    assert verify_presentation(free, g3, gm).node_budget == 3400


def test_verify_reports_the_letter_orders_completed_under():
    g3 = ptrans_table("G", 3)
    idx = {w: i for i, w in enumerate(g3.elements)}
    gm = [idx[ptrans.tau(1, 2, 3)], idx[ptrans.tau(2, 3, 3)]]
    # Z2 * Z2 is certified infinite under the first order
    free = Presentation.make(["s1", "s2"], [((0, 0), ()), ((1, 1), ())], "monoid")
    rep = verify_presentation(free, g3, gm, node_cap=40)
    assert rep.infinite and rep.completion_orders == 1
    assert rep.to_dict()["completion_orders"] == 1
    # Tn(4) finishes under none of its 2 x 9 orders, and the rules reported
    # are the last completion's
    tn4 = build_catalog("Tn", n=4)
    rep = tn4.verify(node_cap=40)
    assert len(tn4.pres.alphabet) == 9 and rep.completion_orders == 18
    assert rep.inconclusive and rep.completion_rules == rewriting.MAX_RULES
    # an enumeration that closes before the mark runs no completion
    rep = verify_presentation(_symmetric3(), g3, gm)
    assert rep.completion_orders is None and rep.to_dict()["completion_orders"] is None


def test_a_finite_completion_stops_the_schedule():
    # S3 passes the mark of a 40-node budget: its first completion finishes
    # with 6 irreducible words, which proves it finite, so no other order is
    # tried and the enumeration closes as it does without the mark
    g3 = ptrans_table("G", 3)
    idx = {w: i for i, w in enumerate(g3.elements)}
    gm = [idx[ptrans.tau(1, 2, 3)], idx[ptrans.tau(2, 3, 3)]]
    p = _symmetric3()
    infinite, c, orders = rewriting.certify_infinite(p.relations, 2)
    assert not infinite and orders == 1 and c.confluent
    assert rewriting.count_normal_forms(c.rules, 2) == 6
    rep = verify_presentation(p, g3, gm, node_cap=40)
    assert rep.nodes > 40 // 4 and rep.completion_orders == 1
    assert (rep.completion_rules, rep.completion_overlaps) == (c.added, c.overlaps)
    assert rep.ok and rep.isomorphic and not rep.infinite
    assert rep.presented_size == verify_presentation(p, g3, gm).presented_size == 6


def test_the_rerun_after_the_mark_repeats_the_enumeration_node_for_node():
    # S3 passes the mark of a 40-node budget undecided, then closes: the
    # full-budget run creates exactly the nodes of a direct enumeration
    g3 = ptrans_table("G", 3)
    idx = {w: i for i, w in enumerate(g3.elements)}
    gm = [idx[ptrans.tau(1, 2, 3)], idx[ptrans.tau(2, 3, 3)]]
    rep = verify_presentation(_symmetric3(), g3, gm, node_cap=40)
    stats = {}
    enumerate_presentation(_symmetric3(), 4 * 6 + 16, node_cap=40, stats=stats)
    assert rep.ok and rep.completion_orders == 1 and rep.nodes == stats["nodes"]


def test_a_dropped_coxeter_relation_is_certified_by_its_zero_quotient():
    # Tn(4) without s2s1s2 = s1s2s1: no letter order completes it, but with
    # the l and r letters sent to zero what is left is an infinite Coxeter
    # group, so the monoid is infinite at the quarter mark
    tn4 = build_catalog("Tn", n=4)
    rels = [r for i, r in enumerate(tn4.pres.relations) if i != 47]
    p = Presentation.make(tn4.pres.alphabet, rels, tn4.pres.kind)
    rep = verify_presentation(p, tn4.target, tn4.gen_map)
    assert rep.infinite and rep.size_match is False and rep.presented_size is None
    assert rep.nodes == rep.node_budget // 4 and rep.completion_orders == 18
    assert rep.zero_letters == ("l1", "l2", "l3", "r1", "r2", "r3")
    assert rep.to_dict()["zero_letters"] == rep.zero_letters
    # Tn(4) itself is not certified: its zero quotient is the finite S4
    rep = tn4.verify(node_cap=40)
    assert rep.inconclusive and rep.zero_letters is None


def test_closure_cap_defaults_to_the_current_node_cap(monkeypatch):
    import actionpairs.fmonoid as fm
    monkeypatch.setattr(fm, "NODE_CAP", 3)
    with pytest.raises(SizeBoundExceeded):
        closure_from_generators(all_total_maps(2), ptrans.compose)


def test_verify_detects_non_surjective():
    p = Presentation.make(["a"], [((0, 0), ())], "monoid")
    g3 = ptrans_table("G", 3)
    idx = {w: i for i, w in enumerate(g3.elements)}
    rep = verify_presentation(p, g3, [idx[ptrans.tau(1, 2, 3)]])
    assert rep.relations_hold and not rep.surjective and not rep.ok


def _t3_by_three_maps():
    # the 27 maps of T3, closed from (tau12, eps12, tau23)
    gens = [ptrans.tau(1, 2, 3), ptrans.eps(1, 2, 3), ptrans.tau(2, 3, 3)]
    t = closure_from_generators(gens, ptrans.compose)
    assert t.size == 27
    return t


def test_iso_by_generators_reads_one_shot_pairs():
    t = _t3_by_three_maps()
    identity = {x: x for x in range(t.size)}
    assert iso_by_generators(t, t, list(zip(t.gens, t.gens))) == identity
    assert iso_by_generators(t, t, zip(t.gens, t.gens)) == identity


def test_iso_by_generators_rejects():
    t = _t3_by_three_maps()
    tau12, eps12, tau23 = t.gens
    # swapping a unit with an idempotent is no automorphism
    assert iso_by_generators(t, t, [(tau12, eps12), (eps12, tau12),
                                    (tau23, tau23)]) is None
    # different sizes
    assert iso_by_generators(t, ptrans_table("T", 2),
                             zip(t.gens, ptrans_table("T", 2).gens)) is None
    # a seed with two images
    assert iso_by_generators(t, t, [(tau12, tau12), (tau12, tau23),
                                    (eps12, eps12), (tau23, tau23)]) is None
    # first components that generate only the symmetric group
    assert iso_by_generators(t, t, [(tau12, tau12), (tau23, tau23)]) is None


def _iso_by_mul(t1, t2, pairs, audit=True):
    # the plain definition: every product a `mul` call; without the audit,
    # the map the orbit fixes when it is a bijection
    pairs = list(pairs)
    if t1.size != t2.size:
        return None
    seeds = pairs[:]
    if t1.identity is not None and t2.identity is not None:
        seeds.append((t1.identity, t2.identity))
    fmap = {}
    for a, b in seeds:
        if fmap.setdefault(a, b) != b:
            return None
    gens1 = [g1 for g1, _ in pairs]
    found = fmonoid.right_orbit(list(fmap), lambda x: [t1.mul(x, g) for g in gens1])
    for y, (_, par) in found.items():
        if par is not None:
            x, k = par
            fmap[y] = t2.mul(fmap[x], pairs[k][1])
    if len(fmap) != t1.size or len(set(fmap.values())) != t1.size:
        return None
    for a in range(t1.size if audit else 0):
        for (g1, g2) in pairs:
            if fmap[t1.mul(a, g1)] != t2.mul(fmap[a], g2):
                return None
    return fmap


def _iso_cases():
    # (t1, t2) by name: T3 closed from (tau12, eps12, tau23) against T3
    # numbered from its standard generators, PT2, a 7-element quotient of T3
    # and the one-element quotient
    t3 = ptrans_table("T", 3)
    q7 = quotient(t3, congruence_closure(t3, [(25, 26)], "two_sided"))
    q1 = quotient(t3, congruence_closure(t3, [(7, 8)], "two_sided"))
    assert (q7.size, q1.size) == (7, 1)
    pt2 = ptrans_table("PT", 2)
    return {"T3": (_t3_by_three_maps(), t3), "PT2": (pt2, pt2),
            "q7": (q7, q7), "q1": (q1, q1)}


# T3 ids: tau12, eps12, tau23 and the identity are 0, 1, 2, 3 in the closure
# and 1, 3, 2, 0 in the standard numbering
T3_ISO = [(0, 1), (1, 3), (2, 2)]


@pytest.mark.parametrize("name,pairs,outcome", [
    ("T3", T3_ISO, "iso"),
    ("T3", [(0, 1), (0, 2)] + T3_ISO[1:], "conflict"),
    ("T3", T3_ISO + [(3, 1)], "conflict"),              # with the identity seed
    ("T3", [(0, 1), (1, 1), (2, 2)], "not injective"),  # into S3
    ("T3", [(0, 0), (1, 0), (2, 0)], "not injective"),  # onto {1}, a homomorphism
    ("T3", [], "not onto"),                             # the empty pairing
    ("T3", T3_ISO[::2], "not onto"),
    ("PT2", list(zip(range(1, 6), [4, 7, 2, 8, 1])), "not injective"),
    ("PT2", list(zip(range(1, 6), [3, 7, 5, 6, 1])), "no homomorphism"),
    ("PT2", list(zip(range(1, 6), [1, 3, 2, 5, 4])), "iso"),
    ("q7", [(1, 1), (2, 2), (3, 3)], "iso"),
    ("q7", [(1, 2), (2, 1), (3, 3)], "iso"),
    ("q7", [(1, 1), (2, 4), (3, 3)], "no homomorphism"),
    ("q1", [], "iso"),
])
def test_iso_by_generators_matches_the_mul_definition(name, pairs, outcome):
    t1, t2 = _iso_cases()[name]
    got, want = iso_by_generators(t1, t2, pairs), _iso_by_mul(t1, t2, pairs)
    assert got == want and (got is None or list(got.items()) == list(want.items()))
    assert (got is not None) is (outcome == "iso")
    # a bijection the orbit fixes is refused by the audit alone
    assert (_iso_by_mul(t1, t2, pairs, audit=False) is not None) is (
        outcome in ("iso", "no homomorphism"))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["T3", "PT2", "q7", "q1"]), st.data())
def test_iso_by_generators_matches_the_mul_definition_on_seeded_pairings(name, data):
    t1, t2 = _iso_cases()[name]
    ids1, ids2 = st.integers(0, t1.size - 1), st.integers(0, t2.size - 1)
    if data.draw(st.booleans()):
        # the generators with their images permuted: mostly bijections
        imgs = data.draw(st.permutations(t2.gens))
        pairs = list(zip(t1.gens, imgs))
    else:
        pairs = data.draw(st.lists(st.tuples(ids1, ids2), max_size=5))
    got, want = iso_by_generators(t1, t2, pairs), _iso_by_mul(t1, t2, pairs)
    assert got == want and (got is None or list(got.items()) == list(want.items()))


def _column_table(source, data):
    t3 = ptrans_table("T", 3)
    if source == "closure":
        picks = data.draw(st.lists(st.integers(0, 26), min_size=1, max_size=3))
        return closure_from_generators([t3.elements[i] for i in picks], ptrans.compose)
    if source == "from_json":
        return CayleyTable.from_json(_column_table("closure", data).to_json())
    if source == "presented":
        fam = data.draw(st.sampled_from(["Tn", "Gn", "En"]))
        b = build_catalog(fam, n=3)
        return enumerate_presentation(b.pres, 4 * b.target.size + 16)
    pair = data.draw(st.tuples(st.integers(0, 26), st.integers(0, 26)))
    return quotient(t3, congruence_closure(t3, [pair], "two_sided"))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["closure", "presented", "quotient", "from_json"]),
       st.booleans(), st.data())
def test_columns_agree_with_mul_with_and_without_the_full_table(source, past_cap, data):
    # below the cap the column is read from the full table, past it composed
    # along the normal form
    t = _column_table(source, data)
    if past_cap:
        t._full = None          # `from_json` builds it to validate the table
    with mock.patch.object(fmonoid, "FULL_TABLE_CAP", 0 if past_cap else t.size):
        want = [[t.mul(x, g) for x in range(t.size)] for g in range(t.size)]
        if not past_cap:
            t.full_table()
        assert [t.column(g) for g in range(t.size)] == want
        assert (t._full is None) is past_cap
    if t.elements is not None:
        assert all(t.elements[c] == ptrans.compose(t.elements[x], t.elements[g])
                   for g in range(t.size) for x, c in enumerate(t.column(g)))


@pytest.mark.parametrize("drop", [None, 0, 28])
def test_verification_calls_mul_only_for_the_relation_check(drop, monkeypatch):
    # Tn(3) whole, with x1^2 = 1 dropped (29 elements) and with a braid
    # relation dropped (certified infinite); the target has no full table
    b = build_catalog("Tn", n=3)
    rels = [r for i, r in enumerate(b.pres.relations) if i != drop]
    p = Presentation.make(b.pres.alphabet, rels, b.pres.kind)
    m = b.target
    calls = []
    mul = CayleyTable.mul

    def counted(self, a, c):
        calls.append(self)
        return mul(self, a, c)

    monkeypatch.setattr(CayleyTable, "mul", counted)
    relation_check = sum(len(w) - 1 for u, v in rels for w in (u, v) if w)
    rep = verify_presentation(p, m, b.gen_map)
    assert rep.relations_hold and rep.surjective and rep.ok is (drop is None)
    assert rep.isomorphic is (True if drop is None else None)
    assert len(calls) == relation_check and set(calls) == {m}
    assert m._full is None
    calls.clear()
    t = enumerate_presentation(b.pres, 4 * m.size + 16)
    assert iso_by_generators(t, m, zip(t.gens, b.gen_map)) is not None
    assert calls == []
    # the count sees a call
    m.mul(1, 2)
    assert len(calls) == 1


def test_closures_leave_the_full_table_to_their_callers():
    from actionpairs.registry import ambient_wreath
    assert _t3_by_three_maps()._full is None
    assert ptrans_table("T", 3)._full is None
    assert monoid_table("c2")._full is not None
    assert ambient_wreath("c1", 2)._full is not None
    # past FULL_TABLE_CAP the ambient still builds, without its m x m table
    big = ambient_wreath("c2", 4)
    assert big.size == 6561 and big._full is None


def test_rows_past_the_cap_build_only_the_rows_read():
    from actionpairs.registry import ambient_wreath
    big = ambient_wreath("c2", 4)
    rows = big.rows()
    assert len(rows) == 0
    for a, b in [(5, 17), (6000, 5), (5, 6560), (4321, 0)]:
        assert rows[a][b] == big.mul(a, b)
        assert big.elements[rows[a][b]] == big.elements[a] * big.elements[b]
    assert sorted(rows) == [5, 4321, 6000] and rows[5] is rows[5]
    # the caller holds the rows: the table keeps neither them nor a full table
    assert big._full is None and big.rows() is not rows and len(big.rows()) == 0
    with pytest.raises(SizeBoundExceeded):
        big.full_table()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([("PT", 2), ("T", 3), ("I", 3), ("SingT", 3)]),
       st.booleans(), st.data())
def test_rows_agree_with_mul_below_and_past_the_cap(kind, past_cap, data):
    # `walk` never builds a full table, so its `mul` walks normal forms; the
    # rows of `t` come from the full table, or with the cap at 0 from rows
    # built on demand (SingT has no identity: every parent chain starts at -1)
    walk, t = ptrans_table(*kind), ptrans_table(*kind)
    with mock.patch.object(fmonoid, "FULL_TABLE_CAP", 0 if past_cap else t.size):
        rows = t.rows()
    assert (t._full is None) is past_cap
    ids = st.integers(0, t.size - 1)
    for _ in range(25):
        a, b = data.draw(ids), data.draw(ids)
        assert rows[a][b] == walk.mul(a, b)
        assert t.elements[rows[a][b]] == ptrans.compose(t.elements[a], t.elements[b])
    assert walk._full is None


# --- quotients --------------------------------------------------------------------

def test_quotient_discrete_and_universal():
    t = ptrans_table("E", 2)
    disc = congruence_closure(t, [], "two_sided")
    q = quotient(t, disc)
    assert q.size == t.size
    assert iso_by_generators(q, t, list(zip(q.gens, t.gens))) is not None
    univ = congruence_closure(t, [(0, i) for i in range(t.size)], "two_sided")
    assert quotient(t, univ).size == 1


def test_quotient_rejects_non_congruence():
    t = ptrans_table("T", 2)
    part = CongruencePartition(t.size)
    idx = {w: i for i, w in enumerate(t.elements)}
    part.union(idx[ptrans.constant(1, 2)], t.identity)
    with pytest.raises(NotACongruence):
        quotient(t, part)


def _scan_compatible(t, part):
    """Two-sided compatibility by its definition: every member of a class
    sends each generator, on the right and on the left, into the class of
    its first member's image."""
    first = part.canonical()
    return all(first[t.mul(x, g)] == first[t.mul(first[x], g)] and
               first[t.mul(g, x)] == first[t.mul(g, first[x])]
               for x in range(t.size) for g in t.gens)


def test_is_compatible_matches_the_two_sided_scan():
    # T3, and U x| S for (M0n,PT) over c1 at degree 2: 36 elements, no identity
    ctx = catalogue_pair("c1", 2, "M0n", "PT")
    tables = {"T3": ptrans_table("T", 3),
              "M0n x| PT": semidirect(ctx, check_pair_from_plus(ctx)[1]).table}
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(tables)),
           st.sampled_from(["merge", "left", "right", "two_sided"]), st.data())
    def check(name, how, data):
        # an equivalence from random merges, or a closure of random pairs
        t = tables[name]
        ids = st.integers(0, t.size - 1)
        pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=3))
        if how == "merge":
            part = CongruencePartition(t.size)
            for a, b in pairs:
                part.union(a, b)
        else:
            part = congruence_closure(t, pairs, how)
        verdict = is_compatible(t, part)
        assert verdict == _scan_compatible(t, part)
        seen.add(verdict)

    check()
    assert seen == {True, False}


def test_quotient_is_homomorphism():
    t = ptrans_table("T", 2)
    idx = {w: i for i, w in enumerate(t.elements)}
    part = congruence_closure(
        t, [(idx[ptrans.constant(1, 2)], idx[ptrans.constant(2, 2)])],
        "two_sided")
    q = quotient(t, part)
    cls = part.classes()
    cls_of = {x: i for i, c in enumerate(cls) for x in c}
    for a in range(t.size):
        for b in range(t.size):
            assert cls_of[t.mul(a, b)] == q.mul(cls_of[a], cls_of[b])


# --- serialization and helpers ----------------------------------------------------

def test_presentation_json_round_trip():
    p = _symmetric3()
    assert Presentation.from_json(p.to_json()) == p


def test_presentation_normalization():
    p = Presentation.make(["a", "b"],
                          [((0,), (0,)),              # trivial, dropped
                           ((0, 1), (1, 0)),
                           ((1, 0), (0, 1))],         # duplicate orientation
                          "monoid")
    assert p.relations == (((1, 0), (0, 1)),)


def test_semigroup_relations_reject_empty_side():
    with pytest.raises(ValueError):
        Presentation.make(["a"], [((0, 0), ())], "semigroup")


def test_semigroup_presentation_needs_a_letter():
    # a semigroup over no letters has no elements to enumerate; the monoid
    # over no letters is the trivial monoid
    with pytest.raises(ValueError, match="needs at least one letter"):
        Presentation.make([], [], "semigroup")
    t = enumerate_presentation(Presentation.make([], [], "monoid"), 10)
    assert t.size == 1 and t.identity == 0 and t.nf == [()]


def test_cayley_json_refuses_an_identity_with_a_wrong_row():
    # {1, a} with a a = a: the word of a evaluates from its generator, never
    # through the identity's row, so only the identity check sees 1 a = 1
    doc = {"size": 2, "gens": [1], "nf": [[], [0]], "table": [[0], [1]]}
    with pytest.raises(ValueError, match="with the empty word is no identity"):
        CayleyTable.from_json(json.dumps(doc))
    doc["table"][0] = [1]
    assert CayleyTable.from_json(json.dumps(doc)).identity == 0


def test_cayley_json_refuses_a_generator_listed_with_two_columns():
    # a listed twice: its first column says a a = a, its second a a = 1
    doc = {"size": 2, "gens": [1, 1], "nf": [[], [0]], "table": [[1, 1], [1, 0]]}
    with pytest.raises(ValueError, match="table columns disagree with the product"):
        CayleyTable.from_json(json.dumps(doc))
    doc["table"][1] = [1, 1]
    assert CayleyTable.from_json(json.dumps(doc)).mul(1, 1) == 1


def test_cayley_json_round_trip():
    t = ptrans_table("T", 2)
    back = CayleyTable.from_json(t.to_json())
    assert back.size == t.size and back.right == t.right and back.nf == t.nf
    assert back.identity == t.identity
    assert back.to_json() == t.to_json()
    for a in range(t.size):
        for b in range(t.size):
            assert back.mul(a, b) == t.mul(a, b)


def test_cayley_json_loads_ids_in_any_order():
    # T3 with its ids reversed puts every parent after its children; the
    # table is just as valid, and its full and left tables must agree
    t = ptrans_table("T", 3)
    n = t.size
    d = json.loads(t.to_json())

    def rev(e):
        return n - 1 - e

    relabelled = {"size": n, "gens": [rev(g) for g in d["gens"]],
                  "table": [[rev(x) for x in d["table"][rev(e)]] for e in range(n)],
                  "nf": [d["nf"][rev(e)] for e in range(n)]}
    back = CayleyTable.from_json(json.dumps(relabelled))
    assert back.identity == rev(t.identity)
    full, left = back.full_table(), back.left_by_gen()
    t_left = t.left_by_gen()
    for a in range(n):
        assert [full[rev(a)][rev(b)] for b in range(n)] == \
            [rev(t.mul(a, b)) for b in range(n)]
        assert left[rev(a)] == [rev(x) for x in t_left[a]]


def test_cayley_json_is_validated():
    good = {"size": 3, "gens": [0, 1, 2], "nf": [[0], [1], [2]],
            "table": [[max(a, b) for b in range(3)] for a in range(3)]}
    assert CayleyTable.from_json(json.dumps(good)).size == 3
    bad = [
        {"table": [[7, 1, 2], [1, 1, 2], [2, 2, 2]]},           # entry out of range
        {"gens": [0, 1, 3]},                                    # generator id
        {"nf": [[1], [1], [2]]},                                # word of another element
        {"nf": [[0], [1], [0, 1, 1]]},                          # prefix has no element
        {"table": [[(a + 2 * b) % 3 for b in range(3)]          # not associative
                   for a in range(3)]},
    ]
    for change in bad:
        with pytest.raises(ValueError):
            CayleyTable.from_json(json.dumps({**good, **change}))


def test_ids_one_past_the_end_are_refused():
    # a letter equal to the alphabet size, and a table entry or generator id
    # equal to the table size, each name nothing
    with pytest.raises(ValueError, match="escapes the alphabet"):
        Presentation.make(["a", "b"], [((0, 2), (1,))])
    good = {"size": 3, "gens": [0, 1, 2], "nf": [[0], [1], [2]],
            "table": [[max(a, b) for b in range(3)] for a in range(3)]}
    for change, reason in [({"table": [[0, 1, 2], [1, 1, 2], [2, 2, 3]]}, "table entries"),
                           ({"gens": [0, 1, 3], "nf": [[0], [1], [0, 1]]}, "generator ids")]:
        with pytest.raises(ValueError, match=reason):
            CayleyTable.from_json(json.dumps({**good, **change}))


def test_table_from_elements_needs_exactly_the_given_elements():
    # max over {0, 2} closes to two elements, as many as [0, 1] has
    with pytest.raises(ValueError):
        table_from_elements([0, 1], max, gens=[0, 2])
    with pytest.raises(ValueError):
        subtable(ptrans_table("G", 3), [0, 1], gens=[0, 2])
    t = table_from_elements([0, 1, 2], max, gens=[0, 2, 1])
    assert t.index == {0: 0, 2: 1, 1: 2} and t.identity == 0


def test_subtable_of_units():
    t = ptrans_table("PT", 2)
    units = [i for i, w in enumerate(t.elements) if w.is_bijection()]
    sub, old2new = subtable(t, units)
    assert sub.size == 2 and sub.identity is not None


def test_table_presentation_roundtrip(c3):
    p, elems = table_presentation(c3)
    gm = elems
    rep = verify_presentation(p, c3, gm)
    assert rep.ok and rep.isomorphic


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3))
def test_random_transformation_closures_match_oracle(seeds):
    gens = [all_total_maps(2)[i % 4] for i in seeds]
    t = closure_from_generators(gens, ptrans.compose)
    assert set(t.elements) == brute_closure(gens, ptrans.compose)
    assert t.index == {w: i for i, w in enumerate(t.elements)}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 26), min_size=1, max_size=6))
def test_greedy_generators_match_oracle(picks):
    # the kept candidates are an ordered sublist generating what all the
    # candidates generate, and none is generated by those kept before it
    maps = all_total_maps(3)
    cands = [maps[i] for i in picks]
    kept = greedy_generators(cands, ptrans.compose)
    it = iter(cands)
    assert all(any(g == c for c in it) for g in kept)
    assert brute_closure(kept, ptrans.compose) == brute_closure(cands, ptrans.compose)
    for i, g in enumerate(kept):
        assert g not in (brute_closure(kept[:i], ptrans.compose) if i else set())


def _assert_same_fields(got, want):
    for name in TABLE_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_pruning_closure_is_the_closure_of_its_plain_greedy_choice(data):
    # a candidate is kept iff the right orbit of those kept before it lacks
    # it (the identity hint is held from the start), and the pruned table is
    # field for field the table of the kept list
    kind, n = data.draw(st.sampled_from([("T", 2), ("PT", 2), ("I", 3), ("T", 3)]))
    elems = ptrans.family(kind, n)
    cands = data.draw(st.lists(st.sampled_from(elems), min_size=1, max_size=8))
    hint = data.draw(st.sampled_from([None, ptrans.identity(n)]))
    kept = plain_greedy([c for c in cands if c != hint], ptrans.compose) or [hint]
    _assert_same_fields(closure_from_generators(cands, ptrans.compose, hint, prune=True),
                        plain_closure(kept, ptrans.compose, hint))
    # a fixed list is taken whole, repeats and redundant generators included
    _assert_same_fields(closure_from_generators(cands, ptrans.compose, hint),
                        plain_closure(cands, ptrans.compose, hint))


def test_a_redundant_standard_list_is_kept_whole():
    # T's standard list is redundant, eps(2,1) = tau eps(1,2) tau, and a
    # fixed list keeps it whole, a repeated generator too
    gens = ptrans.family_gens("T", 3)
    assert len(greedy_generators(gens, ptrans.compose)) < len(gens)
    gens = gens + gens[:1]
    t = closure_from_generators(gens, ptrans.compose, ptrans.identity(3))
    assert len(t.gens) == len(gens) and t.size == 27
    _assert_same_fields(t, plain_closure(gens, ptrans.compose, ptrans.identity(3)))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 26), min_size=1, max_size=3))
def test_enumeration_cross_validates_against_closure(picks):
    # two independent paths to the same monoid: close random degree-3 maps
    # under composition, then enumerate the multiplication-table
    # presentation of the result and demand an isomorphism
    maps = all_total_maps(3)
    gens = [maps[i] for i in picks]
    t = closure_from_generators(gens, ptrans.compose,
                                identity_hint=ptrans.identity(3))
    p, elems = table_presentation(t)
    rep = verify_presentation(p, t, elems)
    assert rep.ok and rep.isomorphic


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 26), min_size=1, max_size=2),
       st.integers(0, 10 ** 6))
def test_weakened_presentations_never_undershoot(picks, drop_seed):
    # dropping a relation can only enlarge the presented monoid (or leave
    # it infinite); enumeration must never produce fewer elements
    maps = all_total_maps(3)
    gens = [maps[i] for i in picks]
    t = closure_from_generators(gens, ptrans.compose,
                                identity_hint=ptrans.identity(3))
    p, elems = table_presentation(t)
    if not p.relations:
        return
    keep = list(p.relations)
    del keep[drop_seed % len(keep)]
    weakened = Presentation.make(p.alphabet, keep, "monoid")
    try:
        smaller = enumerate_presentation(weakened, 8 * t.size + 16,
                                         node_cap=4000)
        assert smaller.size >= t.size
    except BoundExceeded as e:
        assert e.undecided or (e.size or t.size) >= t.size


@st.composite
def small_presentations(draw):
    nl = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["monoid", "semigroup"]))
    word = st.lists(st.integers(0, nl - 1), min_size=kind == "semigroup", max_size=4)
    rels = draw(st.lists(st.tuples(word, word), min_size=1, max_size=4))
    return Presentation.make([f"a{k}" for k in range(nl)], rels, kind)


@settings(max_examples=150, deadline=None)
@given(small_presentations(), st.integers(1, 64), st.integers(20, 2000))
def test_enumeration_matches_the_merge_every_coincidence_oracle(p, bound, cap):
    # node for node: the same table and node count, or the same refusal
    try:
        want, nodes = naive_enumerate(p, cap)
    except BoundExceeded as e:
        want, nodes = None, e.nodes
    stats: dict = {}
    try:
        t = enumerate_presentation(p, bound, node_cap=cap, stats=stats)
    except BoundExceeded as e:
        size = None if want is None else want.size
        assert (e.undecided, e.size, e.nodes) == (want is None, size, nodes)
        assert size is None or size > bound
        return
    assert want is not None
    assert (t.right, t.nf, t.gens, t.identity, stats["nodes"]) == \
        (want.right, want.nf, want.gens, want.identity, nodes)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 26), min_size=1, max_size=3), st.data())
def test_right_orbit_matches_the_fixpoint_and_gives_shortlex_words(picks, data):
    # the closure of 1-3 maps of T_3, with drawn seeds and generators
    from actionpairs.fmonoid import right_orbit
    maps = all_total_maps(3)
    t = closure_from_generators([maps[i] for i in picks], ptrans.compose)
    ids = st.integers(0, t.size - 1)
    gens = data.draw(st.lists(ids, min_size=1, max_size=3))
    seeds = data.draw(st.lists(ids, max_size=3))

    def successors(x):
        return [t.mul(x, g) for g in gens]

    want = set(seeds)
    while True:
        more = {t.mul(x, g) for x in want for g in gens} - want
        if not more:
            break
        want |= more
    assert set(right_orbit(seeds, successors)) == want

    # words: the identity (when present and drawn) gets the empty word,
    # generator k the word (k,)
    ident = t.identity if data.draw(st.booleans()) else None
    lead = [] if ident is None else [ident]
    found = right_orbit(lead + gens, successors,
                        [((), None)] * len(lead) +
                        [((k,), None) for k in range(len(gens))])

    def evaluate(word):
        x = ident if not word else gens[word[0]]
        for k in word[1:]:
            x = t.mul(x, gens[k])
        return x

    lengths = [len(w) for w, _ in found.values()]
    assert lengths == sorted(lengths)
    for x, (word, parent) in found.items():
        assert evaluate(word) == x
        if parent is not None:
            p, k = parent
            assert successors(p)[k] == x and found[p][0] + (k,) == word
    least = {} if ident is None else {ident: ()}
    layer = [()]
    for _ in range(max(lengths)):
        layer = [w + (k,) for w in layer for k in range(len(gens))]
        for w in layer:
            least.setdefault(evaluate(w), w)
    assert {x: word for x, (word, _) in found.items()} == least


@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (4, 0), (0, 4)])
def test_congruence_closure_refuses_pairs_outside_the_table(pair):
    # E2 has the ids 0..3: an id one past either end is refused up front
    t = ptrans_table("E", 2)
    with pytest.raises(ValueError, match="out of range"):
        congruence_closure(t, [pair], "two_sided")
