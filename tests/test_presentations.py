"""Presentation bundle tests: catalogue families, pair-based builders, and
the structural cross-checks between them."""

import functools

import pytest
from conftest import catalogue_letters

from actionpairs import actionpair as ap
from actionpairs import presentations as pr
from actionpairs import ptrans, registry, wreath
from actionpairs.actionpair import HypothesisFailed
from actionpairs.fmonoid import Presentation, verify_presentation
from actionpairs.registry import ambient_wreath, make_pair, monoid_table


def _amb_index(amb):
    return {w: i for i, w in enumerate(amb.elements)}


def embed(amb, pm):
    base = amb.elements[0].tup.base
    return _amb_index(amb)[wreath.embed_pmap(base, pm)]


# --- catalogue families ---------------------------------------------------------------

@pytest.mark.parametrize("fam,n,nodes", [("Gn", 3, 13), ("Tn", 3, 207)])
def test_enumeration_node_counts(fam, n, nodes):
    # node counts of the HLT construction; a change here changes which
    # inputs exhaust their budget
    rep = pr.build_catalog(fam, n=n).verify()
    assert rep.ok and rep.nodes == nodes
    assert rep.node_budget == 60 * (4 * rep.expected_size + 16) + 1000


@pytest.mark.parametrize("fam,base,n,drop,nodes", [
    ("Tn", None, 4, None, 2835), ("MwrSingPTn", "c2", 3, None, 9959),
    ("MwrPTn", "c3", 3, None, 15497), ("Tn", None, 4, 22, 2842),
    ("MwrTn", "c2", 3, None, 2083), ("MwrGn", "c2", 3, None, 241),
    ("MwrIn", "c2", 3, None, 1125),
])
def test_large_enumeration_node_counts(fam, base, n, drop, nodes):
    # the same counts on inputs whose coincidences mostly join a fresh node;
    # Tn(4) still closes at its size with relation 22 dropped
    kw = {"n": n} if base is None else {"n": n, "base": monoid_table(base)}
    b = pr.build_catalog(fam, **kw)
    rels = [r for j, r in enumerate(b.pres.relations) if j != drop]
    pres = Presentation.make(b.pres.alphabet, rels, b.pres.kind)
    rep = verify_presentation(pres, b.target, b.gen_map)
    assert rep.ok and rep.nodes == nodes


@pytest.mark.parametrize("fam,kw,size", [
    ("En", dict(n=1), 2), ("En", dict(n=4), 16),
    ("Gn", dict(n=2), 2), ("Gn", dict(n=3), 6),
    ("Tn", dict(n=2), 4), ("Tn", dict(n=3), 27),
])
def test_transformation_bundles(fam, kw, size):
    b = pr.build_catalog(fam, **kw)
    rep = b.verify()
    assert b.target.size == size and rep.ok and rep.isomorphic


@pytest.mark.parametrize("fam,base,n,size", [
    ("Mn", "c2", 2, 4), ("Mn", "sl2", 3, 8), ("Mn", "c3", 2, 9),
    ("M0n", "c2", 2, 9), ("M0n", "sl2", 2, 9), ("M0n", "c1", 3, 8),
])
def test_tuple_bundles(fam, base, n, size):
    b = pr.build_catalog(fam, base=monoid_table(base), n=n)
    rep = b.verify()
    assert b.target.size == size and rep.ok and rep.isomorphic


@pytest.mark.parametrize("fam,base,n", [
    ("MwrSingTn", "c1", 2), ("MwrSingTn", "c2", 2), ("MwrSingTn", "sl2", 2),
    ("MwrSingPTn", "c2", 2), ("MwrSingPTn", "c1", 3),
    ("MwrPTn", "c2", 2), ("MwrPTn", "c3", 2),
    ("MwrGn", "c2", 2), ("MwrGn", "c3", 2),
    ("MwrTn", "c2", 2), ("MwrTn", "sl2", 2),
    ("MwrIn", "c2", 2), ("MwrIn", "c3", 2),
])
def test_wreath_bundles(fam, base, n):
    M = monoid_table(base)
    b = pr.build_catalog(fam, base=M, n=n)
    rep = b.verify()
    kind = fam[3:-1]
    assert b.target.size == wreath.wreath_size(M.size, kind, n)
    assert rep.ok and rep.isomorphic


def test_singular_wreath_at_degree_four():
    # the first degree with two disjoint letters e_ij, e_kl, whose
    # commuting relations no smaller degree has
    b = pr.build_catalog("MwrSingTn", base=monoid_table("c1"), n=4)
    rep = b.verify()
    assert b.target.size == wreath.wreath_size(1, "SingT", 4) == 232
    assert rep.ok and rep.isomorphic


def test_letter_and_relation_counts():
    # regression pins, frozen at first computation
    b = pr.build_catalog("MwrSingTn", base=monoid_table("c2"), n=3)
    assert len(b.pres.alphabet) == 24
    assert len(b.pres.relations) == 486
    b2 = pr.build_catalog("MwrPTn", base=monoid_table("c2"), n=3)
    assert len(b2.pres.alphabet) == 12
    assert len(b2.pres.relations) == 92
    b3 = pr.build_catalog("En", n=5)
    assert len(b3.pres.alphabet) == 5
    assert len(b3.pres.relations) == 5 + 10


def test_specialization_to_plain_partial_maps():
    # deleting the coordinate letters from the wreath presentation over a
    # nontrivial base leaves letter-for-letter the trivial-base bundle
    c2b = pr.build_catalog("MwrPTn", base=monoid_table("c2"), n=2)
    c1b = pr.build_catalog("MwrPTn", base=monoid_table("c1"), n=2)
    xletters = [a for a in c2b.pres.alphabet if a.startswith("x0^")]
    assert pr.delete_letters(c2b.pres, xletters) == c1b.pres


def test_suba_bundles():
    from actionpairs.indalg import builtin_algebra
    fl = builtin_algebra("fl93")
    b = pr.build_catalog("SubA", algebra=fl)
    rep = b.verify()
    assert not b.expected_verify
    assert rep.presented_size == 15 and b.target.size == 12 and not rep.ok
    assert rep.relations_hold and rep.surjective and rep.size_match is False

    b2 = pr.build_catalog("SubA_enlarged", algebra=fl)
    rep2 = b2.verify()
    assert rep2.ok and rep2.presented_size == 12

    for name in ("set3", "gf2_2"):
        alg = builtin_algebra(name)
        rep3 = pr.build_catalog("SubA", algebra=alg).verify()
        assert rep3.ok


def test_truncation_bundles():
    for L in (2, 3):
        px = pr.build_catalog("PX_truncated", alphabet="xy", length=L)
        lx = pr.build_catalog("LX_truncated", alphabet="xy", length=L)
        assert px.target is None and lx.target is None
        assert pr.lrm_model_check(px)
        assert pr.lrm_model_check(lx)
    # a corrupted relation is caught by the model
    lx = pr.build_catalog("LX_truncated", alphabet="x", length=2)
    bad = Presentation.make(lx.pres.alphabet,
                            list(lx.pres.relations) + [((0,), (1,))], "monoid")
    broken = pr.PresentationBundle(bad, None, None, "broken", notes=lx.notes)
    assert not pr.lrm_model_check(broken)


def test_unknown_family():
    with pytest.raises(KeyError):
        pr.build_catalog("nope")


@pytest.mark.parametrize("fam,kw", [("En", {}), ("Tn", {}),
                                    ("Mn", {"base": "c2"}),
                                    ("MwrPTn", {"base": "c1"})])
def test_missing_degree_names_the_family(fam, kw):
    kw = {k: monoid_table(v) for k, v in kw.items()}
    with pytest.raises(ValueError, match=f"{fam} needs a degree n"):
        pr.build_catalog(fam, **kw)


@pytest.mark.parametrize("fam,kw", [("En", {}), ("Mn", {"base": "c2"})])
def test_families_at_degree_zero(fam, kw):
    # degree 0 is a valid degree: the one-element monoid on the empty set
    b = pr.build_catalog(fam, n=0, **{k: monoid_table(v) for k, v in kw.items()})
    rep = b.verify()
    assert b.target.size == 1 and rep.ok and rep.isomorphic


# --- pair-based builders -----------------------------------------------------------------

def test_lavers_wreath_of_groups():
    amb = ambient_wreath("c2", 2)
    ctx = make_pair(amb, "Mn", "G", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    base = amb.elements[0].tup.base
    idx = _amb_index(amb)
    mb = pr.build_catalog("Mn", base=monoid_table("c2"), n=2)
    gb = pr.build_catalog("Gn", n=2)
    pu = pr.LetteredSubset(mb.pres, tuple(
        idx[wreath.embed_tuple(wreath.unit_tuple(base, 2, i, 1))] for i in (1, 2)))
    ps = pr.LetteredSubset(gb.pres, (embed(amb, ptrans.tau(1, 2, 2)),))
    b = pr.lavers(ctx, act, pu, ps)
    rep2 = b.verify()
    assert b.target.size == 8 and rep2.ok and rep2.isomorphic


def test_lavers_trivial_acting_monoid():
    amb = ambient_wreath("c2", 2)
    ctx0 = ap.AmbientContext(amb, registry.subset_ids(amb, "Mn", 2),
                             frozenset({amb.identity}),
                             {amb.identity: amb.identity}, name="trivial-S")
    rep, act = ap.check_pair_from_plus(ctx0)
    base = amb.elements[0].tup.base
    idx = _amb_index(amb)
    mb = pr.build_catalog("Mn", base=monoid_table("c2"), n=2)
    pu = pr.LetteredSubset(mb.pres, tuple(
        idx[wreath.embed_tuple(wreath.unit_tuple(base, 2, i, 1))] for i in (1, 2)))
    ps = pr.LetteredSubset(Presentation.make([], [], "monoid"), ())
    b = pr.lavers(ctx0, act, pu, ps)
    assert b.target.size == 4
    assert b.pres.relations == mb.pres.relations
    assert b.verify().ok


def test_lavers_rejects_non_monoid_action():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "M0n", "PT", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    eb = pr.build_catalog("En", n=2)
    pu = pr.LetteredSubset(eb.pres, tuple(
        embed(amb, ptrans.id_on({1, 2} - {i}, 2)) for i in (1, 2)))
    ps = pr.LetteredSubset(Presentation.make([], [], "monoid"), ())
    with pytest.raises(HypothesisFailed):
        pr.lavers(ctx, act, pu, ps)


def _pt2_letter_data(amb):
    eb = pr.build_catalog("En", n=2)
    ptb = pr.build_catalog("MwrPTn", base=monoid_table("c1"), n=2)
    pu = pr.LetteredSubset(eb.pres, tuple(
        embed(amb, ptrans.id_on({1, 2} - {i}, 2)) for i in (1, 2)))
    ps = pr.LetteredSubset(ptb.pres, tuple(
        embed(amb, pm) for pm in
        [ptrans.id_on({2}, 2), ptrans.id_on({1}, 2), ptrans.tau(1, 2, 2),
         ptrans.eps(1, 2, 2), ptrans.eps(2, 1, 2)]))
    return pu, ps


def test_local_monoid_bundle():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "M0n", "PT", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    pu, ps = _pt2_letter_data(amb)
    b = pr.local_monoid_pres(ctx, act, pu, ps)
    assert b.target.size == 25
    assert b.verify().ok


def test_pair_presentation_strong_with_explicit_omega():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "E", "T", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    sd = ap.semidirect(ctx, act)
    th = ap.theta_and_friends(ctx, act, sd)
    pairs = [(c[0], i) for c in th.theta.classes() for i in c[1:]]
    eb = pr.build_catalog("En", n=2)
    tb = pr.build_catalog("Tn", n=2)
    pu = pr.LetteredSubset(eb.pres, tuple(
        embed(amb, ptrans.id_on({1, 2} - {i}, 2)) for i in (1, 2)))
    ps = pr.LetteredSubset(tb.pres, tuple(
        embed(amb, pm) for pm in
        [ptrans.tau(1, 2, 2), ptrans.eps(1, 2, 2), ptrans.eps(2, 1, 2)]))
    b = pr.general_pair_pres("product_monoid_strong", ctx, act, pu, ps,
                             omega_pairs=pairs)
    rep2 = b.verify()
    assert b.target.size == 9 and rep2.ok and rep2.isomorphic


def test_pair_presentation_reduced_letters():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "E", "T", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    eb = pr.build_catalog("En", n=2)
    tb = pr.build_catalog("Tn", n=2)
    pu = pr.LetteredSubset(eb.pres, tuple(
        embed(amb, ptrans.id_on({1, 2} - {i}, 2)) for i in (1, 2)))
    ps = pr.LetteredSubset(tb.pres, tuple(
        embed(amb, pm) for pm in
        [ptrans.tau(1, 2, 2), ptrans.eps(1, 2, 2), ptrans.eps(2, 1, 2)]))
    b = pr.general_pair_pres("product_monoid_reduced_letters", ctx, act, pu, ps)
    assert b.target.size == 9 and b.verify().ok


def test_pair_presentation_non_strong():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "M0n", "PT", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    pu, ps = _pt2_letter_data(amb)
    b = pr.general_pair_pres("product_monoid", ctx, act,
                             pr.LetteredSubset(pr.build_catalog("En", n=2).pres,
                                               pu.images), ps)
    assert b.target.size == 9 and b.verify().ok
    # projection-prefix relations are present because the pair is not strong
    names = b.pres.alphabet
    single_letter_lhs = [u for u, v in b.pres.relations if len(v) == 1]
    assert single_letter_lhs


def test_pair_presentation_semigroup():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "E", "SingT", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    singE = Presentation.make(
        ["t1", "t2"], [((0, 0), (0,)), ((1, 1), (1,)), ((0, 1), (1, 0))],
        "semigroup")
    pu = pr.LetteredSubset(singE, tuple(
        embed(amb, ptrans.id_on({1, 2} - {i}, 2)) for i in (1, 2)))
    sb = pr.build_catalog("MwrSingTn", base=monoid_table("c1"), n=2)
    ps = pr.LetteredSubset(sb.pres, tuple(
        embed(amb, ptrans.eps(i, j, 2)) for (i, j) in [(1, 2), (2, 1)]))
    b = pr.general_pair_pres("product_semigroup", ctx, act, pu, ps)
    assert b.pres.kind == "semigroup"
    assert b.target.size == 7 and b.verify().ok
    b2 = pr.general_pair_pres("product_semigroup_reduced_letters",
                              ctx, act, pu, ps)
    assert b2.target.size == 7 and b2.verify().ok


def test_pair_presentation_reduced_family():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "E", "T", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    eb = pr.build_catalog("En", n=2)
    tb = pr.build_catalog("Tn", n=2)
    v1 = embed(amb, ptrans.id_on({2}, 2))
    v2 = embed(amb, ptrans.id_on({1}, 2))
    pu = pr.LetteredSubset(eb.pres, (v1, v2))
    ps = pr.LetteredSubset(tb.pres, tuple(
        embed(amb, pm) for pm in
        [ptrans.tau(1, 2, 2), ptrans.eps(1, 2, 2), ptrans.eps(2, 1, 2)]))
    b = pr.general_pair_pres("product_monoid_reduced_family", ctx, act, pu, ps,
                             v_subset=[v1, v2])
    assert b.target.size == 9 and b.verify().ok
    # an insufficient family is rejected
    with pytest.raises(HypothesisFailed):
        pr.general_pair_pres("product_monoid_reduced_family", ctx, act, pu, ps,
                             v_subset=[v1])


def test_pair_presentation_semigroup_reduced_family():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "E", "SingT", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    singE = Presentation.make(
        ["t1", "t2"], [((0, 0), (0,)), ((1, 1), (1,)), ((0, 1), (1, 0))],
        "semigroup")
    v1 = embed(amb, ptrans.id_on({2}, 2))
    v2 = embed(amb, ptrans.id_on({1}, 2))
    pu = pr.LetteredSubset(singE, (v1, v2))
    sb = pr.build_catalog("MwrSingTn", base=monoid_table("c1"), n=2)
    ps = pr.LetteredSubset(sb.pres, tuple(
        embed(amb, ptrans.eps(i, j, 2)) for (i, j) in [(1, 2), (2, 1)]))
    b = pr.general_pair_pres("product_semigroup_reduced_family", ctx, act,
                             pu, ps, v_subset=[v1, v2])
    assert b.target.size == 7 and b.verify().ok


def test_pair_presentation_via_local_quotient():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "M0n", "PT", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    pu, ps = _pt2_letter_data(amb)
    sd = ap.semidirect(ctx, act)
    carrier = sorted(sd.mm)
    fibres = {}
    pairs = []
    for i in carrier:
        u, s = sd.table.elements[i]
        v = amb.mul(u, s)
        if v in fibres:
            pairs.append((fibres[v], i))
        else:
            fibres[v] = i
    b = pr.general_pair_pres("product_monoid_via_local", ctx, act, pu, ps,
                             omega_pairs=pairs)
    assert b.target.size == 9 and b.verify().ok
    # the local monoid has 25 elements over 9 products, so its kernel needs
    # 16 pairs, and no pairs generate only the equality
    assert len(carrier) == 25 and len(pairs) == 16
    with pytest.raises(HypothesisFailed,
                       match="^the supplied pairs do not generate the local kernel$"):
        pr.general_pair_pres("product_monoid_via_local", ctx, act, pu, ps,
                             omega_pairs=[])


def test_pair_presentation_via_local_refuses_pairs_outside_the_local_monoid():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "M0n", "PT", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    pu, ps = _pt2_letter_data(amb)
    sd = ap.semidirect(ctx, act)
    # id 3 is (0, 4): in the 36-element table, outside the local monoid
    assert 3 not in sd.mm and sd.table.size == 36
    for pairs in ([(3, 0)], [(0, sd.table.size)]):
        with pytest.raises(HypothesisFailed,
                           match="^congruence data lies outside the local monoid$"):
            pr.general_pair_pres("product_monoid_via_local", ctx, act, pu, ps,
                                 omega_pairs=pairs)


def test_pair_presentation_hypothesis_failures():
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "E", "SingT", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    eb = pr.build_catalog("En", n=2)
    pu = pr.LetteredSubset(eb.pres, tuple(
        embed(amb, ptrans.id_on({1, 2} - {i}, 2)) for i in (1, 2)))
    sb = pr.build_catalog("MwrSingTn", base=monoid_table("c1"), n=2)
    ps = pr.LetteredSubset(sb.pres, tuple(
        embed(amb, ptrans.eps(i, j, 2)) for (i, j) in [(1, 2), (2, 1)]))
    with pytest.raises(HypothesisFailed):
        # S is not a submonoid, so the monoid variant must refuse
        pr.general_pair_pres("product_monoid", ctx, act, pu, ps)


def _one_letter_per_element(ctx, ids):
    """A relation-free lettering: one letter per non-identity element."""
    ids = sorted(set(ids) - {ctx.identity})
    return pr.LetteredSubset(
        Presentation.make([f"x{i}" for i in ids], [], "monoid"), tuple(ids))


def test_pair_presentation_rejects_failed_letter_reductions():
    amb = ambient_wreath("c1", 2)
    # (E, G): theta at the empty map is not the join of the theta of two
    # partial identities whose product it is
    ctx = make_pair(amb, "E", "G", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    assert rep.action
    with pytest.raises(HypothesisFailed, match="^pairwise join reduction fails$"):
        pr.general_pair_pres("product_monoid_reduced_letters", ctx, act,
                             _one_letter_per_element(ctx, ctx.u_set),
                             _one_letter_per_element(ctx, ctx.s_set))
    # T2 under the trivial acting monoid: U is not commutative
    ctx = ap.AmbientContext(amb, registry.subset_ids(amb, "pmap:T", 2),
                            frozenset({amb.identity}),
                            {amb.identity: amb.identity}, name="(T2,1)")
    rep, act = ap.check_pair_from_plus(ctx)
    assert rep.strong
    with pytest.raises(HypothesisFailed,
                       match="^U must be commutative for the letter reduction$"):
        pr.general_pair_pres("product_monoid_reduced_letters", ctx, act,
                             _one_letter_per_element(ctx, ctx.u_set),
                             _one_letter_per_element(ctx, ctx.s_set))


@pytest.mark.parametrize("kind,u_kind,s_kind", [("product_monoid", "E", "T"),
                                                ("product_semigroup", "E", "SingT")])
def test_pair_presentation_rejects_congruence_data_missing_a_class(kind, u_kind,
                                                                    s_kind):
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, u_kind, s_kind, 2)
    rep, act = ap.check_pair_from_plus(ctx)
    pu = _one_letter_per_element(ctx, ctx.u_set)
    ps = _one_letter_per_element(ctx, ctx.s_set)
    # theta_u on S (on S1 for the semigroup variants): us = ut
    monoid_case = kind == "product_monoid"
    members = ctx.s_list() if monoid_case else ctx.s1()
    full = {}
    for u in ctx.u_list():
        if monoid_case or u != ctx.identity:
            fibres = {}
            for s in members:
                fibres.setdefault(amb.mul(u, s), []).append(s)
            full[u] = [(c[0], s) for c in fibres.values() for s in c[1:]]
    assert pr.general_pair_pres(kind, ctx, act, pu, ps, omega_u=full)
    # no pairs at the least u whose theta_u has a class of two or more
    u = min(u for u, pairs in full.items() if pairs)
    missing = {**full, u: []}
    with pytest.raises(HypothesisFailed,
                       match=f"^congruence data does not generate at {u}$"):
        pr.general_pair_pres(kind, ctx, act, pu, ps, omega_u=missing)


def test_sd_letters_bundle():
    amb = ambient_wreath("c1", 2)
    ctx = ap.AmbientContext(
        amb, registry.subset_ids(amb, "SingE", 2),
        registry.subset_ids(amb, "pmap:G", 2),
        {s: registry.ambient_plus_map(amb)[s]
         for s in registry.subset_ids(amb, "pmap:G", 2)},
        name="(SingE2,G2)")
    rep, act = ap.check_pair_from_plus(ctx)
    singE = Presentation.make(
        ["t1", "t2"], [((0, 0), (0,)), ((1, 1), (1,)), ((0, 1), (1, 0))],
        "semigroup")
    pu = pr.LetteredSubset(singE, tuple(
        embed(amb, ptrans.id_on({1, 2} - {i}, 2)) for i in (1, 2)))
    b = pr.us_sd_pres(ctx, act, pu)
    assert len(b.pres.alphabet) == 2 * 2
    assert b.target.size == 6 and b.verify().ok


@pytest.mark.parametrize("kind,s_kind,outside,names", [
    ("product_monoid", "T", "omega_u", "S"),
    ("product_semigroup", "SingT", "omega_u", r"S\^1"),
    ("product_monoid_reduced_family", "T", "v_subset", "U"),
    ("product_semigroup_reduced_family", "SingT", "v_subset", "U"),
])
def test_pair_presentation_rejects_data_outside_the_pair(kind, s_kind, outside,
                                                         names):
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "E", s_kind, 2)
    rep, act = ap.check_pair_from_plus(ctx)
    pu = _one_letter_per_element(ctx, ctx.u_set)
    ps = _one_letter_per_element(ctx, ctx.s_set)
    v1 = embed(amb, ptrans.id_on({2}, 2))
    tau = embed(amb, ptrans.tau(1, 2, 2))       # in neither U nor S^1
    kw = {"v_subset": [v1, embed(amb, ptrans.id_on({1}, 2))]} \
        if "reduced" in kind else {}
    if outside == "omega_u":
        # a partial identity lies outside T, a transposition outside S^1
        x = v1 if s_kind == "T" else tau
        kw["omega_u"] = {v1: [(x, ctx.identity)]}
    else:
        kw["v_subset"] = [v1, tau]
    with pytest.raises(HypothesisFailed, match=f" {names}$"):
        pr.general_pair_pres(kind, ctx, act, pu, ps, **kw)


def test_pair_presentations_build_each_stage_result_once(monkeypatch):
    counts = {"SemidirectResult": 0, "ThetaResult": 0}
    for name in counts:
        init = getattr(ap, name).__init__

        def counting(self, *args, _init=init, _name=name, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(getattr(ap, name), "__init__", counting)
    test_pair_presentation_strong_with_explicit_omega()
    assert counts == {"SemidirectResult": 1, "ThetaResult": 1}
    counts["SemidirectResult"] = 0
    test_pair_presentation_via_local_quotient()
    assert counts["SemidirectResult"] == 1


# --- pair presentations over the catalogue -------------------------------------------

# (base, degree, pair) -> the target size of lavers, local_monoid_pres and the
# eight kinds of PAIR_PRESENTATION_KINDS in order, "-" where HypothesisFailed
PAIR_SWEEP = {
    "c1 2 (E,T)":          "16 16  9  9  9  9  9  -  -  -",
    "c1 2 (SingE,T)":      " -  -  -  -  -  -  -  -  -  -",
    "c1 2 (E,SingT)":      " -  -  -  -  -  -  -  7  7  7",
    "c1 2 (SingE,SingT)":  " -  -  -  -  -  -  -  -  -  -",
    "c1 2 (E,G)":          " 8  8  7  7  7  -  7  -  -  -",
    "c1 2 (SingE,G)":      " -  -  -  -  -  -  -  -  -  -",
    "c1 2 (M0n,PT)":       " - 25  -  9  9  9  9  -  -  -",
    "c1 2 (M0n,I)":        " - 17  -  7  7  7  7  -  -  -",
    "c1 2 (M0n,T)":        "16 16  9  9  9  9  9  -  -  -",
    "c1 2 (M0n,G)":        " 8  8  7  7  7  -  7  -  -  -",
    "c1 2 (Mn,T)":         " 4  4  4  4  4  4  4  -  -  -",
    "c1 2 (Mn,G)":         " 2  2  2  2  2  2  2  -  -  -",
    "c1 2 (M0n,SingPT)":   " -  -  -  -  -  -  -  7  7  7",
    "c1 2 (M0n,SingI)":    " -  -  -  -  -  -  -  5  5  5",
    "c1 2 (M0n,SingT)":    " -  -  -  -  -  -  -  7  7  7",
    "c1 2 (Mn,SingT)":     " -  -  -  -  -  -  -  2  2  2",
    "c2 2 (E,T)":          "64 64 25 25 25 25 25  -  -  -",
    "c2 2 (SingE,T)":      " -  -  -  -  -  -  -  -  -  -",
    "c2 2 (E,SingT)":      " -  -  -  -  -  -  - 17 17 17",
    "c2 2 (SingE,SingT)":  " -  -  -  -  -  -  -  -  -  -",
    "c2 2 (E,G)":          "32 32 17 17 17  - 17  -  -  -",
    "c2 2 (SingE,G)":      " -  -  -  -  -  -  -  -  -  -",
    "c2 2 (M0n,PT)":       " - 49  - 25 25 25 25  -  -  -",
    "c2 2 (M0n,I)":        " - 31  - 17 17 17 17  -  -  -",
    "c2 2 (M0n,T)":        "36 36 25 25 25 25 25  -  -  -",
    "c2 2 (M0n,G)":        "18 18 17 17 17  - 17  -  -  -",
    "c2 2 (Mn,T)":         "16 16 16 16 16 16 16  -  -  -",
    "c2 2 (Mn,G)":         " 8  8  8  8  8  8  8  -  -  -",
    "c2 2 (M0n,SingPT)":   " -  -  -  -  -  -  -  -  -  -",
    "c2 2 (M0n,SingI)":    " -  -  -  -  -  -  -  -  -  -",
    "c2 2 (M0n,SingT)":    " -  -  -  -  -  -  -  -  -  -",
    "c2 2 (Mn,SingT)":     " -  -  -  -  -  -  -  -  -  -",
    "sl2 2 (E,T)":         "64 64 25 25 25 25 25  -  -  -",
    "sl2 2 (SingE,T)":     " -  -  -  -  -  -  -  -  -  -",
    "sl2 2 (E,SingT)":     " -  -  -  -  -  -  - 17 17 17",
    "sl2 2 (SingE,SingT)": " -  -  -  -  -  -  -  -  -  -",
    "sl2 2 (E,G)":         "32 32 17 17 17  - 17  -  -  -",
    "sl2 2 (SingE,G)":     " -  -  -  -  -  -  -  -  -  -",
    "sl2 2 (M0n,PT)":      " - 49  - 25 25 25 25  -  -  -",
    "sl2 2 (M0n,I)":       " - 31  - 17 17 17 17  -  -  -",
    "sl2 2 (M0n,T)":       "36 36 25 25 25 25 25  -  -  -",
    "sl2 2 (M0n,G)":       "18 18 17 17 17  - 17  -  -  -",
    "sl2 2 (Mn,T)":        "16 16 16 16 16 16 16  -  -  -",
    "sl2 2 (Mn,G)":        " 8  8  8  8  8  8  8  -  -  -",
    "sl2 2 (M0n,SingPT)":  " -  -  -  -  -  -  -  -  -  -",
    "sl2 2 (M0n,SingI)":   " -  -  -  -  -  -  -  -  -  -",
    "sl2 2 (M0n,SingT)":   " -  -  -  -  -  -  -  -  -  -",
    "sl2 2 (Mn,SingT)":    " -  -  -  -  -  -  -  -  -  -",
    "c1 3 (E,T)":          "216 216 64 64 64 64 64  -  -  -",
    "c1 3 (SingE,T)":      " -  -  -  -  -  -  -  -  -  -",
    "c1 3 (E,SingT)":      " -  -  -  -  -  -  - 58 58 58",
    "c1 3 (SingE,SingT)":  " -  -  -  -  -  -  -  -  -  -",
    "c1 3 (E,G)":          "48 48 34 34 34  - 34  -  -  -",
    "c1 3 (SingE,G)":      " -  -  -  -  -  -  -  -  -  -",
    "c1 3 (M0n,PT)":       " - 343  - 64 64 64 64  -  -  -",
    "c1 3 (M0n,I)":        " - 139  - 34 34 34 34  -  -  -",
    "c1 3 (M0n,T)":        "216 216 64 64 64 64 64  -  -  -",
    "c1 3 (M0n,G)":        "48 48 34 34 34  - 34  -  -  -",
    "c1 3 (Mn,T)":         "27 27 27 27 27 27 27  -  -  -",
    "c1 3 (Mn,G)":         " 6  6  6  6  6  6  6  -  -  -",
    "c1 3 (M0n,SingPT)":   " -  -  -  -  -  -  - 58 58 58",
    "c1 3 (M0n,SingI)":    " -  -  -  -  -  -  - 28 28 28",
    "c1 3 (M0n,SingT)":    " -  -  -  -  -  -  - 58 58 58",
    "c1 3 (Mn,SingT)":     " -  -  -  -  -  -  - 21 21 21",
}


def _sweep_row(base, n, u_kind, s_kind, rule):
    amb = ambient_wreath(base, n)
    ctx = registry.catalogue_pair(base, n, u_kind, s_kind)
    rep, act = ap.check_pair_from_plus(ctx)
    pu = catalogue_letters(amb, u_kind, n)
    ps = catalogue_letters(amb, s_kind if u_kind in ("E", "SingE") else f"pmap:{s_kind}", n)
    # the catalogue's family V, or the U-letters where it names none
    v = registry.omega_inputs(ctx, act, rule, u_kind, s_kind, n).get(
        "v_subset", list(pu.images))
    calls = [functools.partial(pr.lavers, ctx, act, pu, ps),
             functools.partial(pr.local_monoid_pres, ctx, act, pu, ps)]
    calls += [functools.partial(pr.general_pair_pres, kind, ctx, act, pu, ps, v_subset=v)
              for kind in pr.PAIR_PRESENTATION_KINDS]
    row = []
    for call in calls:
        try:
            b = call()
        except HypothesisFailed:
            row.append(" -")
            continue
        r = b.verify()
        assert r.ok and r.isomorphic, b.provenance
        row.append(f"{b.target.size:2}")
    return " ".join(row)


def test_pair_presentations_over_the_catalogue():
    # every builder on every catalogue pair, with the catalogue's own letters:
    # each call verifies or refuses, and the table pins which
    got = {f"{base} {n} ({spec['u']},{spec['s']})":
           _sweep_row(base, n, spec["u"], spec["s"], spec["rule"])
           for base, n in (("c1", 2), ("c2", 2), ("sl2", 2), ("c1", 3))
           for spec in registry.catalogue_specs(n)}
    assert got == PAIR_SWEEP


def test_semigroup_pair_presentations_refuse_empty_sides_before_any_closure(monkeypatch):
    amb = ambient_wreath("c1", 2)
    ctx = make_pair(amb, "E", "T", 2)
    rep, act = ap.check_pair_from_plus(ctx)
    pu = catalogue_letters(amb, "E", 2)
    ps = catalogue_letters(amb, "pmap:T", 2)       # Tn has s1 s1 = 1

    def closure(*args, **kwargs):
        raise AssertionError("a closure ran")
    for name in ("semidirect", "_element_data_failures", "subtable"):
        monkeypatch.setattr(pr, name, closure)
    for kind in pr.PAIR_PRESENTATION_KINDS[5:]:
        with pytest.raises(HypothesisFailed, match="^pres_s has a relation with an empty side"):
            pr.general_pair_pres(kind, ctx, act, pu, ps, v_subset=pu.images)


# (base, degree, pair) -> the target size of us_sd_pres with the catalogue's
# U-letters, or its refusal: "S" when S is no submonoid, "side" when pres_u
# has a relation with an empty side, "gen" when the U-letters do not generate U
US_SD_SWEEP = {
    "c1 2 (E,T)":          "gen",
    "c1 2 (SingE,T)":      12,
    "c1 2 (E,SingT)":      "S",
    "c1 2 (SingE,SingT)":  "S",
    "c1 2 (E,G)":          "gen",
    "c1 2 (SingE,G)":      6,
    "c1 2 (M0n,PT)":       "gen",
    "c1 2 (M0n,I)":        "gen",
    "c1 2 (M0n,T)":        "gen",
    "c1 2 (M0n,G)":        "gen",
    "c1 2 (Mn,T)":         "gen",
    "c1 2 (Mn,G)":         "gen",
    "c1 2 (M0n,SingPT)":   "S",
    "c1 2 (M0n,SingI)":    "S",
    "c1 2 (M0n,SingT)":    "S",
    "c1 2 (Mn,SingT)":     "S",
    "c2 2 (E,T)":          "gen",
    "c2 2 (SingE,T)":      48,
    "c2 2 (E,SingT)":      "S",
    "c2 2 (SingE,SingT)":  "S",
    "c2 2 (E,G)":          "gen",
    "c2 2 (SingE,G)":      24,
    "c2 2 (M0n,PT)":       "side",
    "c2 2 (M0n,I)":        "side",
    "c2 2 (M0n,T)":        "side",
    "c2 2 (M0n,G)":        "side",
    "c2 2 (Mn,T)":         "side",
    "c2 2 (Mn,G)":         "side",
    "c2 2 (M0n,SingPT)":   "S",
    "c2 2 (M0n,SingI)":    "S",
    "c2 2 (M0n,SingT)":    "S",
    "c2 2 (Mn,SingT)":     "S",
    "sl2 2 (E,T)":         "gen",
    "sl2 2 (SingE,T)":     48,
    "sl2 2 (E,SingT)":     "S",
    "sl2 2 (SingE,SingT)": "S",
    "sl2 2 (E,G)":         "gen",
    "sl2 2 (SingE,G)":     24,
    "sl2 2 (M0n,PT)":      "gen",
    "sl2 2 (M0n,I)":       "gen",
    "sl2 2 (M0n,T)":       "gen",
    "sl2 2 (M0n,G)":       "gen",
    "sl2 2 (Mn,T)":        "gen",
    "sl2 2 (Mn,G)":        "gen",
    "sl2 2 (M0n,SingPT)":  "S",
    "sl2 2 (M0n,SingI)":   "S",
    "sl2 2 (M0n,SingT)":   "S",
    "sl2 2 (Mn,SingT)":    "S",
    "c1 3 (E,T)":          "gen",
    "c1 3 (SingE,T)":      189,
    "c1 3 (E,SingT)":      "S",
    "c1 3 (SingE,SingT)":  "S",
    "c1 3 (E,G)":          "gen",
    "c1 3 (SingE,G)":      42,
    "c1 3 (M0n,PT)":       "gen",
    "c1 3 (M0n,I)":        "gen",
    "c1 3 (M0n,T)":        "gen",
    "c1 3 (M0n,G)":        "gen",
    "c1 3 (Mn,T)":         "gen",
    "c1 3 (Mn,G)":         "gen",
    "c1 3 (M0n,SingPT)":   "S",
    "c1 3 (M0n,SingI)":    "S",
    "c1 3 (M0n,SingT)":    "S",
    "c1 3 (Mn,SingT)":     "S",
}
US_SD_REFUSALS = {
    "S must be a submonoid": "S",
    "pres_u has a relation with an empty side, so it presents no semigroup": "side",
    "the U-letters must generate U as a semigroup": "gen",
}


def test_us_sd_pres_over_the_catalogue():
    # every catalogue pair either verifies or is refused before a bundle is
    # built, and the table pins which
    got = {}
    for base, n in (("c1", 2), ("c2", 2), ("sl2", 2), ("c1", 3)):
        amb = ambient_wreath(base, n)
        for spec in registry.catalogue_specs(n):
            key = f"{base} {n} ({spec['u']},{spec['s']})"
            ctx = registry.catalogue_pair(base, n, spec["u"], spec["s"])
            rep, act = ap.check_pair_from_plus(ctx)
            try:
                b = pr.us_sd_pres(ctx, act, catalogue_letters(amb, spec["u"], n))
            except HypothesisFailed as e:
                got[key] = US_SD_REFUSALS.get(str(e), str(e))
                continue
            r = b.verify()
            assert r.ok and r.isomorphic, key
            got[key] = b.target.size
    assert got == US_SD_SWEEP


def test_us_sd_pres_refuses_empty_sides_before_any_closure(monkeypatch):
    amb = ambient_wreath("c2", 2)
    ctx = registry.catalogue_pair("c2", 2, "Mn", "T")
    rep, act = ap.check_pair_from_plus(ctx)
    pu = catalogue_letters(amb, "Mn", 2)            # Mn over c2 has a a = 1

    def closure(*args, **kwargs):
        raise AssertionError("a closure ran")
    for name in ("semidirect", "right_orbit"):
        monkeypatch.setattr(pr, name, closure)
    with pytest.raises(HypothesisFailed, match="^pres_u has a relation with an empty side"):
        pr.us_sd_pres(ctx, act, pu)
