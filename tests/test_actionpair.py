"""Action pair tests: axioms, classification, semidirect products, the kernel
congruence and its generating rules, special congruences, covers, embeddings."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from actionpairs import actionpair as ap
from actionpairs import ptrans, registry, wreath
from actionpairs.actionpair import (ActionTable, AmbientContext,
                                    NotSubsemigroup, check_pair_from_plus,
                                    check_special_congruence, check_weak_pair,
                                    classify_proper, embed_central, lr_pair,
                                    omega_check, proper_cover,
                                    quotient_matches_product, semidirect,
                                    theta_and_friends)
from actionpairs.fmonoid import CongruencePartition, congruence_closure
from actionpairs.registry import (ambient_plus_map, ambient_wreath,
                                  catalogue_pair, make_pair, ptrans_table,
                                  subset_ids)


def classified(base, n, u, s):
    ctx = catalogue_pair(base, n, u, s)
    rep, act = check_pair_from_plus(ctx)
    classify_proper(ctx, act, rep)
    return ctx, rep, act


# --- axiom checks -----------------------------------------------------------------

def test_e2_t2_strong():
    ctx, rep, act = classified("c1", 2, "E", "T")
    assert rep.action and rep.strong
    assert rep.implication_chain_ok()


def test_e2_pt2_action_not_strong():
    ctx, rep, act = classified("c1", 2, "M0n", "PT")
    assert rep.action and not rep.strong
    # projections are the domain identities, not always the identity
    assert any(ctx.plus[s] != ctx.identity for s in ctx.s_set)


def test_idempotent_unit_pair_in_t2_fails_kernel_condition():
    # inside the full transformation monoid on two points, the idempotent
    # hull against the unit group satisfies compatibility but not the
    # kernel condition: a constant map collapses the two units
    t2 = ptrans_table("T", 2)
    idx = {w: i for i, w in enumerate(t2.elements)}
    alpha, beta = idx[ptrans.constant(1, 2)], idx[ptrans.constant(2, 2)]
    gamma, delta = t2.identity, idx[ptrans.tau(1, 2, 2)]
    ctx = AmbientContext(t2, frozenset({alpha, beta, gamma}),
                         frozenset({gamma, delta}),
                         {gamma: t2.identity, delta: t2.identity},
                         name="idempotents-vs-units")
    rep, act = check_pair_from_plus(ctx)
    assert rep.weak and not rep.action
    kinds = {which for which, _ in rep.failures}
    assert "kernel-condition" in kinds
    # the laws hold, so U x S and theta exist, but every omega rule refuses
    sd = semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    for rule in ap.OMEGA_RULES:
        res = omega_check(ctx, act, sd, th, rule)
        assert not res.hypotheses_ok and res.matches_theta is None
        assert "not an action pair" in res.failures, rule


def test_not_subsemigroup_rejected():
    t2 = ptrans_table("T", 2)
    idx = {w: i for i, w in enumerate(t2.elements)}
    with pytest.raises(NotSubsemigroup):
        AmbientContext(t2, frozenset({idx[ptrans.tau(1, 2, 2)]}),
                       frozenset({t2.identity}), {t2.identity: t2.identity})


def test_disjoint_supports_weak_but_not_action():
    # partial maps supported on {1} against partial identities fixing {1}
    # pointwise: compatibility holds with the constant action on the
    # identity, the kernel condition fails once U has two elements
    pt3 = ptrans_table("PT", 3)
    idx = {w: i for i, w in enumerate(pt3.elements)}
    s_ids = frozenset({idx[ptrans.id_on({1}, 3)], idx[ptrans.empty_map(3)]})
    u_ids = frozenset(idx[ptrans.id_on({1} | set(b), 3)]
                      for b in ([], [2], [3], [2, 3]))
    ctx = AmbientContext(pt3, u_ids, s_ids,
                         {s: pt3.identity for s in s_ids}, name="split-support")
    table = {(s, u): pt3.identity for s in s_ids
             for u in sorted(u_ids | {pt3.identity})}
    act = ActionTable(ctx, table)
    rep = check_weak_pair(ctx, act)
    assert rep.weak and not rep.action
    # the one-element cut of the same pair is an action pair
    small = AmbientContext(pt3, frozenset({pt3.identity}), s_ids,
                           {s: pt3.identity for s in s_ids})
    act2 = ActionTable(small, {(s, u): pt3.identity for s in s_ids
                               for u in small.u1()})
    assert check_weak_pair(small, act2).action


# --- classification ----------------------------------------------------------------

def test_en_tn_sigma_trivial_not_proper():
    for n in (2, 3):
        ctx, rep, act = classified("c1", n, "E", "T")
        assert rep.strong and rep.sigma.is_trivial() and rep.proper is False


def test_e2_pt2_sigma_universal():
    # the empty map is a left zero, so the relation collapses everything
    ctx, rep, act = classified("c1", 2, "M0n", "PT")
    assert len(rep.sigma.classes()) == 1
    assert rep.proper is False


def test_proper_pairs():
    for s in ("T", "G"):
        ctx, rep, act = classified("c2", 2, "Mn", s)
        assert rep.proper and rep.sigma.is_trivial()
        # properness here comes from left-uniqueness, not left density:
        # the projections generate only the identity
        assert rep.p_set == frozenset({ctx.identity})
        assert not rep.left_dense


def test_left_density_of_the_projection_pair():
    amb = ambient_wreath("c1", 2)
    ctx = lr_pair(amb, ambient_plus_map(amb))
    rep, act = check_pair_from_plus(ctx)
    classify_proper(ctx, act, rep)
    assert rep.left_dense          # U equals the projection semilattice


def test_sigma_equational_and_kappa_checks():
    ctx, rep, act = classified("c2", 2, "Mn", "T")
    assert rep.sigma_is_transitive_kappa and rep.sigma_equational_ok
    ctx2, rep2, _ = classified("c1", 2, "E", "G")
    assert rep2.sigma_is_transitive_kappa


def test_w_conditions_for_sing_pairs():
    # the corank-one semilattice against total maps satisfies only the
    # per-element right identity conditions
    ctx, rep, act = classified("c1", 3, "SingE", "T")
    w = rep.w_conditions
    assert w[7] and w[9]
    assert not any(w[i] for i in (0, 2, 3, 4, 5, 6, 8))
    ctx2, rep2, _ = classified("c1", 3, "SingE", "SingT")
    w2 = rep2.w_conditions
    assert w2[1] and w2[7] and w2[9]


def test_strong_pair_disjointness():
    for (u, s) in (("E", "T"), ("Mn", "G"), ("SingE", "SingT")):
        ctx, rep, act = classified("c2", 2, u, s)
        assert rep.disjointness_ok


def test_units_rule():
    # S inside the unit group forces strongness
    ctx, rep, act = classified("c2", 2, "E", "G")
    assert rep.right_unit_rule_ok


# --- semidirect products -------------------------------------------------------------

def test_semidirect_sizes_and_monoid_verdicts():
    ctx, rep, act = classified("c1", 2, "E", "G")
    sd = semidirect(ctx, act)
    assert sd.table.size == 8
    assert sd.is_monoid and sd.monoid_rule_ok and sd.mid_identity_ok

    ctx2, rep2, act2 = classified("c1", 2, "M0n", "PT")
    sd2 = semidirect(ctx2, act2)
    assert sd2.table.size == 36
    assert not sd2.is_monoid and sd2.monoid_rule_ok and sd2.mid_identity_ok
    # the absorbing subsemigroup consists of pairs whose tuple support
    # sits inside the map's domain
    amb = ctx2.m
    for i in sd2.m1:
        u, s = sd2.table.elements[i]
        assert amb.elements[u].pmap.dom() <= amb.elements[s].pmap.dom()
    assert len(sd2.m1) == 25
    assert sd2.m2 == frozenset(range(36))
    assert sd2.mm == sd2.m1
    assert sd2.retraction_ok


def test_semidirect_retraction_of_strong_pair_is_identity():
    ctx, rep, act = classified("c1", 2, "E", "T")
    sd = semidirect(ctx, act)
    assert sd.mm == frozenset(range(sd.table.size))
    assert all(sd.retraction[i] == i for i in range(sd.table.size))


DIFFERENTIAL_PAIRS = [(base, n, spec["u"], spec["s"])
                      for base, n in (("c1", 2), ("c2", 2), ("sl2", 2), ("c1", 3))
                      for spec in registry.catalogue_specs(n)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(DIFFERENTIAL_PAIRS), st.data())
def test_semidirect_table_matches_the_defining_product(pair, data):
    # the table built from the pruned generators against the plain
    # definition (u, s)(v, t) = (u.(s>v), st) on all of U x S
    ctx = catalogue_pair(*pair)
    rep, act = check_pair_from_plus(ctx)
    sd = semidirect(ctx, act)
    m, t = ctx.m, sd.table

    def prod(x, y):
        (u, s), (v, w) = x, y
        return (m.mul(u, act(s, v)), m.mul(s, w))

    els = t.elements
    assert sorted(els) == [(u, s) for u in ctx.u_list() for s in ctx.s_list()]
    for x in range(t.size):
        for k, g in enumerate(t.gens):
            assert els[t.right[x][k]] == prod(els[x], els[g])
    for _ in range(20):
        i = data.draw(st.integers(0, t.size - 1))
        j = data.draw(st.integers(0, t.size - 1))
        assert els[t.mul(i, j)] == prod(els[i], els[j])
    fibres = {}
    for i, (u, s) in enumerate(els):
        fibres.setdefault(m.mul(u, s), set()).add(i)
    th = theta_and_friends(ctx, act, sd)
    assert {frozenset(c) for c in th.theta.classes()} == \
        {frozenset(f) for f in fibres.values()}
    assert t._full is None


def test_semidirect_and_theta_are_stored_on_the_action():
    ctx, rep, act = classified("c1", 2, "M0n", "PT")
    sd = semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    assert act.sd is sd and semidirect(ctx, act) is sd
    assert act.th is th and theta_and_friends(ctx, act, sd) is th
    # a cover carrier is an ambient, so it gets its m x m table
    assert ap.proper_cover(ctx, act).cover_table._full is not None


def test_semidirect_without_units_is_generated_by_few_pairs():
    # S lacks the identity, yet pruning keeps few of the 567 pairs of U x S
    ctx = catalogue_pair("c2", 3, "M0n", "SingT")
    rep, act = check_pair_from_plus(ctx)
    sd = semidirect(ctx, act)
    assert sd.table.size == 567
    assert len(sd.table.gens) < 567


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([p for p in DIFFERENTIAL_PAIRS if p[1] == 2]),
       st.sampled_from(["right", "two_sided"]), st.data())
def test_small_generator_closure_matches_the_all_element_closure(pair, side,
                                                                  data):
    # congruence_closure multiplies by the pruned generators of the
    # semidirect table only; the naive closure multiplies by every element
    # through the defining product (u, s)(v, t) = (u.(s>v), st)
    ctx = catalogue_pair(*pair)
    rep, act = check_pair_from_plus(ctx)
    sd = semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    m, els = ctx.m, sd.table.elements
    # the generating pairs of the generic omega rule, then a few drawn ones
    pairs = [(sd.id_of(u, a), sd.id_of(u, b))
             for u in ctx.u_list() for a, b in ap._pairs_for(th.theta_u[u])]
    pairs += [(sd.id_of(u, s), sd.id_of(m.mul(u, act.splus(s)), s))
              for u in ctx.u_list() for s in ctx.s_list()]
    ids = st.integers(0, sd.table.size - 1)
    pairs += data.draw(st.lists(st.tuples(ids, ids), max_size=3))
    fast = congruence_closure(sd.table, pairs, side)

    def prod(x, y):
        (u, s), (v, t) = x, y
        return (m.mul(u, act(s, v)), m.mul(s, t))

    naive = CongruencePartition(els)        # members: the (u, s) pairs
    queue = [(els[a], els[b]) for a, b in pairs if naive.union(els[a], els[b])]
    while queue:
        x, y = queue.pop()
        for z in els:
            images = [(prod(x, z), prod(y, z))]
            if side == "two_sided":
                images.append((prod(z, x), prod(z, y)))
            queue += [(p, q) for p, q in images if naive.union(p, q)]
    assert {frozenset(sd.id_of(*e) for e in c) for c in naive.classes()} == \
        {frozenset(c) for c in fast.classes()}


# --- the kernel congruence ------------------------------------------------------------

def test_theta_e2_g2():
    ctx, rep, act = classified("c1", 2, "E", "G")
    sd = semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    assert len(th.theta.classes()) == 7 == ptrans.family_size("I", 2)
    assert th.description_ok and th.factorization_laws_ok
    assert quotient_matches_product(ctx, sd, th)


def test_theta_u_universal_at_the_empty_map():
    ctx, rep, act = classified("c1", 2, "E", "G")
    sd = semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    amb = ctx.m
    idx = {w: i for i, w in enumerate(amb.elements)}
    zero = idx[wreath.embed_pmap(amb.elements[0].tup.base, ptrans.empty_map(2))]
    assert len(th.theta_u[zero].classes()) == 1
    assert th.stab[zero] == ctx.s_set


def test_strong_theta_classes_fix_the_left_part():
    ctx, rep, act = classified("c2", 2, "E", "T")
    sd = semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    for cls in th.theta.classes():
        us = {sd.table.elements[i][0] for i in cls}
        assert len(us) == 1


def test_omega_group_rule_explicit_generators():
    ctx, rep, act = classified("c1", 2, "E", "G")
    sd = semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    amb = ctx.m
    idx = {w: i for i, w in enumerate(amb.elements)}
    base = amb.elements[0].tup.base
    zero = idx[wreath.embed_pmap(base, ptrans.empty_map(2))]
    swap = idx[wreath.embed_pmap(base, ptrans.tau(1, 2, 2))]
    gam = {u: [] for u in ctx.u_list()}
    gam[zero] = [swap]
    res = omega_check(ctx, act, sd, th, "group_generators", gamma_u=gam)
    assert res.hypotheses_ok and res.matches_theta
    # dropping the lone generator must break the hypothesis
    bad = omega_check(ctx, act, sd, th, "group_generators",
                      gamma_u={u: [] for u in ctx.u_list()})
    assert not bad.hypotheses_ok


def test_omega_trivial_for_right_unique_pairs():
    ctx, rep, act = classified("c2", 2, "Mn", "T")
    sd = semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    assert all(p.is_trivial() for p in th.theta_u.values())
    res = omega_check(ctx, act, sd, th, "right_generators",
                      omega_u={u: [] for u in ctx.u_list()})
    assert res.hypotheses_ok and res.matches_theta
    assert all(len(c) == 1 for c in th.theta.classes())


def test_omega_generic_vs_submonoid_rules():
    ctx, rep, act = classified("c1", 2, "M0n", "PT")
    sd = semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    for rule in ("generic", "submonoids"):
        res = omega_check(ctx, act, sd, th, rule)
        assert res.hypotheses_ok and res.matches_theta, rule


def test_omega_join_rule_rejects_bad_family():
    ctx, rep, act = classified("c1", 2, "M0n", "T")
    sd = semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    res = omega_check(ctx, act, sd, th, "join_family", v_subset=[])
    assert not res.hypotheses_ok


def test_omega_failures_use_the_presentation_wording():
    # the generating rules and the pair presentations certify per-element
    # data with one routine, so they report a failure in the same words
    def failures(u, s, rule, no_pairs_at=None, **kw):
        ctx, rep, act = classified("c1", 2, u, s)
        sd = semidirect(ctx, act)
        th = theta_and_friends(ctx, act, sd)
        kw = {**registry.omega_inputs(ctx, act, rule, u, s, 2), **kw}
        if no_pairs_at is not None:
            kw["omega_u"] = {**kw["omega_u"], no_pairs_at: []}
        return omega_check(ctx, act, sd, th, rule, **kw).failures

    assert failures("E", "G", "join_pairwise") == ["pairwise join reduction fails"]
    assert failures("M0n", "T", "join_family", v_subset=[]) == \
        ["join reduction fails at 4"]
    # the catalogue's inputs, V = {4, 5}, with no pairs for 4
    assert failures("M0n", "T", "join_family", no_pairs_at=4) == \
        ["congruence data does not generate at 4"]


# --- special congruences ---------------------------------------------------------------

def test_theta_is_special_everywhere():
    for (u, s) in (("E", "G"), ("E", "T"), ("M0n", "PT")):
        ctx, rep, act = classified("c1", 2, u, s)
        sd = semidirect(ctx, act)
        th = theta_and_friends(ctx, act, sd)
        spec = check_special_congruence(ctx, act, sd, th.theta)
        assert spec.special, (u, s, spec.failures)


def test_universal_congruence_fails_section_separation():
    ctx, rep, act = classified("c1", 2, "E", "G")
    sd = semidirect(ctx, act)
    univ = CongruencePartition(sd.table.size)
    for i in range(1, sd.table.size):
        univ.union(0, i)
    spec = check_special_congruence(ctx, act, sd, univ)
    assert not spec.special and spec.axioms[1] is False


def test_diagonal_is_special_for_strong_pairs():
    ctx, rep, act = classified("c1", 2, "E", "T")
    sd = semidirect(ctx, act)
    spec = check_special_congruence(ctx, act, sd,
                                    CongruencePartition(sd.table.size))
    assert spec.special


def test_non_congruence_is_reported():
    ctx, rep, act = classified("c1", 2, "E", "G")
    sd = semidirect(ctx, act)
    part = CongruencePartition(sd.table.size)
    part.union(0, sd.table.size - 1)
    spec = check_special_congruence(ctx, act, sd, part)
    assert not spec.congruence_ok and not spec.special


# --- covers ------------------------------------------------------------------------------

def test_cover_e2_g2():
    ctx, rep, act = classified("c1", 2, "E", "G")
    cov = proper_cover(ctx, act)
    assert cov.cover_table.size == 8
    assert cov.sigma_trivial and cov.proper and cov.surjective
    assert cov.u_copy_ok and cov.s_copy_ok and cov.psi_u_iso
    # fibre count: eight cover elements onto the seven products
    assert len(set(cov.psi.values())) == 7


def test_cover_of_strong_pair_has_full_carrier():
    ctx, rep, act = classified("c1", 3, "E", "T")
    cov = proper_cover(ctx, act)
    assert cov.cover_table.size == len(ctx.u1()) * len(ctx.s1())


def test_cover_left_restriction_instance():
    ctx, rep, act = classified("c1", 2, "M0n", "PT")
    cov = proper_cover(ctx, act, ambient_plus=ambient_plus_map(ctx.m))
    assert cov.left_restriction_ok
    assert cov.projection_separating
    assert cov.unary_preserved
    carrier = {cov.cover_table.elements[i] for i in cov.psi}
    amb = ctx.m
    for (u, s) in carrier:
        assert amb.elements[u].pmap.dom() <= amb.elements[s].pmap.dom()


# --- central embedding ---------------------------------------------------------------------

def test_embed_product_of_tuples_and_total_maps():
    ctx, rep, act = classified("c2", 2, "Mn", "T")
    emb = embed_central(ctx, act)
    assert emb.ok and emb.us_size == 16 and emb.u_embedding_injective


def test_embed_trivial_left_part():
    amb = ambient_wreath("c1", 2)
    g_ids = subset_ids(amb, "pmap:G", 2)
    ctx = AmbientContext(amb, frozenset({amb.identity}), g_ids,
                         {s: amb.identity for s in g_ids}, name="units-only")
    rep, act = check_pair_from_plus(ctx)
    classify_proper(ctx, act, rep)
    assert rep.proper
    emb = embed_central(ctx, act)
    assert emb.ok and emb.us_size == 2 and emb.sigma_class_count == 2


def test_embed_left_restriction_cover_instance():
    ctx, rep, act = classified("c1", 2, "E", "G")
    cov = proper_cover(ctx, act)
    L = cov.cover_table
    idx = {e: i for i, e in enumerate(L.elements)}
    plusmap = {i: idx[(L.elements[i][0], ctx.identity)] for i in range(L.size)}
    lr = lr_pair(L, plusmap, name="cover-projections")
    rep2, act2 = check_pair_from_plus(lr)
    classify_proper(lr, act2, rep2)
    assert rep2.proper
    emb = embed_central(lr, act2)
    assert emb.ok and emb.values_semilattice


def test_embed_refuses_non_proper():
    ctx, rep, act = classified("c1", 2, "E", "G")
    emb = embed_central(ctx, act)
    assert not emb.hypotheses_ok


@pytest.mark.parametrize("base", ["c1", "c2"])
def test_hand_built_action_gives_the_derived_results(base):
    # an ActionTable no check has seen is checked by check_weak_pair; on the
    # catalogue its verdicts, omega rule and embedding are the derived ones
    for spec in registry.catalogue_specs(2):
        uk, sk, rule = spec["u"], spec["s"], spec["rule"]
        ctx = catalogue_pair(base, 2, uk, sk)
        rep, act = check_pair_from_plus(ctx)
        hand = ActionTable(ctx, act.table)
        assert hand.report is None and act.report is rep
        sd = semidirect(ctx, act)
        th = theta_and_friends(ctx, act, sd)
        kw = registry.omega_inputs(ctx, act, rule, uk, sk, 2)
        assert omega_check(ctx, hand, sd, th, rule, **kw) == \
            omega_check(ctx, act, sd, th, rule, **kw), (uk, sk)
        assert embed_central(ctx, hand) == embed_central(ctx, act), (uk, sk)
        assert [hand.report.weak, hand.report.action, hand.report.strong,
                hand.report.proper] == [rep.weak, rep.action, rep.strong,
                                        rep.proper], (uk, sk)


def test_degree_one_catalogue_degenerates_gracefully():
    # at degree one the structural verdicts degenerate (several pairs
    # become proper); the axioms, rules, quotients and product sets must
    # still all hold, and strongness still tracks totality
    for base in ("c1", "c2"):
        for spec in registry.catalogue_specs(1):
            uk, sk, rule = spec["u"], spec["s"], spec["rule"]
            ctx = registry.catalogue_pair(base, 1, uk, sk)
            rep, act = check_pair_from_plus(ctx)
            classify_proper(ctx, act, rep)
            assert rep.action and rep.strong == spec["strong"], (base, uk, sk)
            sd = semidirect(ctx, act)
            th = theta_and_friends(ctx, act, sd)
            assert quotient_matches_product(ctx, sd, th), (base, uk, sk)
            kw = registry.omega_inputs(ctx, act, rule, uk, sk, 1)
            res = omega_check(ctx, act, sd, th, rule, **kw)
            assert res.hypotheses_ok and res.matches_theta, (base, uk, sk)
            assert check_special_congruence(ctx, act, sd, th.theta).special
            want = registry.subset_ids(
                ctx.m, registry.expected_product_kind(uk, sk), 1)
            assert ctx.product_set() == want, (base, uk, sk)


def test_zero_joined_union_is_a_weak_pair():
    # two disjoint one-element semigroups joined over a zero: with the
    # monoidally extended action, compatibility holds and the whole
    # product set collapses to the zero
    from actionpairs.fmonoid import table_from_elements

    def prod(a, b):
        if a == "1":
            return b
        if b == "1":
            return a
        if a == b == "u":
            return "u"
        if a == b == "s":
            return "s"
        return "0"

    t = table_from_elements(["1", "u", "s", "0"], prod, identity="1")
    names = {e: i for i, e in enumerate(t.elements)}
    ctx = AmbientContext(t, frozenset({names["u"]}), frozenset({names["s"]}),
                         {names["s"]: t.identity}, name="zero-joined")
    act = ActionTable(ctx, {(names["s"], names["u"]): names["u"],
                            (names["s"], t.identity): t.identity})
    rep = check_weak_pair(ctx, act)
    assert rep.weak and rep.action
    sd = semidirect(ctx, act)
    assert sd.mid_identity_ok
    assert sd.table.size == 1
    assert ctx.product_set() == frozenset({names["0"]})
    # the same data through the projection route agrees
    rep2, act2 = check_pair_from_plus(ctx)
    assert rep2.weak and act2.table == act.table


def test_left_zero_band_takes_the_left_regular_band_branch():
    # the left-zero band {e, f} (xy = x) with an identity adjoined acts on
    # itself with s+ = s: P = {e, f} is a left regular band that is not
    # commutative, so sigma is cross-checked against (s+ t+) s = s+ t
    from actionpairs.fmonoid import table_from_elements
    t = table_from_elements(["1", "e", "f"], lambda a, b: b if a == "1" else a,
                            identity="1")
    names = {e: i for i, e in enumerate(t.elements)}
    e, f = names["e"], names["f"]
    ctx = AmbientContext(t, frozenset({e, f}), frozenset({e, f}), {e: e, f: f},
                         name="left-zero")
    rep, act = check_pair_from_plus(ctx)
    classify_proper(ctx, act, rep)
    assert rep.action and rep.proper
    assert rep.p_set == {e, f} and t.mul(e, f) != t.mul(f, e)
    assert rep.sigma_equational_ok is True


def test_theta_quotient_matches_independently_built_injective_maps():
    # the quotient of the semidirect product by the kernel congruence is
    # matched, generator by generator, against the injective-map table
    # built through a completely different code path
    from actionpairs.fmonoid import iso_by_generators, quotient
    ctx, rep, act = classified("c1", 2, "E", "G")
    sd = ap.semidirect(ctx, act)
    th = theta_and_friends(ctx, act, sd)
    q = quotient(sd.table, th.theta)
    i2 = ptrans_table("I", 2)
    assert q.size == i2.size == 7
    cls = th.theta.classes()
    amb = ctx.m
    idx = {w: j for j, w in enumerate(i2.elements)}
    pairs = []
    for k, g in enumerate(q.gens):
        u, s = sd.table.elements[cls[g][0]]
        image = amb.elements[amb.mul(u, s)].pmap
        pairs.append((g, idx[image]))
    assert iso_by_generators(q, i2, pairs) is not None


def test_wreath_enumeration_is_deterministic():
    from actionpairs.wreath import enumerate_wreath
    base = registry.monoid_table("c2")
    t1 = enumerate_wreath(base, "PT", 2)
    t2 = enumerate_wreath(base, "PT", 2)
    assert t1.right == t2.right and t1.nf == t2.nf
    assert [w.pmap.img for w in t1.elements] == [w.pmap.img for w in t2.elements]


def test_natural_factorizations_of_proper_pairs_are_sigma_related():
    # pairs (u, s) with u absorbing its projection and the same product
    # share the left part always, and the right parts collapse under the
    # projection-generated relation exactly when the pair is proper
    for (base, uk, sk) in (("c2", "Mn", "T"), ("c1", "M0n", "PT")):
        ctx, rep, act = classified(base, 2, uk, sk)
        m = ctx.m
        by_value = {}
        for u in ctx.u_list():
            for s in ctx.s_list():
                if m.mul(u, act.splus(s)) == u:
                    by_value.setdefault(m.mul(u, s), []).append((u, s))
        for items in by_value.values():
            assert len({u for u, _ in items}) == 1
            if rep.proper:
                s0 = items[0][1]
                assert all(rep.sigma.same(s, s0) for _, s in items)


# --- left restriction pairs -------------------------------------------------------------------

def test_projection_pair_of_the_ambient():
    amb = ambient_wreath("c1", 2)
    ctx = lr_pair(amb, ambient_plus_map(amb), name="(P,M)")
    rep, act = check_pair_from_plus(ctx)
    classify_proper(ctx, act, rep)
    assert rep.action and not rep.strong
    assert ctx.product_set() == frozenset(range(amb.size))
    # the strict projections generate the non-unit part as a right ideal
    strict = frozenset(p for p in ctx.u_set if p != amb.identity)
    strict_prod = frozenset(amb.mul(u, s) for u in strict for s in ctx.s_set)
    total = subset_ids(amb, "T", 2)
    assert strict_prod == frozenset(range(amb.size)) - frozenset(
        i for i in range(amb.size) if i in total
        and amb.elements[i].pmap.is_total())


def test_every_catalogue_rule_combination_returns_a_report():
    # every (pair, rule) combination over c1/c2/sl2 at n=2 and c1 at n=3,
    # with the catalogue inputs: supplied data outside the pair (a generating
    # pair (s, 1) with 1 outside S, or V outside U) fails the hypotheses
    # instead of raising, and every rule whose hypotheses hold matches theta
    from collections import Counter
    tally = Counter()
    for base, n in (("c1", 2), ("c2", 2), ("sl2", 2), ("c1", 3)):
        for spec in registry.catalogue_specs(n):
            uk, sk = spec["u"], spec["s"]
            ctx = catalogue_pair(base, n, uk, sk)
            rep, act = check_pair_from_plus(ctx)
            sd = semidirect(ctx, act)
            th = theta_and_friends(ctx, act, sd)
            for rule in ap.OMEGA_RULES:
                kw = registry.omega_inputs(ctx, act, rule, uk, sk, n)
                res = omega_check(ctx, act, sd, th, rule, **kw)
                assert res.hypotheses_ok == bool(res.matches_theta), (uk, sk, rule)
                assert res.hypotheses_ok or res.failures, (uk, sk, rule)
                tally[rule, res.hypotheses_ok] += 1
    assert {rule: (tally[rule, True], tally[rule, False])
            for rule in ap.OMEGA_RULES} == {
        "generic": (64, 0), "submonoids": (32, 32), "right_generators": (48, 16),
        "join_family": (14, 50), "join_pairwise": (6, 58),
        "group_generators": (11, 53), "group_join_family": (6, 58),
        "group_join_pairwise": (0, 64)}


def test_embed_result_ok_needs_every_verdict():
    # a non-injective map is no embedding, however the other checks came out
    res = ap.EmbedResult(hypotheses_ok=True, failures=[], well_defined=True,
                         injective=False, homomorphic=True)
    assert not res.ok
    assert ap.EmbedResult(True, [], True, True, True).ok


# --- negative verdicts no catalogue pair produces ------------------------------------------

@pytest.mark.parametrize("flags", [dict(weak=True, strong=True),
                                   dict(action=True),
                                   dict(weak=True, proper=True)])
def test_implication_chain_breaks(flags):
    # strong without action, action without weak, proper without action
    assert not ap.PairReport(**flags).implication_chain_ok()
    assert ap.PairReport(weak=True, action=True, strong=True,
                         proper=True).implication_chain_ok()


def _theta_of_m0n_pt():
    ctx, rep, act = classified("c1", 2, "M0n", "PT")
    sd = semidirect(ctx, act)
    return ctx, sd, theta_and_friends(ctx, act, sd)


def test_quotient_by_the_identity_partition_does_not_match():
    # U x S itself has 36 elements over 9 products
    ctx, sd, th = _theta_of_m0n_pt()
    assert quotient_matches_product(ctx, sd, th)
    diagonal = CongruencePartition(sd.table.size)
    assert not quotient_matches_product(ctx, sd, dataclasses.replace(th, theta=diagonal))


def test_quotient_by_the_universal_relation_does_not_match():
    ctx, sd, th = _theta_of_m0n_pt()
    universal = CongruencePartition(sd.table.size)
    for x in range(1, sd.table.size):
        universal.union(0, x)
    assert not quotient_matches_product(ctx, sd, dataclasses.replace(th, theta=universal))


def test_quotient_with_two_product_values_swapped_does_not_match():
    # the values stay a bijection onto US, but no longer a homomorphism
    ctx, sd, th = _theta_of_m0n_pt()
    values = list(th.product_values)
    a, b = (c[0] for c in th.theta.classes()[:2])
    values[a], values[b] = values[b], values[a]
    assert values[a] != values[b]
    assert not quotient_matches_product(ctx, sd, dataclasses.replace(th, product_values=values))


class _FlippedSame(CongruencePartition):
    """A partition whose `same` answers the opposite of its classes."""

    def same(self, a, b):
        return not super().same(a, b)


def _sigma_with_flipped_same(monkeypatch):
    real = ap.sigma_partition

    def flipped(ctx, p_set):
        sigma, transitive = real(ctx, p_set)
        lying = _FlippedSame(ctx.s_list())
        for c in sigma.classes():
            for s in c[1:]:
                lying.union(c[0], s)
        return lying, transitive
    monkeypatch.setattr(ap, "sigma_partition", flipped)


def test_sigma_equational_check_fails_over_a_commutative_p(monkeypatch):
    _sigma_with_flipped_same(monkeypatch)
    ctx, rep, act = classified("c2", 2, "Mn", "T")
    assert rep.proper and rep.p_set == frozenset({ctx.identity})
    assert rep.sigma_equational_ok is False


def _left_zero_band():
    """The left-zero band {e, f} (xy = x) with an identity 1 adjoined."""
    from actionpairs.fmonoid import table_from_elements
    return table_from_elements(["1", "e", "f"], lambda a, b: b if a == "1" else a,
                               identity="1")


def test_sigma_equational_check_fails_over_a_left_regular_band(monkeypatch):
    # P = {e, f} acting on itself is a left regular band, not commutative
    _sigma_with_flipped_same(monkeypatch)
    t = _left_zero_band()
    e, f = t.index["e"], t.index["f"]
    ctx = AmbientContext(t, frozenset({e, f}), frozenset({e, f}), {e: e, f: f},
                         name="left-zero")
    rep, act = check_pair_from_plus(ctx)
    classify_proper(ctx, act, rep)
    assert rep.proper and t.mul(e, f) != t.mul(f, e)
    assert rep.sigma_equational_ok is False


def test_left_density_with_trivial_sigma_but_no_properness_is_reported(monkeypatch):
    # (M0n,PT) is left dense; sigma forced to the diagonal leaves it improper
    monkeypatch.setattr(ap, "sigma_partition",
                        lambda ctx, p_set: (CongruencePartition(ctx.s_list()), True))
    ctx, rep, act = classified("c1", 2, "M0n", "PT")
    assert rep.left_dense and rep.sigma.is_trivial() and not rep.proper
    assert ("density-properness-mismatch", ()) in rep.failures


def test_embed_refuses_projections_outside_the_centre():
    # the left-zero band with its identity, acting on itself: proper, both
    # parts submonoids, but ef = e and fe = f
    t = _left_zero_band()
    ctx = AmbientContext(t, frozenset(range(3)), frozenset(range(3)),
                         {x: x for x in range(3)}, name="left-zero-monoid")
    rep, act = check_pair_from_plus(ctx)
    classify_proper(ctx, act, rep)
    assert rep.action and rep.proper
    emb = embed_central(ctx, act)
    assert emb.failures == ["projections are not central in U"]
    assert not emb.hypotheses_ok


@pytest.mark.parametrize("cap,failure", [("EMBED_US_CAP", "product set too large: 16"),
                                         ("EMBED_CLASS_CAP", "too many sigma classes: 4")])
def test_embed_refuses_inputs_over_its_caps(monkeypatch, cap, failure):
    # (Mn,T) over c2 at degree 2 has 16 products and 4 sigma classes
    ctx, rep, act = classified("c2", 2, "Mn", "T")
    assert embed_central(ctx, act).ok
    monkeypatch.setattr(ap, cap, {"EMBED_US_CAP": 15, "EMBED_CLASS_CAP": 3}[cap])
    emb = embed_central(ctx, act)
    assert emb.failures == [failure] and not emb.hypotheses_ok


@pytest.mark.parametrize("edit", ["none", "merged", "swapped"])
def test_embed_sees_factorisations_that_break_psi(monkeypatch, edit):
    # no factorisation, or two with different images, leave psi undefined;
    # factorisations of two products swapped give a psi that is one-to-one
    # but no homomorphism
    ctx, rep, act = classified("c2", 2, "Mn", "T")
    nf = ap._natural_factorisations(ctx, act)
    a, b = sorted(nf)[1:3]
    forged = {"none": {},
              "merged": {**nf, a: nf[a] + nf[b]},
              "swapped": {**nf, a: nf[b], b: nf[a]}}[edit]
    monkeypatch.setattr(ap, "_natural_factorisations", lambda ctx, act: forged)
    emb = embed_central(ctx, act)
    assert emb.hypotheses_ok and not emb.ok
    if edit == "swapped":
        assert emb.well_defined and emb.injective and emb.homomorphic is False
    else:
        assert emb.well_defined is False and emb.homomorphic is False
