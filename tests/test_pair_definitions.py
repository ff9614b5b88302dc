"""The pair checks against the definitions read literally (conftest): random
small pairs with planted action faults and coarser congruences, and
catalogue pairs whose generator hints are wrong."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from actionpairs import ptrans, registry
from actionpairs.actionpair import (ActionTable, AmbientContext,
                                    check_pair_from_plus,
                                    check_special_congruence, check_weak_pair,
                                    omega_check, semidirect, theta_and_friends)
from actionpairs.fmonoid import (SizeBoundExceeded, closure_from_generators,
                                 congruence_closure, right_orbit)

from conftest import naive_pair_kinds, naive_special, naive_weak_kinds

DEGREE = 3
SIZE_CAP = 12       # most members of U or S: the literal scans run over S^3


def kinds(rep):
    return {which for which, _ in rep.failures}


def _maps(total: bool):
    low = 1 if total else 0     # 0 marks an undefined point
    return st.tuples(*[st.integers(low, DEGREE)] * DEGREE).map(
        lambda img: ptrans.PartialMap(DEGREE, img))


@st.composite
def small_pairs(draw):
    """A candidate pair inside the closure of 1-3 random maps of T3 or PT3.

    U and S are the closures of 1-2 drawn members (of the first alone when
    two give more than SIZE_CAP), U's drawn from the idempotents or from
    everything.  Their hints are the drawn members, which miss the identity
    of U1 and S1, or the first one only, or none.  The map s -> s+ is the
    identity, the domain identity where it lies in U1, or drawn from U1, so
    most draws are no action pair.
    """
    total = draw(st.booleans())
    amb = closure_from_generators(draw(st.lists(_maps(total), min_size=1, max_size=3)),
                                  ptrans.compose, identity_hint=ptrans.identity(DEGREE))
    everything = list(range(amb.size))
    idempotents = [e for e in everything if amb.mul(e, e) == e]

    def sub(pool):
        picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
        for k in (len(picks), 1):
            gens = picks[:k]
            members = right_orbit(gens, lambda a: [amb.mul(a, g) for g in gens])
            if len(members) <= SIZE_CAP:
                break
        hint = draw(st.sampled_from([tuple(gens), tuple(gens[:1]), None]))
        return frozenset(members), hint

    u_set, u_hint = sub(draw(st.sampled_from([idempotents, everything])))
    s_set, s_hint = sub(everything)
    ident = amb.identity
    u1 = sorted(u_set | {ident})
    how = draw(st.sampled_from(["identity", "domain", "drawn"]))
    plus = {}
    for s in sorted(s_set):
        if how == "drawn":
            plus[s] = draw(st.sampled_from(u1))
        else:
            dom = amb.index.get(ptrans.plus(amb.elements[s]))
            plus[s] = dom if how == "domain" and dom in u1 else ident
    return AmbientContext(amb, u_set, s_set, plus, name="drawn",
                          u_gens=u_hint, s_gens=s_hint)


def _special_matches(ctx, act, data):
    """theta, and theta joined with a drawn pair, give the literal axioms.
    Their congruence verdicts are compared only when the laws hold: a
    faulty action's product on U x S need not be associative, and then
    compatibility with generators says nothing about all elements."""
    try:
        sd = semidirect(ctx, act)
    except (KeyError, ValueError, SizeBoundExceeded):
        return          # a faulty action's products need not stay in U x S
    theta = theta_and_friends(ctx, act, sd).theta
    ids = st.integers(0, sd.table.size - 1)
    spans = [(cls[0], x) for cls in theta.classes() for x in cls[1:]]
    coarser = congruence_closure(sd.table, spans + [(data.draw(ids), data.draw(ids))],
                                 "two_sided")
    for sigma in (theta, coarser):
        got = check_special_congruence(ctx, act, sd, sigma)
        congruence, axioms = naive_special(ctx, act, sd, sigma)
        assert got.axioms == axioms
        assert got.congruence_ok == congruence or not act.pair_report().weak


@settings(max_examples=500, deadline=None)
@given(small_pairs(), st.data())
def test_pair_checks_match_the_definitions(ctx, data):
    # the generator-certified scans report the failure kinds and special
    # axioms of the full scans, on pairs, non-pairs and planted faults
    rep, act = check_pair_from_plus(ctx)
    assert kinds(rep) == naive_pair_kinds(ctx)
    u1 = ctx.u1()
    base = dict(act.table) if act is not None else \
        {(s, u): u for s in ctx.s_list() for u in u1}
    s = data.draw(st.sampled_from(ctx.s_list()))
    entry = (s, data.draw(st.sampled_from(u1)))
    tables = [base, {**base, entry: data.draw(st.sampled_from(u1))}]
    not_idempotent = [e for e in u1 if ctx.m.mul(e, e) != e]
    if not_idempotent:
        tables.append({**base, (s, ctx.identity): data.draw(st.sampled_from(not_idempotent))})
    for table in tables:
        hand = ActionTable(ctx, table)
        assert kinds(check_weak_pair(ctx, hand)) == naive_weak_kinds(ctx, hand.table)
        _special_matches(ctx, hand, data)


@pytest.mark.parametrize("base", ["c1", "c2"])
def test_wrong_generator_hints_change_no_verdict(base):
    # a hint that does not generate, or names an id outside the set, gives
    # the verdicts of no hint at all
    n = 2
    for spec in registry.catalogue_specs(n):
        uk, sk, rule = spec["u"], spec["s"], spec["rule"]
        honest = registry.catalogue_pair(base, n, uk, sk)
        outside_u = [x for x in range(honest.m.size) if x not in honest.u_set][:1]
        outside_s = [x for x in range(honest.m.size) if x not in honest.s_set][:1]
        hints = [(None, None),
                 (honest.u_list()[:1], honest.s_list()[:1]),
                 (tuple(outside_u) + tuple(honest.u_gens or ()),
                  tuple(outside_s) + tuple(honest.s_gens or ()))]
        seen = []
        for u_gens, s_gens in hints:
            ctx = dataclasses.replace(honest, u_gens=u_gens, s_gens=s_gens)
            rep, act = check_pair_from_plus(ctx)
            fault = ActionTable(ctx, {**act.table, (ctx.s_list()[-1], ctx.identity):
                                      ctx.u_list()[0]})
            sd = semidirect(ctx, act)
            th = theta_and_friends(ctx, act, sd)
            spans = [(cls[0], x) for cls in th.theta.classes() for x in cls[1:]]
            coarser = congruence_closure(sd.table, spans + [(0, sd.table.size - 1)],
                                         "two_sided")
            kw = registry.omega_inputs(ctx, act, rule, uk, sk, n)
            res = omega_check(ctx, act, sd, th, rule, **kw)
            seen.append((
                [rep.weak, rep.action, rep.strong],
                sorted({which for which, _ in rep.to_dict(ctx)["failures"]}),
                sorted(kinds(check_weak_pair(ctx, fault))),
                [check_special_congruence(ctx, act, sd, sigma).axioms
                 for sigma in (th.theta, coarser)],
                [res.hypotheses_ok, res.matches_theta],
            ))
        assert seen[1] == seen[0] and seen[2] == seen[0], (uk, sk)


@pytest.mark.parametrize("u_kind,s_kind", [("E", "T"), ("M0n", "PT"), ("M0n", "SingI")])
def test_single_entry_faults_match_the_definitions(u_kind, s_kind):
    # every one-entry change of a catalogue action: its failure kinds, and
    # the special axioms of its kernel congruence where the products close,
    # which need the full scans of axioms 7 and 8 once the laws fail
    ctx = registry.catalogue_pair("c1", 2, u_kind, s_kind)
    _, act = check_pair_from_plus(ctx)
    u1 = ctx.u1()
    for s in ctx.s_list():
        for u in u1:
            for v in u1:
                if v == act(s, u):
                    continue
                hand = ActionTable(ctx, {**act.table, (s, u): v})
                assert kinds(check_weak_pair(ctx, hand)) == \
                    naive_weak_kinds(ctx, hand.table), (s, u, v)
                try:
                    sd = semidirect(ctx, hand)
                except (KeyError, ValueError, SizeBoundExceeded):
                    continue
                theta = theta_and_friends(ctx, hand, sd).theta
                got = check_special_congruence(ctx, hand, sd, theta)
                assert got.axioms == naive_special(ctx, hand, sd, theta)[1], (s, u, v)
