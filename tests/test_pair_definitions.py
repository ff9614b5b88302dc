"""The pair checks against the definitions read literally (conftest): random
small pairs with planted action faults and coarser congruences, the stages'
refusal of an action that fails its laws, the pair closure on integer codes
against the closure over (u, s) tuples, and the left-restriction identities
against their scan over all pairs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from actionpairs import actionpair as ap
from actionpairs import ptrans, registry
from actionpairs.actionpair import (ActionTable, AmbientContext,
                                    HypothesisFailed, check_pair_from_plus,
                                    check_special_congruence, check_weak_pair,
                                    embed_central, proper_cover, semidirect,
                                    theta_and_friends)
from actionpairs.fmonoid import (closure_from_generators, congruence_closure,
                                 right_orbit)

from conftest import (naive_left_restriction, naive_pair_kinds,
                      naive_semidirect_flags, naive_special, naive_weak_kinds,
                      tuple_pair_closure)

DEGREE = 3
SIZE_CAP = 12       # most members of U or S: the literal scans run over S^3
LAWS = {"action-range", "action-composition", "action-morphism", "compatibility"}


def kinds(rep):
    return {which for which, _ in rep.failures}


def _assert_refused(ctx, act):
    """Each of the five pair stages raises HypothesisFailed naming itself
    and the failed law kinds, before it reads its other arguments (none is
    given); returns those kinds."""
    failed = kinds(act.pair_report()) & LAWS
    assert failed
    calls = {"semidirect": lambda: semidirect(ctx, act),
             "theta_and_friends": lambda: theta_and_friends(ctx, act, None),
             "check_special_congruence":
                 lambda: check_special_congruence(ctx, act, None, None),
             "proper_cover": lambda: proper_cover(ctx, act),
             "embed_central": lambda: embed_central(ctx, act)}
    for stage, call in calls.items():
        with pytest.raises(HypothesisFailed, match=stage) as err:
            call()
        assert all(k in str(err.value) for k in failed), (stage, err.value)
    return failed


def _maps(total: bool):
    low = 1 if total else 0     # 0 marks an undefined point
    return st.tuples(*[st.integers(low, DEGREE)] * DEGREE).map(
        lambda img: ptrans.PartialMap(DEGREE, img))


@st.composite
def small_pairs(draw):
    """A candidate pair inside the closure of 1-3 random maps of T3 or PT3.

    U and S are the closures of 1-2 drawn members (of the first alone when
    two give more than SIZE_CAP), U's drawn from the idempotents or from
    everything.  The map s -> s+ is the identity, the domain identity where
    it lies in U1, or drawn from U1, so most draws are no action pair.
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
        return frozenset(members)

    u_set = sub(draw(st.sampled_from([idempotents, everything])))
    s_set = sub(everything)
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
    return AmbientContext(amb, u_set, s_set, plus, name="drawn")


def _special_matches(ctx, act, data):
    """An action that fails its laws is refused by every stage.  Otherwise
    the semidirect flags and the special-congruence verdicts of theta and
    of theta joined with a drawn pair are the literal ones."""
    if not act.pair_report().weak:
        _assert_refused(ctx, act)
        return
    sd = semidirect(ctx, act)
    assert (sd.retraction_ok, sd.is_monoid, sd.mid_identity_ok) == \
        naive_semidirect_flags(ctx, act, sd)
    theta = theta_and_friends(ctx, act, sd).theta
    ids = st.integers(0, sd.table.size - 1)
    spans = [(cls[0], x) for cls in theta.classes() for x in cls[1:]]
    coarser = congruence_closure(sd.table, spans + [(data.draw(ids), data.draw(ids))],
                                 "two_sided")
    for sigma in (theta, coarser):
        got = check_special_congruence(ctx, act, sd, sigma)
        assert (got.congruence_ok, got.axioms) == naive_special(ctx, act, sd, sigma)


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


@pytest.mark.parametrize("u_kind,s_kind", [("E", "T"), ("M0n", "PT"), ("M0n", "SingI")])
def test_single_entry_faults_match_the_definitions(u_kind, s_kind):
    # every one-entry change of a catalogue action within U1 fails a law:
    # its failure kinds are those of the full scans, and every stage
    # refuses it
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
                _assert_refused(ctx, hand)


def test_action_values_outside_u1_are_reported():
    # every one-entry change of (E,T) c1 n=2 to an ambient element outside
    # U1 is an action-range failure, with the kinds of the full scans, and
    # every stage refuses it
    ctx = registry.catalogue_pair("c1", 2, "E", "T")
    _, act = check_pair_from_plus(ctx)
    u1 = ctx.u1()
    outside = [x for x in range(ctx.m.size) if x not in u1]
    for s in ctx.s_list():
        for u in u1:
            for w in outside:
                hand = ActionTable(ctx, {**act.table, (s, u): w})
                got = kinds(check_weak_pair(ctx, hand))
                assert "action-range" in got
                assert got == naive_weak_kinds(ctx, hand.table), (s, u, w)
                _assert_refused(ctx, hand)


def test_stages_refuse_each_failed_law():
    # per law kind, the first one-entry change of (E,T) c1 n=2 (to any
    # ambient element) that fails it: every stage refuses the action and
    # names the kind; the unchanged action runs all five
    ctx = registry.catalogue_pair("c1", 2, "E", "T")
    _, act = check_pair_from_plus(ctx)
    sd = semidirect(ctx, act)
    check_special_congruence(ctx, act, sd, theta_and_friends(ctx, act, sd).theta)
    proper_cover(ctx, act)
    embed_central(ctx, act)
    faults = [ActionTable(ctx, {**act.table, (s, u): v})
              for s in ctx.s_list() for u in ctx.u1() for v in range(ctx.m.size)
              if v != act(s, u)]
    for law in sorted(LAWS):
        hand = next(h for h in faults if law in kinds(h.pair_report()))
        assert law in _assert_refused(ctx, hand)


TABLE_FIELDS = ("elements", "gens", "right", "nf", "parent", "identity")


def _closure_matches(ctx, act, candidates, identity_hint, size):
    """`_pair_closure` on integer codes builds the tuple closure's table, or
    both raise ValueError; every action value lies in U1, as the stages
    that call it require."""
    try:
        want = tuple_pair_closure(ctx, act, candidates, identity_hint, size)
    except ValueError:
        with pytest.raises(ValueError):
            ap._pair_closure(ctx, act, candidates, identity_hint, size, "test")
        return
    got = ap._pair_closure(ctx, act, candidates, identity_hint, size, "test")
    for name in TABLE_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.index == want.index


@settings(max_examples=200, deadline=None)
@given(small_pairs(), st.data())
def test_pair_closure_matches_the_tuple_closure(ctx, data):
    # U x S and the cover's pairs u = u s+ of U1 x S1, for the pair's own
    # action and for one entry changed to any member of U1
    _, act = check_pair_from_plus(ctx)
    u1, slist = ctx.u1(), ctx.s_list()
    base = dict(act.table) if act is not None else \
        {(s, u): u for s in slist for u in u1}
    entry = (data.draw(st.sampled_from(slist)), data.draw(st.sampled_from(u1)))
    for table in (base, {**base, entry: data.draw(st.sampled_from(u1))}):
        hand = ActionTable(ctx, table)
        for closure_args in _stage_closures(ctx, hand):
            _closure_matches(ctx, hand, *closure_args)


def _stage_closures(ctx, act):
    """The (candidates, identity hint, size) with which `semidirect` and
    `proper_cover` close their pairs: U x S, and the pairs u = u s+ of
    U1 x S1, each in shortlex order of their ambient normal forms."""
    m, ident = ctx.m, ctx.identity
    u1, s1, ulist, slist = ctx.u1(), ctx.s1(), ctx.u_list(), ctx.s_list()
    hint = None
    if ident in ctx.u_set and ident in ctx.s_set and all(
            m.mul(u, act.splus(s)) == u for u in ulist for s in slist):
        hint = (ident, ident)
    members = {(u, s) for u in u1 for s in s1 if u == m.mul(u, act.splus(s))}
    return [(ap._shortlex_pairs(m, ulist, slist), hint, len(ulist) * len(slist)),
            ([c for c in ap._shortlex_pairs(m, u1, s1) if c in members],
             (ident, ident), len(members))]


@pytest.mark.parametrize("base", ["c1", "c2", "sl2"])
def test_catalogue_pair_tables_are_the_tuple_closures(base):
    # the semidirect tables and cover carriers at n=2 are the closures over
    # (u, s) tuples of the pairs that greedy pruning keeps in shortlex order
    # of their ambient normal forms: one rule picks every generating set
    for spec in registry.catalogue_specs(2):
        ctx = registry.catalogue_pair(base, 2, spec["u"], spec["s"])
        _, act = check_pair_from_plus(ctx)
        stages = (semidirect(ctx, act).table, proper_cover(ctx, act).cover_table)
        for got, closure_args in zip(stages, _stage_closures(ctx, act)):
            want = tuple_pair_closure(ctx, act, *closure_args)
            for name in TABLE_FIELDS:
                assert getattr(got, name) == getattr(want, name), (spec, name)
            assert got.index == want.index


@pytest.mark.parametrize("base,u_kind,s_kind,holds", [
    ("c1", "E", "T", True), ("c1", "SingE", "SingT", True),
    ("c1", "M0n", "PT", True), ("c1", "M0n", "SingPT", True),
    ("c2", "E", "G", True), ("c2", "M0n", "SingT", False)])
def test_left_restriction_laws_match_the_literal_scan(base, u_kind, s_kind, holds,
                                                      monkeypatch):
    # the cover's product set under (u, s)+ = (u, 1), as it is and with one
    # value x+ moved to another projection p with px = x (so that only the
    # last two identities can fail), to another carrier element, or off the
    # product set; each scan reads the carrier's full table and, with the
    # cap at 0, the rows it builds itself past FULL_TABLE_CAP
    ctx = registry.catalogue_pair(base, 2, u_kind, s_kind)
    _, act = check_pair_from_plus(ctx)
    cov = proper_cover(ctx, act)
    carrier, cid = cov.cover_table, cov.cover_table.index
    cset = sorted(cov.psi)
    plus_of = {i: cid[(carrier.elements[i][0], ctx.identity)] for i in cset}

    def both_paths(plus):
        full = ap._left_restriction_laws(carrier, cset, plus)
        with monkeypatch.context() as capped:
            capped.setattr(ap, "FULL_TABLE_CAP", 0)
            return full, ap._left_restriction_laws(carrier, cset, plus)

    assert both_paths(plus_of) == (holds, holds)
    assert naive_left_restriction(carrier, cset, plus_of) is holds
    off = [x for x in range(carrier.size) if x not in plus_of]
    projections = sorted(set(plus_of.values()))
    verdicts = []
    for k, x in enumerate(cset):
        for y in [p for p in projections if carrier.mul(p, x) == x] + \
                [cset[(k + 1) % len(cset)]] + off[k:k + 1]:
            fault = {**plus_of, x: y}
            want = naive_left_restriction(carrier, cset, fault)
            assert both_paths(fault) == (want, want), (x, y)
            verdicts.append(want)
    assert False in verdicts


@pytest.mark.parametrize("kind", [("T", 2), ("E", 2), ("PT", 2), ("T", 3)])
def test_left_restriction_laws_match_the_literal_scan_on_random_unary_maps(kind):
    # unary maps on random carriers of at most six elements, into the
    # idempotents, the carrier or everything, where each identity also
    # fails alone (x+y+ = y+x+ in 6 of PT2's 8,000 draws)
    t = registry.ptrans_table(*kind)
    everything = list(range(t.size))
    idempotents = [e for e in everything if t.mul(e, e) == e]
    rng = random.Random(5)
    verdicts = set()
    for _ in range(8000):
        carrier = rng.sample(everything, rng.randint(1, min(t.size, 6)))
        pool = rng.choice([idempotents, everything, carrier])
        plus_of = {x: rng.choice(pool) for x in carrier}
        want = naive_left_restriction(t, carrier, plus_of)
        assert ap._left_restriction_laws(t, carrier, plus_of) == want, plus_of
        verdicts.add(want)
    assert verdicts == {True, False}
