"""Every infinite certificate of a single dropped relation, re-checked by
`audit_infinite` (conftest) apart from the completion that produced it."""

import pytest

from actionpairs import presentations as pr
from actionpairs import rewriting
from actionpairs.fmonoid import Presentation, verify_presentation
from actionpairs.registry import monoid_table

from conftest import audit_infinite


def _drops(bundle):
    rels = bundle.pres.relations
    for j in range(len(rels)):
        yield [r for i, r in enumerate(rels) if i != j]


def _audited_certificate(rels, nl):
    """Which certificate decides that the relations over nl letters present
    an infinite monoid, "direct" or "zero quotient", after auditing it; None
    when neither decides."""
    infinite, c, orders = rewriting.certify_infinite(rels, nl)
    if infinite:
        assert audit_infinite(rels, rewriting.letter_orders(nl)[orders - 1],
                              c.rules) is None
        return "direct"
    q = None if c.confluent else rewriting.zero_quotient(rels, nl)
    if q is None or not rewriting.certify_infinite(q[1], q[2])[0]:
        return None
    # the quotient's relations rebuilt here: those that avoid the zero
    # letters, over the other letters renumbered in order
    zero = set(q[0])
    assert all(bool(zero & set(u)) == bool(zero & set(v)) for u, v in rels)
    kept = [a for a in range(nl) if a not in zero]
    quotient = [(tuple(map(kept.index, u)), tuple(map(kept.index, v)))
                for u, v in rels if zero.isdisjoint(u + v)]
    infinite, c, orders = rewriting.certify_infinite(quotient, len(kept))
    assert infinite and audit_infinite(
        quotient, rewriting.letter_orders(len(kept))[orders - 1], c.rules) is None
    return "zero quotient"


@pytest.mark.parametrize("family,kw,direct,by_zero", [
    ("M0n", {"n": 3, "base": "c2"}, 18, 0),
    ("Gn", {"n": 5}, 6, 0),
    ("En", {"n": 6}, 21, 0),
    ("Tn", {"n": 4}, 0, 3),
], ids=["M0n(c2,3)", "Gn(5)", "En(6)", "Tn(4)"])
def test_every_infinite_certificate_of_a_dropped_relation_passes_the_audit(
        family, kw, direct, by_zero):
    if "base" in kw:
        kw = {**kw, "base": monoid_table(kw["base"])}
    bundle = pr.build_catalog(family, **kw)
    nl = len(bundle.pres.alphabet)
    found = [_audited_certificate(rels, nl) for rels in _drops(bundle)]
    assert (found.count("direct"), found.count("zero quotient")) == (direct, by_zero)


def test_the_dropped_tn5_coxeter_relations_pass_the_audit():
    tn5 = pr.build_catalog("Tn", n=5)
    drops = list(_drops(tn5))
    assert all(_audited_certificate(drops[j], len(tn5.pres.alphabet)) == "zero quotient"
               for j in (66, 67, 73, 80, 81, 91))


def test_the_audit_refuses_each_broken_certificate():
    # Z2 * Z2 completes to {00 -> 1, 11 -> 1}: infinitely many words
    z2z2 = [((0, 0), ()), ((1, 1), ())]
    rules = rewriting.complete(z2z2).rules
    assert audit_infinite(z2z2, (0, 1), rules) is None
    assert audit_infinite(z2z2, (0, 1), {**rules, (): (0,)}) == \
        "a rule is not shortlex-decreasing"
    assert audit_infinite(z2z2, (0, 1), {(0, 0): ()}) == \
        "a relation does not reduce to one word"
    # 011 -> 00 by its factor 11, and -> 1 by its own rule
    assert audit_infinite([], (0, 1), {(0, 1, 1): (1,), (1, 1): (0,)}) == \
        "(1, 1) inside (0, 1, 1) does not resolve"
    # 010 -> 00 by its suffix 10, and -> 0 1 -> 0 by its prefix 01
    assert audit_infinite([], (0, 1), {(0, 1): (0,), (1, 0): (1,)}) == \
        "the overlap of (0, 1) and (1, 0) does not resolve"
    # Z2 x Z2 and S3 complete with four and six irreducible words
    for rels in ([((1, 0), (0, 1))], [((1, 0, 1), (0, 1, 0))]):
        c = rewriting.complete(z2z2 + rels)
        assert c.confluent and audit_infinite(z2z2 + rels, (0, 1), c.rules) == \
            "finitely many irreducible words"
    # the audit reads the rules under the order given: Z2 * Z2 over the
    # letters b < a relabels a relation aa = 1 to the rule 11 -> 1
    assert audit_infinite([((0, 0), ())], (1, 0), {(1, 1): ()}) is None
    assert audit_infinite([((0, 0), ())], (1, 0), {(0, 0): ()}) == \
        "a relation does not reduce to one word"


def test_the_reported_completion_order_rebuilds_an_audited_certificate():
    # M0n(c2,3) without relation 1 is certified under a later order than
    # the identity; the report names that order's letters
    b = pr.build_catalog("M0n", n=3, base=monoid_table("c2"))
    rels = [r for i, r in enumerate(b.pres.relations) if i != 1]
    p = Presentation.make(b.pres.alphabet, rels, b.pres.kind)
    rep = verify_presentation(p, b.target, b.gen_map)
    assert rep.infinite and rep.completion_orders > 1
    assert sorted(rep.completion_order) == sorted(p.alphabet)
    assert rep.to_dict()["completion_order"] == rep.completion_order
    order = [p.alphabet.index(a) for a in rep.completion_order]
    rank = {a: r for r, a in enumerate(order)}
    c = rewriting.complete([(tuple(map(rank.get, u)), tuple(map(rank.get, v)))
                            for u, v in p.relations])
    assert c.confluent and audit_infinite(p.relations, order, c.rules) is None
    # a zero-quotient certificate leaves the whole-presentation order unset
    tn4 = pr.build_catalog("Tn", n=4)
    rels = [r for i, r in enumerate(tn4.pres.relations) if i != 47]
    rep = verify_presentation(Presentation.make(tn4.pres.alphabet, rels),
                              tn4.target, tn4.gen_map)
    assert rep.infinite and rep.zero_letters and rep.completion_order is None
