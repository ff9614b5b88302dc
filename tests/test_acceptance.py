"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The pair catalogue (criteria 3-5) is evaluated once per (base, degree) and
shared; everything asserted here is exact (structural results admit no
tolerances), with the two stated runtime budgets enforced.
"""

import itertools
import time
from functools import lru_cache

import pytest

from actionpairs import actionpair as ap
from actionpairs import freelrm, indalg, presentations as pr, ptrans, registry, wreath
from actionpairs.fmonoid import CongruencePartition, enumerate_presentation
from actionpairs.registry import monoid_table


def report(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- criterion 1: the four-element exception ----------------------------------------

def test_criterion_1_fl93_intersection_semilattice():
    t0 = time.time()
    alg = indalg.fl93()
    b = pr.build_catalog("SubA", algebra=alg)
    rep = b.verify()
    ok = (rep.presented_size == 15 and b.target.size == 12
          and rep.relations_hold and rep.surjective and rep.size_match is False)
    b2 = pr.build_catalog("SubA_enlarged", algebra=alg)
    rep2 = b2.verify()
    ok = ok and rep2.ok and rep2.presented_size == 12 and rep2.isomorphic
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"15 vs 12, enlarged 12, {elapsed:.2f}s")


# --- criterion 2: the presentation suite ----------------------------------------------

def _criterion2_cases():
    cases = []
    for n in range(1, 7):
        cases.append(("En", dict(n=n), 2 ** n))
    for n in (2, 3, 4):
        cases.append(("Gn", dict(n=n), ptrans.family_size("G", n)))
        cases.append(("Tn", dict(n=n), ptrans.family_size("T", n)))
    for name in ("c1", "c2", "c3", "sl2"):
        M = monoid_table(name)
        for n in (1, 2, 3):
            cases.append(("Mn", dict(base=M, n=n), M.size ** n))
            cases.append(("M0n", dict(base=M, n=n), (M.size + 1) ** n))
    for name in ("c1", "c2", "sl2"):
        M = monoid_table(name)
        for n in (2, 3):
            for fam in ("MwrSingTn", "MwrSingPTn"):
                kind = fam[3:-1]
                cases.append((fam, dict(base=M, n=n),
                              wreath.wreath_size(M.size, kind, n)))
    for fam in ("MwrPTn", "MwrGn", "MwrTn", "MwrIn"):
        kind = fam[3:-1]
        for name in ("c1", "c2", "c3", "sl2"):
            M = monoid_table(name)
            cases.append((fam, dict(base=M, n=2),
                          wreath.wreath_size(M.size, kind, 2)))
        for name in ("c1", "c2", "sl2"):
            M = monoid_table(name)
            cases.append((fam, dict(base=M, n=3),
                          wreath.wreath_size(M.size, kind, 3)))
    return cases


def test_criterion_2_presentation_suite():
    t0 = time.time()
    failures = []
    count = 0
    for fam, kw, size in _criterion2_cases():
        b = pr.build_catalog(fam, **kw)
        rep = b.verify()
        count += 1
        if not (b.target.size == size and rep.ok and rep.isomorphic):
            failures.append((b.provenance, size, rep.to_dict()))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    detail = f"{count} bundles in {elapsed:.1f}s"
    if failures:
        detail += f" failures={failures[:2]}"
    report(2, ok, detail)


def _shortlex_table(m, images, identity):
    """Right table and letter images of the submonoid (or subsemigroup) of
    `m` generated by `images`, numbered in shortlex-BFS order."""
    order = [m.identity] if identity else []
    newid = {e: i for i, e in enumerate(order)}
    for e in itertools.chain(images, (m.mul(e, g) for e in order for g in images)):
        if e not in newid:
            newid[e] = len(order)
            order.append(e)
    right = [[newid[m.mul(e, g)] for g in images] for e in order]
    return right, [newid[g] for g in images]


def test_criterion_2_tables_are_canonical():
    # the presented table is the target renumbered in shortlex-BFS order
    # through the letter map (semigroup kinds drop the empty word)
    for fam, kw, size in _criterion2_cases():
        b = pr.build_catalog(fam, **kw)
        t = enumerate_presentation(b.pres, 4 * size + 16)
        right, gens = _shortlex_table(b.target, b.gen_map, b.pres.kind == "monoid")
        assert (t.right, t.gens) == (right, gens), b.provenance


# --- criteria 3-5: the pair catalogue ---------------------------------------------------

CATALOGUE_BASES = ("c1", "c2", "sl2")
CATALOGUE_DEGREES = (2, 3)


@lru_cache(maxsize=None)
def _catalogue_eval(base, n):
    out = []
    for spec in registry.catalogue_specs(n):
        uk, sk, rule = spec["u"], spec["s"], spec["rule"]
        ctx = registry.catalogue_pair(base, n, uk, sk)
        rep, act = ap.check_pair_from_plus(ctx)
        ap.classify_proper(ctx, act, rep)
        sd = ap.semidirect(ctx, act)
        rep.mid_identity_ok = sd.mid_identity_ok
        th = ap.theta_and_friends(ctx, act, sd)
        qok = ap.quotient_matches_product(ctx, sd, th)
        kw = registry.omega_inputs(ctx, act, rule, uk, sk, n)
        res = ap.omega_check(ctx, act, sd, th, rule, **kw)
        spc = ap.check_special_congruence(ctx, act, sd, th.theta)
        want = registry.subset_ids(ctx.m, registry.expected_product_kind(uk, sk), n)
        out.append({
            "name": f"{base} n={n} ({uk},{sk})",
            "spec": spec, "ctx": ctx, "rep": rep, "sd": sd, "th": th,
            "quotient_ok": qok, "omega": res, "special": spc,
            "product_ok": ctx.product_set() == want,
        })
    return out


def _whole_catalogue():
    for base in CATALOGUE_BASES:
        for n in CATALOGUE_DEGREES:
            yield from _catalogue_eval(base, n)


def test_criterion_3_pair_catalogue():
    bad = []
    count = 0
    for row in _whole_catalogue():
        count += 1
        rep, spec = row["rep"], row["spec"]
        good = (rep.action and rep.strong == spec["strong"]
                and rep.proper == spec["proper"] and row["product_ok"]
                and rep.implication_chain_ok() and rep.mid_identity_ok)
        if not good:
            bad.append(row["name"])
    # transformation-monoid specializations of the product identities
    for n in (2, 3, 4):
        fam = ptrans.family
        prod = lambda A, B: {a * b for a in A for b in B}
        if prod(fam("E", n), fam("T", n)) != set(fam("PT", n)):
            bad.append(f"set identity E*T n={n}")
        if prod(fam("E", n), fam("SingT", n)) != set(fam("SingPT", n)):
            bad.append(f"set identity E*SingT n={n}")
        if prod(fam("SingE", n), fam("T", n)) != set(fam("PTminusT", n)):
            bad.append(f"set identity SingE*T n={n}")
        if prod(fam("E", n), fam("G", n)) != set(fam("I", n)):
            bad.append(f"set identity E*G n={n}")
        if prod(fam("SingE", n), fam("G", n)) != set(fam("SingI", n)):
            bad.append(f"set identity SingE*G n={n}")
    report(3, not bad, f"{count} pairs over bases {CATALOGUE_BASES}, "
                       f"degrees {CATALOGUE_DEGREES} {bad[:3]}")


def test_criterion_4_congruence_generating_rules():
    bad = []
    count = 0
    for row in _whole_catalogue():
        count += 1
        res = row["omega"]
        th = row["th"]
        if not (res.hypotheses_ok and res.matches_theta and row["quotient_ok"]
                and th.description_ok and th.factorization_laws_ok):
            bad.append((row["name"], res.failures[:1]))
    report(4, not bad, f"{count} pairs, rules verified {bad[:3]}")


def test_criterion_5_special_congruences():
    bad = []
    count = 0
    for row in _whole_catalogue():
        count += 1
        if not row["special"].special:
            bad.append((row["name"], row["special"].failures[:1]))
    # engineered counterexample: the universal relation on a nontrivial
    # semidirect product collapses distinct projection sections
    rows = _catalogue_eval("c1", 2)
    row = next(r for r in rows if r["spec"]["u"] == "E" and r["spec"]["s"] == "G")
    sd = row["sd"]
    univ = CongruencePartition(sd.table.size)
    for i in range(1, sd.table.size):
        univ.union(0, i)
    spc = ap.check_special_congruence(row["ctx"],
                                      ap.check_pair_from_plus(row["ctx"])[1],
                                      sd, univ)
    if spc.special or spc.axioms[1]:
        bad.append("universal congruence not rejected")
    report(5, not bad, f"{count} kernels special; counterexample fails "
                       f"axiom 2 {bad[:3]}")


# --- criterion 6: the unary identity suite -----------------------------------------------

def _laws_hold(elements, mul, plus):
    pl = {x: plus(x) for x in elements}
    for x in elements:
        if mul(pl[x], x) != x:
            return False
    for x in elements:
        px = pl[x]
        for y in elements:
            py = pl[y]
            if mul(px, py) != mul(py, px):
                return False
            if plus(mul(px, y)) != mul(px, py):
                return False
            if mul(x, py) != mul(plus(mul(x, y)), x):
                return False
        # derived identities: projections are idempotent fixed points
        if mul(px, px) != px or pl.get(px, plus(px)) != px:
            return False
    return True


def test_criterion_6_left_restriction_identities():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3, 4):
        els = ptrans.family("PT", n)
        ok = ok and _laws_hold(els, ptrans.compose, ptrans.plus)
    for base in ("c1", "c2", "sl2"):
        M = monoid_table(base)
        for n in (2, 3):
            els = wreath.wreath_elements(M, "PT", n)
            ok = ok and _laws_hold(els, wreath.wr_product, wreath.wr_plus)
    report(6, ok, f"partial maps to degree 4 and wreath products to degree 3 "
                  f"({time.time() - t0:.1f}s)")


# --- criterion 7: proper covers ------------------------------------------------------------

def test_criterion_7_covers():
    bad = []
    for base, n, uk, sk in (("c1", 2, "E", "G"), ("c1", 3, "E", "T")):
        ctx = registry.catalogue_pair(base, n, uk, sk)
        rep, act = ap.check_pair_from_plus(ctx)
        cov = ap.proper_cover(ctx, act)
        if not (cov.sigma_trivial and cov.proper and cov.surjective
                and cov.u_copy_ok and cov.s_copy_ok):
            bad.append((uk, sk))
    # the projection pair of the partial-map monoid itself
    amb = registry.ambient_wreath("c1", 2)
    ctx = ap.lr_pair(amb, registry.ambient_plus_map(amb), name="(P,PT2)")
    rep, act = ap.check_pair_from_plus(ctx)
    cov = ap.proper_cover(ctx, act, ambient_plus=registry.ambient_plus_map(amb))
    if not (cov.sigma_trivial and cov.proper and cov.surjective
            and cov.left_restriction_ok and cov.projection_separating
            and cov.unary_preserved):
        bad.append("(P,PT2)")
    report(7, not bad, f"three covers with trivial sigma, onto, "
                       f"projection-separating {bad}")


# --- criterion 8: the central embedding ------------------------------------------------------

def test_criterion_8_central_embedding():
    bad = []
    ctx = registry.catalogue_pair("c2", 2, "Mn", "T")
    rep, act = ap.check_pair_from_plus(ctx)
    emb = ap.embed_central(ctx, act)
    if not (emb.ok and emb.us_size == 16 and emb.u_embedding_injective):
        bad.append("tuples-vs-total-maps")

    pt2 = registry.ambient_wreath("c1", 2)
    ctx0 = registry.catalogue_pair("c1", 2, "E", "G")
    rep0, act0 = ap.check_pair_from_plus(ctx0)
    cov = ap.proper_cover(ctx0, act0)
    L = cov.cover_table
    if L.size != 8:
        bad.append("cover size")
    idx = {e: i for i, e in enumerate(L.elements)}
    plusmap = {i: idx[(L.elements[i][0], ctx0.identity)] for i in range(L.size)}
    lr = ap.lr_pair(L, plusmap, name="eight-element-cover")
    rep2, act2 = ap.check_pair_from_plus(lr)
    ap.classify_proper(lr, act2, rep2)
    emb2 = ap.embed_central(lr, act2)
    if not (rep2.proper and emb2.ok and emb2.values_semilattice):
        bad.append("cover-projection-pair")
    report(8, not bad, f"injective homomorphisms, semilattice values {bad}")


# --- criterion 9: independence algebras -------------------------------------------------------

def test_criterion_9_independence_algebras():
    bad = []
    for name in ("set3", "set4", "gf2_2", "gf2_3", "gf3_2", "act2_2"):
        if not indalg.builtin_algebra(name).is_strong()[0]:
            bad.append(f"{name} not strong")
    fl = indalg.fl93()
    strong, wit = fl.is_strong()
    if strong or {tuple(sorted(w)) for w in wit} != {(0, 1), (2, 3)}:
        bad.append("exception algebra witness")
    lat = indalg.lattice(fl)
    ok_dims, pair = indalg.inclusion_exclusion_check(fl)
    if ok_dims:
        bad.append("inclusion-exclusion should fail")
    else:
        b, c = pair
        dims = sorted((fl.dim(b), fl.dim(c), fl.dim(b & c),
                       fl.dim(lat.join(b, c))))
        if dims != [0, 2, 2, 3]:
            bad.append(f"witness dims {dims}")
    for name in ("set3", "gf2_2"):
        if not indalg.inclusion_exclusion_check(
                indalg.builtin_algebra(name))[0]:
            bad.append(f"{name} inclusion-exclusion")

    sub3 = indalg.builtin_algebra("act2_2")
    g = indalg.check_gamma_generates(sub3)
    if not (g.aut_size == 8 and g.gamma2_generates and g.gamma1_span == 4):
        bad.append("free-act-on-two gamma")
    for name, aut in (("set3", 6), ("set4", 24), ("set5", 120),
                      ("gf2_2", 6), ("gf2_3", 168)):
        rep = indalg.check_gamma_generates(indalg.builtin_algebra(name))
        if not (rep.aut_size == aut and rep.union_generates
                and rep.fix_containment_ok):
            bad.append(f"{name} gamma union")
    if not indalg.free_act_wreath_iso(monoid_table("c2"), 2):
        bad.append("partial endomorphisms vs wreath")
    report(9, not bad, f"{bad}")


# --- criterion 10: the free left restriction monoid ---------------------------------------------

def test_criterion_10_free_lrm_samples():
    sampler = freelrm.Sampler(alphabet="xy", seed=0xACCE97)
    failures = 0
    rounds = 10_000
    for _ in range(rounds):
        x, y, z = (sampler.element() for _ in range(3))
        px, py = freelrm.lr_plus(x), freelrm.lr_plus(y)
        oks = (
            px * x == x,
            px * py == py * px,
            freelrm.lr_plus(px * y) == px * py,
            x * py == freelrm.lr_plus(x * y) * x,
            px * px == px,
            freelrm.lr_plus(px) == px,
            (x * y) * z == x * (y * z),
            (x * y != x * z) or y.word == z.word,
            (x == y) == (px == py and freelrm.sigma_related(x, y)),
        )
        if not all(oks):
            failures += 1
    lx_ok = all(pr.lrm_model_check(pr.build_catalog("LX_truncated",
                                                    alphabet="xy", length=L))
                for L in (2, 3, 4))
    px_ok = all(pr.lrm_model_check(pr.build_catalog("PX_truncated",
                                                    alphabet="xy", length=L))
                for L in (2, 3, 4))
    ok = failures == 0 and lx_ok and px_ok
    report(10, ok, f"{rounds} samples, {failures} failures, truncations hold")
