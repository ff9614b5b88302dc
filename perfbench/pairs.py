"""Workload `pairs`: every stage of the pair pipeline on catalogue pairs.

Why it exists: `actionpair` and the closure, congruence and quotient code of
`fmonoid` do almost all of the work here, and nothing is enumerated from a
presentation.  Pairs whose U and S contain the identity (small generating
sets for the semidirect product, e.g. (M0n,PT) at degree 3: 70 generators for
1,728 elements) sit beside pairs without units, where every element of U x S
is a generator (e.g. (M0n,SingT): 567 for 567).  A change to how semidirect
products are generated should therefore move one half and not the other.

Inputs: all catalogue pairs at degree 2 over c1, c2 and sl2; all at degree 3
over c1; at degree 3 over c2, every pair except the six that take 2.5-10.5 s
each on a 2-vCPU host (DEGREE3_HEAVY), which would make one pair most of a run
and keep the items from running more than once in a run; and five in-process
`classify-pair --cover --embed --format json` CLI calls covering the
acceptance criteria 7/8 pairs and two degree-3 pairs over a base the seed
picks (c2 or sl2); set-up builds the ambient tables of both, so that its
work does not depend on the seed.  The seed also sets the item order.  The
degree-3 pair stages run over c2 whatever the seed: the sl2 pairs cost about
6% more, which would otherwise show as run-to-run spread.
"""

from __future__ import annotations

import random

from actionpairs import actionpair as ap
from actionpairs import cli, registry

from common import Item, run_cli


DEGREE3_HEAVY = {("E", "T"), ("SingE", "T"), ("E", "SingT"), ("SingE", "SingT"),
                 ("M0n", "SingPT"), ("M0n", "SingI")}

SPECS = {(s[0], s[1]): {"u": s[0], "s": s[1], "strong": s[2], "proper": s[3],
                        "rule": s[4]} for s in registry.CATALOGUE}


def _pair_item(base: str, n: int, spec: dict) -> Item:
    uk, sk, rule = spec["u"], spec["s"], spec["rule"]

    def run(call):
        ctx = call(registry.catalogue_pair, base, n, uk, sk)
        rep, act = call(ap.check_pair_from_plus, ctx)
        call(ap.classify_proper, ctx, act, rep)
        sd = call(ap.semidirect, ctx, act)
        th = call(ap.theta_and_friends, ctx, act, sd)
        qok = call(ap.quotient_matches_product, ctx, sd, th)
        kw = call(registry.omega_inputs, ctx, act, rule, uk, sk, n)
        res = call(ap.omega_check, ctx, act, sd, th, rule, **kw)
        spc = call(ap.check_special_congruence, ctx, act, sd, th.theta)
        want = registry.subset_ids(ctx.m, registry.expected_product_kind(uk, sk), n)
        verdict = {
            "action": rep.action, "strong": rep.strong, "proper": rep.proper,
            "implication_chain": rep.implication_chain_ok(),
            "mid_identity": sd.mid_identity_ok,
            "product_set": ctx.product_set() == want,
            "quotient": qok,
            "omega": [res.hypotheses_ok, res.matches_theta],
            "theta": [th.description_ok, th.factorization_laws_ok],
            "special": spc.special,
            "semidirect_size": sd.table.size,
            "theta_classes": len(th.theta.classes()),
        }
        # criteria 3-5 of the acceptance suite, and the catalogue spec
        expected = {
            "action": True, "strong": spec["strong"], "proper": spec["proper"],
            "implication_chain": True, "mid_identity": True,
            "product_set": True, "quotient": True, "omega": [True, True],
            "theta": [True, True], "special": True,
        }
        bad = [k for k, v in expected.items() if verdict[k] != v]
        return verdict, bad, True

    return Item(f"pair {base} n={n} ({uk},{sk})",
                {"kind": "pair", "base": base, "n": n, "u": uk, "s": sk}, run)


def _cli_item(base: str, n: int, uk: str, sk: str) -> Item:
    spec = SPECS[(uk, sk)]
    argv = ["classify-pair", "--ambient", f"MwrPT{n}", "--M", base,
            "--U", uk, "--S", sk, "--cover", "--embed", "--format", "json"]

    def run(call):
        rc, rep = run_cli(call, cli, argv)
        pair, cover, embed = rep.get("pair", {}), rep.get("cover", {}), rep.get("embed", {})
        verdict = {
            "rc": rc,
            "pair": [pair.get(k) for k in ("weak", "action", "strong", "proper",
                                           "mid_identity_ok")],
            "cover": [cover.get(k) for k in ("carrier_size", "sigma_trivial",
                                             "proper", "surjective",
                                             "projection_separating")],
            "embed": [embed.get(k) for k in ("hypotheses_ok", "injective",
                                             "homomorphic")],
            "theta_classes": rep.get("theta_classes"),
        }
        # the central embedding needs a proper pair of submonoids
        embeds = spec["proper"] and not sk.startswith("Sing")
        bad = []
        if rc != 0:
            bad.append("exit code")
        if verdict["pair"] != [True, True, spec["strong"], spec["proper"], True]:
            bad.append("pair classification")
        if verdict["cover"][1:] != [True, True, True, True]:
            bad.append("proper cover")
        if embed.get("hypotheses_ok") != embeds or \
                (embeds and not (embed.get("injective") and embed.get("homomorphic"))):
            bad.append("central embedding")
        return verdict, bad, True

    return Item(f"cli classify-pair {base} n={n} ({uk},{sk})",
                {"kind": "cli", "argv": argv}, run)


def setup(seed: int) -> list[Item]:
    rng = random.Random(seed)
    base3 = rng.choice(("c2", "sl2"))
    groups = [("c1", 2), ("c2", 2), ("sl2", 2), ("c1", 3), ("c2", 3)]
    for base, n in groups + [("sl2", 3)]:
        registry.ambient_wreath(base, n)
    items = []
    for base, n in groups:
        for spec in registry.catalogue_specs(n):
            if (base, n) == ("c2", 3) and (spec["u"], spec["s"]) in DEGREE3_HEAVY:
                continue
            items.append(_pair_item(base, n, spec))
    for base, n, uk, sk in (("c1", 2, "E", "G"), ("c1", 3, "E", "T"),
                            ("c2", 2, "Mn", "T"), (base3, 3, "E", "G"),
                            (base3, 3, "Mn", "SingT")):
        items.append(_cli_item(base, n, uk, sk))
    rng.shuffle(items)
    return items
