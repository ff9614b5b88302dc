"""Workload `refutations`: presentations that must not verify, or whose
verdict is not known in advance.

Why it exists: here the enumerator runs past the size bound or into its node
budget instead of closing.  A change that makes closing faster can make
exhaustion slower, or change which inputs are decided at all; only this
workload shows that (`decided_frac`).

Inputs:
- every single-relation drop from Gn(5), Tn(4) and M0n(c2,3), and
  seed-chosen drops from En(6).  The families taken whole are those whose
  drops differ in cost and outcome (a Tn(4) drop that exhausts the node
  budget costs five times one that closes), so a sample of them would make
  the run's time and decided share depend on the seed; every En(6) drop
  exhausts the budget at the same cost;
- the catalogued failure SubA(fl93) (15 presented elements against 12);
- seed-chosen swaps of two letter images in Tn(4).

Left out, with the reason: the Mwr families (every sampled single drop there
still verified) and Tn(5) drops (one drop costs 3-9 s depending on the
relation, so a seed-chosen drop would dominate the run and make its time
depend on the seed).  The seed sets the sampled drops and swaps and the order.
"""

from __future__ import annotations

import itertools
import random

from actionpairs import fmonoid, indalg
from actionpairs import presentations as pr
from actionpairs.fmonoid import Presentation
from actionpairs.registry import monoid_table

from common import Item


# (family, build kwargs, label, drops taken; None takes every relation)
DROPS = (("Gn", {"n": 5}, "Gn(5)", None), ("Tn", {"n": 4}, "Tn(4)", None),
         ("M0n", {"n": 3, "base": "c2"}, "M0n(c2,3)", None), ("En", {"n": 6}, "En(6)", 6))
TN4_SWAPS = 8


def _decided_size_ok(rep, target_size: int) -> bool:
    return rep.presented_size is None or rep.presented_size >= target_size


def _drop_item(label: str, bundle, j: int) -> Item:
    rels = bundle.pres.relations
    pres = Presentation.make(bundle.pres.alphabet,
                             [r for i, r in enumerate(rels) if i != j],
                             bundle.pres.kind)
    target, gen_map = bundle.target, bundle.gen_map

    def run(call):
        rep = call(fmonoid.verify_presentation, pres, target, gen_map)
        verdict = {"ok": rep.ok, "size_match": rep.size_match,
                   "presented_size": rep.presented_size,
                   "isomorphic": rep.isomorphic}
        bad = []
        if not (rep.relations_hold and rep.surjective):
            bad.append("a drop must keep relations_hold and surjective")
        if rep.size_match and rep.isomorphic is not True:
            bad.append("size_match without isomorphism")
        if not _decided_size_ok(rep, target.size):
            bad.append("decided size below the target size")
        return verdict, bad, rep.size_match is not None

    dropped = [list(rels[j][0]), list(rels[j][1])]
    return Item(f"drop {label} relation {j}",
                {"kind": "drop", "source": label, "index": j, "relation": dropped},
                run)


def _swap_item(bundle, a: int, b: int) -> Item:
    gen_map = list(bundle.gen_map)
    gen_map[a], gen_map[b] = gen_map[b], gen_map[a]
    gen_map = tuple(gen_map)
    pres, target = bundle.pres, bundle.target

    def run(call):
        rep = call(fmonoid.verify_presentation, pres, target, gen_map)
        verdict = {"ok": rep.ok, "relations_hold": rep.relations_hold,
                   "size_match": rep.size_match,
                   "presented_size": rep.presented_size}
        bad = []
        if rep.ok:
            bad.append("swapped letters verified")
        if not _decided_size_ok(rep, target.size):
            bad.append("decided size below the target size")
        return verdict, bad, rep.size_match is not None

    names = pres.alphabet
    return Item(f"swap Tn(4) {names[a]}<->{names[b]}",
                {"kind": "swap", "letters": [names[a], names[b]]}, run)


def _fl93_item() -> Item:
    def run(call):
        alg = call(indalg.fl93)
        b = call(pr.build_catalog, "SubA", algebra=alg)
        rep = call(b.verify)
        verdict = {"ok": rep.ok, "presented_size": rep.presented_size,
                   "target_size": b.target.size, "size_match": rep.size_match}
        want = {"ok": False, "presented_size": 15, "target_size": 12,
                "size_match": False}
        bad = [] if verdict == want and not b.expected_verify \
            else ["SubA(fl93) must fail with 15 against 12"]
        return verdict, bad, rep.size_match is not None

    return Item("catalogued failure SubA(fl93)", {"kind": "fl93"}, run)


def setup(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    bundles = {}
    for fam, kw, label, take in DROPS:
        if "base" in kw:
            kw = {**kw, "base": monoid_table(kw["base"])}
        b = bundles[label] = pr.build_catalog(fam, **kw)
        js = range(len(b.pres.relations))
        if take is not None:
            js = sorted(rng.sample(js, take))
        items += [_drop_item(label, b, j) for j in js]
    tn4 = bundles["Tn(4)"]
    pairs = list(itertools.combinations(range(len(tn4.gen_map)), 2))
    for a, b in sorted(rng.sample(pairs, TN4_SWAPS)):
        items.append(_swap_item(tn4, a, b))
    items.append(_fl93_item())
    rng.shuffle(items)
    return items
