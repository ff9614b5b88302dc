"""Workload `laws`: exhaustive left-restriction law scans on payload
arithmetic, free left restriction monoid samples, independence algebras.

Why it exists: payload arithmetic does the work with no Cayley table:
`wreath.wr_product` (about 10 us a call), `ptrans.compose` and
`freelrm.lr_product`.  `wreath`, `ptrans`, `freelrm` and `indalg` would
otherwise be measured only inside set-up.  A cheaper wreath-element
constructor shows here first.

Inputs (acceptance criteria 6, 9 and 10):
- the left-restriction laws over PT_n for n <= 3 in full, and over PT_4 on a
  seed-chosen set of blocks of outer elements (each block scans every inner
  element);
- the same laws over wreath products with base c1 (n <= 3) and with c2 and
  sl2 at n = 2 in full, and at n = 3 with a seed-chosen base (c2 or sl2) on a
  seed-chosen set of blocks;
- seeded free-LRM sample triples in equal chunks, and the LX/PX truncations
  at lengths 2-4 checked inside the model;
- the independence-algebra checks of criterion 9.

Items are slices of roughly equal work.  The scan code is the benchmark's own;
only the products and unary operations are library calls.
"""

from __future__ import annotations

import random

from actionpairs import freelrm, indalg, ptrans, wreath
from actionpairs import presentations as pr
from actionpairs.registry import monoid_table

from common import Item

PT4_BLOCK, PT4_BLOCKS = 25, 10          # 625 outer elements in 25 blocks
WR3_BLOCK, WR3_BLOCKS = 7, 16          # 343 outer elements in 49 blocks
WR_SMALL_BLOCK = 16
SAMPLE_CHUNK, SAMPLE_CHUNKS = 1000, 8


def scan_laws(outer, elements, mul, plus) -> list:
    """Left-restriction laws for every x in `outer` against every y in
    `elements`; returns the (law, x, y) positions that fail."""
    bad = []
    pl = {y: plus(y) for y in elements}
    for x in outer:
        px = pl[x]
        if mul(px, x) != x:
            bad.append(("x+x=x", x, None))
        if mul(px, px) != px or plus(px) != px:
            bad.append(("x+ idempotent fixed point", x, None))
        for y in elements:
            py = pl[y]
            if mul(px, py) != mul(py, px):
                bad.append(("x+y+=y+x+", x, y))
            if plus(mul(px, y)) != mul(px, py):
                bad.append(("(x+y)+=x+y+", x, y))
            if mul(x, py) != mul(plus(mul(x, y)), x):
                bad.append(("xy+=(xy)+x", x, y))
    return bad


def _scan_item(label: str, outer, elements, kind: str) -> Item:
    def run(call):
        if kind == "pt":
            mul, plus = ptrans.compose, ptrans.plus
        else:
            mul, plus = wreath.wr_product, wreath.wr_plus
        bad = call(scan_laws, outer, elements, mul, plus)
        return {"failures": len(bad)}, [f"{law} fails" for law, _, _ in bad[:3]], True

    return Item(label, {"kind": "scan", "label": label}, run)


def _blocks(label, elements, kind, size, pick=None, rng=None) -> list[Item]:
    starts = list(range(0, len(elements), size))
    if pick is not None:
        starts = sorted(rng.sample(starts, pick))
    return [_scan_item(f"{label} outer {s}-{min(s + size, len(elements)) - 1}",
                       elements[s:s + size], elements, kind) for s in starts]


def _sample_item(k: int, triples: list) -> Item:
    def check(x, y, z):
        lp = freelrm.lr_plus
        px, py = lp(x), lp(y)
        return (px * x == x, px * py == py * px, lp(px * y) == px * py,
                x * py == lp(x * y) * x, px * px == px, lp(px) == px,
                (x * y) * z == x * (y * z),
                (x * y != x * z) or y.word == z.word,
                (x == y) == (px == py and freelrm.sigma_related(x, y)))

    def scan():
        return sum(1 for t in triples if not all(check(*t)))

    def run(call):
        failures = call(scan)
        return {"failures": failures}, [f"{failures} sample failures"] if failures else [], True

    return Item(f"free LRM samples chunk {k}",
                {"kind": "samples", "chunk": k,
                 "triples": [[repr(e) for e in t] for t in triples]}, run)


def _truncation_item(family: str, length: int) -> Item:
    def run(call):
        b = call(pr.build_catalog, family, alphabet="xy", length=length)
        ok = call(pr.lrm_model_check, b)
        return {"holds": ok}, [] if ok else [f"{family} L={length} fails"], True

    return Item(f"{family} L={length}", {"kind": "truncation", "family": family,
                                          "length": length}, run)


def _indalg_items() -> list[Item]:
    """Criterion 9; algebras are built inside each item because an algebra
    caches its closures and lattice, and repeats must redo the work."""

    def strong(call):
        got = {name: call(lambda: indalg.builtin_algebra(name).is_strong()[0])
               for name in ("set3", "set4", "gf2_2", "gf2_3", "gf3_2", "act2_2")}
        return got, [n for n, ok in got.items() if not ok], True

    def fl93(call):
        def witness():
            fl = indalg.fl93()
            is_strong, wit = fl.is_strong()
            lat = indalg.lattice(fl)
            ok_dims, pair = indalg.inclusion_exclusion_check(fl)
            dims = None
            if not ok_dims:
                b, c = pair
                dims = sorted((fl.dim(b), fl.dim(c), fl.dim(b & c),
                               fl.dim(lat.join(b, c))))
            return is_strong, sorted(tuple(sorted(w)) for w in wit), ok_dims, dims
        is_strong, wit, ok_dims, dims = call(witness)
        verdict = {"strong": is_strong, "witness": wit, "incl_excl": ok_dims,
                   "dims": dims}
        want = {"strong": False, "witness": [(0, 1), (2, 3)], "incl_excl": False,
                "dims": [0, 2, 2, 3]}
        return verdict, [] if verdict == want else ["fl93 exception"], True

    def incl_excl(call):
        got = {name: call(lambda: indalg.inclusion_exclusion_check(
            indalg.builtin_algebra(name))[0]) for name in ("set3", "gf2_2")}
        return got, [n for n, ok in got.items() if not ok], True

    def gamma(name, aut, check_fix):
        def run(call):
            rep = call(indalg.check_gamma_generates, call(indalg.builtin_algebra, name),
                       check_fix=check_fix)
            verdict = {"aut_size": rep.aut_size, "union": rep.union_generates}
            return verdict, [] if verdict == {"aut_size": aut, "union": True} \
                else [f"{name} gamma union"], True
        return Item(f"gamma {name}", {"kind": "gamma", "algebra": name}, run)

    def gamma_act(call):
        rep = call(indalg.check_gamma_generates, call(indalg.builtin_algebra, "act2_2"))
        verdict = {"aut_size": rep.aut_size, "gamma2": rep.gamma2_generates,
                   "gamma1_span": rep.gamma1_span}
        want = {"aut_size": 8, "gamma2": True, "gamma1_span": 4}
        return verdict, [] if verdict == want else ["act2_2 gamma"], True

    def wreath_iso(call):
        ok = call(indalg.free_act_wreath_iso, monoid_table("c2"), 2)
        return {"iso": ok}, [] if ok else ["partial endomorphisms vs wreath"], True

    items = [Item("indalg strong", {"kind": "indalg", "check": "strong"}, strong),
             Item("indalg fl93 witness", {"kind": "indalg", "check": "fl93"}, fl93),
             Item("indalg inclusion-exclusion", {"kind": "indalg", "check": "ie"},
                  incl_excl),
             Item("gamma act2_2", {"kind": "indalg", "check": "gamma act2_2"},
                  gamma_act),
             Item("free act wreath iso", {"kind": "indalg", "check": "wreath iso"},
                  wreath_iso)]
    for name, aut in (("set3", 6), ("set4", 24), ("set5", 120), ("gf2_2", 6),
                      ("gf2_3", 168)):
        items.append(gamma(name, aut, name != "gf2_3"))
    return items


def setup(seed: int) -> list[Item]:
    rng = random.Random(seed)
    base3 = rng.choice(("c2", "sl2"))
    items = []
    for n in (1, 2, 3):
        items.append(_scan_item(f"laws PT{n}", ptrans.family("PT", n),
                                ptrans.family("PT", n), "pt"))
    items += _blocks("laws PT4", ptrans.family("PT", 4), "pt", PT4_BLOCK,
                     PT4_BLOCKS, rng)
    for base, n in (("c1", 2), ("c2", 2), ("sl2", 2)):
        els = wreath.wreath_elements(monoid_table(base), "PT", n)
        items.append(_scan_item(f"laws {base}wrPT{n}", els, els, "wr"))
    items += _blocks("laws c1wrPT3", wreath.wreath_elements(monoid_table("c1"), "PT", 3),
                     "wr", WR_SMALL_BLOCK)
    items += _blocks(f"laws {base3}wrPT3",
                     wreath.wreath_elements(monoid_table(base3), "PT", 3),
                     "wr", WR3_BLOCK, WR3_BLOCKS, rng)
    sampler = freelrm.Sampler(alphabet="xy", seed=rng.getrandbits(32))
    for k in range(SAMPLE_CHUNKS):
        triples = [tuple(sampler.element() for _ in range(3))
                   for _ in range(SAMPLE_CHUNK)]
        items.append(_sample_item(k, triples))
    for family in ("LX_truncated", "PX_truncated"):
        for length in (2, 3, 4):
            items.append(_truncation_item(family, length))
    items += _indalg_items()
    rng.shuffle(items)
    return items
