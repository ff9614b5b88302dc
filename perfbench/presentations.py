"""Workload `presentations`: build catalogued presentations and verify them.

Why it exists: `fmonoid.enumerate_presentation`, presentation verification
and the isomorphism match do the work, with no pair stage.  This is where a
faster enumerator (or one enumeration per verified bundle) shows.

Inputs: the 76 bundles of acceptance criterion 2, SubA_enlarged(fl93), and
`verify-presentation --format json` CLI calls for the larger wreath bundles
MwrPTn(c3,3), MwrTn(c3,3) and MwrIn(c3,3).  Each item is `build_catalog`
followed by verification.  The seed sets the item order.

Left out, with the reason: MwrSingPTn(c3,3) (about 10 s in one call) and
Tn(5) (about 4.5 s).  No calibration run can fall inside a single call, so one
call that long carries the host's speed swings straight into the run's total,
and it would keep the items from running more than once in a run.
"""

from __future__ import annotations

import random

from actionpairs import cli, indalg, ptrans, wreath
from actionpairs import presentations as pr
from actionpairs.registry import monoid_table

from common import Item, run_cli


LARGE_TIER = (("MwrPTn", "c3", 3), ("MwrTn", "c3", 3), ("MwrIn", "c3", 3))


def criterion2_cases(tables: dict) -> list:
    """(family, build kwargs, expected size, spec) for acceptance criterion 2."""
    cases = []

    def add(fam, size, n, base=None):
        kw = {"n": n} if base is None else {"n": n, "base": tables[base]}
        cases.append((fam, kw, size, {"family": fam, "n": n, "base": base}))

    for n in range(1, 7):
        add("En", 2 ** n, n)
    for n in (2, 3, 4):
        add("Gn", ptrans.family_size("G", n), n)
        add("Tn", ptrans.family_size("T", n), n)
    for name in ("c1", "c2", "c3", "sl2"):
        m = tables[name].size
        for n in (1, 2, 3):
            add("Mn", m ** n, n, name)
            add("M0n", (m + 1) ** n, n, name)
    for name in ("c1", "c2", "sl2"):
        for n in (2, 3):
            for fam in ("MwrSingTn", "MwrSingPTn"):
                add(fam, wreath.wreath_size(tables[name].size, fam[3:-1], n), n, name)
    for fam in ("MwrPTn", "MwrGn", "MwrTn", "MwrIn"):
        for name in ("c1", "c2", "c3", "sl2"):
            add(fam, wreath.wreath_size(tables[name].size, fam[3:-1], 2), 2, name)
        for name in ("c1", "c2", "sl2"):
            add(fam, wreath.wreath_size(tables[name].size, fam[3:-1], 3), 3, name)
    return cases


def _bundle_item(fam: str, kw: dict, size: int, spec: dict) -> Item:
    def run(call):
        b = call(pr.build_catalog, fam, **kw)
        rep = call(b.verify)
        verdict = {"target_size": b.target.size, "ok": rep.ok,
                   "isomorphic": rep.isomorphic,
                   "presented_size": rep.presented_size}
        bad = [] if (b.target.size == size and rep.ok and rep.isomorphic) \
            else ["criterion 2 verdict"]
        return verdict, bad, rep.size_match is not None

    label = f"{fam}(n={spec['n']}" + (f", {spec['base']})" if spec["base"] else ")")
    return Item(f"bundle {label}", spec, run)


def _suba_enlarged_item() -> Item:
    def run(call):
        alg = call(indalg.fl93)
        b = call(pr.build_catalog, "SubA_enlarged", algebra=alg)
        rep = call(b.verify)
        verdict = {"ok": rep.ok, "presented_size": rep.presented_size,
                   "isomorphic": rep.isomorphic}
        bad = [] if verdict == {"ok": True, "presented_size": 12, "isomorphic": True} \
            else ["SubA_enlarged(fl93) verdict"]
        return verdict, bad, rep.size_match is not None

    return Item("bundle SubA_enlarged(fl93)", {"family": "SubA_enlarged"}, run)


def _cli_item(fam: str, base: str, n: int, size: int) -> Item:
    argv = ["verify-presentation", "--family", fam, "--n", str(n),
            "--monoid", base, "--format", "json"]

    def run(call):
        rc, rep = run_cli(call, cli, argv)
        ver = rep.get("verdicts", {})
        verdict = {"rc": rc, "target_size": rep.get("target_size"),
                   **{k: ver.get(k) for k in ("relations_hold", "surjective",
                                              "size_match", "presented_size",
                                              "isomorphic")}}
        want = {"rc": 0, "target_size": size, "relations_hold": True,
                "surjective": True, "size_match": True, "presented_size": size,
                "isomorphic": True}
        bad = [k for k in want if verdict[k] != want[k]]
        return verdict, bad, ver.get("size_match") is not None

    return Item(f"cli verify-presentation {fam}(n={n}, {base})",
                {"kind": "cli", "argv": argv}, run)


def setup(seed: int) -> list[Item]:
    rng = random.Random(seed)
    tables = {name: monoid_table(name) for name in ("c1", "c2", "c3", "sl2")}
    items = [_bundle_item(*case) for case in criterion2_cases(tables)]
    items.append(_suba_enlarged_item())
    for fam, base, n in LARGE_TIER:
        size = wreath.wreath_size(tables[base].size, fam[3:-1], n)
        items.append(_cli_item(fam, base, n, size))
    rng.shuffle(items)
    return items
