"""One workload in one fresh single-threaded process.

Started by run.py, never by hand, from the root of the checkout.  It imports
the library from `src/` there and sets up the workload from its seed: the
`setup_s` span, timed as CPU time, which leaves out the interpreter's own
start-up and the benchmark's imports.  It then runs the items.  Every item
is run once in the seed's order; unless --single-pass is given, items are
then repeated in the same order until --seconds have gone by, and each
item's time is the median over its runs.  With --setup-only the worker runs
no items; it runs the set-up kernel of calib.py just before and just after
the set-up instead, to give the host's speed at the time.  The last line of
output is RESULT followed by a JSON object.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

WORKLOADS = ("pairs", "presentations", "refutations", "laws")
SETUP_KERNELS = 3          # kernel runs before and after a --setup-only set-up


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_items(items, meter, seconds: float, single_pass: bool) -> list:
    """Run every item once, then repeat in order until `seconds` are used."""
    runs = [[] for _ in items]
    t_start = time.perf_counter()
    k = 0
    while k < len(items) or not (single_pass
                                 or time.perf_counter() - t_start >= seconds):
        i = k % len(items)
        call = functools.partial(meter.call, k)
        try:
            verdict, bad, decided = items[i].run(call)
        except Exception as e:          # an item that raises is a failed item
            verdict, bad, decided = {"error": type(e).__name__}, [f"raised {e!r}"], False
        runs[i].append({"key": k, "verdict": verdict, "bad": bad, "decided": decided})
        k += 1
    meter.calibrate()
    return runs


def layer_metrics(tracer, meter, item_s: float) -> dict:
    """Per-layer figures from the spans, counters and leaf totals."""
    from tracing import SPANS, METHODS, LEAVES
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            child_s[parent] += t1 - t0
    total, self_cu, raw, calls = {}, {}, {}, {}
    for i, (name, t0, t1, parent, phase) in enumerate(spans):
        unit = meter.unit(t0, t1)
        calls[name] = calls.get(name, 0) + 1
        self_cu[name] = self_cu.get(name, 0.0) + (t1 - t0 - child_s[i]) / unit
        outer = parent
        while outer is not None and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer is None:               # count nested calls of one name once
            total[name] = total.get(name, 0.0) + (t1 - t0) / unit
            raw[name] = raw.get(name, 0.0) + t1 - t0
    covered = sum(t1 - t0 for _, t0, t1, parent, phase in spans
                  if parent is None and phase == "items")

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters
    out = {}
    names = [f"{m}.{f}" for m, fs in SPANS.items() for f in fs]
    names += [f"{m}.{f}" for m, (_, fs) in METHODS.items() for f in fs]
    for name in names:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.cu"] = (total.get(name, 0.0), "cu", f"raw {raw.get(name, 0.0):.4f} s")
        out[f"{name}.self_cu"] = (self_cu.get(name, 0.0), "cu")
    unit = statistics.median(meter.kernels)
    for m, fs in LEAVES.items():
        for f in fs:
            leaf_s = tracer.leaf_s[f"{m}.{f}"]
            out[f"{m}.{f}.calls"] = (tracer.leaf_calls[f"{m}.{f}"], "count")
            out[f"{m}.{f}.cu"] = (leaf_s / unit, "cu", f"raw {leaf_s:.4f} s")
    enum = "fmonoid.enumerate_presentation"
    out.update({
        "fmonoid.closure_from_generators.products": (c.get("closure.products", 0), "count"),
        "fmonoid.closure_from_generators.useful_ratio": (
            ratio(c.get("closure.size", 0), c.get("closure.products", 0)), "ratio"),
        "fmonoid.congruence_closure.merges": (c.get("congruence.merges", 0), "count"),
        f"{enum}.presented_elements": (c.get("enumerate.presented", 0), "count"),
        f"{enum}.exhausted": (c.get("enumerate.exhausted", 0), "count"),
        f"{enum}.nodes_at_exhaustion": (c.get("enumerate.nodes_at_exhaustion", 0), "count"),
        f"{enum}.calls_per_bundle": (
            ratio(calls.get(enum, 0), calls.get("fmonoid.verify_presentation", 0)), "ratio"),
        "actionpair.semidirect.gens_per_element": (
            ratio(c.get("semidirect.gens", 0), c.get("semidirect.size", 0)), "ratio"),
        "actionpair.check_pair_from_plus.calls_per_pair": (
            ratio(calls.get("actionpair.check_pair_from_plus", 0),
                  calls.get("registry.catalogue_pair", 0)), "ratio"),
        "trace.stage_coverage": (ratio(covered, item_s), "ratio"),
    })
    return {name: (m + ("",))[:3] for name, m in out.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--single-pass", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    from calib import Meter, setup_kernel
    # the host switches between a fast and a slow state within seconds, so
    # kernel runs on both sides of the set-up give the speed it ran at
    kernels = [setup_kernel() for _ in range(SETUP_KERNELS)] if args.setup_only else []
    cpu_start = time.process_time()
    from actionpairs import fmonoid
    cap_at_start = fmonoid.NODE_CAP
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    workload = importlib.import_module(args.workload)
    items = workload.setup(args.seed)
    setup_cpu_s = time.process_time() - cpu_start
    if args.setup_only:
        kernels += [setup_kernel() for _ in range(SETUP_KERNELS)]
        print("RESULT " + json.dumps({"setup_cpu_s": setup_cpu_s,
                                      "kernels": kernels}), flush=True)
        return 0
    meter = Meter()
    inputs = digest([[it.name, it.spec] for it in items])

    if tracer:
        tracer.phase = "items"
    runs = run_items(items, meter, args.seconds, args.single_pass)
    cap_at_end = fmonoid.NODE_CAP
    seconds, cu = meter.totals()
    per_item = []
    for it, rs in zip(items, runs):
        first = rs[0]
        for r in rs[1:]:
            if r["verdict"] != first["verdict"]:
                r["bad"] = r["bad"] + ["verdict changed on a repeat run"]
        per_item.append({
            "name": it.name,
            "cu": [cu.get(r["key"], 0.0) for r in rs],
            "s": [seconds.get(r["key"], 0.0) for r in rs],
            "verdict": first["verdict"],
            "bad": sorted({b for r in rs for b in r["bad"]}),
            "failed_runs": sum(1 for r in rs if r["bad"]),
            "decided": first["decided"],
        })
    result = {
        "workload": args.workload, "seed": args.seed,
        "inputs_digest": inputs,
        "verdicts_digest": digest([[x["name"], x["verdict"]] for x in per_item]),
        "items": per_item,
        "calibration": meter.summary(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "node_cap": [cap_at_start, cap_at_end],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, meter, sum(seconds.values()))
        out = Path(__file__).resolve().parent / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans, {"workload": args.workload, "seed": args.seed})
        result["spans_file"] = os.path.relpath(spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
