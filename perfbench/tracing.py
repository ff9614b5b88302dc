"""Traced run: spans around calls into each module's public functions.

Spans are recorded from the benchmark's side only: the library is not
edited.  Each named function is replaced, at every module attribute of the
`actionpairs` package that binds it, by a wrapper.  Stage-level functions get
a span (name, start, end, parent); the hot leaves listed in LEAVES get only a
call count and a total, because they run millions of times.  Spans are kept in
memory and written out when the run ends.

Hot-leaf totals overlap where one leaf calls another (`wr_product` composes
partial maps through `ptrans.compose`).
"""

from __future__ import annotations

import functools
import importlib
import json
import time

SPANS = {
    "fmonoid": ("closure_from_generators", "congruence_closure", "is_compatible",
                "quotient", "enumerate_presentation", "verify_presentation",
                "iso_by_generators"),
    "actionpair": ("check_pair_from_plus", "classify_proper", "semidirect",
                   "theta_and_friends", "quotient_matches_product", "omega_check",
                   "check_special_congruence", "proper_cover", "embed_central"),
    "registry": ("ambient_wreath", "catalogue_pair", "omega_inputs"),
    "presentations": ("build_catalog", "lrm_model_check"),
    "wreath": ("enumerate_wreath",),
    "indalg": ("all_subalgebras", "automorphisms", "check_gamma_generates"),
    "cli": ("main",),
}
METHODS = {"fmonoid": ("CayleyTable", ("full_table", "left_by_gen"))}
LEAVES = {"wreath": ("wr_product", "wr_plus"), "ptrans": ("compose", "plus"),
          "freelrm": ("lr_product",)}
MODULES = ("fmonoid", "ptrans", "wreath", "actionpair", "presentations",
           "freelrm", "indalg", "registry", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, phase]
        self.stack: list[int] = []
        self.phase = "setup"
        self.leaf_calls: dict[str, int] = {}
        self.leaf_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"actionpairs.{m}") for m in MODULES}
        for home, names in SPANS.items():
            for name in names:
                self._rebind(mods, getattr(mods[home], name),
                             self._span_wrapper(f"{home}.{name}",
                                                getattr(mods[home], name)))
        for home, (cls_name, names) in METHODS.items():
            cls = getattr(mods[home], cls_name)
            for name in names:
                setattr(cls, name, self._span_wrapper(f"{home}.{name}",
                                                      getattr(cls, name)))
        for home, names in LEAVES.items():
            for name in names:
                fn = getattr(mods[home], name)
                self._rebind(mods, fn, self._leaf_wrapper(f"{home}.{name}", fn))

    @staticmethod
    def _rebind(mods: dict, fn, wrapper) -> None:
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        count = self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf(), None, stack[-1] if stack else None, self.phase]
            spans.append(span)
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[2] = perf()
                stack.pop()
                count(name, args, result, exc)
        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        calls, total, perf = self.leaf_calls, self.leaf_s, time.perf_counter
        calls[name] = 0
        total[name] = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                total[name] += perf() - t0
                calls[name] += 1
        return wrapper

    # -- counters measured where the work happens ----------------------------

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _count(self, name, args, result, exc) -> None:
        if name == "fmonoid.closure_from_generators" and result is not None:
            self._add("closure.size", result.size)
            self._add("closure.products", result.size * len(result.gens))
        elif name == "fmonoid.congruence_closure" and result is not None:
            self._add("congruence.merges", len(result.parent) - len(result.classes()))
        elif name == "fmonoid.enumerate_presentation":
            if result is not None:
                self._add("enumerate.presented", result.size)
            elif exc is not None and getattr(exc, "undecided", None) is True:
                self._add("enumerate.exhausted", 1)
                self._add("enumerate.nodes_at_exhaustion", exc.nodes or 0)
            elif exc is not None and getattr(exc, "size", None) is not None:
                self._add("enumerate.presented", exc.size)
        elif name == "actionpair.semidirect" and result is not None:
            self._add("semidirect.size", result.table.size)
            self._add("semidirect.gens", len(result.table.gens))

    # -- results -------------------------------------------------------------

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": self.spans,
                       "leaves": {k: [self.leaf_calls[k], self.leaf_s[k]]
                                  for k in self.leaf_calls}}, fh)
