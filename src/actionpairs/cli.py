"""Command-line front end: batch verification with machine-readable reports.

Exit codes: 0 pass, 1 verification failure (for verify-presentation also
a presented monoid certified infinite; for classify-pair: the pair axioms,
an omega rule whose closure misses theta, a cover that is not onto or not
proper, or an embedding whose hypotheses hold that is not injective or not
a homomorphism; unmet hypotheses are reported and still pass), 2 bad input
(a KeyError, ValueError, BadParams or OSError, such as an unknown name, a
--bound that is not a positive integer, a pair whose U or S is empty, a
missing or malformed --monoid or algebra file, or an algebra file that is
not an independence algebra), 3 enumeration budget or size cap exceeded
without a verdict, 4 internal error (any other exception: the JSON `error`
names its type and the traceback goes to stderr).  Each error, whatever
--format says, prints one JSON object with `schema`, `command` and
`error`.  Reports are schema "v1" and embed the run configuration: the
table cap, and for verify-presentation also the node cap requested for
this run (through --bound, which does not change the library's default for
later calls).  classify-pair enumerates no presentation, so it reports no
node cap.  Once the reader of stdout has gone, the rest of the report is
dropped and the exit code stays the verdict's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from . import fmonoid, indalg, presentations, registry
from .actionpair import (OMEGA_RULES, check_pair_from_plus, classify_proper,
                         embed_central, omega_check, proper_cover, semidirect,
                         theta_and_friends)
from .ptrans import BadParams

SCHEMA = "v1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4

PRESENTATION_FAMILIES = presentations.FAMILIES
ALGEBRA_INSTANCES = indalg.BUILTIN_ALGEBRAS


def _config() -> dict:
    return {"table_cap": fmonoid.FULL_TABLE_CAP}


def _enumeration_config(args) -> dict:
    """The run configuration plus the node cap an enumeration gets; a
    --bound below one is bad input."""
    if args.bound is not None and args.bound < 1:
        raise ValueError(f"--bound must be a positive integer, got {args.bound}")
    cap = fmonoid.NODE_CAP if args.bound is None else args.bound
    return {**_config(), "node_cap": cap, "bound": args.bound}


def _write(text: str) -> None:
    """Print to stdout; once the reader has gone, send the rest nowhere."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        _write(json.dumps(report, indent=2, sort_keys=True))
        return
    def walk(d, indent=0):
        for k, v in d.items():
            if isinstance(v, dict):
                _write(" " * indent + f"{k}:")
                walk(v, indent + 2)
            else:
                _write(" " * indent + f"{k}: {v}")
    walk(report)


def cmd_verify_presentation(args) -> tuple[dict, int]:
    cfg = _enumeration_config(args)
    report = {"schema": SCHEMA, "command": "verify-presentation",
              "config": cfg, "family": args.family}
    kwargs = {"n": args.n}
    if args.family in presentations.BASE_FAMILIES:
        kwargs["base"] = registry.monoid_table(args.monoid or "c1")
    elif args.family in ("SubA", "SubA_enlarged"):
        kwargs["algebra"] = indalg.builtin_algebra(args.instance or "fl93")
    elif args.family in ("PX_truncated", "LX_truncated"):
        kwargs["alphabet"] = args.alphabet
        kwargs["length"] = args.length
    bundle = presentations.build_catalog(args.family, **kwargs)

    report["provenance"] = bundle.provenance
    report["letters"] = len(bundle.pres.alphabet)
    report["relations"] = len(bundle.pres.relations)
    if args.show_relations:
        report["relation_list"] = [
            [" ".join(bundle.pres.alphabet[i] for i in u) or "1",
             " ".join(bundle.pres.alphabet[i] for i in v) or "1"]
            for u, v in bundle.pres.relations]

    if bundle.target is None:
        ok = presentations.lrm_model_check(bundle)
        report["model_check"] = ok
        return report, EXIT_PASS if ok else EXIT_FAIL

    ver = bundle.verify(node_cap=cfg["node_cap"])
    report["target_size"] = bundle.target.size
    report["verdicts"] = ver.to_dict()
    if ver.inconclusive:
        return report, EXIT_BOUND
    return report, EXIT_PASS if ver.ok else EXIT_FAIL


def _normalize_kind(spec: str, kinds, n: int) -> str:
    """Accept bare kinds, degree-suffixed forms (E2) and generic n-suffixed
    forms (Tn); a numeric suffix must agree with the ambient degree."""
    if spec in kinds:
        return spec
    stem = spec.rstrip("0123456789")
    digits = spec[len(stem):]
    if digits and int(digits) != n:
        raise ValueError(f"{spec!r} disagrees with the ambient degree {n}")
    if stem in kinds:
        return stem
    if stem.endswith("n") and stem[:-1] in kinds:
        return stem[:-1]
    raise ValueError(f"unknown kind {spec!r} (choose from {', '.join(kinds)})")


def _resolve_pair(args):
    base = args.M or "c1"
    amb_name = args.ambient
    for prefix in ("MwrPT", "PT"):
        if amb_name.startswith(prefix):
            n = int(amb_name[len(prefix):])
            if prefix == "PT" and args.M:
                raise ValueError("plain PT ambients take no base monoid")
            break
    else:
        raise ValueError(f"unknown ambient {amb_name!r} (use PTn or MwrPTn)")
    u_kind = _normalize_kind(args.U, registry.U_KINDS, n)
    s_kind = _normalize_kind(args.S, registry.S_KINDS, n)
    return registry.catalogue_pair(base, n, u_kind, s_kind), n, u_kind, s_kind


def cmd_classify_pair(args) -> tuple[dict, int]:
    cfg = _config()
    report = {"schema": SCHEMA, "command": "classify-pair", "config": cfg,
              "ambient": args.ambient, "U": args.U, "S": args.S}
    ctx, n, u_kind, s_kind = _resolve_pair(args)
    failed = False
    rep, act = check_pair_from_plus(ctx)
    if act is not None and rep.weak:
        classify_proper(ctx, act, rep)
        sd = semidirect(ctx, act)
        rep.mid_identity_ok = sd.mid_identity_ok
        th = theta_and_friends(ctx, act, sd)
        report["theta_classes"] = len(th.theta.classes())
        report["product_size"] = len(ctx.product_set())
        if args.omega:
            kw = registry.omega_inputs(ctx, act, args.omega, u_kind, s_kind, n)
            res = omega_check(ctx, act, sd, th, args.omega, **kw)
            report["omega"] = {"rule": res.rule,
                               "hypotheses_ok": res.hypotheses_ok,
                               "matches_theta": res.matches_theta,
                               "failures": res.failures}
            failed |= res.matches_theta is False
        if args.cover:
            cov = proper_cover(ctx, act,
                               ambient_plus=registry.ambient_plus_map(ctx.m))
            report["cover"] = {
                "carrier_size": cov.cover_table.size,
                "sigma_trivial": cov.sigma_trivial,
                "proper": cov.proper,
                "surjective": cov.surjective,
                "projection_separating": cov.projection_separating,
            }
            failed |= not (cov.surjective and cov.proper)
        if args.embed:
            emb = embed_central(ctx, act)
            report["embed"] = {
                "hypotheses_ok": emb.hypotheses_ok,
                "injective": emb.injective,
                "homomorphic": emb.homomorphic,
                "failures": emb.failures,
            }
            failed |= emb.hypotheses_ok and not (emb.injective and emb.homomorphic)
    report["pair"] = rep.to_dict(ctx)
    return report, EXIT_PASS if rep.weak and not failed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="actionpairs",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify-presentation",
                        help="build a catalogued presentation and verify it")
    vp.add_argument("--family", required=True,
                    help=f"one of {', '.join(PRESENTATION_FAMILIES)}")
    vp.add_argument("--n", type=int)
    vp.add_argument("--monoid", help="base monoid name or CayleyTable .json path")
    vp.add_argument("--instance",
                    help=f"algebra instance ({', '.join(ALGEBRA_INSTANCES)}) "
                         "or a .json algebra path")
    vp.add_argument("--alphabet", default="xy")
    vp.add_argument("--length", type=int, default=3)
    vp.add_argument("--bound", type=int,
                    help="override the enumeration node budget")
    vp.add_argument("--show-relations", action="store_true")
    vp.add_argument("--format", choices=("json", "text"), default="text")
    vp.set_defaults(func=cmd_verify_presentation)

    cp = sub.add_parser("classify-pair",
                        help="classify a catalogued pair inside a wreath ambient")
    cp.add_argument("--ambient", required=True, help="PTn or MwrPTn")
    cp.add_argument("--M", help="base monoid for MwrPT ambients")
    cp.add_argument("--U", required=True,
                    help="E, SingE, M0n or Mn (optionally suffixed by n)")
    cp.add_argument("--S", required=True,
                    help=f"one of {', '.join(registry.S_KINDS)}")
    cp.add_argument("--cover", action="store_true")
    cp.add_argument("--embed", action="store_true")
    cp.add_argument("--omega", choices=list(OMEGA_RULES))
    cp.add_argument("--format", choices=("json", "text"), default="text")
    cp.set_defaults(func=cmd_classify_pair)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def error(text: str) -> None:
        _write(json.dumps({"schema": SCHEMA, "command": args.command,
                           "error": text}))
    try:
        t0 = time.time()
        report, code = args.func(args)
        report["elapsed"] = round(time.time() - t0, 3)
        _emit(report, args.format)
        return code
    except (KeyError, ValueError, BadParams, OSError,
            indalg.NotIndependenceAlgebra) as e:
        error(str(e))
        return EXIT_BAD_INPUT
    except fmonoid.SizeBoundExceeded as e:
        error(str(e))
        return EXIT_BOUND
    except Exception as e:          # a bug, not the user's input
        traceback.print_exc()
        error(f"{type(e).__name__}: {e}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
