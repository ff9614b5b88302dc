"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 prints the per-layer metrics of a traced run, and the tracing
overhead against an untraced run of the same items.  Either way the last
line of output is one JSON object with the keys correct, attempted, failed
and metrics; the exit code is 0 only when every verdict matched known truth.

Every workload runs in fresh single-threaded child processes (worker.py)
with ACTIONPAIR_NODE_CAP unset; this process only starts them, one at a time,
and summarises.  Times are given in calibration units (cu, see calib.py)
with raw seconds beside them; set-up time is given in CPU seconds at the
reference host speed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()          # the checkout: the library is read from ROOT/src
WORKLOADS = ("pairs", "presentations", "refutations", "laws")
DEFAULT_NODE_CAP = 5_000_000
SETUP_PROBES = 7           # set-up-only processes per run, for setup_s
TAIL_BEYOND = 10           # item_tail_cu: the percentile with this many items above
DEADLINE_S = 170.0
sys.path.insert(0, str(HERE))
from calib import REFERENCE_SETUP_KERNEL_S  # noqa: E402


class WorkerFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # both rewrite fmonoid.NODE_CAP for the rest of the process
    env.pop("ACTIONPAIR_NODE_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list, deadline: float) -> dict:
    """Run worker.py to the end; return its result."""
    argv = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args[:2]} ran past the deadline") from None
    results = [line for line in proc.stdout.splitlines() if line.startswith(b"RESULT ")]
    if proc.returncode != 0 or not results:
        raise WorkerFailed(f"worker {args[:2]} exited with code {proc.returncode}")
    return json.loads(results[-1][7:])


def item_medians(res: dict, unit: str) -> list[float]:
    return [statistics.median(it[unit]) for it in res["items"]]


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics, weighted by the Beta(p(n+1),
    (1-p)(n+1)) mass over each rank's interval.  The items near a given rank
    differ in size, so the single order statistic at that rank jumps between
    neighbouring items from run to run; this estimate does not.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 200 * n
    mass = [0.0] * n
    for j in range(steps):
        x = (j + 0.5) / steps
        mass[j * n // steps] += math.exp(log_norm + (a - 1) * math.log(x)
                                         + (b - 1) * math.log1p(-x))
    return sum(w * v for w, v in zip(mass, xs)) / sum(mass)


def tail_p(n: int) -> float:
    """The highest percentile with TAIL_BEYOND items above it."""
    return (n - TAIL_BEYOND) / n


def counts(res: dict) -> tuple[int, int, int]:
    attempted = sum(len(it["cu"]) for it in res["items"])
    failed = sum(it["failed_runs"] for it in res["items"])
    decided = sum(1 for it in res["items"] if it["decided"])
    return attempted, failed, decided


def source_identity() -> dict:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():     # not a checkout inside some other repo
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    return {"source_sha256": h.hexdigest()[:16], "commit": commit}


def print_header(res: dict, args) -> None:
    ident = source_identity()
    cal = res["calibration"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  python {res['python']}, nproc {res['nproc']}, "
          f"commit {ident['commit'] or 'unknown (not a git checkout)'}, "
          f"source sha256 {ident['source_sha256']}")
    print(f"  node cap at start/end: {res['node_cap'][0]}/{res['node_cap'][1]}")
    print(f"  inputs digest {res['inputs_digest']} ({len(res['items'])} items)")
    print(f"  verdicts digest {res['verdicts_digest']}")
    print(f"  calibration kernel: median {cal['median_s'] * 1e3:.2f} ms, "
          f"IQR {cal['q1_s'] * 1e3:.2f}-{cal['q3_s'] * 1e3:.2f} ms, "
          f"range {cal['min_s'] * 1e3:.2f}-{cal['max_s'] * 1e3:.2f} ms, "
          f"n={cal['count']}")
    for it in res["items"]:
        if it["bad"]:
            print(f"  FAILED {it['name']}: {'; '.join(it['bad'])}")


def end_to_end(args, deadline: float) -> tuple[dict, list]:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    probes = [run_worker(common + ["--setup-only"], deadline)
              for _ in range(SETUP_PROBES)]
    res = run_worker(common, deadline)
    print_header(res, args)
    # set-up CPU seconds at the reference host speed: the host's speed drifts
    # by up to 2x, and each probe's kernel runs, taken just before and just
    # after its set-up, give the speed of that moment
    setups = [p["setup_cpu_s"] * REFERENCE_SETUP_KERNEL_S / statistics.median(p["kernels"])
              for p in probes]
    cu, raw = item_medians(res, "cu"), item_medians(res, "s")
    attempted, failed, decided = counts(res)
    n = len(cu)
    p = tail_p(n)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh processes, CPU time at the "
                    f"reference speed; raw CPU " + ", ".join(
                        f"{p['setup_cpu_s']:.3f}" for p in probes)),
        "total_cu": (sum(cu), "cu", f"raw {sum(raw):.3f} s over {n} items"),
        "item_p50_cu": (quantile(cu, 0.5), "cu",
                        f"raw {quantile(raw, 0.5) * 1e3:.2f} ms"),
        "item_tail_cu": (quantile(cu, p), "cu", f"p{100 * p:.1f} of {n} items, "
                         f"{TAIL_BEYOND} beyond it; raw {quantile(raw, p) * 1e3:.2f} ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
        "decided_frac": (decided / n, "ratio", f"{decided} of {n} items decided"),
    }
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} item runs)")
    return metrics, [res]


def per_layer(args, deadline: float) -> tuple[dict, list]:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--single-pass"]
    plain = run_worker(common, deadline)
    res = run_worker(common + ["--trace"], deadline)
    print_header(res, args)
    plain_cu, traced_cu = sum(item_medians(plain, "cu")), sum(item_medians(res, "cu"))
    metrics = {name: tuple(m) for name, m in res["layers"].items()}
    metrics["trace.overhead_frac"] = (traced_cu / plain_cu - 1, "ratio",
                                      "traced against untraced total_cu")
    print(f"  traced total {traced_cu:.1f} cu against untraced {plain_cu:.1f} cu; "
          f"spans written to {res['spans_file']}")
    return metrics, [plain, res]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "actionpairs").is_dir():
        print(f"perfbench: no library source at {ROOT / 'src' / 'actionpairs'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, results = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit:<6} {note}")
    attempted = sum(counts(res)[0] for res in results)
    failed = sum(counts(res)[1] for res in results)
    clean = all(res["node_cap"] == [DEFAULT_NODE_CAP, DEFAULT_NODE_CAP]
                for res in results)
    if not clean:
        print("  FAILED the node cap was not the default at start and end")
    correct = failed == 0 and clean
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
