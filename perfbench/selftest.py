"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Each workload's inputs are reproduced exactly by its seed, and the seeds
   that pick inputs pick different ones.
2. A copy of the benchmark with one deliberately wrong expectation (the size
   of one criterion-2 bundle) must make `run.py` report the failed item and
   exit non-zero, while the unchanged benchmark passes on the same inputs.

Exits 0 when every check holds.  Takes about a minute on a 2-vCPU host.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(HERE))

from worker import WORKLOADS, digest  # noqa: E402

WRONG = ('        add("En", 2 ** n, n)',
         '        add("En", 2 ** n + (n == 3), n)')


def inputs(workload: str, seed: int) -> str:
    items = importlib.import_module(workload).setup(seed)
    return digest([[it.name, it.spec] for it in items])


def run(bench_dir: Path) -> tuple[int, dict | None]:
    out = subprocess.run([sys.executable, str(bench_dir / "run.py"),
                          "--workload", "presentations", "--seed", "1",
                          "--seconds", "1"], capture_output=True, text=True,
                         timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    failures = []
    for w in WORKLOADS:
        if inputs(w, 7) != inputs(w, 7):
            failures.append(f"{w}: seed 7 did not reproduce its inputs")
    for w in ("refutations", "laws"):
        if inputs(w, 7) == inputs(w, 8):
            failures.append(f"{w}: seeds 7 and 8 gave the same inputs")

    mutant = HERE / "out" / "selftest"
    shutil.rmtree(mutant, ignore_errors=True)
    mutant.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, mutant / path.name)
    text = (mutant / "presentations.py").read_text()
    if text.count(WRONG[0]) != 1:
        failures.append("could not plant the wrong expectation")
    (mutant / "presentations.py").write_text(text.replace(*WRONG))

    rc, res = run(mutant)
    if rc == 0 or res is None or res["correct"] or res["failed"] < 1:
        failures.append(f"wrong expectation not caught: exit {rc}, result {res}")
    rc, res = run(HERE)
    if rc != 0 or res is None or not res["correct"] or res["failed"] != 0:
        failures.append(f"unchanged benchmark failed: exit {rc}, result {res}")
    shutil.rmtree(mutant, ignore_errors=True)

    for f in failures:
        print(f"SELFTEST FAIL {f}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
