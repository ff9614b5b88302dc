"""Seeded mutation probe: how many small faults in one module the tests see.

Each mutant changes one site of the module: a comparison operator swapped
(< and <=, > and >=, == and !=, in and not in, is and is not), a boolean
operator flipped (and and or), or an int literal increased by one (string
constants, docstrings among them, are never changed).  The sites are drawn
with a seeded random generator, so a re-run with the same seed on the same
source draws the same sites.

Every mutant runs first against the module's own test file,
tests/test_<module>.py; a mutant that survives it runs against the whole
suite.  The report lists each mutant as killed by the module's tests, killed
by the suite, or survived.  Whether a survivor is equivalent (it changes no
result, only time or an unreachable case) is for the reader to argue.

The mutants run in a copy of the repository in a new temporary directory,
never in place, and the copy is removed at the end:

    python tools/mutation_probe.py src/actionpairs/presentations.py --seed 1 --sites 12

Only the standard library and pytest are used.  A full-suite run takes
about a minute on two cores, so a probe of 12 sites takes 2 to 15 minutes
depending on how many survive the module's tests.  Each mutant's test run
may take four times the unmutated suite run the probe makes first, plus a
minute; a run past that counts as a failure, so a mutant that hangs is
killed, not waited for.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
         ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}


def sites(source: str) -> list:
    """Every mutation site, as (index in ast.walk order, line, description)."""
    tree = ast.parse(source)
    out = []
    for k, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    out.append((k, j, node.lineno,
                                f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"))
        elif isinstance(node, ast.BoolOp):
            flip = "Or" if isinstance(node.op, ast.And) else "And"
            out.append((k, 0, node.lineno, f"{type(node.op).__name__} -> {flip}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((k, 0, node.lineno, f"{node.value} -> {node.value + 1}"))
    return out


def mutate(source: str, site: tuple) -> str:
    """The source with one site mutated, unparsed from the changed tree."""
    k, j, _, _ = site
    tree = ast.parse(source)
    node = list(ast.walk(tree))[k]
    if isinstance(node, ast.Compare):
        node.ops[j] = SWAPS[type(node.ops[j])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    else:
        node.value += 1
    return ast.unparse(tree)


def _passes(root: Path, tests: list, timeout: Optional[float] = None) -> bool:
    """Whether the tests pass within `timeout` seconds (a run that times
    out fails, so a mutant that hangs is seen)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    try:
        r = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                            "-p", "no:cacheprovider", *tests],
                           cwd=root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return r.returncode == 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("module", help="path of the module, relative to the repository")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sites", type=int, default=12, help="mutants to draw")
    args = p.parse_args(argv)

    repo = Path(__file__).resolve().parent.parent
    module = Path(args.module)
    tests = [f"tests/test_{module.stem}.py"]
    source = (repo / module).read_text()
    drawn = sorted(random.Random(args.seed).sample(
        sites(source), min(args.sites, len(sites(source)))), key=lambda s: s[2])

    work = Path(tempfile.mkdtemp(prefix="mutation_probe_"))
    root = work / "repo"
    results = []
    try:
        shutil.copytree(repo, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        start = time.monotonic()
        if not _passes(root, []):
            print("the unmutated suite fails; nothing to probe", file=sys.stderr)
            return 2
        timeout = 4 * (time.monotonic() - start) + 60
        for site in drawn:
            (root / module).write_text(mutate(source, site))
            if not _passes(root, tests, timeout):
                verdict = "killed by module tests"
            elif not _passes(root, [], timeout):
                verdict = "killed by suite"
            else:
                verdict = "survived"
            results.append({"line": site[2], "mutation": site[3], "verdict": verdict})
            print(f"{module}:{site[2]}  {site[3]:<16} {verdict}", flush=True)
    finally:
        shutil.rmtree(work)
    counts = {v: sum(r["verdict"] == v for r in results)
              for v in ("killed by module tests", "killed by suite", "survived")}
    print(json.dumps({"module": str(module), "seed": args.seed, **counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
