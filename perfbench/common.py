"""Pieces shared by the four workloads: the item type and the CLI runner."""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable


@dataclass
class Item:
    """One unit of timed work with a verdict that is checked against known truth.

    `run(call)` performs the item; every call into the library goes through
    `call(fn, *args)`, which times it.  It returns a verdict dict (compared
    across commits through the verdict digest), a list of failed checks
    (empty when the verdict matches known truth) and whether the item reached
    a decision rather than an exhausted enumeration budget.
    """

    name: str
    spec: object                    # JSON-able description of the input
    run: Callable


def run_cli(call, cli, argv: list) -> tuple[int, dict]:
    """Run `cli.main(argv)` in process as timed work; parse its JSON report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = call(cli.main, argv)
    return rc, json.loads(out.getvalue())
