"""repro-lint: AST-based checks for the project's correctness contracts.

Nine PRs of hand-proven invariants -- bit-identical engines, seeded
streams, numpy gating, slotted hot paths, registries the equivalence
suites actually cover -- are worth a mechanical guard.  This package is
that guard: a registry of stdlib-``ast`` checkers, each enforcing one
named contract:

========  ==========================================================
W-DET     no wall-clock reads or unseeded randomness in sim code
W-GATE    numpy imports stay lazy/guarded outside gated backends
W-SLOTS   hot-path classes (sim/, cache/, core/meter.py) declare
          ``__slots__``
W-ORDER   set/.keys() iteration passes through ``sorted()``
W-REG     registered specs round-trip and stay parametrized in the
          equivalence suites
W-PRAGMA  suppressions carry a reason (meta-rule)
========  ==========================================================

Run it as ``repro-vod lint`` or ``python -m repro.devtools.lint``;
suppress a single line with a ``repro-lint: disable=<rule>`` comment
carrying a mandatory ``reason=`` tail.

Adding a checker: write ``def check(unit: ModuleUnit) -> Iterator[
Finding]`` in a new module here, decorate it with
``@checker("W-NEW")`` after adding the id to :data:`~repro.devtools.
lint.core.RULES`, import the module in ``core._load_checkers``, and
seed one known-bad fixture in ``tests/devtools/fixtures/tree`` so the
self-test corpus proves the rule fires.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.devtools.lint.core import (  # noqa: F401  (public API)
    RULES,
    Finding,
    ModuleUnit,
    checker,
    registered_rules,
    render_findings,
    run_lint,
)


def default_target() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-vod lint`` / ``python -m repro.devtools.lint`` entry point.

    Exits 0 on a clean tree, 1 when findings are reported.
    """
    parser = argparse.ArgumentParser(
        prog="repro-vod lint",
        description=(
            "Statically enforce the reproduction's determinism and "
            "registry contracts (W-DET, W-GATE, W-SLOTS, W-ORDER, W-REG)."
        ),
    )
    parser.add_argument(
        "path", nargs="?", default=None,
        help="tree to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable findings instead of file:line:rule lines",
    )
    parser.add_argument(
        "--rules", default=None, metavar="W-A,W-B",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id with its contract and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        width = max(len(rule) for rule in RULES)
        for rule in sorted(RULES):
            print(f"{rule:<{width}}  {RULES[rule]}")
        return 0

    rules = None
    if args.rules is not None:
        rules = [part.strip() for part in args.rules.split(",") if part.strip()]
    target = Path(args.path) if args.path is not None else default_target()
    if not target.exists():
        print(f"error: no such path: {target}", file=sys.stderr)
        return 2

    findings = run_lint(target, rules=rules)
    try:
        print(render_findings(findings, as_json=args.as_json))
    except BrokenPipeError:  # e.g. `repro-vod lint | head`
        sys.stderr.close()
    return 1 if findings else 0
