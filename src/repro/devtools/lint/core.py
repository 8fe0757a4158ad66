"""repro-lint core: findings, suppression pragmas, and the file runner.

A *checker* is a callable taking a :class:`ModuleUnit` (one parsed
source file plus its classification relative to the linted tree) and
yielding :class:`Finding` objects.  Checkers register themselves with
the :func:`checker` decorator under their rule id; the runner parses
each file exactly once, hands the unit to every requested checker, then
applies per-line suppression pragmas.

Suppression pragma grammar (same line as the finding)::

    x = time.time()  # repro-lint: disable=W-DET reason=host clock probe

* ``disable=`` takes one rule id or a comma-separated list.
* ``reason=`` is **mandatory** and consumes the rest of the comment --
  a suppression without a stated reason is itself reported (W-PRAGMA),
  as is one naming an unknown rule.  The contract being waived matters
  exactly as much as the waiver's justification.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Rule ids with one-line summaries (the README table is generated from
#: the same wording; keep them in sync).
RULES: Dict[str, str] = {
    "W-DET": ("wall-clock or unseeded randomness in simulation code; all "
              "RNG must flow through sim.random_streams.derive_seed"),
    "W-GATE": ("module-level numpy import outside the gated backend "
               "modules; the python-only leg must import every module"),
    "W-SLOTS": ("class in a hot-path module (sim/, cache/, "
                "core/meter.py) without __slots__"),
    "W-ORDER": ("iteration over a set/.keys() view without sorted(); "
                "nondeterministic order is a bit-identity hazard"),
    "W-REG": ("registry entry without round-trip support or missing from "
              "the equivalence-suite parametrizations"),
    "W-PRAGMA": "malformed suppression pragma (missing reason= or unknown rule)",
}

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9,\-]+)"
    r"(?:\s+reason=(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One contract violation at a source location."""

    path: str  #: tree-relative posix path
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The human-facing ``file:line:col: RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class Pragma:
    """A parsed suppression comment on one source line."""

    line: int
    rules: Tuple[str, ...]
    reason: Optional[str]


class ModuleUnit:
    """One source file, parsed once and classified for the checkers."""

    def __init__(self, root: Path, path: Path) -> None:
        self.root = root
        self.path = path
        #: Path relative to the linted tree root, posix-style -- the
        #: namespace every scoping decision (hot-path modules, gated
        #: modules, allowlists) is expressed in.
        self.rel = path.relative_to(root).as_posix()
        self.source = path.read_text(encoding="utf-8")
        self.tree = ast.parse(self.source, filename=str(path))
        self.lines = self.source.splitlines()
        self._pragmas: Optional[Dict[int, Pragma]] = None

    # -- pragmas ---------------------------------------------------------

    def pragmas(self) -> Dict[int, Pragma]:
        """Suppression pragmas by line number (malformed ones included)."""
        if self._pragmas is None:
            found: Dict[int, Pragma] = {}
            for lineno, text in enumerate(self.lines, start=1):
                match = _PRAGMA_RE.search(text)
                if match is None:
                    continue
                rules = tuple(
                    part.strip() for part in match.group("rules").split(",")
                    if part.strip()
                )
                found[lineno] = Pragma(lineno, rules, match.group("reason"))
            self._pragmas = found
        return self._pragmas

    # -- import alias resolution ----------------------------------------

    def import_aliases(self) -> Dict[str, str]:
        """Map local names to the dotted module/object they denote.

        ``import time as _time`` maps ``_time -> time``;
        ``from datetime import datetime`` maps
        ``datetime -> datetime.datetime``.  Only top-of-tree information
        is needed to resolve the dotted call names checkers ban, so
        every ``import`` statement in the file contributes regardless of
        nesting.
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return aliases

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute/name expression to its dotted import path.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``numpy.random.default_rng``; returns ``None`` for expressions
        rooted anywhere but an imported name.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.import_aliases().get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


#: rule id -> checker callable.
_CHECKERS: Dict[str, Callable[[ModuleUnit], Iterable[Finding]]] = {}


def checker(rule: str) -> Callable[
    [Callable[[ModuleUnit], Iterable[Finding]]],
    Callable[[ModuleUnit], Iterable[Finding]],
]:
    """Register a per-file checker under its rule id."""
    if rule not in RULES:
        raise ValueError(f"unknown rule id {rule!r}; add it to RULES first")

    def register(func: Callable[[ModuleUnit], Iterable[Finding]]):
        if rule in _CHECKERS:
            raise ValueError(f"checker for {rule} registered twice")
        _CHECKERS[rule] = func
        return func

    return register


def registered_rules() -> List[str]:
    """Rule ids with a registered per-file checker, sorted."""
    _load_checkers()
    return sorted(_CHECKERS)


def _load_checkers() -> None:
    """Import the checker modules (registration side effect)."""
    from repro.devtools.lint import (  # noqa: F401
        determinism, gating, ordering, registries, slots,
    )


def _apply_pragmas(unit: ModuleUnit, findings: List[Finding]) -> List[Finding]:
    """Drop suppressed findings; report malformed or unknown pragmas."""
    kept: List[Finding] = []
    pragmas = unit.pragmas()
    for finding in findings:
        pragma = pragmas.get(finding.line)
        if (pragma is not None and pragma.reason
                and finding.rule in pragma.rules):
            continue
        kept.append(finding)
    for pragma in pragmas.values():
        if not pragma.reason:
            kept.append(Finding(
                unit.rel, pragma.line, 0, "W-PRAGMA",
                "suppression requires reason= "
                "(state why the contract does not apply here)",
            ))
        for rule in pragma.rules:
            if rule not in RULES:
                kept.append(Finding(
                    unit.rel, pragma.line, 0, "W-PRAGMA",
                    f"unknown rule {rule!r} in suppression "
                    f"(known: {', '.join(sorted(RULES))})",
                ))
    return kept


def iter_source_files(root: Path) -> Iterator[Path]:
    """Python files under ``root``, stably ordered."""
    return iter(sorted(root.rglob("*.py")))


def run_lint(root: Path, rules: Optional[Sequence[str]] = None,
             project: bool = True) -> List[Finding]:
    """Lint every python file under ``root``.

    Parameters
    ----------
    root:
        Tree to lint -- normally the installed ``repro`` package
        directory; the self-test corpus points it at miniature trees.
    rules:
        Restrict to these rule ids (default: all registered).
    project:
        Also run the project-level half of W-REG (registry round-trips
        and equivalence-suite coverage).  Per-file checkers run either
        way.
    """
    _load_checkers()
    root = Path(root).resolve()
    wanted = set(rules) if rules is not None else set(_CHECKERS)
    unknown = wanted - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule ids: {sorted(unknown)}")

    findings: List[Finding] = []
    for path in iter_source_files(root):
        unit = ModuleUnit(root, path)
        raw: List[Finding] = []
        for rule, check in _CHECKERS.items():
            if rule in wanted:
                raw.extend(check(unit))
        findings.extend(_apply_pragmas(unit, raw))

    if project and (rules is None or "W-REG" in wanted):
        from repro.devtools.lint.registries import project_registry_findings

        findings.extend(project_registry_findings(root))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_findings(findings: Sequence[Finding], as_json: bool = False) -> str:
    """Human or ``--json`` report for a lint run."""
    if as_json:
        return json.dumps(
            {"findings": [f.to_dict() for f in findings],
             "count": len(findings)},
            indent=2,
        )
    if not findings:
        return "repro-lint: clean"
    lines = [finding.render() for finding in findings]
    lines.append(f"repro-lint: {len(findings)} finding"
                 f"{'s' if len(findings) != 1 else ''}")
    return "\n".join(lines)
