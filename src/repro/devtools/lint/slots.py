"""W-SLOTS: hot-path classes must declare ``__slots__``.

The replay engines construct these objects per neighborhood, per
session, or per decision; an instance ``__dict__`` costs memory and an
extra indirection on every attribute access, and PR 1's hot-path
rebuild leaned on de-allocating exactly these classes.  The contract:
every class defined in a hot-path module declares ``__slots__`` --
``()`` when it adds no state -- so a future class can't silently
reintroduce dict-backed instances.

Exemptions (checked structurally, not by name):

* ``@dataclass``-decorated classes: the config/value surface (specs,
  stats records).  ``dataclass(slots=True)`` needs python >= 3.10 and
  this package still supports 3.9, so they are waved through until the
  floor moves.
* Exception types (a base named ``*Error``/``*Exception``): raised, not
  accumulated.
* ``Protocol`` / ``NamedTuple`` / ``TypedDict`` / ``Enum`` bases: their
  metaclasses own the layout.
* Classes defined inside functions (test doubles, factories).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.core import Finding, ModuleUnit, checker

#: Directory prefixes / exact files whose classes live on the replay
#: hot path, relative to the linted tree root.
_HOT_PREFIXES = ("sim/", "cache/")
_HOT_FILES = frozenset({"core/meter.py"})

_LAYOUT_OWNING_BASES = frozenset({
    "Protocol", "NamedTuple", "TypedDict", "Enum", "IntEnum", "Flag",
    "IntFlag", "type",
})


def _is_hot_module(rel: str) -> bool:
    return rel.startswith(_HOT_PREFIXES) or rel in _HOT_FILES


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if (isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"):
                return True
    return False


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Protocol[...], Generic[T]
        return _base_name(node.value)
    return ""


def _is_exempt(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _base_name(target) == "dataclass":
            return True
    for base in node.bases:
        name = _base_name(base)
        if name in _LAYOUT_OWNING_BASES or name == "Generic":
            return True
        if name.endswith(("Error", "Exception")) or name == "BaseException":
            return True
    return False


def _module_level_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Classes at module scope, including those nested in other classes."""
    stack = [s for s in tree.body if isinstance(s, ast.ClassDef)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(s for s in node.body if isinstance(s, ast.ClassDef))


@checker("W-SLOTS")
def check_slots(unit: ModuleUnit) -> Iterator[Finding]:
    if not _is_hot_module(unit.rel):
        return
    for node in _module_level_classes(unit.tree):
        if _declares_slots(node) or _is_exempt(node):
            continue
        yield Finding(
            unit.rel, node.lineno, node.col_offset, "W-SLOTS",
            f"hot-path class {node.name} has no __slots__; declare one "
            f"(use __slots__ = () if it adds no instance state)",
        )
