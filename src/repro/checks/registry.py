"""Rule registry and per-module analysis context.

Rules are plain generator functions registered under a kebab-case id:

* ``scope="module"`` rules receive one :class:`ModuleContext` and yield
  :class:`Finding`\\ s for that file;
* ``scope="project"`` rules receive the full list of contexts in one
  call — the layering rules need the whole import graph at once.

Registration is import-time (the :mod:`repro.checks.rules` package
imports each rule module), so ``all_rules()`` is complete as soon as the
package is imported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional

from .config import CheckConfig
from .findings import Finding

__all__ = ["ModuleContext", "RuleSpec", "rule", "all_rules", "module_name_for"]


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name, walking up through ``__init__.py`` packages.

    Returns ``None`` for scripts that are not part of any package (their
    directory has no ``__init__.py``) — e.g. benchmark files.
    """
    path = path.resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if len(parts) == 1 and not (path.parent / "__init__.py").is_file():
        return None
    parts.reverse()
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@dataclass
class ModuleContext:
    """Everything a module-scope rule may look at for one file."""

    path: Path
    rel_path: str  # root-relative, '/'-separated (report + config key)
    module: Optional[str]
    source: str
    tree: ast.Module
    config: CheckConfig

    def finding(
        self, rule_id: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule_id,
            message=message,
        )

    def in_paths(self, fragments: Iterable[str]) -> bool:
        """True when this file lives under any of the path fragments."""
        return any(frag in self.rel_path for frag in fragments)


@dataclass
class RuleSpec:
    rule_id: str
    description: str
    scope: str  # "module" | "project"
    check: Callable


_RULES: Dict[str, RuleSpec] = {}


def rule(rule_id: str, description: str, scope: str = "module"):
    """Register a rule function under ``rule_id``."""
    if scope not in ("module", "project"):
        raise ValueError(f"bad scope {scope!r}")

    def decorate(fn: Callable) -> Callable:
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _RULES[rule_id] = RuleSpec(rule_id, description, scope, fn)
        return fn

    return decorate


def all_rules() -> Dict[str, RuleSpec]:
    return dict(_RULES)
