"""Unused-import rule: a module-level import that nothing reads.

``unused-import`` flags each name that a top-level ``import`` or
``from ... import`` statement binds when nothing in the same module
reads it.  A read is any of:

* an ``ast.Name`` node, which covers attribute roots (``np`` in
  ``np.zeros``);
* a name inside a quoted annotation, such as ``Dict`` and ``Deque`` in
  ``"OrderedDict[str, Dict[int, Deque[Request]]]"``;
* a string in the module's ``__all__``.

``from __future__`` imports and star imports bind nothing to check, and
package ``__init__.py`` files are skipped whole: their imports are
re-exports.  The finding sits on the line of the imported name, so one
name of a multi-line ``from ... import (...)`` can carry its own waiver.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..findings import Finding
from ..registry import ModuleContext, rule

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_ALL_ASSIGNS = (ast.Assign, ast.AugAssign, ast.AnnAssign)


def _annotation_names(annotation: ast.AST, names: Set[str]) -> None:
    """Add the names of every quoted part of ``annotation``."""
    for node in ast.walk(annotation):
        if type(node) is ast.Constant and type(node.value) is str:
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                sub.id for sub in ast.walk(quoted) if type(sub) is ast.Name
            )


def _reads(tree: ast.Module) -> Set[str]:
    """Every name ``tree`` reads, by the rules in the module docstring.

    A stack walk with exact-type dispatch, as in the dead-code rule:
    ``ast.walk`` with ``isinstance`` costs several times as much.
    """
    names: Set[str] = set()
    stack: List[object] = [tree]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.Name:
            names.add(node.id)
            continue
        if kind is ast.Constant or node is None or kind is str:
            continue
        if kind is ast.arg or kind is ast.AnnAssign:
            if node.annotation is not None:
                _annotation_names(node.annotation, names)
        elif kind in _FUNCS and node.returns is not None:
            _annotation_names(node.returns, names)
        for field in node._fields:
            child = getattr(node, field, None)
            if type(child) is list:
                stack.extend(child)
            elif isinstance(child, ast.AST):
                stack.append(child)
    for stmt in tree.body:
        if type(stmt) in _ALL_ASSIGNS and stmt.value is not None:
            targets = stmt.targets if type(stmt) is ast.Assign else (stmt.target,)
            if any(type(t) is ast.Name and t.id == "__all__" for t in targets):
                names.update(
                    sub.value for sub in ast.walk(stmt.value)
                    if type(sub) is ast.Constant and type(sub.value) is str
                )
    return names


@rule("unused-import", "top-level import binding that nothing in its "
      "module reads")
def check_unused_imports(ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.path.name == "__init__.py":
        return
    imports = [
        stmt for stmt in ctx.tree.body
        if type(stmt) is ast.Import
        or (type(stmt) is ast.ImportFrom and stmt.module != "__future__")
    ]
    if not imports:
        return
    read = _reads(ctx.tree)
    for stmt in imports:
        for alias in stmt.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                yield ctx.finding(
                    "unused-import", alias,
                    f"'{bound}' is imported but never read in this module; "
                    "delete the import",
                )
