"""Dead-code rule: every public name under ``src/`` needs a caller.

``dead-public-name`` flags each public (no leading ``_``) module-level
function, class and constant (a ``NAME = ...`` or ``NAME: T = ...``
target) in a checked file under ``src/``, and each public method of a
module-level class, when nothing in ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` references its name.  Tests are not
callers: a name that only tests reach is dead code with a test
attached.

A reference is any of:

* an ``ast.Name`` id that is read (not assigned) or an
  ``ast.Attribute`` attr;
* the original name in an aliased import (``import f as g``);
* each segment of a string constant that is a dotted identifier, such
  as perfbench's ``"TokenServingEngine.run"`` boundary targets and
  ``getattr`` names.

Not references: the definition itself (so an assignment target never
counts), the strings of ``__all__``, plain ``import`` / ``from ...
import`` lines (a re-export is not a caller), docstrings, and anything
under ``tests/``.  A function whose decorator is a call counts as used,
because the decorator registers it (the ``@rule(...)`` idiom of this
package).

The rule is name-based on purpose and does no type inference: once any
object uses a name, every definition of that name counts as used.
``ServiceModel.cache_info`` is reached only by tests, for example, but
``PhotonicExecutor.cache_info`` hides it.

The reference roots are a constant, not a setting.  The rule reads all
of them whatever paths were passed, so checking one file gives that
file the same answer as checking ``src``; it reuses the trees the run
already parsed and skips ``exclude``-d paths.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set, Tuple

from ..findings import Finding
from ..registry import ModuleContext, rule

# Directories (under the config root) whose code counts as a caller.
REFERENCE_ROOTS = ("src", "benchmarks", "examples", "perfbench")

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_CONSTANTS = (ast.Assign, ast.AnnAssign)
_SCOPES = (ast.Module, *_DEFS)
_ASSIGNS = (ast.Assign, ast.AugAssign, ast.AnnAssign)


def _references(tree: ast.Module) -> Set[str]:
    """Every name ``tree`` references, by the rules in the docstring.

    A hand-rolled stack walk with exact-type dispatch: ``ast.walk`` made
    the rule cost four times as much over the ~160 files it reads.  A
    parent is popped before its children, so a docstring or an
    ``__all__`` list is marked before its constants are reached.
    """
    skip: Set[int] = set()  # ids of string constants that do not count
    names: Set[str] = set()
    stack: List[object] = [tree]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.Name:
            if type(node.ctx) is not ast.Store:
                names.add(node.id)
            continue
        if kind is ast.Attribute:
            names.add(node.attr)
            stack.append(node.value)
            continue
        if kind is ast.Constant:
            value = node.value
            if type(value) is str and id(node) not in skip and _DOTTED.fullmatch(value):
                names.update(value.split("."))
            continue
        if kind is ast.alias:
            if node.asname is not None:
                names.update(node.name.split("."))
            continue
        if node is None or kind is str:  # list members of Dict / Global
            continue
        if kind in _SCOPES:
            first = node.body[0] if node.body else None
            if type(first) is ast.Expr and type(first.value) is ast.Constant:
                skip.add(id(first.value))
        elif kind in _ASSIGNS:
            targets = node.targets if kind is ast.Assign else (node.target,)
            if node.value is not None and any(
                type(t) is ast.Name and t.id == "__all__" for t in targets
            ):
                skip.update(id(sub) for sub in ast.walk(node.value))
        for field in node._fields:
            child = getattr(node, field, None)
            if type(child) is list:
                stack.extend(child)
            elif isinstance(child, ast.AST):
                stack.append(child)
    return names


def _is_candidate(node: ast.AST) -> bool:
    if node.name.startswith("_"):
        return False
    return isinstance(node, ast.ClassDef) or not any(
        isinstance(d, ast.Call) for d in node.decorator_list
    )


def _public_definitions(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """(node, qualified name) of each definition the rule checks."""
    for node in tree.body:
        if type(node) in _CONSTANTS:
            targets = node.targets if type(node) is ast.Assign else (node.target,)
            for target in targets:
                if type(target) is ast.Name and not target.id.startswith("_"):
                    yield target, target.id
            continue
        if not isinstance(node, _DEFS):
            continue
        if _is_candidate(node):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS[:2]) and _is_candidate(item):
                    yield item, f"{node.name}.{item.name}"


def _referenced_names(contexts: List[ModuleContext]) -> Set[str]:
    config = contexts[0].config
    parsed = {ctx.path.resolve(): ctx.tree for ctx in contexts}
    names: Set[str] = set()
    for root in REFERENCE_ROOTS:
        for path in sorted((config.root / root).rglob("*.py")):
            if config.is_excluded(path.relative_to(config.root).as_posix()):
                continue
            tree = parsed.get(path.resolve())
            if tree is None:
                try:
                    tree = ast.parse(path.read_text(encoding="utf-8"))
                except SyntaxError:
                    continue  # reported as parse-error when its root is checked
            names |= _references(tree)
    return names


@rule("dead-public-name", "public function, class, method or module "
      "constant under src/ that nothing in src/, benchmarks/, examples/ or "
      "perfbench/ references", scope="project")
def check_dead_public_names(contexts: List[ModuleContext]) -> Iterator[Finding]:
    checked = [ctx for ctx in contexts if ctx.rel_path.startswith("src/")]
    if not checked:
        return
    used = _referenced_names(contexts)
    for ctx in checked:
        for node, qualname in _public_definitions(ctx.tree):
            if qualname.rpartition(".")[2] not in used:
                yield ctx.finding(
                    "dead-public-name", node,
                    f"'{qualname}' is referenced nowhere in "
                    f"{', '.join(REFERENCE_ROOTS)}; delete it, or waive it "
                    "with the reason it must stay",
                )
