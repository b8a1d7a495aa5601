"""Layering rules: the import DAG of ``repro`` must point downward.

The declared order (``[tool.repro-checks] layers`` in pyproject, bottom
first) groups first-level packages into layers; a module may import
same-layer and lower-layer packages only.  Three rules ride on the one
import graph built per run:

* ``layering-upward-import`` — an import whose target package sits in a
  *higher* layer than the importer;
* ``layering-undeclared-package`` — a first-level package absent from
  the declared order (new subsystems must be placed deliberately);
* ``layering-cycle`` — a module-level import cycle anywhere inside the
  layer root, regardless of layers (cycles break the "downward only"
  story even within a layer).

``repro/__init__.py`` is exempt: the package facade re-exports every
subpackage by design and sits above the whole order.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..findings import Finding
from ..registry import ModuleContext, rule

# (importer ctx, import lineno, target dotted module)
_Edge = Tuple[ModuleContext, int, str]


def _imports_of(ctx: ModuleContext) -> Iterator[Tuple[int, str]]:
    """Yield (lineno, absolute dotted target) for intra-root imports."""
    root = ctx.config.layer_root
    assert ctx.module is not None
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == root or alias.name.startswith(root + "."):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ctx.module.split(".")
                if not ctx.path.name == "__init__.py":
                    base = base[:-1]
                if node.level - 1 > len(base):
                    continue  # beyond the package root; runtime error anyway
                base = base[: len(base) - (node.level - 1)]
                if node.module:
                    yield node.lineno, ".".join(base + node.module.split("."))
                else:
                    for alias in node.names:
                        yield node.lineno, ".".join(base + [alias.name])
            elif node.module and (
                node.module == root or node.module.startswith(root + ".")
            ):
                yield node.lineno, node.module


def _package_of(module: str, root: str) -> Optional[str]:
    parts = module.split(".")
    if parts[0] != root or len(parts) < 2:
        return None
    return parts[1]


@rule("layering", "import DAG must match the declared layer order "
      "(emits layering-upward-import/-undeclared-package/-cycle)",
      scope="project")
def check_layering(contexts: List[ModuleContext]) -> Iterator[Finding]:
    scanned = {
        ctx.module: ctx
        for ctx in contexts
        if ctx.module and ctx.module.split(".")[0] == ctx.config.layer_root
    }
    if not scanned:
        return
    config = next(iter(scanned.values())).config
    root = config.layer_root

    # --- per-import package-rank checks + module-level edge collection
    graph: Dict[str, List[Tuple[str, int]]] = {m: [] for m in scanned}
    for module, ctx in sorted(scanned.items()):
        if module == root:
            continue  # package facade: re-exports everything by design
        src_pkg = _package_of(module, root)
        src_rank = config.layer_rank(src_pkg) if src_pkg else None
        if src_pkg is not None and src_rank is None:
            yield Finding(
                path=ctx.rel_path, line=1, col=0,
                rule="layering-undeclared-package",
                message=(
                    f"package '{src_pkg}' is not in the declared layer "
                    "order; add it to [tool.repro-checks] layers"
                ),
            )
        for lineno, target in _imports_of(ctx):
            # Trim symbol imports down to the longest scanned module.
            resolved = target
            while resolved not in scanned and "." in resolved:
                resolved = resolved.rsplit(".", 1)[0]
            if resolved in scanned and resolved != module:
                graph[module].append((resolved, lineno))
            dst_pkg = _package_of(target, root)
            if dst_pkg is None:
                continue
            dst_rank = config.layer_rank(dst_pkg)
            if dst_rank is None:
                yield Finding(
                    path=ctx.rel_path, line=lineno, col=0,
                    rule="layering-undeclared-package",
                    message=(
                        f"import of undeclared package '{dst_pkg}'; add "
                        "it to [tool.repro-checks] layers"
                    ),
                )
            if (
                src_rank is not None
                and dst_rank is not None
                and dst_rank > src_rank
            ):
                yield Finding(
                    path=ctx.rel_path, line=lineno, col=0,
                    rule="layering-upward-import",
                    message=(
                        f"upward import: '{src_pkg}' (layer {src_rank}) "
                        f"imports '{dst_pkg}' (layer {dst_rank}); layers "
                        "may only import downward"
                    ),
                )

    # --- cycle detection over the module-level graph (Tarjan SCC)
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    counter = [0]
    sccs: List[List[str]] = []

    def strongconnect(v: str) -> None:
        # Iterative Tarjan: recursion depth would scale with module count.
        work = [(v, 0)]
        while work:
            node, pi = work.pop()
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            succs = [t for t, _ in graph.get(node, [])]
            for i in range(pi, len(succs)):
                succ = succs[i]
                if succ not in index:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if on_stack.get(succ):
                    low[node] = min(low[node], index[succ])
            if recurse:
                continue
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for module in sorted(graph):
        if module not in index:
            strongconnect(module)

    for scc in sccs:
        is_cycle = len(scc) > 1 or any(
            t == scc[0] for t, _ in graph.get(scc[0], [])
        )
        if not is_cycle:
            continue
        members = sorted(scc)
        anchor = scanned[members[0]]
        lineno = 1
        for target, ln in graph[members[0]]:
            if target in scc:
                lineno = ln
                break
        yield Finding(
            path=anchor.rel_path, line=lineno, col=0,
            rule="layering-cycle",
            message="import cycle: " + " -> ".join(members + [members[0]]),
        )
