"""Checker driver: collect files, run rules, apply waivers."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from . import rules  # repro: waive[unused-import] -- importing the rules package registers every rule
from .config import CheckConfig, load_config
from .findings import Finding, Report
from .registry import ModuleContext, all_rules, module_name_for
from .waivers import apply_waivers, parse_waivers

__all__ = ["collect_files", "build_contexts", "run_checks"]


def collect_files(paths: Iterable[Path], config: CheckConfig) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    out: Dict[Path, None] = {}
    for p in paths:
        p = Path(p)
        if not p.is_absolute():
            p = config.root / p
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                out[f.resolve()] = None
        elif p.suffix == ".py":
            out[p.resolve()] = None
    files = []
    for f in out:
        rel = _rel_path(f, config)
        if not config.is_excluded(rel):
            files.append(f)
    return sorted(files)


def _rel_path(path: Path, config: CheckConfig) -> str:
    try:
        return path.resolve().relative_to(config.root).as_posix()
    except ValueError:
        return path.as_posix()


def build_contexts(
    files: List[Path], config: CheckConfig
) -> Tuple[List[ModuleContext], List[Finding]]:
    contexts: List[ModuleContext] = []
    parse_failures: List[Finding] = []
    for path in files:
        rel = _rel_path(path, config)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            parse_failures.append(
                Finding(
                    path=rel,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule="parse-error",
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        contexts.append(
            ModuleContext(
                path=path,
                rel_path=rel,
                module=module_name_for(path),
                source=source,
                tree=tree,
                config=config,
            )
        )
    return contexts, parse_failures


def run_checks(
    paths: Iterable[Path],
    *,
    profile: str = "strict",
    config: Optional[CheckConfig] = None,
) -> Report:
    """Run every enabled rule over ``paths`` and return a :class:`Report`."""
    if config is None:
        config = load_config()
    disabled = set(config.disabled_for(profile))
    files = collect_files(paths, config)
    contexts, findings = build_contexts(files, config)

    for spec in all_rules().values():
        if spec.rule_id in disabled:
            continue
        if spec.scope == "project":
            findings.extend(spec.check(contexts))
        else:
            for ctx in contexts:
                findings.extend(spec.check(ctx))
    # A pass may emit several finding ids (layering-*); honour disables
    # at finding granularity too.
    findings = [f for f in findings if f.rule not in disabled]

    waivers_by_file = {
        ctx.rel_path: parse_waivers(ctx.rel_path, ctx.source)
        for ctx in contexts
    }
    findings = apply_waivers(findings, waivers_by_file)
    return Report(
        profile=profile,
        findings=sorted(findings),
        files_checked=len(files),
    )
