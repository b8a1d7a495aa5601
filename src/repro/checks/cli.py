"""``python -m repro.checks`` command line.

Exit codes: 0 clean, 1 active findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .config import PROFILES, load_config
from .registry import all_rules
from .runner import run_checks

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description=(
            "Repo-specific static analysis: determinism, layering, "
            "clock discipline, hygiene and dead-code rules over stdlib ast."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--profile", choices=PROFILES, default="strict",
        help="rule profile: strict for src, relaxed for tests/benchmarks",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="output_format", help="report format",
    )
    parser.add_argument(
        "--config", type=Path, default=None, metavar="PYPROJECT",
        help="explicit pyproject.toml (default: walk up from cwd)",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print waived findings in text output",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rule ids and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, spec in sorted(all_rules().items()):
            print(f"{rule_id:32s} [{spec.scope:7s}] {spec.description}")
        return 0
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_checks(
            [Path(p) for p in args.paths],
            profile=args.profile,
            config=config,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(report.render_json())
    else:
        print(report.render_text(show_suppressed=args.show_suppressed))
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
