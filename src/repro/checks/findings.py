"""Finding records and report rendering for :mod:`repro.checks`.

A :class:`Finding` is one rule violation at one source location.  The
only way to suppress one is an inline waiver on its line (see
:mod:`repro.checks.waivers`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Finding", "Report"]


@dataclass(order=True)
class Finding:
    """One rule violation at one location.

    ``path`` is repo-relative with forward slashes so reports and waivers
    are portable across checkouts.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    waived: bool = field(default=False, compare=False)
    waive_reason: Optional[str] = field(default=None, compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "waived": self.waived,
            "waive_reason": self.waive_reason,
        }


@dataclass
class Report:
    """The outcome of one checker run."""

    profile: str
    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def active(self) -> List[Finding]:
        """Findings that fail the run (not waived)."""
        return [f for f in self.findings if not f.waived]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.active:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def render_text(self, *, show_suppressed: bool = False) -> str:
        lines: List[str] = []
        for f in sorted(self.findings):
            if f.waived and not show_suppressed:
                continue
            tag = " [waived: %s]" % f.waive_reason if f.waived else ""
            lines.append(f"{f.location()}: {f.rule}: {f.message}{tag}")
        active = self.active
        suppressed = len(self.findings) - len(active)
        lines.append(
            f"{len(active)} finding(s) in {self.files_checked} file(s)"
            f" ({suppressed} suppressed, profile={self.profile})"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        payload = {
            "version": 1,
            "profile": self.profile,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in sorted(self.findings)],
            "counts": self.counts_by_rule(),
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
