"""Inline waivers: ``# repro: waive[rule-id] -- reason``.

A waiver suppresses findings of the named rule(s) **on its own line**.
The reason is mandatory — a waiver without one raises a
``waiver-missing-reason`` finding, and a waiver that suppresses nothing
raises ``waiver-unused`` so stale waivers cannot accumulate.  Multiple
rules may share one waiver: ``waive[rule-a, rule-b] -- reason``.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .findings import Finding

__all__ = ["Waiver", "parse_waivers", "apply_waivers"]

_WAIVE_RE = re.compile(
    r"#\s*repro:\s*waive\[(?P<rules>[^\]]*)\]"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass
class Waiver:
    """One inline waiver comment."""

    path: str
    line: int
    rules: Tuple[str, ...]
    reason: str  # empty string when missing
    used: bool = field(default=False)

    def covers(self, rule: str) -> bool:
        return rule in self.rules


def parse_waivers(path: str, source: str) -> List[Waiver]:
    """Scan real ``#`` comments for waiver markers.

    Tokenizing (rather than a regex over raw lines) keeps the marker
    inert inside strings and docstrings — this file's own documentation
    of the syntax must not register as a waiver.
    """
    waivers: List[Waiver] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):
        return []  # unparseable files already raise a parse-error finding
    for lineno, text in comments:
        m = _WAIVE_RE.search(text)
        if m is None:
            continue
        rules = tuple(
            r.strip() for r in m.group("rules").split(",") if r.strip()
        )
        waivers.append(
            Waiver(path, lineno, rules, (m.group("reason") or "").strip())
        )
    return waivers


def apply_waivers(
    findings: List[Finding],
    waivers_by_file: Dict[str, List[Waiver]],
) -> List[Finding]:
    """Mark waived findings; emit missing-reason and unused findings.

    Returns the input findings plus any waiver-hygiene findings.
    """
    for f in findings:
        for w in waivers_by_file.get(f.path, []):
            if w.line == f.line and w.covers(f.rule):
                w.used = True
                if w.reason:
                    f.waived = True
                    f.waive_reason = w.reason
                # A reasonless waiver does NOT suppress: the violation
                # stays active alongside the missing-reason finding.
    extra: List[Finding] = []
    for path, waivers in waivers_by_file.items():
        for w in waivers:
            if not w.reason:
                extra.append(
                    Finding(
                        path=path,
                        line=w.line,
                        col=0,
                        rule="waiver-missing-reason",
                        message=(
                            "waiver must carry a reason: "
                            "'# repro: waive[%s] -- why'" % ", ".join(w.rules)
                        ),
                    )
                )
            elif not w.used:
                extra.append(
                    Finding(
                        path=path,
                        line=w.line,
                        col=0,
                        rule="waiver-unused",
                        message=(
                            "waiver for [%s] suppresses nothing on this "
                            "line; delete it" % ", ".join(w.rules)
                        ),
                    )
                )
    return findings + extra
