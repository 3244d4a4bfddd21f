"""Finding/report model shared by every lint pass.

A :class:`Finding` is one diagnosed problem: which rule fired, how bad
it is, what happened, and where.  Findings are frozen and hashable so a
:class:`LintReport` can deduplicate structurally — the closure hooks see
the same user function once per RDD operation that wraps it, and the
report must not multiply one bug into twenty lines of output.

Severities are deliberately coarse:

``error``
    The program is wrong (leaked handle, captured engine handle inside
    a task closure, captured-state mutation).  ``repro lint`` exits non-zero.
``warning``
    The program is suspicious (unseeded RNG, large ndarray capture);
    non-zero exit only under ``--strict``.
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: severity ranks for sorting (most severe first)
_SEVERITY_RANK: dict[str, int] = {"error": 0, "warning": 1}


def _location_key(location: str) -> tuple[str, int, str]:
    """``(file, line, rest)`` parsed from a ``path:line`` location.

    Locations that are not ``path:line`` shaped (engine object labels,
    function names) sort by their text with line 0, so the order is
    still total and deterministic."""
    head, sep, tail = location.rpartition(":")
    if sep and tail.isdigit():
        return (head, int(tail), "")
    return (location, 0, "")


def _sort_key(finding: "Finding") -> tuple[int, str, int, str, str, str]:
    file, line, rest = _location_key(finding.location)
    return (_SEVERITY_RANK[finding.severity], file, line, rest,
            finding.rule, finding.message)


@dataclass(frozen=True)
class Finding:
    """One diagnosed problem."""

    #: machine-readable rule id, e.g. ``closure-nondeterminism``
    rule: str
    #: ``error`` or ``warning``
    severity: str
    #: human-readable description of what is wrong
    message: str
    #: where: ``path:line``, a function name, or an engine object repr
    location: str = ""
    #: which pass produced it: closures/lifecycle/plan/static
    pass_name: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(
                f"severity must be one of {sorted(_SEVERITY_RANK)}, "
                f"got {self.severity!r}")

    def render(self) -> str:
        """``location: severity rule: message`` single-line form."""
        loc = f"{self.location}: " if self.location else ""
        return f"{loc}{self.severity}: {self.message} [{self.rule}]"

    def to_dict(self) -> dict[str, str]:
        """JSON-serializable mapping of this finding."""
        return {"rule": self.rule, "severity": self.severity,
                "message": self.message, "location": self.location,
                "pass": self.pass_name}


@dataclass
class LintReport:
    """An ordered, deduplicated collection of findings."""

    findings: list[Finding] = field(default_factory=list)
    _seen: set[Finding] = field(default_factory=set, repr=False)

    def add(self, finding: Finding) -> bool:
        """Record ``finding``; returns False when it is a duplicate."""
        if finding in self._seen:
            return False
        self._seen.add(finding)
        self.findings.append(finding)
        return True

    def extend(self, findings: Iterable[Finding]) -> None:
        """Add each finding in ``findings`` (deduplicating)."""
        for finding in findings:
            self.add(finding)

    def merge(self, other: "LintReport") -> None:
        """Fold every finding of ``other`` into this report."""
        self.extend(other.findings)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __bool__(self) -> bool:
        return bool(self.findings)

    def errors(self) -> list[Finding]:
        """Findings with error severity."""
        return [f for f in self.findings if f.severity == "error"]

    def warnings(self) -> list[Finding]:
        """Findings with warning severity."""
        return [f for f in self.findings if f.severity == "warning"]

    def by_rule(self, rule: str) -> list[Finding]:
        """Findings whose rule equals ``rule``."""
        return [f for f in self.findings if f.rule == rule]

    # ------------------------------------------------------------------
    def sorted_findings(self) -> list[Finding]:
        """Errors before warnings, then by file/line/rule/message.

        The full key makes the ordering a pure function of the finding
        *set*: two runs that diagnose the same problems render the same
        bytes regardless of hook firing order (thread scheduling,
        dict iteration), so ``repro lint --json`` output can be diffed
        as a CI artifact."""
        return sorted(self.findings, key=_sort_key)

    def render_text(self) -> str:
        """The human-facing report body."""
        if not self.findings:
            return "no findings"
        lines = [f.render() for f in self.sorted_findings()]
        n_err, n_warn = len(self.errors()), len(self.warnings())
        lines.append(f"{len(self.findings)} finding"
                     f"{'s' if len(self.findings) != 1 else ''} "
                     f"({n_err} error{'s' if n_err != 1 else ''}, "
                     f"{n_warn} warning{'s' if n_warn != 1 else ''})")
        return "\n".join(lines)

    def render_json(self) -> str:
        """The findings as a JSON array (sorted errors-first)."""
        return json.dumps(
            [f.to_dict() for f in self.sorted_findings()], indent=2)


class LintError(Exception):
    """Raised in strict mode when error-severity findings exist.

    Carries the offending findings so callers (the test-suite teardown
    fixture, CI) can show the full report, not just the first line.
    """

    def __init__(self, findings: list[Finding]) -> None:
        self.findings = list(findings)
        body = "; ".join(f.render() for f in self.findings[:5])
        more = len(self.findings) - 5
        if more > 0:
            body += f"; ... and {more} more"
        super().__init__(
            f"lint failed with {len(self.findings)} finding"
            f"{'s' if len(self.findings) != 1 else ''}: {body}")
