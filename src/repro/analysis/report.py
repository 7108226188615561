"""Diagnostics model and rendering for the stack-discipline linter.

A :class:`Diagnostic` pins one finding to a function and instruction;
a :class:`LintReport` aggregates the findings for one program and
renders them as human-readable text or machine-readable JSON.  The
severity scale mirrors compiler practice:

* ``ERROR`` — the program breaks a stack invariant the SVF relies on
  (unbalanced ``$sp``, out-of-frame access).  Morphing such code is
  unsound; CI should fail.
* ``WARNING`` — legal but SVF-hostile behaviour worth auditing (a
  frame slot read before any write forces an SVF fill from memory; a
  stack address stored to memory defeats static re-routing).
* ``INFO`` — expected behaviour the SVF is explicitly designed to
  exploit or handle (dead stores at frame death are the writebacks
  the SVF elides; ``$gpr``-based stack accesses are re-routed).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, List, Optional


class Severity(enum.IntEnum):
    """Ordered severity scale (higher is worse)."""

    INFO = 1
    WARNING = 2
    ERROR = 3

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding, pinned to a function and instruction index."""

    severity: Severity
    pass_name: str
    function: str
    index: int  # program-wide instruction index (-1: whole function)
    message: str

    def address(self, text_base: int = 0x1000) -> int:
        """Instruction address (``text_base + 4 * index``)."""
        return text_base + 4 * max(self.index, 0)

    def render(self) -> str:
        location = (
            f"{self.function}+{self.index}" if self.index >= 0
            else self.function
        )
        return (
            f"{self.severity.name:7s} [{self.pass_name}] "
            f"{location} pc=0x{self.address():x}: {self.message}"
        )

    def to_dict(self) -> Dict:
        return {
            "severity": self.severity.name.lower(),
            "pass": self.pass_name,
            "function": self.function,
            "index": self.index,
            "pc": self.address(),
            "message": self.message,
        }


_SEVERITY_ORDER = (Severity.ERROR, Severity.WARNING, Severity.INFO)


@dataclass
class LintReport:
    """All diagnostics for one linted program."""

    name: str
    diagnostics: List[Diagnostic]
    instruction_count: int = 0
    function_count: int = 0

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostics exist."""
        return not self.errors

    def counts(self) -> Dict[str, int]:
        return {
            severity.name.lower(): len(self.by_severity(severity))
            for severity in _SEVERITY_ORDER
        }

    def sorted_diagnostics(self) -> List[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (-int(d.severity), d.function, d.index),
        )

    def summary(self) -> str:
        counts = self.counts()
        status = "clean" if self.ok else "FAILED"
        if self.function_count == 0:
            # An empty or functionless program is vacuously clean; say
            # so explicitly instead of emitting a silently empty report.
            shape = f"(no functions, {self.instruction_count} instructions)"
        else:
            shape = (
                f"({self.function_count} functions, "
                f"{self.instruction_count} instructions)"
            )
        return (
            f"{self.name}: {status} — {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info "
            f"{shape}"
        )

    def render_text(self, max_info: Optional[int] = None) -> str:
        """Full text report: summary line, then diagnostics by severity.

        ``max_info`` truncates the (potentially long) info listing;
        errors and warnings are always shown in full.
        """
        lines = [self.summary()]
        shown = self.errors + self.warnings
        infos = self.infos
        if max_info is not None and len(infos) > max_info:
            truncated = len(infos) - max_info
            infos = infos[:max_info]
        else:
            truncated = 0
        for diagnostic in sorted(
            shown + infos, key=lambda d: (-int(d.severity), d.function, d.index)
        ):
            lines.append("  " + diagnostic.render())
        if truncated:
            lines.append(f"  ... and {truncated} more info diagnostics")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "counts": self.counts(),
            "functions": self.function_count,
            "instructions": self.instruction_count,
            "diagnostics": [d.to_dict() for d in self.sorted_diagnostics()],
        }


def render_reports(reports: List[LintReport],
                   max_info: Optional[int] = None) -> str:
    """Render several reports plus a suite-level footer."""
    blocks = [report.render_text(max_info=max_info) for report in reports]
    total_errors = sum(len(r.errors) for r in reports)
    total_warnings = sum(len(r.warnings) for r in reports)
    total_infos = sum(len(r.infos) for r in reports)
    failed = [r.name for r in reports if not r.ok]
    footer = (
        f"{len(reports)} workload(s) linted: {total_errors} error(s), "
        f"{total_warnings} warning(s), {total_infos} info"
    )
    if failed:
        footer += " — FAILED: " + ", ".join(failed)
    blocks.append(footer)
    return "\n\n".join(blocks)


def reports_to_json(reports: List[LintReport], indent: int = 2) -> str:
    """Versioned JSON payload for a list of lint reports."""
    # Lazy import: repro.api sits above this module in the layering
    # but owns the one schema version every JSON payload carries.
    from repro.api import SCHEMA_VERSION

    payload = {
        "schema_version": SCHEMA_VERSION,
        "ok": all(report.ok for report in reports),
        "workloads": [report.to_dict() for report in reports],
    }
    return json.dumps(payload, indent=indent)
