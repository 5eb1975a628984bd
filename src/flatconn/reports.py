"""Machine-readable verdicts shared by the library checks and the CLI.

Every check reports through :func:`check`, which reads the verdict from the
residuals it prints: ``pass`` when each is "0", else ``fail``.  Only a
bounded search names its verdict (a witness, or bounded-no) by hand.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

__all__ = ["Report", "check", "emit_report", "PASS", "FAIL", "WITNESS", "BOUNDED_NO"]

PASS = "pass"
FAIL = "fail"
WITNESS = "witness"
BOUNDED_NO = "bounded-no"


class Report:
    """Outcome of one task: a verdict plus rendered evidence.

    ``residuals`` hold rendered expressions that must all be "0" for a pass;
    ``witness`` carries computed values (solved coefficients, images of
    operators) keyed by component name.  Mutable: the CLI sets ``ms``.
    """

    __slots__ = ("task", "verdict", "residuals", "witness", "ms")

    def __init__(self, task: str, verdict: str, residuals: Optional[List[str]] = None,
                 witness: Optional[Dict[str, str]] = None, ms: int = 0):
        self.task, self.verdict, self.witness, self.ms = task, verdict, witness, ms
        self.residuals = [] if residuals is None else residuals
        if verdict == PASS and any(r != "0" for r in self.residuals):
            raise ValueError("pass verdict with nonzero residuals %r" % (self.residuals,))

    def __repr__(self):
        return "Report(%s)" % ", ".join("%s=%r" % (k, getattr(self, k)) for k in self.__slots__)

    @property
    def ok(self) -> bool:
        return self.verdict in (PASS, WITNESS)


def check(task: str, residuals: List[str], witness: Optional[Dict[str, str]] = None) -> Report:
    """The report of a check: ``pass`` when every rendered residual is "0",
    else ``fail``; no residual at all is a pass."""
    return Report(task, PASS if all(r == "0" for r in residuals) else FAIL, residuals, witness)


def emit_report(report: Report, format: str = "human") -> str:
    """Render a report.  ``human`` is line oriented, ``json`` a single object."""
    if format == "json":
        return json.dumps(
            {
                "task": report.task,
                "verdict": report.verdict,
                "residuals": report.residuals,
                "witness": report.witness,
                "ms": report.ms,
            },
            sort_keys=False,
        )
    if format != "human":
        raise ValueError("unknown report format %r" % (format,))
    lines = ["task: %s" % report.task, "verdict: %s" % report.verdict]
    for r in report.residuals:
        lines.append("residual: %s" % r)
    if report.witness is not None:
        for name in sorted(report.witness):
            lines.append("witness %s = %s" % (name, report.witness[name]))
    lines.append("ms: %d" % report.ms)
    return "\n".join(lines)
