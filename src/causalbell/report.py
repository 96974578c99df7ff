"""Shared audit-report containers, their text rendering and the tolerance and seed rules.

An audit is a batch of named checks, each with a pass flag, the worst
numeric deviation observed and an optional witnessing assignment. Checks
flagged ``required=False`` are informational: their status is reported
but does not affect the overall verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from .graph import GraphError, _check_int

Assignment = tuple[tuple[str, int], ...]
DEFAULT_EPS = 1e-9  # the default of every tolerance eps, in the library and the CLI


def _check_eps(eps: float) -> None:
    """The one rule for every tolerance, shared by the audits and the CLI."""
    if not 0 < eps < math.inf:
        raise GraphError(f"tolerance eps must be positive and finite, got {eps!r}")


def _check_seed(seed: int) -> None:
    """The one rule for every generator seed, shared by the generators and the CLI."""
    _check_int(seed, "seed", 0)


def _align_columns(rows: list[tuple[str, ...]]) -> list[str]:
    """Rows as lines, each cell padded to its column's width, two spaces
    between columns, trailing blanks stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]


def format_assignment(witness: Assignment | None) -> str:
    if not witness:
        return ""
    return " ".join(f"{name}={value}" for name, value in witness)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    violation: float = 0.0
    witness: Assignment | None = None
    required: bool = True
    detail: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class AuditReport:
    title: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    @property
    def worst_violation(self) -> float:
        return max((c.violation for c in self.checks), default=0.0)

    def to_text(self) -> str:
        rows = [("check", "required", "passed", "violation", "witness")]
        for c in self.checks:
            rows.append((
                c.name,
                "yes" if c.required else "no",
                "yes" if c.passed else "NO",
                f"{c.violation:.9f}",
                format_assignment(c.witness),
            ))
        lines = [self.title, *_align_columns(rows)]
        details = [c for c in self.checks if c.detail]
        for c in details:
            items = " ".join(f"{k}={v}" for k, v in c.detail.items())
            lines.append(f"  [{c.name}] {items}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
