"""Structured pass/fail records shared by every check suite."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class CheckRecord:
    """One identity check: residual against a pinned tolerance.

    ``reported_only`` marks diagnostics (truncation leakage, hermiticity
    symptoms) that are carried in the report but never affect the verdict;
    no tolerance applies to them, so they serialise with ``"tol": null``.
    A non-finite residual serialises as ``null`` with ``"pass": false``.
    """

    name: str
    anchor: str
    residual: float
    tol: float
    passed: bool
    reported_only: bool = False
    note: str = ""

    def to_dict(self):
        finite = math.isfinite(self.residual)
        d = {
            "name": self.name,
            "anchor": self.anchor,
            "residual": self.residual if finite else None,
            "tol": None if self.reported_only else self.tol,
            "pass": self.passed and finite,
        }
        if self.reported_only:
            d["reported_only"] = True
        if self.note:
            d["note"] = self.note
        return d


def worst_of(residuals) -> float:
    """Largest of ``residuals`` (0.0 if none); NaN if any is NaN.

    Plain ``max`` keeps its first argument when a later one is NaN, so a
    NaN residual would vanish from an aggregate depending on its position.
    """
    values = [float(r) for r in residuals]
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=0.0)


def check(name, anchor, residual, tol, note=""):
    """Asserted record: passes iff residual is finite and <= tol."""
    residual = float(residual)
    return CheckRecord(name, anchor, residual, float(tol),
                       math.isfinite(residual) and residual <= tol, note=note)


def splice(report, label):
    """The records of a module's ``report``, renamed ``name[label]``.

    Each record was judged once, where it was made, at its pinned
    tolerance; splicing keeps its residual, tolerance and verdict.
    """
    return [replace(r, name=f"{r.name}[{label}]") for r in report.checks]


def metric(name, anchor, value, note=""):
    """Reported-only record; never affects the verdict."""
    return CheckRecord(name, anchor, float(value), float("inf"), True,
                       reported_only=True, note=note)


@dataclass
class CheckReport:
    """Collection of check records with an overall verdict."""

    checks: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, record: CheckRecord):
        self.checks.append(record)
        return record

    def extend(self, records):
        self.checks.extend(records)

    @property
    def verdict(self) -> bool:
        return all(r.passed for r in self.checks if not r.reported_only)

    def failures(self):
        return [r for r in self.checks if not r.reported_only and not r.passed]

    def to_dict(self, config_echo=None, header=None):
        return {
            "version": SCHEMA_VERSION,
            "header": dict(header or {}),
            "config_echo": dict(config_echo or {}),
            "meta": dict(self.meta),
            "checks": [r.to_dict() for r in self.checks],
            "verdict": "pass" if self.verdict else "fail",
        }

    def summary_lines(self):
        out = []
        for r in self.checks:
            if r.reported_only:
                out.append(f"  [info] {r.name}: {r.residual:.3e} ({r.anchor})")
            else:
                tag = "ok" if r.passed else "FAIL"
                out.append(f"  [{tag:4s}] {r.name}: residual {r.residual:.3e} "
                           f"tol {r.tol:.1e} ({r.anchor})")
        return out
