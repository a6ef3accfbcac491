"""Structured pass/fail records shared by every check suite."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """Raised for an invalid input or config (CLI exit code 2)."""


def _finite(name, value) -> float:
    """``value`` as a finite float; ConfigError names ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


@dataclass(frozen=True)
class CheckRecord:
    """One identity check: residual against a pinned tolerance.

    A record passes iff its residual is finite and <= ``tol``.  A
    non-finite residual serialises as ``null`` with ``"pass": false``.
    """

    name: str
    anchor: str
    residual: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tol

    def to_dict(self):
        d = {
            "name": self.name,
            "anchor": self.anchor,
            "residual": self.residual if math.isfinite(self.residual) else None,
            "tol": self.tol,
            "pass": self.passed,
        }
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


def judge(rows, label=None):
    """Records of ``rows``, named ``name[label]`` (``name`` if no label).

    A row is ``(name, anchor, tol, residual[, note])``: ``residual()``
    returns a number or an iterable of numbers, aggregated by ``worst_of``
    (NaN if empty: a record that compared nothing never passes) and judged
    at the pinned ``tol``, which must be a number: a row without one raises
    ``TypeError``.  A residual that raises gives its record residual NaN,
    which fails it, and the note ``"<Type>: <message>"``; the later rows
    still run, and a ``MemoryError`` propagates.  Rows run in order.
    """
    suffix = "" if label is None else f"[{label}]"
    out = []
    for name, anchor, tol, residual, *note in rows:
        try:
            value = residual()
            if not isinstance(value, numbers.Real):
                value = worst_of(list(value) or [math.nan])
        except MemoryError:
            raise
        except Exception as exc:  # this record fails; the other rows still run
            value, note = math.nan, [f"{type(exc).__name__}: {exc}"]
        out.append(CheckRecord(name + suffix, anchor, float(value), float(tol), *note))
    return out


@dataclass
class CheckReport:
    """Collection of check records with an overall verdict."""

    checks: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(r.passed for r in self.checks)

    def failures(self):
        return [r for r in self.checks if not r.passed]

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
            tag = "ok" if r.passed else "FAIL"
            note = f" -- {r.note}" if r.note else ""
            out.append(f"  [{tag:4s}] {r.name}: residual {r.residual:.3e} "
                       f"tol {r.tol:.1e} ({r.anchor}){note}")
        return out
