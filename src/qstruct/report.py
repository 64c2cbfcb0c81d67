"""Uniform pass/fail bookkeeping for verification passes."""

from __future__ import annotations

from qstruct.scalar import Frozen

__all__ = ["Check", "Report"]


class Check(Frozen):
    """One named check, optionally indexed by a recurrence index n."""

    __slots__ = ("name", "n", "passed", "witness")
    _defaults = ("",)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "passed": self.passed,
            "witness": self.witness,
        }


class Report(Frozen):
    """Checks in the order they were made."""

    __slots__ = ("checks",)
    _defaults = ((),)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def merged(self, other: "Report") -> "Report":
        return Report(self.checks + other.checks)

    def sorted(self) -> "Report":
        # Deterministic order regardless of evaluation schedule
        key = lambda c: (c.name, c.n if c.n is not None else -1)
        return Report(tuple(sorted(self.checks, key=key)))
