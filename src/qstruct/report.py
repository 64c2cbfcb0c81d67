"""Uniform pass/fail bookkeeping for verification passes."""

from __future__ import annotations

from qstruct.scalar import Frozen

__all__ = ["Check", "Report"]

_init = object.__setattr__


class Check(Frozen):
    """One named check, optionally indexed by a recurrence index n. Two
    checks are equal when all of their fields are."""

    __slots__ = ("name", "n", "passed", "witness")

    def __init__(self, name: str, n: int | None, passed: bool, witness: str = ""):
        _init(self, "name", name)
        _init(self, "n", n)
        _init(self, "passed", passed)
        _init(self, "witness", witness)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Check):
            return NotImplemented
        fields = lambda c: (c.name, c.n, c.passed, c.witness)
        return fields(self) == fields(other)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "passed": self.passed,
            "witness": self.witness,
        }


class Report(Frozen):
    """Checks in the order they were made; equal when their checks are."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple[Check, ...] = ()):
        _init(self, "checks", checks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Report):
            return NotImplemented
        return self.checks == other.checks

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

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.sorted().checks]
