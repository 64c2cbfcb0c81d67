"""Uniform pass/fail bookkeeping for verification passes."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Check", "Report"]


@dataclass(frozen=True)
class Check:
    """One named check, optionally indexed by a recurrence index n."""

    name: str
    n: int | None
    passed: bool
    witness: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "passed": self.passed,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...] = ()

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
