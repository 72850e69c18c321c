"""Check results and verification reports.

The runner of the claim catalog returns one :class:`CheckResult` per check;
a full run bundles them into a :class:`VerificationReport` keyed by check
id, so the output doubles as a traceability matrix over the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CheckResult", "VerificationReport"]

PASS = "pass"
FAIL = "fail"


@dataclass
class CheckResult:
    """Outcome of a single named check."""

    check: str
    status: str
    detail: dict = field(default_factory=dict)
    counterexample: dict | None = None
    seconds: float | None = None

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json(self, include_timing: bool = True) -> dict:
        doc: dict = {"check": self.check, "status": self.status, "detail": self.detail}
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        if include_timing and self.seconds is not None:
            doc["seconds"] = round(self.seconds, 6)
        return doc


@dataclass
class VerificationReport:
    """Ordered collection of check results plus run metadata."""

    checks: list[CheckResult]
    seed: int
    versions: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, include_timing: bool = True) -> dict:
        return {
            "checks": [c.to_json(include_timing) for c in self.checks],
            "seed": self.seed,
            "versions": self.versions,
        }

