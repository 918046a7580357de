"""Named verification checks and deterministic reports.

Reports are order-normalized (sorted by check name) so that concurrent or
reordered execution never changes the output bytes for a given input file
and seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Check:
    name: str
    status: str
    computed: str
    expected: str
    tag: str = ""

    def line(self) -> str:
        mark = {PASS: "PASS", FAIL: "FAIL", UNSUPPORTED: "SKIP"}[self.status]
        tag = f"  [{self.tag}]" if self.tag else ""
        return f"{mark}  {self.name}: computed {self.computed} | expected {self.expected}{tag}"


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)
    seed: int = 0

    def extend(self, checks):
        self.checks.extend(checks)

    def sorted_checks(self) -> list[Check]:
        return sorted(self.checks, key=lambda c: c.name)

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, UNSUPPORTED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def all_passed(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    def to_text(self) -> str:
        lines = [c.line() for c in self.sorted_checks()]
        n = self.counts
        lines.append(
            f"-- {len(self.checks)} checks: {n[PASS]} passed, {n[FAIL]} failed, "
            f"{n[UNSUPPORTED]} unsupported (seed {self.seed})"
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "summary": self.counts,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "computed": c.computed,
                    "expected": c.expected,
                    "tag": c.tag,
                }
                for c in self.sorted_checks()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def equality_check(name: str, computed, expected, tag: str = "") -> Check:
    same = computed == expected
    return Check(
        name=name,
        status=PASS if same else FAIL,
        computed=str(computed),
        expected=str(expected),
        tag=tag,
    )
