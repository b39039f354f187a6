"""Check records and report documents shared by the library and the CLI."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class CheckItem:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class GramReport:
    """Outcome of a seeded sampling verification run."""

    check_name: str
    sample_count: int
    max_abs_deviation: float
    tolerance: float
    passed: bool
    seed: int
    elapsed: float | None = None
    detail: str = ""
    events: list[str] = field(default_factory=list)
    # sampled checks only: accepted samples, index of the largest deviation
    accepted: int | None = None
    worst_sample: int | None = None

    @property
    def failed(self) -> bool:
        return not self.passed

    def as_dict(self) -> dict:
        # JSON has no inf or NaN (RFC 8259, section 6): such a deviation is
        # written as null, with its value in the detail
        dev, detail = self.max_abs_deviation, self.detail
        if not math.isfinite(dev):
            reason = f"non-finite deviation: {dev!r}"
            dev, detail = None, f"{detail}; {reason}" if detail else reason
        return {
            "name": self.check_name,
            "status": "pass" if self.passed else "fail",
            "samples": self.sample_count,
            "max_abs_deviation": dev,
            "tolerance": self.tolerance,
            "seed": self.seed,
            # elapsed stays out of serialized reports so identical runs are
            # byte-identical
            "elapsed": None,
            "detail": detail,
            "events": list(self.events),
            **({} if self.accepted is None else
               {"accepted": self.accepted, "worst_sample": self.worst_sample}),
        }


@dataclass
class ReportDocument:
    version: str
    config: dict
    checks: list = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return not any(c.failed for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "version": self.version,
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "pass": self.overall_pass,
            "elapsed_ms": None,
        }
        return json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n"

    def to_markdown(self) -> str:
        lines = [f"# report (schema {SCHEMA_VERSION}, version {self.version})", ""]
        cfg = ", ".join(f"{k}={v}" for k, v in self.config.items() if v is not None)
        lines.append(f"config: {cfg}")
        lines.append("")
        lines.append("| check | status | detail |")
        lines.append("|---|---|---|")
        for c in self.checks:
            d = c.as_dict()
            detail = d.get("detail", "")
            if "max_abs_deviation" in d:
                detail = (
                    f"max_dev={d['max_abs_deviation']!r} tol={d['tolerance']!r} "
                    f"samples={d['samples']} seed={d['seed']} {detail}"
                ).strip()
            lines.append(f"| {d['name']} | {d['status']} | {detail} |")
        lines.append("")
        lines.append(f"overall: {'pass' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"
