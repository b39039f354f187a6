"""The check record and the report document shared by the library and the CLI.

Every line of a report is one ``CheckItem``, serialized in one of two shapes.
A verdict line has ``name``, ``status`` and ``detail``; an exact check is one.
A sampled line also has ``samples``, ``max_abs_deviation``, ``tolerance``,
``seed``, ``events``, ``accepted`` and ``worst_sample``.  A report holds no
timing field, so two runs with one seed are byte-identical.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

SCHEMA_VERSION = 2


def _cell(text: str) -> str:
    """Text for one markdown table cell: a pipe escaped, a line break a space."""
    return re.sub(r"\r\n|[\r\n]", " ", text.replace("|", r"\|"))


@dataclass
class CheckItem:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    # a sampled line only (sample_count is None on a verdict line): samples
    # drawn, the largest deviation and the sample index where it occurred,
    # the samples accepted, and the rejected samples in events
    sample_count: int | None = None
    max_abs_deviation: float | None = None
    tolerance: float | None = None
    seed: int | None = None
    events: list[str] = field(default_factory=list)
    accepted: int | None = None
    worst_sample: int | None = None

    @classmethod
    def verdict(cls, name: str, ok: bool, detail: str = "", **sampled) -> CheckItem:
        """A pass or a fail, as ``ok`` says."""
        return cls(name, "pass" if ok else "fail", detail, **sampled)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    # read-only alias of name for perfbench/worker.py; goes once it reads name
    check_name = property(lambda self: self.name)

    def as_dict(self) -> dict:
        if self.sample_count is None:
            return {"name": self.name, "status": self.status, "detail": self.detail}
        # JSON has no inf or NaN (RFC 8259, section 6): such a deviation is
        # written as null, with its value in the detail
        dev, detail = self.max_abs_deviation, self.detail
        if not math.isfinite(dev):
            reason = f"non-finite deviation: {dev!r}"
            dev, detail = None, f"{detail}; {reason}" if detail else reason
        return {
            "name": self.name,
            "status": self.status,
            "samples": self.sample_count,
            "max_abs_deviation": dev,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "detail": detail,
            "events": list(self.events),
            "accepted": self.accepted,
            "worst_sample": self.worst_sample,
        }


@dataclass
class ReportDocument:
    version: str
    config: dict
    checks: list[CheckItem] = field(default_factory=list)

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
            detail = d["detail"]
            if c.sample_count is not None:
                detail = (
                    f"max_dev={d['max_abs_deviation']!r} tol={d['tolerance']!r} "
                    f"samples={d['samples']} seed={d['seed']} "
                    f"accepted={d['accepted']} worst_sample={d['worst_sample']} {detail}"
                ).strip()
            lines.append(f"| {_cell(c.name)} | {c.status} | {_cell(detail)} |")
        lines.append("")
        lines.append(f"overall: {'pass' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"
