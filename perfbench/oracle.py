"""Output oracle for the benchmark's workloads.

A check counts as attempted once per form and record. It fails when it does
not report pass, when a sampled deviation is non-finite or above its
tolerance, when every sample of a sampled check was rejected (the program
itself would pass such a check with nothing tested), or when an exact-lane
result differs from ``reference.json``.

``reference.json`` holds, per modeled form, the structured exact-lane results
at the parent commit of the benchmark: ``dim g``, the restricted-root class
multiplicities, the ad-e orbit dimension, the k_nu dimension and the names and
statuses of the exact checks, in the order ``minorbit verify`` reports them.
It was written by ``PYTHONPATH=src python3 perfbench/worker.py record
'{"forms": [...all 16 model ids...]}'``. Exact results do not depend on the
seed, so one reference serves every seed. Structured results are compared, not
report bytes, so a change of report layout alone does not fail the oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# verify's record order: exact groups first, then the sampled checks
EXACT_GROUPS = ("striple", "cayley", "spectra", "centralizers", "lambda")
SAMPLED_NAMES = (
    "beta_symplectic",
    "beta_base_block",
    "ks_correspondence",
    "poisson_identities",
    "moment_cone",
)
STRUCTURE = ("dim_g", "class_mults", "orbit_dim", "k_nu_dim")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def sampled_problem(rec: dict) -> str | None:
    dev, tol = rec["max_dev"], rec["tol"]
    rejected = sum(1 for ev in rec["events"] if not ev.endswith("resampled"))
    if not rec["passed"]:
        return f"reported fail (max_dev={dev!r}, tol={tol!r})"
    if not math.isfinite(dev):
        return f"non-finite deviation {dev!r}"
    if dev > tol:
        return f"deviation {dev!r} above tolerance {tol!r}"
    if rejected >= rec["samples"]:
        return f"all {rec['samples']} samples rejected"
    return None


def check_sampled(tally: Tally, form: str, records: list[dict]) -> None:
    by_name = {r["name"]: r for r in records}
    for name in sorted(set(by_name) - set(SAMPLED_NAMES)):
        tally.check(f"{form}/{name}: unexpected sampled record")
    for name in SAMPLED_NAMES:
        rec = by_name.get(name)
        problem = "missing" if rec is None else sampled_problem(rec)
        tally.check(problem and f"{form}/{name}: {problem}")


def _check_items(tally: Tally, form: str, got: list, want: list) -> None:
    """Item-wise comparison of [name, status] lists; no item may fail."""
    for i in range(max(len(got), len(want))):
        g = tuple(got[i]) if i < len(got) else None
        w = tuple(want[i]) if i < len(want) else None
        if g != w:
            tally.check(f"{form}: exact check {g} differs from reference {w}")
        else:
            tally.check(f"{form}/{g[0]}: status fail" if g[1] == "fail" else None)


def _flatten(checks: dict, groups) -> list:
    items = []
    for group in groups:
        value = checks[group]
        items.extend([[group, value]] if isinstance(value, str) else value)
    return items


def check_facts(tally: Tally, form: str, facts: dict, reference: dict) -> None:
    """Structure and exact checks computed in a worker against the reference."""
    ref = reference[form]
    diffs = [k for k in STRUCTURE if facts[k] != ref[k]]
    tally.check(", ".join(f"{form}: {k}={facts[k]!r}, reference {ref[k]!r}" for k in diffs))
    groups = [g for g in EXACT_GROUPS if g in facts["checks"]]
    _check_items(tally, form, _flatten(facts["checks"], groups),
                 _flatten(ref["checks"], groups))


def check_verify_report(tally: Tally, form: str, code: int, text: str,
                        reference: dict) -> None:
    """One ``minorbit verify --format json`` call with all nine checks."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    ok = code == 0 and doc is not None and doc.get("pass") is True
    tally.check(None if ok else f"{form}: exit code {code}, report not passing")
    records = doc["checks"] if doc else []
    exact = [[c["name"], c["status"]] for c in records if c["name"] not in SAMPLED_NAMES]
    _check_items(tally, form, exact, _flatten(reference[form]["checks"], EXACT_GROUPS))
    check_sampled(tally, form, [
        {
            "name": c["name"],
            "passed": c["status"] == "pass",
            "max_dev": c["max_abs_deviation"],
            "tol": c["tolerance"],
            "samples": c["samples"],
            "events": c["events"],
        }
        for c in records if c["name"] in SAMPLED_NAMES
    ])
