"""Self-check of the benchmark.

Run with ``python3 -m pytest perfbench``. Each workload runs at minimum size
(``--smoke``) and must emit every metric that ``BENCHMARK.json`` names, with
its unit, and pass the oracle.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace, kind):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "exact_sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _sampled(**overrides):
    rec = {"name": "beta_symplectic", "passed": True, "max_dev": 1e-15,
           "tol": 1e-9, "samples": 3, "events": []}
    rec.update(overrides)
    return rec


@pytest.mark.parametrize("rec", [
    _sampled(passed=False),
    _sampled(max_dev=float("nan")),
    _sampled(max_dev=1e-3),
    # passed by the program although nothing was tested
    _sampled(max_dev=0.0, events=[f"sample {i}: frame degenerate after retries"
                                  for i in range(3)]),
])
def test_oracle_rejects_sampled_results_without_evidence(rec):
    assert oracle.sampled_problem(rec)
    assert oracle.sampled_problem(_sampled()) is None


def test_oracle_rejects_exact_results_that_differ_from_the_reference():
    reference = oracle.load_reference()
    ref = reference["su21"]
    facts = json.loads(json.dumps(ref))
    tally = oracle.Tally()
    oracle.check_facts(tally, "su21", facts, reference)
    assert tally.failed == 0 and tally.attempted > 1
    facts["orbit_dim"] += 1
    facts["checks"]["lambda"][0][1] = "fail"
    oracle.check_facts(tally, "su21", facts, reference)
    assert tally.failed == 2


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    wrapped_inner = tracer.wrap("inner", inner)
    start = time.perf_counter()
    tracer.wrap("outer", outer)()
    summary = tracer.summary((start, time.perf_counter()), ("outer",))
    stats = summary["stats"]
    assert stats["outer"]["calls"] == stats["inner"]["calls"] == 1
    assert stats["outer"]["total_s"] == pytest.approx(
        stats["outer"]["s"] + stats["inner"]["total_s"])
    assert summary["covered_s"] == pytest.approx(stats["outer"]["total_s"])


def test_reference_seconds_remove_calibration_time_and_rescale():
    cal = calib.Calibrator()
    # a CPU at half the reference speed: the kernel takes 2 * REF_S
    cal.samples = [(1.0, 2 * calib.REF_S), (2.0, 2 * calib.REF_S), (9.0, calib.REF_S)]
    window = cal.window(0.5, 3.0)
    assert window["n"] == 2 and window["busy_s"] == pytest.approx(4 * calib.REF_S)
    raw = 2.5
    assert cal.ref(raw, 0.5, 3.0) == pytest.approx((raw - 4 * calib.REF_S) / 2)
