"""Benchmark for minorbit: exact lane, sampled checks and the verify command.

Usage, from the root of a source checkout (``src/minorbit`` must exist)::

    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 30 --trace 0

Workloads (the program receives only the form list, ``samples`` and the seed):

* ``exact_sweep``: ``matmodel.analyze`` + ``lambda_data()`` +
  ``numeric.numerics`` for all 16 modeled forms, in ``MODEL_IDS`` order. Exact
  Fraction elimination; no sampled check runs. The exact lane has no random
  input, so the seed changes nothing here.
* ``sampled_sweep``: the ``beta``, ``ks``, ``poisson`` and ``moment`` checks at
  ``samples=100`` on the 11 forms with dim g <= 15. Their exact analysis and
  ``numerics()`` are built in set-up.
* ``verify_cli``: ``minorbit verify --form F --format json`` with all nine
  checks, one fresh process each for sl2R, su21 and su41; the process calls
  ``minorbit.cli.main`` with those arguments, as the ``minorbit`` command does.

The load is a closed loop: one client, one process at a time. A batch is the
workload's whole form list, run in fresh interpreters because ``analyze``,
``build_model`` and ``numerics`` are cached per process. A run repeats batches
while the next one is expected to end within ``--seconds`` and always runs at
least one; it then starts set-up-only processes until it has ``setups`` set-up
times. Every child process gets one BLAS/OpenMP thread and a fixed
``PYTHONHASHSEED``.

Times are in reference seconds: the wall time of the measured interval,
rescaled by a calibration kernel timed inside the measured process (see
``calib.py``), because the CPU speed of a shared sandbox drifts too much for
raw wall time to compare runs. Raw wall times are kept in the run record.

``--trace 0`` prints the end-to-end metrics (medians over batches and
set-ups). ``--trace 1`` runs one untraced and one traced batch and prints the
per-layer metrics: span wrappers from ``spans.py`` are installed around the
public functions of each layer; the traced verify calls run
``minorbit.cli.main`` in a fresh process with the wrappers in place. Spans are
written to ``.perfbench-out/``, with one JSON record per run in
``.perfbench-out/runs.jsonl``.

``oracle.py`` checks every output; ``attempted`` and ``failed`` in the result
line count its checks, so their ratio is the run's fail ratio.

Limits: wall-clock time on a shared machine, corrected for CPU speed only as
far as the calibration kernel tracks the program; no hardware counters and no
system-wide tracing.

``--smoke`` shrinks every workload to a minimum size for the benchmark's own
test (``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# a run is stopped well inside the 180 s a run may take
RUN_LIMIT_S = 170.0

MODEL_IDS = (
    "sl2R", "sl3R", "sl4R", "sl5R", "su21", "su31", "su41", "su22",
    "su32", "sp4R", "so32", "so42", "so52", "so33", "so43", "sl2H",
)
# dim g <= 15; the five forms of dim 21-24 cost 6-10 s of exact set-up each
SAMPLED_FORMS = (
    "sl2R", "sl3R", "sl4R", "su21", "su31", "su22", "sp4R", "so32", "so42",
    "so33", "sl2H",
)
VERIFY_FORMS = ("sl2R", "su21", "su41")

# setups: set-up times a run collects. A sampled_sweep set-up costs about
# 11 s of exact analysis, so it takes two; the others cost about 1 s.
WORKLOADS = {
    "exact_sweep": {"forms": MODEL_IDS, "samples": 0, "setups": 3},
    "sampled_sweep": {"forms": SAMPLED_FORMS, "samples": 100, "setups": 2},
    "verify_cli": {"forms": VERIFY_FORMS, "samples": 100, "setups": 3},
}
SMOKE = {
    "exact_sweep": {"forms": ("sl2R", "su21"), "samples": 0, "setups": 2},
    "sampled_sweep": {"forms": ("sl2R",), "samples": 3, "setups": 2},
    "verify_cli": {"forms": ("sl2R",), "samples": 3, "setups": 2},
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    [
        ("rootsys.build_root_system.calls", "count"),
        ("rootsys.build_root_system.s", "s"),
        ("realform.load_catalog.calls", "count"),
        ("realform.load_catalog.s", "s"),
        ("realform.derive_invariants.calls", "count"),
        ("realform.derive_invariants.s", "s"),
    ]
    + [(f"matmodel.{stage}.s", "s") for stage in (
        "build_model", "restricted_root_datum", "triples", "spectral_checks",
        "centralizer_checks", "lambda_data")]
    + [(f"matmodel.exact_s.{form}", "s") for form in MODEL_IDS]
    + [
        ("matmodel.kernel_in_span.calls", "count"),
        ("matmodel.kernel_in_span.s", "s"),
        ("exactla.kernel_basis.calls", "count"),
        ("exactla.kernel_basis.s", "s"),
        ("exactla.kernel_basis.cells", "count"),
        ("numeric.numerics.s", "s"),
        ("numeric.expm.calls", "count"),
        ("numeric.expm.s", "s"),
    ]
    + [(f"sympver.{check}.{stat}", unit)
       for check in ("beta", "ks", "poisson", "moment")
       for stat, unit in (("s", "s"), ("samples", "count"),
                          ("resampled", "count"), ("max_dev", "dev"))]
    + [
        ("report.render.s", "s"),
        ("report.render.bytes", "bytes"),
        ("cli.main.s", "s"),
    ]
    + [(f"verify_s.{form}", "s") for form in VERIFY_FORMS]
    + [
        ("trace.overhead_ratio", "ratio"),
        ("trace.coverage_ratio", "ratio"),
    ]
)

class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    """Starts one child process at a time and waits for it."""

    def __init__(self, name: str, cfg: dict, seed: int, trace_tag: str):
        self.name, self.cfg, self.seed = name, cfg, seed
        # worker.py mode of a batch; verify_cli instead runs one cli-mode
        # process per form
        self.mode = {"exact_sweep": "exact", "sampled_sweep": "sampled"}.get(name)
        self.trace_tag = trace_tag
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tally = oracle.Tally()
        self.reference = oracle.load_reference()
        self._traces = 0

    def _run(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1:4]} did not finish within the run limit") from exc
        return proc, time.monotonic() - t0

    def worker(self, mode: str, spec: dict) -> tuple[dict, float]:
        # set-up time is counted from here, so it includes interpreter start
        spec = dict(spec, t0=time.monotonic())
        proc, wall = self._run([sys.executable, str(HERE / "worker.py"), mode,
                                json.dumps(spec)])
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1]), wall

    def cli(self, argv: list[str], form: str = "",
            trace_out: str | None = None) -> tuple[dict, float, float]:
        """One ``minorbit`` command in a fresh process: its result, and the
        whole process's wall time in reference and in raw seconds."""
        spec = {"argv": argv, "form": form}
        if trace_out:
            spec["trace_out"] = trace_out
        res, raw = self.worker("cli", spec)
        cal = res["process_cal"]
        return res, calib.ref_seconds(raw, cal["busy_s"], cal["mean_s"]), raw

    def _trace_out(self) -> str:
        self._traces += 1
        return str(OUT / "spans" / f"{self.trace_tag}-{self._traces}.csv.gz")

    def _spec(self, timed: bool, traced: bool) -> dict:
        spec = {"forms": list(self.cfg["forms"]), "samples": self.cfg["samples"],
                "seed": self.seed, "timed": timed}
        if traced:
            spec["trace_out"] = self._trace_out()
        return spec

    # -- one batch: the workload's whole form list ------------------------------
    def batch(self, traced: bool = False) -> dict:
        if self.mode is None:
            return self._verify_batch(traced)
        res, _ = self.worker(self.mode, self._spec(True, traced))
        for form in self.cfg["forms"]:
            oracle.check_facts(self.tally, form, res["facts"][form], self.reference)
            if self.mode == "sampled":
                oracle.check_sampled(self.tally, form, res["records"][form])
        return {"setup_s": res["setup_s"], "wall_s": res["wall_s"],
                "wall_raw_s": res["wall_raw_s"], "traces": [res.get("trace")]}

    def _verify_batch(self, traced: bool) -> dict:
        forms_s, raw_s, traces = {}, 0.0, []
        for form in self.cfg["forms"]:
            argv = ["verify", "--form", form, "--format", "json",
                    "--seed", str(self.seed), "--samples", str(self.cfg["samples"])]
            res, forms_s[form], raw = self.cli(
                argv, form, self._trace_out() if traced else None)
            raw_s += raw
            oracle.check_verify_report(self.tally, form, res["code"], res["report"],
                                       self.reference)
            traces.append(res.get("trace"))
        return {"setup_s": None, "wall_s": sum(forms_s.values()), "wall_raw_s": raw_s,
                "forms_s": forms_s, "traces": traces}

    def setup_only(self) -> float:
        if self.mode is None:
            res, wall, _ = self.cli(["catalog", "--format", "json"])
            if res["code"] != 0:
                raise BenchError(f"minorbit catalog exited {res['code']}")
            return wall
        return self.worker(self.mode, self._spec(False, False))[0]["setup_s"]

    def environment(self) -> dict:
        return self.worker("env", {})[0]


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: batches while the next fits in ``seconds``."""
    batches = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        batches.append(runner.batch())
        last = time.monotonic() - t
        now = time.monotonic()
        if now - start + last > seconds or now + last > runner.deadline - 10:
            break
    setups = [b["setup_s"] for b in batches if b["setup_s"] is not None]
    while len(setups) < runner.cfg["setups"]:
        setups.append(runner.setup_only())
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        # ru_maxrss is in KiB on Linux: the largest child process of the run
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    detail = {"batches": len(batches), "setups": setups,
              "walls": [b["wall_s"] for b in batches],
              "raw_walls": [b["wall_raw_s"] for b in batches]}
    return metrics, detail


def _merge(traces: list[dict]) -> dict:
    stats, counts, exact_s = {}, {}, {}
    covered = window = 0.0
    for tr in traces:
        for name, st in tr["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += st[key]
        for name, value in tr["counts"].items():
            combine = max if name.endswith(".max_dev") else (lambda a, b: a + b)
            counts[name] = combine(counts.get(name, 0), value)
        for form, value in tr["exact_s"].items():
            exact_s[form] = exact_s.get(form, 0.0) + value
        covered += tr["covered_s"]
        window += tr["window_s"]
    return {"stats": stats, "counts": counts, "exact_s": exact_s,
            "coverage": covered / window if window > 0 else 0.0}


def trace_layers(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced and one traced batch."""
    plain = runner.batch()
    traced = runner.batch(traced=True)
    merged = _merge(traced["traces"])
    stats, counts = merged["stats"], merged["counts"]
    metrics = {}
    for name, _unit in PER_LAYER:
        head, stat = name.rsplit(".", 1)
        if head == "matmodel.exact_s":
            value = merged["exact_s"].get(stat, 0.0)
        elif head == "verify_s":
            value = plain.get("forms_s", {}).get(stat, 0.0)
        elif name == "trace.overhead_ratio":
            value = traced["wall_s"] / plain["wall_s"]
        elif name == "trace.coverage_ratio":
            value = merged["coverage"]
        elif stat in ("calls", "s"):
            value = stats.get(head, {}).get(stat, 0)
        else:
            value = counts.get(name, 0)
        metrics[name] = value
    detail = {"plain_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "plain_wall_raw_s": plain["wall_raw_s"],
              "traced_wall_raw_s": traced["wall_raw_s"]}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-size inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "minorbit" / "__init__.py").is_file():
        print(f"error: no minorbit source tree at {SRC}", file=sys.stderr)
        return 2

    cfg = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(args.workload, cfg, args.seed, tag)
    try:
        if args.trace:
            values, detail = trace_layers(runner)
            units = PER_LAYER
        else:
            values, detail = measure(runner, args.seconds)
            units = END_TO_END
        env = runner.environment()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tally = runner.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "time": time.time(),
              "env": env, "detail": detail, "problems": tally.problems, "result": result}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail))
    for problem in tally.problems:
        print(f"oracle: {problem}")
    print(f"fail_ratio {tally.failed}/{tally.attempted}")
    for name, unit in units:
        print(f"{name} {values[name]!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
