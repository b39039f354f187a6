"""One fresh interpreter's share of a benchmark run.

Usage: ``python3 perfbench/worker.py MODE SPEC_JSON`` with ``PYTHONPATH=src``.

MODE is ``exact``, ``sampled``, ``cli``, ``env`` or ``record``. SPEC_JSON carries the
forms, ``samples``, ``seed``, ``t0`` (the parent's ``time.monotonic()`` just
before it started this process, so set-up time includes interpreter start),
``timed`` (false: stop after set-up) and ``trace_out`` (a path: install the
span wrappers and write the spans there). The result is one JSON line on
stdout. ``record`` prints the exact-lane reference that ``oracle.py`` checks
against.

Every minorbit entry point is looked up as a module attribute at call time, so
the wrappers that ``spans.Tracer.install`` puts in place are the ones called.

A `calib.Calibrator` runs from the first line of ``main`` on; every time the
worker reports is in reference seconds (see ``calib.py``), with the raw wall
time next to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import time
from pathlib import Path

import calib

SAMPLED_CHECKS = (
    ("beta", "verify_beta_symplectic", "DEFAULT_TOL_CLOSED"),
    ("ks", "ks_correspondence_check", "DEFAULT_TOL_CLOSED"),
    ("poisson", "poisson_identities_check", "DEFAULT_TOL_FD"),
    ("moment", "moment_cone_check", "DEFAULT_TOL_CLOSED"),
)


def _status(problems) -> str:
    return "fail" if problems else "pass"


def exact_facts(analysis, full: bool = False) -> dict:
    """Structured exact-lane results of one form, compared by ``oracle.py``.

    ``full`` adds the spectral and centralizer checks, which only the verify
    command runs."""
    from minorbit import matmodel
    from minorbit.matmodel.triples import cayley_violations, s_triple_violations

    model, datum, striple = analysis.model, analysis.datum, analysis.striple
    lam = analysis.lambda_data()
    checks = {
        "striple": _status(s_triple_violations(striple)),
        "cayley": _status(cayley_violations(analysis.cayley)),
        "lambda": [[c.name, c.status] for c in lam.checks],
    }
    if full:
        checks["spectra"] = [
            [c.name, c.status]
            for c in matmodel.spectral_checks(model, datum, striple, analysis.cayley)
        ]
        checks["centralizers"] = [
            [c.name, c.status]
            for c in matmodel.centralizer_checks(
                model, datum, striple, analysis.cayley, analysis.descriptor.hermitian)
        ]
    return {
        "dim_g": model.dim,
        "class_mults": dict(datum.class_mults()),
        "orbit_dim": model.dim - matmodel.kernel_ad_e_dimension(datum, striple.e),
        "k_nu_dim": len(lam.k_nu_basis),
        "checks": checks,
    }


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        info = cfg["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _sampled_record(check, report) -> dict:
    return {
        "check": check,
        "name": report.check_name,
        "passed": bool(report.passed),
        "max_dev": report.max_abs_deviation,
        "tol": report.tolerance,
        "samples": report.sample_count,
        "events": list(report.events),
    }


def _tracer(spec):
    if not spec.get("trace_out"):
        return None
    import minorbit.cli  # noqa: F401  (every layer imported before wrapping)
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _setup(spec, cal) -> dict:
    """Set-up time from the parent's spawn of this process until now."""
    raw = time.monotonic() - spec["t0"]
    return {"setup_s": cal.ref(raw), "setup_raw_s": raw}


def _finish(out: dict, cal, tracer, window, root_layers, spec) -> dict:
    """Timed-phase results; summarize and store the spans. Later work (the
    oracle's facts) is not part of the timings."""
    start, end = window
    out["wall_s"] = cal.ref(end - start, start, end)
    out["wall_raw_s"] = end - start
    out["cal"] = cal.window(start, end)
    if tracer is not None:
        out["trace"] = tracer.summary(window, root_layers,
                                      scale=calib.REF_S / out["cal"]["mean_s"])
        tracer.write(Path(spec["trace_out"]))
    return out


def run_exact(spec, cal) -> dict:
    from minorbit import matmodel, numeric, realform

    tracer = _tracer(spec)
    realform.load_catalog()
    out = _setup(spec, cal)
    if not spec["timed"]:
        return out
    start = time.perf_counter()
    for form in spec["forms"]:
        if tracer is not None:
            tracer.trace_id = form
        matmodel.analyze(form).lambda_data()
        numeric.numerics(form)
    end = time.perf_counter()
    _finish(out, cal, tracer, (start, end), ("matmodel.", "numeric."), spec)
    out["facts"] = {f: exact_facts(matmodel.analyze(f)) for f in spec["forms"]}
    return out


def run_sampled(spec, cal) -> dict:
    from minorbit import matmodel, numeric, realform, sympver

    tracer = _tracer(spec)
    realform.load_catalog()
    for form in spec["forms"]:
        if tracer is not None:
            tracer.trace_id = form
        numeric.numerics(form)
    out = _setup(spec, cal)
    if not spec["timed"]:
        return out
    records = {}
    start = time.perf_counter()
    for form in spec["forms"]:
        if tracer is not None:
            tracer.trace_id = form
        num = numeric.numerics(form)
        recs = []
        for check, fn_name, tol_name in SAMPLED_CHECKS:
            result = getattr(sympver, fn_name)(
                num, spec["samples"], getattr(sympver, tol_name), spec["seed"])
            for report in result if isinstance(result, list) else [result]:
                recs.append(_sampled_record(check, report))
        records[form] = recs
    end = time.perf_counter()
    out["records"] = records
    _finish(out, cal, tracer, (start, end), ("sympver.",), spec)
    out["facts"] = {f: exact_facts(matmodel.analyze(f)) for f in spec["forms"]}
    return out


def run_cli(spec, cal) -> dict:
    """``minorbit.cli.main(argv)`` as the ``minorbit`` command runs it. The
    parent times the whole process; ``process_cal`` lets it convert that
    time to reference seconds."""
    from minorbit import cli

    tracer = _tracer(spec)
    if tracer is not None:
        tracer.trace_id = spec.get("form", "")
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(spec["argv"])
    end = time.perf_counter()
    out = {"code": code, "report": buf.getvalue()}
    _finish(out, cal, tracer, (start, end), ("cli.",), spec)
    out["process_cal"] = cal.window()
    return out


def record(spec, cal) -> dict:
    from minorbit import matmodel

    return {f: exact_facts(matmodel.analyze(f), full=True) for f in spec["forms"]}


MODES = {
    "exact": run_exact,
    "sampled": run_sampled,
    "cli": run_cli,
    "record": record,
    "env": lambda spec, cal: environment(),
}


def main() -> int:
    cal = calib.Calibrator()
    cal.start()
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    result = MODES[mode](spec, cal)
    cal.stop()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
