"""Spans around calls into minorbit's layers, installed from outside the package.

`Tracer.install` replaces each target function, wherever a ``minorbit`` module
holds a reference to it, by a wrapper that records one span per call: name,
start, end, parent span and trace id (the form being worked on). Spans stay in
memory; `Tracer.write` stores them at the end and `Tracer.summary` reduces them
to per-layer numbers. Self time is a span's duration minus the durations of
its direct children; the program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name). "Class.method" patches the class attribute.
# A function is replaced in every minorbit module that imported it by name, so
# e.g. scipy's expm is wrapped exactly where minorbit.numeric and
# minorbit.sympver look it up, and scipy.linalg itself stays untouched.
TARGETS = (
    ("minorbit.rootsys", "build_root_system", "rootsys.build_root_system"),
    ("minorbit.realform", "load_catalog", "realform.load_catalog"),
    ("minorbit.realform", "derive_invariants", "realform.derive_invariants"),
    ("minorbit.matmodel", "analyze", "matmodel.analyze"),
    ("minorbit.matmodel.model", "build_model", "matmodel.build_model"),
    ("minorbit.matmodel.restricted", "restricted_root_datum",
     "matmodel.restricted_root_datum"),
    ("minorbit.matmodel.triples", "make_s_triple", "matmodel.triples"),
    ("minorbit.matmodel.triples", "cayley_transform", "matmodel.triples"),
    ("minorbit.matmodel.checks", "spectral_checks", "matmodel.spectral_checks"),
    ("minorbit.matmodel.checks", "centralizer_checks", "matmodel.centralizer_checks"),
    ("minorbit.matmodel.checks", "lambda_data", "matmodel.lambda_data"),
    ("minorbit.matmodel.model", "LieAlgebraModel.kernel_in_span",
     "matmodel.kernel_in_span"),
    ("minorbit.exactla", "kernel_basis", "exactla.kernel_basis"),
    ("minorbit.numeric", "numerics", "numeric.numerics"),
    ("minorbit.numeric", "expm", "numeric.expm"),
    ("minorbit.sympver", "verify_beta_symplectic", "sympver.beta"),
    ("minorbit.sympver", "ks_correspondence_check", "sympver.ks"),
    ("minorbit.sympver", "poisson_identities_check", "sympver.poisson"),
    ("minorbit.sympver", "moment_cone_check", "sympver.moment"),
    ("minorbit.report", "ReportDocument.to_json", "report.render"),
    ("minorbit.report", "ReportDocument.to_markdown", "report.render"),
    ("minorbit.cli", "main", "cli.main"),
)


def _kernel_cells(args, kwargs, result, counts):
    mat = args[0] if args else kwargs["mat"]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    rows = len(mat)
    counts["exactla.kernel_basis.cells"] += rows * (len(mat[0]) if rows else ncols or 0)


def _render_bytes(args, kwargs, result, counts):
    counts["report.render.bytes"] += len(result.encode("utf-8"))


def _sampled_evidence(check):
    """Accepted samples, resampling events and worst deviation of one check."""

    def hook(args, kwargs, result, counts):
        reports = result if isinstance(result, list) else [result]
        main = reports[0]
        rejected = sum(1 for ev in main.events if not ev.endswith("resampled"))
        counts[f"sympver.{check}.samples"] += main.sample_count - rejected
        for rep in reports:
            counts[f"sympver.{check}.resampled"] += sum(
                1 for ev in rep.events if ev.endswith("resampled"))
            dev = rep.max_abs_deviation
            key = f"sympver.{check}.max_dev"
            if not math.isfinite(dev):
                counts[key] = sys.float_info.max
            else:
                counts[key] = max(counts[key], dev)

    return hook


HOOKS = {
    "exactla.kernel_basis": _kernel_cells,
    "report.render": _render_bytes,
    "sympver.beta": _sampled_evidence("beta"),
    "sympver.ks": _sampled_evidence("ks"),
    "sympver.poisson": _sampled_evidence("poisson"),
    "sympver.moment": _sampled_evidence("moment"),
}


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trace_ids: list[str] = []
        self.trace_id = ""
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        names, starts, ends, parents, trace_ids = (
            self.names, self.starts, self.ends, self.parents, self.trace_ids)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            trace_ids.append(self.trace_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target; the minorbit modules must already be imported."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "minorbit" or n.startswith("minorbit.")]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def summary(self, window: tuple[float, float], root_layers: tuple[str, ...],
                scale: float = 1.0) -> dict:
        """Per-name calls, self and total time; counters; per-form matmodel time;
        and the time of ``window`` covered by root spans of ``root_layers``.
        Every time is multiplied by ``scale``."""
        n = len(self.starts)
        durations = [(self.ends[i] - self.starts[i]) * scale for i in range(n)]
        child = [0.0] * n
        in_matmodel = [False] * n
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "total_s": 0.0})
        exact_s: dict[str, float] = defaultdict(float)
        covered = 0.0
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += durations[i]
            is_mm = self.names[i].startswith("matmodel.")
            # parents are recorded before their children, so one pass suffices
            outer = in_matmodel[parent] if parent >= 0 else False
            in_matmodel[i] = is_mm or outer
            if is_mm and not outer:
                exact_s[self.trace_ids[i]] += durations[i]
            if (parent < 0 and self.starts[i] >= window[0]
                    and self.names[i].startswith(root_layers)):
                covered += durations[i]
        for i in range(n):
            st = stats[self.names[i]]
            st["calls"] += 1
            st["s"] += durations[i] - child[i]
            st["total_s"] += durations[i]
        span = (window[1] - window[0]) * scale
        return {
            "stats": dict(stats),
            "counts": dict(self.counts),
            "exact_s": dict(exact_s),
            "covered_s": covered,
            "window_s": span,
        }

    def write(self, path: Path) -> None:
        """Store every span as CSV: name,start,end,parent,trace_id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name,start,end,parent,trace_id\n")
            fh.writelines(
                f"{self.names[i]},{self.starts[i]:.9f},{self.ends[i]:.9f},"
                f"{self.parents[i]},{self.trace_ids[i]}\n"
                for i in range(len(self.starts))
            )
