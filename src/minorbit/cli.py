"""Command-line front end: catalog queries, tables, model and orbit checks."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__, matmodel, realform, sympver
from .matmodel.checks import centralizer_checks, spectral_checks
from .matmodel.restricted import (
    eigenvalue_multiplicities,
    kernel_ad_e_dimension,
)
from .matmodel.triples import cayley_violations, s_triple_violations
from .numeric import numerics
from .report import CheckItem, ReportDocument

@dataclass
class RunConfig:
    command: str
    form: str | None = None
    checks: list[str] | None = None
    samples: int = sympver.DEFAULT_SAMPLES
    tol: float | None = None
    seed: int = 42
    catalog: str | None = None
    format: str = "md"
    out: str | None = None

    def validate(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def cmd_catalog(config: RunConfig) -> list[CheckItem]:
    checks = []
    for desc in realform.load_catalog(config.catalog):
        inv = realform.derive_invariants(desc)
        checks.append(CheckItem(desc.id, "pass", (
            f"gc={desc.gc_label} restricted={desc.restricted_label} "
            f"d={inv.d} dim_Z={inv.dim_Z} dim_X={inv.dim_X} "
            f"omin_split={inv.omin_split} hermitian={desc.hermitian} "
            f"has_matrix_model={desc.id in matmodel.MODEL_IDS}"
        )))
    return checks


def cmd_invariants(config: RunConfig) -> list[CheckItem]:
    desc = realform.find_descriptor(config.form, config.catalog)
    inv = realform.derive_invariants(desc)
    return [CheckItem(f"invariants[{desc.id}]", "pass", (
        f"d={inv.d} m={inv.m} dim_g={desc.dim_g} dim_Z={inv.dim_Z} "
        f"dim_X={inv.dim_X} omin_split={inv.omin_split} h_vee={inv.h_vee}"
    )), *realform.cross_checks(inv)]


def cmd_table(config: RunConfig) -> list[CheckItem]:
    return realform.table_checks(realform.load_catalog(config.catalog))


def cmd_model_check(config: RunConfig) -> list[CheckItem]:
    analysis = matmodel.analyze(config.form, config.catalog)
    desc, inv = analysis.descriptor, analysis.invariants
    model, datum = analysis.model, analysis.datum
    model_m = eigenvalue_multiplicities(datum)
    dim_z_model = model.dim - kernel_ad_e_dimension(datum, analysis.striple.e)
    return [
        CheckItem.verdict(
            "model_dimensions",
            model.dim == desc.dim_g and model.dim_m == desc.dim_m,
            f"dim g = {model.dim}, dim k = {model.dim_k}, dim a = {model.dim_a}, "
            f"dim m = {model.dim_m}",
        ),
        CheckItem.verdict(
            "restricted_multiplicities",
            datum.class_mults() == desc.mults,
            f"model {datum.class_mults()} vs catalog {desc.mults}",
        ),
        CheckItem.verdict("eigenvalue_multiplicities", model_m == inv.m, f"{model_m}"),
        CheckItem.verdict(
            "orbit_dimension_oracle",
            dim_z_model == inv.dim_Z,
            f"dim from ad-e kernel {dim_z_model}, combinatorial {inv.dim_Z}",
        ),
    ]


def _exact_check(name: str, violations):
    """An exact identity check: a verdict line that names each violation."""

    def run(analysis, config: RunConfig) -> list[CheckItem]:
        problems = violations(analysis)
        return [CheckItem.verdict(
            name, not problems, "; ".join(["exact arithmetic", *problems])
        )]

    return run


def _sampled_check(function_name: str):
    """``sympver.<function_name>``, looked up per call so module wrappers see
    it: its sampled lines, at ``--tol`` or else the closed-form tolerance."""

    def run(analysis, config: RunConfig) -> list[CheckItem]:
        check = getattr(sympver, function_name)
        num = numerics(config.form, config.catalog)
        tol = sympver.DEFAULT_TOL_CLOSED if config.tol is None else config.tol
        return check(num, config.samples, tol, config.seed)

    return run


# each verify check's lines: verdict lines from the exact lane, sampled lines
# from the float lane, the only lines that read samples, tol and seed
CHECK_RUNNERS = {
    "striple": _exact_check("striple", lambda a: s_triple_violations(a.striple)),
    "cayley": _exact_check("cayley", lambda a: cayley_violations(a.cayley)),
    "spectra": lambda a, config: spectral_checks(
        a.model, a.datum, a.striple, a.cayley
    ),
    "centralizers": lambda a, config: centralizer_checks(
        a.model, a.datum, a.striple, a.cayley, a.descriptor.hermitian
    ),
    "lambda": lambda a, config: a.lambda_data().checks,
    "beta": _sampled_check("verify_beta_symplectic"),
    "ks": _sampled_check("ks_correspondence_check"),
    "poisson": _sampled_check("poisson_identities_check"),
    "moment": _sampled_check("moment_cone_check"),
}
VERIFY_CHECKS = tuple(CHECK_RUNNERS)


def cmd_verify(config: RunConfig) -> list[CheckItem]:
    analysis = matmodel.analyze(config.form, config.catalog)
    names = config.checks or VERIFY_CHECKS
    for i, name in enumerate(names):
        if name not in VERIFY_CHECKS:
            raise ValueError(
                f"unknown check {name!r}; choose from {', '.join(VERIFY_CHECKS)}"
            )
        if name in names[:i]:
            raise ValueError(f"check {name!r} is given more than once")
    # one check's error (ValueError covers CatalogError, ModelError and
    # numpy's LinAlgError) fails that check; the others still run
    checks = []
    for name in names:
        try:
            checks.extend(CHECK_RUNNERS[name](analysis, config))
        except ValueError as exc:
            checks.append(CheckItem(name, "fail", f"error: {exc}"))
    return checks


# each command and the RunConfig fields it reads besides those every command
# reads (command, catalog, format, out); any other option given is an error,
# and the report's config block holds the fields read, but out
COMMANDS = {
    "catalog": (cmd_catalog, ()),
    "invariants": (cmd_invariants, ("form",)),
    "table": (cmd_table, ()),
    "model-check": (cmd_model_check, ("form",)),
    "verify": (cmd_verify, ("form", "checks", "samples", "tol", "seed")),
}


def _check_names(text: str) -> list[str] | None:
    return [c.strip() for c in text.split(",")] if text else None


def build_parser() -> argparse.ArgumentParser:
    # an option not given is absent, so main can tell it from a default;
    # the defaults are RunConfig's
    parser = argparse.ArgumentParser(
        prog="minorbit",
        description=(
            "catalog, matrix-model and symplectic-orbit verification for "
            "minimal nilpotent coadjoint orbits"
        ),
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--form", help="catalog form id")
    parser.add_argument(
        "--checks", type=_check_names,
        help=f"comma-separated subset of: {','.join(VERIFY_CHECKS)}",
    )
    parser.add_argument("--samples", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--catalog")
    parser.add_argument("--format", choices=("md", "json"))
    parser.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    config = RunConfig(**options)
    run, reads = COMMANDS[config.command]
    shown = ("command", "catalog", "format", *reads)
    try:
        for name in options:
            if name not in (*shown, "out"):
                raise ValueError(f"{config.command} does not take --{name}")
        config.validate()
        if "form" in reads and config.form is None:
            raise ValueError(f"--form is required for {config.command}")
        block = {name: value for name, value in vars(config).items() if name in shown}
        doc = ReportDocument(version=__version__, config=block, checks=run(config))
        text = doc.to_json() if config.format == "json" else doc.to_markdown()
        if config.out:
            Path(config.out).write_text(text, encoding="utf-8")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not config.out:
        sys.stdout.write(text)
    return 0 if doc.overall_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
