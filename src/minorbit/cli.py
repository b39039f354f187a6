"""Command-line front end: catalog queries, tables, model and orbit checks."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__, matmodel, realform, sympver
from .matmodel import ModelError
from .matmodel.checks import centralizer_checks, spectral_checks
from .matmodel.restricted import (
    eigenvalue_multiplicities,
    kernel_ad_e_dimension,
)
from .matmodel.triples import cayley_violations, s_triple_violations
from .numeric import numerics
from .realform import CatalogError
from .report import CheckItem, GramReport, ReportDocument

@dataclass
class RunConfig:
    command: str
    form_id: str | None = None
    check_names: tuple[str, ...] = ()
    samples: int = 100
    tol: float | None = None
    seed: int = 42
    catalog_path: str | None = None
    format: str = "md"
    out: str | None = None

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "form": self.form_id,
            "checks": list(self.check_names) or None,
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
            "catalog": self.catalog_path,
            "format": self.format,
        }

    def validate(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _load_catalog(config: RunConfig):
    return realform.load_catalog(config.catalog_path)


def cmd_catalog(config: RunConfig) -> ReportDocument:
    doc = ReportDocument(version=__version__, config=config.as_dict())
    entries = _load_catalog(config)
    for desc in entries:
        inv = realform.derive_invariants(desc)
        doc.checks.append(
            CheckItem(
                name=desc.id,
                status="pass",
                detail=(
                    f"gc={desc.gc_label} restricted={desc.restricted_label} "
                    f"d={inv.d} dim_Z={inv.dim_Z} dim_X={inv.dim_X} "
                    f"omin_split={inv.omin_split} hermitian={desc.hermitian} "
                    f"has_matrix_model={matmodel.has_matrix_model(desc.id)}"
                ),
            )
        )
    return doc


def _find_descriptor(config: RunConfig) -> realform.RealFormDescriptor:
    entries = {e.id: e for e in _load_catalog(config)}
    if config.form_id not in entries:
        raise CatalogError(config.form_id or "<none>", "unknown form id")
    return entries[config.form_id]


def cmd_invariants(config: RunConfig) -> ReportDocument:
    doc = ReportDocument(version=__version__, config=config.as_dict())
    desc = _find_descriptor(config)
    inv = realform.derive_invariants(desc)
    doc.checks.append(
        CheckItem(
            name=f"invariants[{desc.id}]",
            status="pass",
            detail=(
                f"d={inv.d} m={inv.m} dim_g={inv.dim_g} dim_Z={inv.dim_Z} "
                f"dim_X={inv.dim_X} omin_split={inv.omin_split} h_vee={inv.h_vee}"
            ),
        )
    )
    doc.checks.extend(realform.cross_checks(desc, inv))
    return doc


def cmd_table(config: RunConfig) -> ReportDocument:
    doc = ReportDocument(version=__version__, config=config.as_dict())
    table = realform.exceptional_table(_load_catalog(config))
    for row in table.as_dicts():
        doc.checks.append(
            CheckItem(
                name=f"table[{row['gc_type']}]",
                status="pass",
                detail=(
                    f"K={row['K']} X={row['X']} dim_X={row['dim_X']} "
                    f"J(X)={row['J(X)']} dim_J(X)={row['dim_J(X)']}"
                ),
            )
        )
    expected = (4, 14, 20, 32, 56)
    got = table.dim_X_values()
    doc.checks.append(
        CheckItem(
            name="table[dim_X_row]",
            status="pass" if got == expected else "fail",
            detail=f"dim_X = {got}, expected {expected}",
        )
    )
    doc.checks.append(
        CheckItem(
            name="table[jordan_halving]",
            status=(
                "pass"
                if all(r.dim_jordan * 2 == r.dim_X for r in table.rows)
                else "fail"
            ),
            detail="dim X = 2 dim J(X) on every row",
        )
    )
    return doc


def cmd_model_check(config: RunConfig) -> ReportDocument:
    doc = ReportDocument(version=__version__, config=config.as_dict())
    desc = _find_descriptor(config)
    if not matmodel.has_matrix_model(desc.id):
        raise ModelError(f"form {desc.id!r} has no matrix model")
    analysis = matmodel.analyze(desc.id, config.catalog_path)
    model, datum = analysis.model, analysis.datum

    doc.checks.append(CheckItem.verdict(
        "model_dimensions",
        model.dim == analysis.invariants.dim_g and model.dim_m == desc.dim_m,
        f"dim g = {model.dim}, dim k = {model.dim_k}, dim a = {model.dim_a}, "
        f"dim m = {model.dim_m}",
    ))
    doc.checks.append(CheckItem.verdict(
        "restricted_multiplicities",
        datum.class_mults() == desc.mults,
        f"model {datum.class_mults()} vs catalog {desc.mults}",
    ))
    inv = analysis.invariants
    model_m = eigenvalue_multiplicities(datum)
    doc.checks.append(CheckItem.verdict(
        "eigenvalue_multiplicities", model_m == inv.m, f"{model_m}"
    ))
    dim_z_model = model.dim - kernel_ad_e_dimension(datum, analysis.striple.e)
    doc.checks.append(CheckItem.verdict(
        "orbit_dimension_oracle",
        dim_z_model == inv.dim_Z,
        f"dim from ad-e kernel {dim_z_model}, combinatorial {inv.dim_Z}",
    ))
    return doc


def _exact_check(name: str, violations):
    """An exact identity check reported as one sample, inf deviation on
    failure; its tolerance defaults to 0."""

    def run(analysis, config: RunConfig) -> list[GramReport]:
        problems = violations(analysis)
        tol = 0.0 if config.tol is None else config.tol
        return [
            GramReport(
                check_name=name,
                sample_count=1,
                max_abs_deviation=0.0 if not problems else float("inf"),
                tolerance=tol,
                passed=not problems,
                seed=config.seed,
                detail="exact arithmetic" + ("; " + "; ".join(problems) if problems else ""),
            )
        ]

    return run


def _sampled_check(function_name: str):
    """``sympver.<function_name>``, looked up per call so module wrappers see
    it; every sampled check's tolerance defaults to the closed-form one."""

    def run(analysis, config: RunConfig) -> list[GramReport]:
        check = getattr(sympver, function_name)
        num = numerics(config.form_id, config.catalog_path)
        tol = sympver.DEFAULT_TOL_CLOSED if config.tol is None else config.tol
        result = check(num, config.samples, tol, config.seed)
        return result if isinstance(result, list) else [result]

    return run


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


def _run_verify_check(name: str, config: RunConfig, doc: ReportDocument) -> None:
    analysis = matmodel.analyze(config.form_id, config.catalog_path)
    doc.checks.extend(CHECK_RUNNERS[name](analysis, config))


def cmd_verify(config: RunConfig) -> ReportDocument:
    doc = ReportDocument(version=__version__, config=config.as_dict())
    desc = _find_descriptor(config)
    if not matmodel.has_matrix_model(desc.id):
        raise ModelError(f"form {desc.id!r} has no matrix model")
    names = config.check_names or VERIFY_CHECKS
    for name in names:
        if name not in VERIFY_CHECKS:
            raise ValueError(
                f"unknown check {name!r}; choose from {', '.join(VERIFY_CHECKS)}"
            )
    # one check's error (ValueError covers numpy's LinAlgError and a
    # rank-deficient frame) fails that check; the others still run
    for name in names:
        try:
            _run_verify_check(name, config, doc)
        except (ModelError, CatalogError, ValueError) as exc:
            doc.checks.append(CheckItem(name, "fail", f"error: {exc}"))
    return doc


COMMANDS = {
    "catalog": cmd_catalog,
    "invariants": cmd_invariants,
    "table": cmd_table,
    "model-check": cmd_model_check,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorbit",
        description=(
            "catalog, matrix-model and symplectic-orbit verification for "
            "minimal nilpotent coadjoint orbits"
        ),
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--form", dest="form_id", help="catalog form id")
    parser.add_argument(
        "--checks",
        help=f"comma-separated subset of: {','.join(VERIFY_CHECKS)}",
    )
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--catalog", dest="catalog_path", default=None)
    parser.add_argument("--format", choices=("md", "json"), default="md")
    parser.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    checks = tuple(c.strip() for c in args.checks.split(",")) if args.checks else ()
    config = RunConfig(
        command=args.command,
        form_id=args.form_id,
        check_names=checks,
        samples=args.samples,
        tol=args.tol,
        seed=args.seed,
        catalog_path=args.catalog_path,
        format=args.format,
        out=args.out,
    )
    try:
        config.validate()
        doc = COMMANDS[config.command](config)
        text = doc.to_json() if config.format == "json" else doc.to_markdown()
        if config.out:
            Path(config.out).write_text(text, encoding="utf-8")
    except (CatalogError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not config.out:
        sys.stdout.write(text)
    return 0 if doc.overall_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
