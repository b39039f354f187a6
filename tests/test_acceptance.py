"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import json
import re
import subprocess
import sys
import time

import pytest

from minorbit.matmodel.checks import centralizer_checks, spectral_checks
from minorbit.matmodel.restricted import (
    eigenvalue_multiplicities,
    kernel_ad_e_dimension,
)
from minorbit.matmodel.triples import cayley_violations, s_triple_violations
from minorbit.numeric import numerics
from minorbit.realform import derive_invariants, table_checks
from minorbit.sympver import (
    moment_cone_check,
    poisson_identities_check,
    verify_beta_symplectic,
)

BETA_FORMS = ("sl2R", "sl3R", "su21", "sp4R")


def verdict(number, ok, text):
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_exceptional_table(catalog):
    start = time.perf_counter()
    lines = table_checks(catalog)
    elapsed = time.perf_counter() - start
    dims = tuple(int(re.search(r"dim_X=(\d+)", c.detail)[1]) for c in lines[:-1])
    ok = (dims == (4, 14, 20, 32, 56) and all(c.status == "pass" for c in lines)
          and elapsed < 1.0)
    verdict(1, ok, f"table dim_X = {dims}, every row split, in {elapsed:.3f}s (< 1s)")


def test_criterion_02_dimension_formulas(catalog):
    bad = []
    for desc in catalog:
        inv = derive_invariants(desc)
        if inv.omin_split:
            if inv.dim_Z != 2 * inv.h_vee - 2 or inv.dim_X != 2 * inv.h_vee - 4:
                bad.append(desc.id)
        if set(desc.mults.values()) == {1} and not inv.omin_split:
            bad.append(desc.id)
    verdict(2, not bad, f"dimension formulas hold on all {len(catalog)} entries")


def test_criterion_03_oracle_equivalence(all_analyses):
    bad = []
    for form_id, a in all_analyses.items():
        inv = a.invariants
        model_m = eigenvalue_multiplicities(a.datum)
        d_model = len(a.datum.root_spaces[a.datum.psi])
        dim_z_model = a.model.dim - kernel_ad_e_dimension(a.datum, a.striple.e)
        if (
            model_m != inv.m
            or d_model != inv.d
            or dim_z_model != inv.dim_Z
            or dim_z_model - 2 != inv.dim_X
        ):
            bad.append(form_id)
    verdict(
        3,
        not bad,
        f"(d, m_j, dim_Z, dim_X) agree exactly on {len(all_analyses)} models",
    )


def test_criterion_04_striple_cayley_exact(all_analyses):
    bad = []
    for form_id, a in all_analyses.items():
        if s_triple_violations(a.striple) or cayley_violations(a.cayley):
            bad.append(form_id)
    verdict(
        4,
        not bad,
        "S-triple and Cayley identities hold with zero deviation "
        f"(exact arithmetic) on {len(all_analyses)} models",
    )


def test_criterion_05_top_eigenspace_split(all_analyses):
    bad = []
    for form_id, a in all_analyses.items():
        checks = {
            c.name: c
            for c in spectral_checks(a.model, a.datum, a.striple, a.cayley)
        }
        if checks["adh_p_top_is_line_v"].failed or checks[
            "adh_k_top_dim_d_minus_1"
        ].failed:
            bad.append(form_id)
    verdict(5, not bad, "eigenvalue-2 of ad h: multiplicity d-1 on k_C, line v on p_C")


def test_criterion_06_beta_symplectic():
    results = []
    ok = True
    for form_id in BETA_FORMS:
        start = time.perf_counter()
        main, block = verify_beta_symplectic(
            numerics(form_id), samples=100, tol=1e-9, seed=42
        )
        elapsed = time.perf_counter() - start
        ok = ok and main.passed and block.passed and elapsed < 10.0
        results.append(f"{form_id}:{main.max_abs_deviation:.2e}/{elapsed:.2f}s")
    verdict(6, ok, "beta Grams agree at 100 seeded samples; " + " ".join(results))


def test_criterion_07_poisson_identities():
    results = []
    ok = True
    for form_id in ("sl2R", "sl3R"):
        (report,) = poisson_identities_check(
            numerics(form_id), samples=50, tol=1e-9, seed=42
        )
        ok = ok and report.passed
        results.append(f"{form_id}:{report.max_abs_deviation:.2e}")
    verdict(7, ok, "prequantization bracket identities at 50 samples; " + " ".join(results))


def test_criterion_08_moment_cone(all_analyses):
    bad = []
    for form_id in all_analyses:
        (report,) = moment_cone_check(numerics(form_id), samples=200, tol=1e-9, seed=42)
        rank_one = len(numerics(form_id).a_basis) == 1
        if not report.passed:
            bad.append(form_id)
        if rank_one and "full membership" not in report.detail:
            bad.append(form_id)
    verdict(
        8,
        not bad,
        f"moment-cone spectra pass at 200 samples on {len(all_analyses)} models; "
        "full membership asserted on restricted-rank-1 models",
    )


def test_criterion_09_dichotomy(all_analyses, catalog_map):
    bad = []
    for form_id, a in all_analyses.items():
        hermitian = catalog_map[form_id].hermitian
        checks = {c.name: c for c in a.lambda_data().checks}
        cents = {
            c.name: c
            for c in centralizer_checks(
                a.model, a.datum, a.striple, a.cayley, hermitian
            )
        }
        # the line passes when X = -X exactly on the non-hermitian forms
        if checks["weight_negation_dichotomy"].failed:
            bad.append(form_id)
        if cents["center_of_k_dimension"].failed:
            bad.append(form_id)
    verdict(
        9,
        not bad,
        "hermitian models report X != -X and dim Cent k = 1; "
        "non-hermitian report X = -X and dim Cent k = 0",
    )


def test_criterion_10_byte_identical_reports():
    args = [
        sys.executable, "-m", "minorbit.cli", "verify", "--form", "su21",
        "--checks", "beta,ks,poisson,moment", "--samples", "25",
        "--seed", "42", "--format", "json",
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    ok = (
        first.returncode == 0
        and first.stdout == second.stdout
        and json.loads(first.stdout)["pass"] is True
    )
    verdict(10, ok, "two seeded verify runs emit byte-identical JSON reports")
