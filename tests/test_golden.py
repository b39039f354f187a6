"""Exact-lane and catalog-lane reports compared byte for byte with stored fixtures.

The fixtures in ``data/golden`` were written by an earlier version of the
package; a refactor that changes any exact result, or how it is rendered,
fails here.  Sampled float checks stay out of the fixtures because their last
digits depend on the BLAS build.  A report holds only dimensions and statuses
of the exact structures, so ``exact_structure.json`` also pins one SHA-256 per
form over the structures themselves: a kernel basis that changes while its
dimension stays the same fails there.
"""

import hashlib
import json
from pathlib import Path

import pytest

from minorbit.cli import main
from minorbit.matmodel import MODEL_IDS, analyze

GOLDEN = Path(__file__).parent / "data" / "golden"
EXACT_CHECKS = "striple,cayley,spectra,centralizers,lambda"


@pytest.mark.parametrize("form_id", MODEL_IDS)
@pytest.mark.parametrize("command, fmt", [
    pytest.param("verify", "json", id="verify"),
    pytest.param("verify", "md", id="verify-md"),
    pytest.param("model-check", "json", id="model-check"),
])
def test_exact_report_matches_golden(command, fmt, form_id, capsys):
    argv = [command, "--form", form_id, "--format", fmt]
    if command == "verify":
        argv += ["--checks", EXACT_CHECKS]
    assert main(argv) == 0
    expected = (GOLDEN / f"{command}_{form_id}.{fmt}").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


@pytest.mark.parametrize("fmt", ("md", "json"))
@pytest.mark.parametrize(
    "command, form_id",
    [("catalog", None), ("table", None)]
    + [("invariants", f) for f in ("sl2R", "su32", "g2-split", "e8-split")],
)
def test_catalog_report_matches_golden(command, form_id, fmt, capsys):
    argv = [command, "--format", fmt]
    name = command
    if form_id is not None:
        argv += ["--form", form_id]
        name += f"_{form_id}"
    assert main(argv) == 0
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


def exact_structure(form_id):
    """The exact objects of one analysis, one line per vector or scalar."""
    a = analyze(form_id)
    datum, lam = a.datum, a.lambda_data()
    lines = []

    def put(name, *vectors):
        lines.append(name)
        lines.extend(" ".join(map(str, v)) for v in vectors)

    for root, space in datum.root_spaces.items():
        put("root space", root, *space)
    put("positive roots", *datum.positive_roots)
    put("simple roots", *datum.simple_roots)
    put("psi, x_psi, c", datum.psi, datum.x_psi, [a.model.c])
    put("n", *datum.n_basis)
    put("m", *a.model.m_basis)
    put("S-triple x, e, f", a.striple.x, a.striple.e, a.striple.f)
    put("Cayley triple h, v, w", a.cayley.h, a.cayley.v, a.cayley.w)
    put("t", *lam.t_basis)
    put("k_nu", *lam.k_nu_basis)
    put("Cent k", *a.model.center_k)
    return "\n".join(lines)


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_exact_structures_match_golden(form_id):
    expected = json.loads((GOLDEN / "exact_structure.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(exact_structure(form_id).encode("utf-8")).hexdigest()
    assert digest == expected[form_id]
