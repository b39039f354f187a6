"""Exact-lane and catalog-lane reports compared byte for byte with stored fixtures.

The fixtures in ``data/golden`` were written by an earlier version of the
package; a refactor that changes any exact result, or how it is rendered,
fails here.  Sampled float checks stay out of the fixtures because their last
digits depend on the BLAS build.
"""

from pathlib import Path

import pytest

from minorbit.cli import main
from minorbit.matmodel import MODEL_IDS

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
