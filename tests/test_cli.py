import json
import subprocess
import sys

import pytest

from minorbit.cli import COMMANDS, main
from minorbit.matmodel import ModelError, analyze
from minorbit.realform import CatalogError

CLI = [sys.executable, "-m", "minorbit.cli"]


def run_cli(*args, check=False):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, check=check
    )


def test_catalog_lists_all_entries(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("| ")]
    assert len(rows) >= 12 + 1  # header row plus entries
    assert "su21" in out
    assert "hermitian=True" in out


def test_catalog_json_matches_md_content(capsys):
    assert main(["catalog", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 2
    names = [c["name"] for c in payload["checks"]]
    assert "su21" in names and "e8-split" in names
    su21 = next(c for c in payload["checks"] if c["name"] == "su21")
    assert "hermitian=True" in su21["detail"]
    assert "omin_split=True" in su21["detail"]


def test_invariants_sl2R(capsys):
    assert main(["invariants", "--form", "sl2R"]) == 0
    out = capsys.readouterr().out
    assert "d=1" in out and "dim_Z=2" in out and "dim_X=0" in out
    assert "omin_split=True" in out


def test_invariants_sl3H(capsys):
    assert main(["invariants", "--form", "sl3H"]) == 0
    out = capsys.readouterr().out
    assert "omin_split=False" in out


def test_invariants_g2(capsys):
    assert main(["invariants", "--form", "g2-split"]) == 0
    assert "dim_X=4" in capsys.readouterr().out


def test_unknown_form_fails(capsys):
    assert main(["invariants", "--form", "nope"]) == 2
    assert "unknown form id" in capsys.readouterr().err


def test_missing_form_is_a_usage_error(capsys):
    for command in ("verify", "invariants", "model-check"):
        assert main([command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --form is required for {command}\n"


@pytest.mark.parametrize("form_id, error", [("nope", CatalogError), ("g2-split", ModelError)])
def test_analyze_and_the_cli_look_the_form_up_alike(form_id, error, capsys):
    """An unknown form, and a catalog form with no matrix model, get one
    message from matmodel.analyze and from the commands that analyze."""
    with pytest.raises(error) as raised:
        analyze(form_id)
    for command in ("verify", "model-check"):
        assert main([command, "--form", form_id]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {raised.value}\n"


UNREAD = [("--form", "sl2R"), ("--checks", "striple"), ("--samples", "3"),
          ("--tol", "0.5"), ("--seed", "7")]


@pytest.mark.parametrize("command, option, value", [
    (command, option, value)
    for command in ("catalog", "table", "invariants", "model-check")
    for option, value in UNREAD
    if not (option == "--form" and command in ("invariants", "model-check"))
])
def test_an_option_the_command_does_not_read_exits_2(command, option, value, capsys):
    form = ["--form", "sl2R"] if command in ("invariants", "model-check") else []
    assert main([command, *form, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {command} does not take {option}\n"


def test_table_values_and_formats(capsys):
    assert main(["table"]) == 0
    md = capsys.readouterr().out
    for value in ("dim_X=4", "dim_X=14", "dim_X=20", "dim_X=32", "dim_X=56"):
        assert value in md
    assert main(["table", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    dims = []
    for check in payload["checks"]:
        if check["name"].startswith("table[") and "dim_X=" in check["detail"]:
            dims.append(int(check["detail"].split("dim_X=")[1].split()[0]))
    assert dims == [4, 14, 20, 32, 56]


def test_table_fails_on_a_wrong_dim_X(tmp_path, capsys):
    """E6 with the restricted data of EIV (A2, mult 8, dim m 28) passes
    catalog validation, and dim X = 30 fails the table's one verdict line."""
    path = _catalog_copy(tmp_path, "e6-split", restricted_label="A2",
                         mults={"long": 8}, dim_m=28)
    assert main(["table", "--catalog", str(path), "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if c["status"] != "pass"] == ["table[dim_X_row]"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 8: K, X and J(X) are catalog text and only dim X is checked"
))
def test_table_fails_on_e8_with_the_restricted_data_of_another_form(tmp_path):
    """E8 with restricted root system F4, mults long 1 / short 8 and dim m 28
    (EIX's data) keeps dim X = 56, so the table still passes."""
    from minorbit.realform import load_catalog

    path = _catalog_copy(tmp_path, "e8-split", restricted_label="F4",
                         mults={"long": 1, "short": 8}, dim_m=28)
    load_catalog(path)  # a valid catalog: a CatalogError here is no xfail
    assert main(["table", "--catalog", str(path)]) == 1


def test_bad_catalog_names_invariant(tmp_path, capsys):
    bad = [{
        "id": "broken",
        "gc_label": "A2",
        "restricted_label": "A2",
        "mults": {"long": 2},
        "dim_m": 0,
        "hermitian": False,
        "k_name": "SO(3)",
    }]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["catalog", "--catalog", str(path)]) == 2
    err = capsys.readouterr().err
    assert "broken" in err and "dimension mismatch" in err


def test_catalog_entry_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "numbers.json"
    path.write_text("[1]", encoding="utf-8")
    assert main(["catalog", "--catalog", str(path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_mistyped_catalog_field_exits_2(tmp_path, capsys):
    from minorbit.realform import default_catalog_path

    raw = json.loads(default_catalog_path().read_text(encoding="utf-8"))
    for entry in raw:
        if entry["id"] == "su21":
            entry["hermitian"] = "false"
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["catalog", "--catalog", str(path)]) == 2
    err = capsys.readouterr().err
    assert "su21" in err and "hermitian must be true or false" in err


def _catalog_copy(tmp_path, form_id, **fields):
    """A copy of the shipped catalog with ``fields`` set on one entry."""
    from minorbit.realform import default_catalog_path

    raw = json.loads(default_catalog_path().read_text(encoding="utf-8"))
    for entry in raw:
        if entry["id"] == form_id:
            entry.update(fields)
    path = tmp_path / f"{form_id}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_markdown_table_keeps_catalog_text_inside_its_cell(tmp_path, capsys):
    """A pipe in catalog text is escaped and a line break becomes a space, so
    every row of the markdown table keeps its three cells."""
    path = _catalog_copy(tmp_path, "e8-split", k_name="Spin(16)|Z2",
                         notes="Spin(16)/\r\nU(8)", jordan_algebra="H4(H)\n")
    assert main(["table", "--catalog", str(path)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("|")]
    assert len(rows) == 2 + 6
    for row in rows:
        assert row.endswith("|") and len(row.replace("\\|", "").split("|")) == 3 + 2, row
    assert r"| table[E8] | pass | K=Spin(16)\|Z2 X=Spin(16)/ U(8) dim_X=56 " in rows[-2]
    assert rows[-2].endswith("J(X)=H4(H)  dim_J(X)=28 |")


def test_catalog_override_reaches_the_model_lane(tmp_path, capsys):
    path = _catalog_copy(tmp_path, "su21", hermitian=False)
    assert main(["catalog", "--catalog", str(path)]) == 0
    capsys.readouterr()
    argv = ["verify", "--form", "su21", "--checks", "lambda", "--format", "json",
            "--catalog", str(path)]
    assert main(argv) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["weight_negation_dichotomy"]["status"] == "fail"
    assert "hermitian: False" in checks["weight_negation_dichotomy"]["detail"]
    # the shipped catalog still passes in the same process
    assert main(argv[:-2]) == 0


def test_catalog_override_keys_the_model_caches(tmp_path):
    from minorbit.matmodel import analyze
    from minorbit.numeric import numerics

    path = _catalog_copy(tmp_path, "su21", hermitian=False)
    assert analyze("su21").descriptor.hermitian is True
    assert analyze("su21", None) is analyze("su21")
    assert analyze("su21", path).descriptor.hermitian is False
    assert analyze("su21", str(path)) is analyze("su21", path)
    assert numerics("su21", path).analysis is analyze("su21", path)
    assert numerics("su21").analysis is analyze("su21")


def test_a_multiplicity_disagreement_is_a_failed_check(tmp_path, capsys):
    """su21 with e_i multiplicity 1 and dim m 3 passes catalog validation but
    disagrees with the model; both commands report failed checks (exit 1)."""
    path = _catalog_copy(tmp_path, "su21", mults={"e_i": 1, "2e_i": 1}, dim_m=3)
    assert main(["catalog", "--catalog", str(path)]) == 0
    capsys.readouterr()
    argv = ["--form", "su21", "--catalog", str(path), "--format", "json"]
    assert main(["model-check", *argv]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert {c["status"] for c in checks.values()} == {"fail"} and len(checks) == 4
    assert checks["restricted_multiplicities"]["detail"] == (
        "model {'2e_i': 1, 'e_i': 2} vs catalog {'e_i': 1, '2e_i': 1}"
    )
    assert main(["verify", *argv, "--checks", "striple,lambda"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    (failed,) = [c for c in checks if c["status"] == "fail"]
    assert failed["name"] == "orbit_dimension"
    assert failed["detail"] == "dim k - dim k_nu = 2, catalog dim_X = 1"


def test_commands_agree_on_a_catalog_rewritten_in_process(tmp_path, capsys):
    """A catalog is parsed once per source key and process, and every command
    reads that one parse: after the file is rewritten with an invalid su21,
    catalog, model-check and invariants still give one answer."""
    path = _catalog_copy(tmp_path, "su21")
    runs = [["catalog"], ["model-check", "--form", "su21"], ["invariants", "--form", "su21"]]
    before = [main([*argv, "--catalog", str(path)]) for argv in runs]
    _catalog_copy(tmp_path, "su21", mults={"e_i": 0, "2e_i": 1})
    after = [main([*argv, "--catalog", str(path)]) for argv in runs]
    capsys.readouterr()
    assert before == [0, 0, 0]
    assert len(set(after)) == 1, after


@pytest.mark.parametrize("command", COMMANDS)
def test_config_block_holds_what_the_command_reads(command, capsys):
    from dataclasses import fields

    from minorbit.cli import RunConfig

    reads = COMMANDS[command][1]
    argv = [command, "--format", "json"]
    if "form" in reads:
        argv += ["--form", "sl2R"]
    if "checks" in reads:
        argv += ["--checks", "striple"]
    assert main(argv) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    shown = ("command", *reads, "catalog", "format")
    assert tuple(config) == shown
    assert tuple(config) == tuple(f.name for f in fields(RunConfig) if f.name in shown)


def test_config_block_gives_every_option_but_out(tmp_path):
    from minorbit.realform import default_catalog_path

    target = tmp_path / "report.json"
    catalog = str(default_catalog_path())
    assert main(["verify", "--form", "sl2R", "--checks", "striple, beta",
                 "--samples", "5", "--tol", "0.5", "--seed", "3", "--catalog", catalog,
                 "--format", "json", "--out", str(target)]) == 0
    config = json.loads(target.read_text(encoding="utf-8"))["config"]
    assert list(config.items()) == [
        ("command", "verify"), ("form", "sl2R"), ("checks", ["striple", "beta"]),
        ("samples", 5), ("tol", 0.5), ("seed", 3), ("catalog", catalog),
        ("format", "json"),
    ]


def test_verify_samples_default_to_the_checks_default():
    # the CLI's default is a literal of its own; it must be the checks' default
    from minorbit import sympver
    from minorbit.cli import RunConfig

    assert RunConfig("verify").samples == sympver.DEFAULT_SAMPLES


def test_empty_checks_runs_all_nine_with_checks_null(capsys):
    from minorbit.cli import VERIFY_CHECKS

    argv = ["verify", "--form", "sl2R", "--samples", "3", "--format", "json"]
    assert main([*argv, "--checks", ""]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["checks"] is None
    assert main([*argv, "--checks", ",".join(VERIFY_CHECKS)]) == 0
    assert report["checks"] == json.loads(capsys.readouterr().out)["checks"]


def test_verify_reports_an_unknown_form_before_an_unknown_check(capsys):
    assert main(["verify", "--form", "nope", "--checks", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: catalog entry 'nope': unknown form id\n"


def test_verify_exact_checks(capsys):
    assert main(["verify", "--form", "sl3R", "--checks", "striple,cayley"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "| striple | pass | exact arithmetic |" in rows
    assert "| cayley | pass | exact arithmetic |" in rows


VERDICT_KEYS = frozenset({"name", "status", "detail"})
SAMPLED_KEYS = VERDICT_KEYS | {"samples", "max_abs_deviation", "tolerance", "seed",
                               "events", "accepted", "worst_sample"}


def test_exact_lines_are_verdicts_whatever_the_tol(capsys):
    argv = ["verify", "--form", "sl2R", "--checks", "striple,cayley", "--tol", "1e-3",
            "--format", "json"]
    assert main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [set(c) for c in checks] == [VERDICT_KEYS, VERDICT_KEYS]


def test_every_line_is_a_verdict_or_a_sampled_line(capsys):
    assert main(["verify", "--form", "sl2R", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {frozenset(c) for c in checks} == {VERDICT_KEYS, SAMPLED_KEYS}
    sampled = [c["name"] for c in checks if set(c) == SAMPLED_KEYS]
    assert sampled == ["beta_symplectic", "beta_base_block", "ks_correspondence",
                       "poisson_identities", "moment_cone"]


def test_markdown_sampled_row_shows_accepted_and_worst_sample(capsys):
    argv = ["verify", "--form", "sl2R", "--checks", "beta", "--samples", "7"]
    assert main([*argv, "--format", "json"]) == 0
    beta = json.loads(capsys.readouterr().out)["checks"][0]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert (f"| beta_symplectic | pass | max_dev={beta['max_abs_deviation']!r} tol=1e-09 "
            f"samples=7 seed=42 accepted=7 worst_sample={beta['worst_sample']} "
            "entrywise Gram agreement |") in rows


def test_verify_unknown_check(capsys):
    assert main(["verify", "--form", "sl2R", "--checks", "bogus"]) == 2
    assert main(["verify", "--form", "sl2R", "--checks", "striple,bogus"]) == 2


def test_verify_repeated_check_exits_2(capsys):
    assert main(["verify", "--form", "sl2R", "--checks", "striple,striple"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'striple' is given more than once" in captured.err
    assert main(["verify", "--form", "sl2R", "--checks", "striple,beta, striple"]) == 2


def test_verify_check_error_keeps_other_results(capsys, monkeypatch):
    import numpy as np

    from minorbit import sympver

    def singular(gram, grads_f, grads_g):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(sympver, "_poisson_bracket", singular)
    argv = ["verify", "--form", "sl2R", "--checks", "striple,poisson",
            "--samples", "3", "--format", "json"]
    assert main(argv) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["striple"]["status"] == "pass"
    assert checks["poisson"]["status"] == "fail"
    assert "error: Singular matrix" in checks["poisson"]["detail"]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_failing_exact_check_report_is_strict_json(capsys, monkeypatch):
    from minorbit import cli

    monkeypatch.setattr(cli, "s_triple_violations", lambda striple: ["[h, e] != 2e"])
    argv = ["verify", "--form", "sl2R", "--checks", "striple,cayley", "--format", "json"]
    assert main(argv) == 1
    checks = {c["name"]: c for c in _strict_json(capsys.readouterr().out)["checks"]}
    assert checks["striple"] == {
        "name": "striple", "status": "fail", "detail": "exact arithmetic; [h, e] != 2e",
    }
    assert checks["cayley"] == {
        "name": "cayley", "status": "pass", "detail": "exact arithmetic",
    }
    assert main(argv[:-2]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert "| striple | fail | exact arithmetic; [h, e] != 2e |" in rows
    assert "| cayley | pass | exact arithmetic |" in rows


def _verify_on_a_catalog_copy(tmp_path, capsys):
    """verify sl2R with all nine checks against a catalog copy, so that a
    broken analysis is cached under the copy's key alone: the exit status
    and each line's status."""
    path = _catalog_copy(tmp_path, "sl2R")
    code = main(["verify", "--form", "sl2R", "--catalog", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    return {c["name"]: c["status"] for c in json.loads(out)["checks"]}


def test_an_invalid_s_triple_is_a_failed_line(tmp_path, capsys, monkeypatch):
    """With e at half its H-norm-1 length the striple line fails, and the
    report is still written (exit 1 is a failed check, exit 2 an error)."""
    from minorbit.matmodel import triples

    exact_sqrt = triples.exact_sqrt
    monkeypatch.setattr(triples, "exact_sqrt", lambda x: 2 * exact_sqrt(x))
    status = _verify_on_a_catalog_copy(tmp_path, capsys)
    assert status["striple"] == "fail"


def test_an_invalid_cayley_triple_is_a_failed_line(tmp_path, capsys, monkeypatch):
    """v and w built without their factor 1/2 fail the cayley line alone of
    the two exact triple lines, and the report is still written."""
    from minorbit.exactla import ONE
    from minorbit.matmodel import triples

    monkeypatch.setattr(triples, "HALF", ONE)
    status = _verify_on_a_catalog_copy(tmp_path, capsys)
    assert status["striple"] == "pass"
    assert status["cayley"] == "fail"


def test_nan_deviation_report_is_strict_json(capsys, monkeypatch):
    import copy

    import numpy as np

    from minorbit import cli
    from minorbit.numeric import numerics

    broken = copy.copy(numerics("sl2R"))
    broken.v = np.full_like(broken.v, np.nan)
    monkeypatch.setattr(cli, "numerics", lambda form_id, catalog=None: broken)
    argv = ["verify", "--form", "sl2R", "--checks", "ks", "--samples", "3",
            "--format", "json"]
    assert main(argv) == 1
    (ks,) = _strict_json(capsys.readouterr().out)["checks"]
    assert ks["status"] == "fail" and ks["max_abs_deviation"] is None
    assert ks["detail"] == "non-finite deviation: nan"
    assert main(argv[:-2]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert ("| ks_correspondence | fail | max_dev=None tol=1e-09 samples=3 "
            "seed=42 accepted=3 worst_sample=0 non-finite deviation: nan |") in rows


def test_verify_rejects_non_finite_tol(capsys):
    for tol in ("nan", "inf", "0", "-1e-9"):
        argv = ["verify", "--form", "sl2R", "--checks", "striple", f"--tol={tol}"]
        assert main(argv) == 2
        assert "tol must be positive and finite" in capsys.readouterr().err


def test_verify_rejects_negative_seed(capsys):
    argv = ["verify", "--form", "sl2R", "--checks", "beta", "--seed", "-1"]
    assert main(argv) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_seeds_equal_modulo_2_32_draw_different_samples(capsys):
    """42 and 2**32 + 42 were one stream each time; the report must not
    claim a seed whose samples it did not draw."""
    deviations = {}
    for seed in (42, 2**32 + 42):
        argv = ["verify", "--form", "sl2R", "--checks", "beta,ks,poisson,moment",
                "--samples", "20", "--seed", str(seed), "--format", "json"]
        assert main(argv) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {c["seed"] for c in checks} == {seed}
        deviations[seed] = [c["max_abs_deviation"] for c in checks
                            if c["name"] != "beta_base_block"]
    first, second = deviations.values()
    assert all(a != b for a, b in zip(first, second)), deviations


def test_verify_rejects_unmodeled_form(capsys):
    assert main(["verify", "--form", "e8-split"]) == 2
    assert "no matrix model" in capsys.readouterr().err


def test_model_check(capsys):
    assert main(["model-check", "--form", "su21"]) == 0
    out = capsys.readouterr().out
    assert "restricted_multiplicities" in out
    assert "orbit_dimension_oracle" in out


def test_out_flag(tmp_path):
    target = tmp_path / "report.json"
    code = main(
        ["verify", "--form", "sl2R", "--checks", "beta", "--samples", "5",
         "--format", "json", "--out", str(target)]
    )
    assert code == 0
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["pass"] is True
    assert payload["checks"][0]["name"] == "beta_symplectic"
    assert "elapsed_ms" not in payload
    assert "elapsed" not in payload["checks"][0]


def test_out_to_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["verify", "--form", "sl2R", "--checks", "striple",
                 "--out", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert captured.out == ""
    assert not target.exists()


def test_verify_byte_identical_subprocess():
    args = ["verify", "--form", "sl2R", "--checks", "beta,ks,moment",
            "--samples", "20", "--seed", "42", "--format", "json"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()


def test_cli_module_invocation_emits_json():
    result = run_cli("table", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["pass"] is True


def test_commands_do_not_import_scipy():
    """numpy is the only runtime dependency: verify with all nine checks and
    catalog, in one fresh process, leave scipy unimported."""
    code = (
        "import sys\n"
        "from minorbit.cli import main\n"
        "codes = [main(['verify', '--form', 'sl2R']), main(['catalog'])]\n"
        "assert codes == [0, 0], codes\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("beta_symplectic", "ks_correspondence", "poisson_identities",
                 "moment_cone"):
        assert f"| {name} | pass |" in proc.stdout
