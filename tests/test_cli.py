import json
import subprocess
import sys

from minorbit.cli import main

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
    assert payload["schema"] == 1
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


def _flipped_su21_catalog(tmp_path):
    """A copy of the shipped catalog with su21 marked non-hermitian."""
    from minorbit.realform import default_catalog_path

    raw = json.loads(default_catalog_path().read_text(encoding="utf-8"))
    for entry in raw:
        if entry["id"] == "su21":
            assert entry["hermitian"] is True
            entry["hermitian"] = False
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_catalog_override_reaches_the_model_lane(tmp_path, capsys):
    path = _flipped_su21_catalog(tmp_path)
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

    path = _flipped_su21_catalog(tmp_path)
    assert analyze("su21").descriptor.hermitian is True
    assert analyze("su21", None) is analyze("su21")
    assert analyze("su21", path).descriptor.hermitian is False
    assert analyze("su21", str(path)) is analyze("su21", path)
    assert numerics("su21", path).analysis is analyze("su21", path)
    assert numerics("su21").analysis is analyze("su21")


def test_verify_exact_checks(capsys):
    assert main(["verify", "--form", "sl3R", "--checks", "striple,cayley"]) == 0
    out = capsys.readouterr().out
    assert out.count("max_dev=0.0") == 2
    assert "exact arithmetic" in out


def test_verify_unknown_check(capsys):
    assert main(["verify", "--form", "sl2R", "--checks", "bogus"]) == 2
    assert main(["verify", "--form", "sl2R", "--checks", "striple,bogus"]) == 2


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
    assert checks["striple"]["status"] == "fail"
    assert checks["striple"]["max_abs_deviation"] is None
    assert checks["striple"]["detail"] == (
        "exact arithmetic; [h, e] != 2e; non-finite deviation: inf"
    )
    assert checks["cayley"]["max_abs_deviation"] == 0.0
    assert checks["cayley"]["detail"] == "exact arithmetic"


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
    assert payload["elapsed_ms"] is None


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
