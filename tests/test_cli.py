import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from lorentz_harmonics.cli import main, parse_complex
from lorentz_harmonics.config import RunConfig, load_run_config, parse_config_file
from lorentz_harmonics.wigner import FourierTableSU2

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "report.schema.json").read_text()
)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv) -> dict:
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


# ------------------------------------------------------------------ plumbing

def test_parse_complex():
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("1,-0.5") == 1 - 0.5j
    with pytest.raises(ValueError):
        parse_complex("1,2,3")


def test_config_file_and_env_layering(tmp_path, monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment\nj_max = 50\nformat = csv\n")
    cfg = load_run_config(str(cfgfile))
    assert cfg.j_max == 50 and cfg.format == "csv"
    # flags override the file
    cfg = load_run_config(str(cfgfile), {"j_max": 70})
    assert cfg.j_max == 70
    # environment overrides both
    cfg = load_run_config(str(cfgfile), {"j_max": 70}, environ={"LH_J_MAX": "90"})
    assert cfg.j_max == 90
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)
    # workers and branch were removed and are now unknown keys
    for text in ("no_such_key = 1\n", "workers = 4\n", "branch = plus\n"):
        bad.write_text(text)
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(bad)


def test_removed_workers_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ratio", "--m", "0", "--tau", "0", "--eps", "2", "--workers", "2"])
    assert exc.value.code == 2


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(j_max=0)
    with pytest.raises(ValueError):
        RunConfig(format="xml")


# ---------------------------------------------------------------- subcommands

def test_coeff_exact_path(capsys):
    payload = run_json(capsys, "coeff", "--j", "1", "--m", "0", "--tau", "0", "--eps", "2")
    assert payload["report"]["path"] == "exact"
    assert payload["report"]["value"][0] == pytest.approx(0.4873673465763917, rel=1e-12)


def test_coeff_asymptotic_path(capsys):
    payload = run_json(
        capsys, "coeff", "--j", "200", "--m", "0", "--tau", "0", "--eps", "2"
    )
    assert payload["report"]["path"] == "asymptotic"


def test_coeff_outside_large_j_route_is_numerical_failure(capsys):
    # tau = 2 is outside the saddle route's |Re tau| <= 1: exit 1, no value
    code, out = run_cli(capsys, "coeff", "--j", "200", "--tau", "2", "--eps", "2")
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    # 40-digit mpmath: log|D| = -133.41; the cancelled series gave -125.47
    ("--j", "64", "--tau", "1", "--eps", "4"),
    # relative error 1.8e11 before the cancellation check
    ("--j", "64", "--m", "3", "--tau", "2", "--eps", "2"),
])
def test_coeff_cancelled_exact_series_is_numerical_failure(capsys, argv):
    code = main(["coeff", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "cancels" in captured.err


def test_coeff_domain_error_exit_code(capsys):
    code, _ = run_cli(capsys, "coeff", "--j", "1", "--m", "5", "--tau", "0", "--eps", "2")
    assert code == 2


def test_non_finite_matrix_exit_code(capsys):
    code = main(["coeff", "--j", "1", "--tau", "0",
                 "--g", "nan", "0", "0", "0", "0", "0", "1", "0"])
    assert code == 2
    assert "deviates from 1" in capsys.readouterr().err


def test_invalid_matrix_exit_code(capsys):
    code, _ = run_cli(
        capsys, "coeff", "--j", "1", "--m", "0", "--tau", "0",
        "--g", "1", "0", "0", "0", "0", "0", "1.5", "0",
    )
    assert code == 2


def test_matrix_target_matches_eps(capsys):
    p1 = run_json(capsys, "coeff", "--j", "2", "--m", "1", "--tau", "0.3", "--eps", "2")
    p2 = run_json(
        capsys, "coeff", "--j", "2", "--m", "1", "--tau", "0.3",
        "--g", "0.5", "0", "0", "0", "0", "0", "2", "0",
    )
    assert p2["report"]["log_mag"] == pytest.approx(p1["report"]["log_mag"], rel=1e-12)


def test_ratio_json_and_prediction(capsys):
    payload = run_json(capsys, "ratio", "--m", "0", "--tau", "0", "--eps", "2", "--jmax", "200")
    assert payload["report"]["predicted_limit"] == pytest.approx(0.64)
    assert payload["report"]["relative_deviation"] < 0.02


@pytest.mark.parametrize("argv", [
    ("ratio", "--m", "0", "--tau", "0", "--eps", "2", "--jmax", "40"),
    ("sum", "--mode", "diagonal", "--m", "1", "--tau", "0.3", "--eps", "0.5", "--jmax", "40"),
    ("sum", "--mode", "triple", "--tau", "0.2,0.1", "--eps", "2", "--jmax", "40"),
    ("ymap", "--tau", "0.3", "--eps", "2", "--jmax", "6"),
], ids=["ratio", "sum-diagonal", "sum-triple", "ymap"])
@pytest.mark.filterwarnings("ignore:table band")
def test_ratio_csv_columns(argv, tmp_path, capsys):
    if argv[0] == "ymap":
        entries = {(tj, tm): complex(0.5**tj, 0.1 * tm) for tj in (0, 2, 4)
                   for tm in range(-tj, tj + 1, 2)}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(FourierTableSU2(0, 4, entries).to_json_dict()))
        argv = argv + ("--table", str(path))
    report = run_json(capsys, *argv)["report"]
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["j", "log_mag", "phase", "ratio", "partial_re", "partial_im"]
    assert len(rows) - 1 == len(report["terms"]) == len(report["partial_sums"])
    assert rows[-1][0] == argv[argv.index("--jmax") + 1]
    # the CSV rows are the JSON envelope's terms and partial sums, row for row
    for row, term, partial in zip(rows[1:], report["terms"], report["partial_sums"]):
        expected = [term["j"], term["log_mag"], term["phase"],
                    "" if term["ratio"] is None else term["ratio"], *partial]
        assert row == [str(x) for x in expected]


def test_sum_modes(capsys):
    p = run_json(capsys, "sum", "--mode", "diagonal", "--m", "0", "--tau", "0",
                 "--eps", "0.5", "--jmax", "150")
    assert p["report"]["verdict"] == "converged"
    p = run_json(capsys, "sum", "--mode", "triple", "--tau", "0", "--eps", "0.5",
                 "--jmax", "90")
    assert p["report"]["verdict"] == "converged"
    code, _ = run_cli(capsys, "sum", "--mode", "diagonal", "--tau", "0", "--eps", "2")
    assert code == 2  # --m required


def test_norm_subcommand(capsys):
    payload = run_json(capsys, "norm", "--tau", "0", "--jmax", "1000000")
    assert payload["report"]["target"][0] == pytest.approx(1.6449340668482264, rel=1e-12)
    assert payload["report"]["deviation"] < 1e-5
    code, _ = run_cli(capsys, "norm", "--tau", "0,1", "--jmax", "100")
    assert code == 2


def test_diverge_subcommand(capsys):
    payload = run_json(capsys, "diverge", "--tau", "0", "--checkpoints", "1000,100000")
    assert payload["report"]["verdict"] == "diverged"
    inc = payload["report"]["increments"][-1][0]
    assert inc == pytest.approx(9.2103, rel=0.05)


def test_ymap_subcommand(tmp_path, capsys):
    entries = {(tj, tm): complex(0.5**tj, 0.0) for tj in (0, 2, 4)
               for tm in range(-tj, tj + 1, 2)}
    table = FourierTableSU2(0, 4, entries)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json_dict()))
    payload = run_json(
        capsys, "ymap", "--table", str(path), "--tau", "0.3", "--eps", "2",
        "--jmax", "4",
    )
    assert payload["report"]["verdict"] in ("converged", "inconclusive")
    payload = run_json(
        capsys, "ymap", "--table", str(path), "--tau", "0.3", "--eps", "2",
        "--jmax", "4", "--bounds",
    )
    bounds = payload["report"]["bounds"]
    assert bounds["product_bound"] >= bounds["apply_abs"][-1]


def test_asymcheck_subcommand(capsys):
    payload = run_json(
        capsys, "asymcheck", "--j", "32", "--m", "0", "--tau", "0", "--eps", "2"
    )
    assert payload["report"]["relative_error"] < 0.05
    payload = run_json(
        capsys, "asymcheck", "--j", "16", "--m", "1", "--tau", "0", "--eps", "0.5",
    )
    assert "branch" not in payload["report"]


def test_out_path(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run_cli(
        capsys, "coeff", "--j", "1", "--m", "0", "--tau", "0", "--eps", "2",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "coeff"


def test_config_file_via_flag(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("j_max = 45\n")
    payload = run_json(
        capsys, "ratio", "--m", "0", "--tau", "0", "--eps", "2",
        "--config", str(cfgfile),
    )
    assert payload["report"]["terms"][-1]["j"] == 45


def test_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LH_J_MAX", "37")
    payload = run_json(capsys, "ratio", "--m", "0", "--tau", "0", "--eps", "2",
                       "--jmax", "60")
    assert payload["report"]["terms"][-1]["j"] == 37


def test_subprocess_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "lorentz_harmonics.cli", "coeff", "--j", "3",
         "--m", "0", "--tau", "0.5", "--eps", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["report"]["path"] == "exact"


def test_series_csv_helper_matches_contract(capsys):
    from lorentz_harmonics.principal_series import ratio_test
    from lorentz_harmonics.reports import SERIES_CSV_COLUMNS, series_csv_rows

    rep = ratio_test(0, 0.0, 2.0, 20)
    rows = series_csv_rows(rep)
    assert SERIES_CSV_COLUMNS == ["j", "log_mag", "phase", "ratio", "partial_re", "partial_im"]
    assert len(rows) == len(rep.terms)
    assert rows[0][0] == 1 and rows[0][3] == ""


@pytest.mark.filterwarnings("ignore:table band")
def test_zero_terms_emit_strict_json(tmp_path, capsys):
    # rows with exact-zero terms must not leak bare Infinity literals
    table = FourierTableSU2(0, 2, {(0, 0): 1.0 + 0j})
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table.to_json_dict()))
    code, out = run_cli(capsys, "ymap", "--table", str(path), "--tau", "0",
                        "--eps", "2", "--jmax", "3")
    assert code == 0
    assert "Infinity" not in out and "NaN" not in out
    payload = json.loads(out)
    zero_terms = [t for t in payload["report"]["terms"] if t["log_mag"] == "-inf"]
    assert zero_terms


def test_numerical_failure_exit_code(capsys):
    # eps this small pushes the series argument too close to 1 for the term cap
    code, _ = run_cli(capsys, "coeff", "--j", "1", "--m", "0", "--tau", "0",
                      "--eps", "0.05")
    assert code == 1
