import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import random_su2_matrix
from lorentz_harmonics import cli
from lorentz_harmonics.cli import build_parser, main, parse_complex
from lorentz_harmonics.config import ENV_PREFIX, RunConfig, load_run_config, parse_config_file
from lorentz_harmonics.wigner import FourierTableSU2

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schemas" / "report.schema.json").read_text()
)
SRC = str(Path(__file__).resolve().parents[1] / "src")
SUBCOMMANDS = ("coeff", "ratio", "sum", "norm", "diverge", "ymap", "asymcheck")


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


# the text of one value of each annotation, and what it must arrive as
SETTING_TEXT = {"int": ("7", 7), "float": ("0.25", 0.25), "str": ("csv", "csv"),
                "Optional[str]": ("out.json", "out.json")}


@pytest.mark.parametrize("setting", fields(RunConfig), ids=lambda f: f.name)
def test_each_setting_arrives_typed_from_file_and_environment(setting, tmp_path):
    # a field whose annotation has no parser fails here
    text, value = SETTING_TEXT[setting.type]
    path = tmp_path / "run.cfg"
    path.write_text(f"{setting.name} = {text}\n")
    env = {ENV_PREFIX + setting.name.upper(): f" {text} "}
    for cfg in (load_run_config(str(path), environ={}), load_run_config(environ=env)):
        got = getattr(cfg, setting.name)
        assert got == value and type(got) is type(value)


def test_empty_out_is_none(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("out =\n")
    assert parse_config_file(path) == {"out": None}
    assert load_run_config(environ={"LH_OUT": ""}).out is None
    assert load_run_config(str(path), {"out": "flag.json"}, environ={"LH_OUT": " "}).out is None


def test_removed_workers_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ratio", "--m", "0", "--tau", "0", "--eps", "2", "--workers", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    "coeff --j 3 --eps 2",                   # no --tau
    "coeff --j x --tau 0 --eps 2",           # not an int
    "ymap --tau 0 --eps 2 --jmax 3",         # no --table
    "diverge --tau 0 --checkpoints -5,10",   # a value argparse takes for an option
    "cof",                                   # no such subcommand
    "",                                      # no subcommand
])
def test_argparse_usage_error_is_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(j_max=0)
    with pytest.raises(ValueError):
        RunConfig(format="xml")
    for bad in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(cauchy_tolerance=bad)


@pytest.mark.parametrize("source, key, text", [
    ("flag", "cauchy_tolerance", "inf"),
    ("flag", "cauchy_tolerance", "nan"),
    ("env", "cauchy_tolerance", "inf"),
    ("file", "cauchy_tolerance", "nan"),
])
def test_non_finite_tolerance_exits_2(capsys, monkeypatch, tmp_path, source, key, text):
    # --tol inf used to exit 0 with verdict "converged"
    argv = ["ratio", "--m", "0", "--tau", "0", "--eps", "2", "--jmax", "30"]
    if source == "flag":
        argv += ["--tol", text]
    elif source == "env":
        monkeypatch.setenv("LH_" + key.upper(), text)
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {text}\n")
        argv += ["--config", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


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


@pytest.mark.parametrize("g", [
    ("inf", "0", "0", "0", "0", "0", "1", "0"),
    ("1e200", "0", "0", "0", "0", "0", "1e200", "0"),   # det overflows
])
def test_overflowing_matrix_is_one_error_line(capsys, g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["coeff", "--j", "3", "--tau", "0", "--g", *g])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: det = ") and err.count("\n") == 1


def test_eps_and_g_together_exit_2(capsys):
    code = main(["coeff", "--j", "3", "--tau", "0", "--eps", "2",
                 "--g", "1", "0", "0", "0", "0", "0", "1", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: give either --eps or --g, not both\n"


@pytest.mark.parametrize("tau, want", [("-0.5,0.1", [-0.5, 0.1]), ("-.5", [-0.5, 0.0]),
                                       ("-1", [-1.0, 0.0])])
def test_negative_tau_after_a_space(capsys, tau, want):
    joined = run_json(capsys, "coeff", "--j", "3", f"--tau={tau}", "--eps", "2")
    spaced = run_json(capsys, "coeff", "--j", "3", "--tau", tau, "--eps", "2")
    assert spaced == joined
    assert spaced["report"]["tau"] == want


def test_invalid_matrix_exit_code(capsys):
    code, _ = run_cli(
        capsys, "coeff", "--j", "1", "--m", "0", "--tau", "0",
        "--g", "1", "0", "0", "0", "0", "0", "1.5", "0",
    )
    assert code == 2


UNIT_BOOSTS = [
    ("--eps", "1"),
    ("--g", "0.6", "0", "0", "0.8", "0", "0.8", "0.6", "0"),   # an SU(2) element
    # eps = 1 + 1e-13: cartan_decompose reads an eps within 1e-12 of 1 as 1
    ("--g", "1.0000000000001", "0", "0", "0", "0", "0", "0.9999999999999", "0"),
    # det = 1 - 8e-10, inside the 1e-9 tolerance: not unitary to 1e-9, yet no boost
    ("--g", "1", "0", "0", "0", "0", "0", "0.9999999992", "0"),
]


@pytest.mark.parametrize("target", UNIT_BOOSTS)
def test_coeff_unit_boost_past_exact_window(capsys, target):
    payload = run_json(capsys, "coeff", "--j", "65", "--m", "3", "--tau", "0.3", *target)
    report = payload["report"]
    assert (report["path"], report["log_mag"], report["phase"]) == ("exact", 0.0, 0.0)


@pytest.mark.parametrize("target", UNIT_BOOSTS)
def test_series_at_unit_boost_exit_2(capsys, target):
    code = main(["ratio", "--m", "0", "--tau", "0.3", "--jmax", "30", *target])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: series diagnostics require a boost, eps != 1\n"


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


@pytest.mark.parametrize("argv, header, rows", [
    (("coeff", "--j", "3", "--m", "1", "--tau", "0.5", "--eps", "2"),
     "j,m,tau_re,tau_im,epsilon,path,log_mag,phase,value_re,value_im", 1),
    (("norm", "--tau", "0.5,0.2", "--jmax", "100"),
     "j_max,computed_re,computed_im,target_re,target_im,deviation,tail_bound", 1),
    (("diverge", "--tau", "0.3", "--checkpoints", "10,100,1000"),
     "checkpoint,partial_re,partial_im,increment_re,increment_im,model_re,model_im,"
     "relative_deviation", 3),
    (("asymcheck", "--j", "32", "--m", "2", "--tau", "0.5", "--eps", "2"),
     "j,m,tau_re,tau_im,epsilon,exact_log_mag,exact_phase,asym_log_mag,asym_phase,"
     "relative_error", 1),
], ids=["coeff", "norm", "diverge", "asymcheck"])
def test_scalar_csv_columns(capsys, argv, header, rows):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == header.split(",")
    assert len(table) - 1 == rows
    assert all(len(row) == len(table[0]) for row in table[1:])


def test_sum_modes(capsys):
    p = run_json(capsys, "sum", "--mode", "diagonal", "--m", "0", "--tau", "0",
                 "--eps", "0.5", "--jmax", "150")
    assert p["report"]["verdict"] == "converged"
    p = run_json(capsys, "sum", "--mode", "triple", "--tau", "0", "--eps", "0.5",
                 "--jmax", "90")
    assert p["report"]["verdict"] == "converged"


def test_sum_diagonal_requires_m(capsys):
    code, _ = run_cli(capsys, "sum", "--mode", "diagonal", "--tau", "0", "--eps", "2")
    assert code == 2  # --m required


def test_triple_sum_past_the_exact_window(capsys):
    # the j = 65 block against 30-digit mpmath (its log is
    # 0.59744646883347252969); past j = 64 every block was about 12 orders of
    # magnitude too small, and the report read converged
    p = run_json(capsys, "sum", "--mode", "triple", "--tau", "0", "--eps", "0.5",
                 "--jmax", "300")
    terms = p["report"]["terms"]
    assert [t["j"] for t in terms] == list(range(301))
    assert terms[65]["phase"] == 0.0
    assert math.exp(terms[65]["log_mag"]) == pytest.approx(1.81747189877367, rel=1e-10)
    assert p["report"]["verdict"] != "converged"


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


@pytest.mark.filterwarnings("ignore:table band")
def test_ymap_group_element_matches_eps(tmp_path, capsys, rng):
    # the map depends on g only through its boost: g = u1 diag(1/2, 2) u2
    # gives the partial sums of eps = 2
    entries = {(tj, tm): complex(0.5**tj, 0.1 * tm) for tj in (0, 2, 4)
               for tm in range(-tj, tj + 1, 2)}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(FourierTableSU2(0, 4, entries).to_json_dict()))
    g = random_su2_matrix(rng) @ np.diag([0.5, 2.0]) @ random_su2_matrix(rng)
    flat = [repr(float(x)) for v in g.reshape(-1) for x in (v.real, v.imag)]
    argv = ("ymap", "--table", str(path), "--tau", "0.3", "--jmax", "30")
    by_g = run_json(capsys, *argv, "--g", *flat)["report"]["partial_sums"]
    by_eps = run_json(capsys, *argv, "--eps", "2")["report"]["partial_sums"]
    assert len(by_g) == len(by_eps) == 31
    for a, b in zip(by_g, by_eps):
        assert complex(*a) == pytest.approx(complex(*b), rel=1e-9, abs=1e-12)


def test_asymcheck_subcommand(capsys):
    payload = run_json(
        capsys, "asymcheck", "--j", "32", "--m", "0", "--tau", "0", "--eps", "2"
    )
    assert payload["report"]["relative_error"] < 0.05
    # the saddle-point term that coeff uses: 0.023 here, where Watson's
    # tau = 0 term is off by 1.99
    payload = run_json(
        capsys, "asymcheck", "--j", "32", "--m", "0", "--tau", "0.5", "--eps", "2"
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


@pytest.mark.parametrize("argv", [
    ("norm", "--tau", "nan"),
    ("norm", "--tau", "inf"),
    ("norm", "--tau", "0,nan"),
    ("ratio", "--m", "0", "--tau", "0,-inf", "--eps", "2"),
    ("coeff", "--j", "10", "--tau", "0", "--eps", "inf"),
    ("coeff", "--j", "100", "--tau", "0", "--eps", "nan"),
    ("asymcheck", "--j", "3", "--m", "0", "--tau", "0", "--eps", "inf"),
])
def test_non_finite_tau_or_eps_is_domain_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("table, text, out", [
    ("absent.json", None, None),
    (".", None, None),
    ("t.json", '{"p": 0, "band_limit": 4}', None),
    ("t.json", '{"p": 0, "band_limit": 4, "entries": 5}', None),
    ("t.json", '{"p": 0, "band_limit": 4, "entries": [{"twice_j": 0, "re": 1, "im": 0}]}',
     None),
    ("t.json", '{"p": 0, "band_limit": 4, "entries": []}', "no/such/dir.json"),
], ids=["missing", "directory", "no-entries", "entries-int", "entry-without-twice_m",
        "out-dir"])
def test_file_errors_exit_2_with_one_line(tmp_path, capsys, table, text, out):
    if text is not None:
        (tmp_path / table).write_text(text)
    argv = ["ymap", "--table", str(tmp_path / table), "--tau", "0.3", "--eps", "2",
            "--jmax", "3"]
    code = main(argv + (["--out", str(tmp_path / out)] if out else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_table_entry_exits_2_with_one_line(tmp_path, capsys, fmt, value):
    # json reads both; the table was loaded, and json output then failed as a
    # NaN report (exit 1) while csv wrote NaN rows (exit 0)
    table = tmp_path / "t.json"
    table.write_text('{"p": 0, "band_limit": 4, "entries": '
                     f'[{{"twice_j": 2, "twice_m": 0, "re": {value}, "im": 0.0}}]}}')
    code = main(["ymap", "--table", str(table), "--tau", "0.3", "--eps", "2", "--jmax", "3",
                 "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("tau", ["1e9", "1e300"])
def test_triple_sum_past_the_node_cap_is_one_line(capsys, tau):
    # 2.8e11 quadrature nodes at tau = 1e9 (a 79.7 GiB allocation failed),
    # and a split count overflowed its cast to int at 1e300
    code = main(["sum", "--mode", "triple", "--tau", tau, "--eps", "2", "--jmax", "30"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1


def test_repeated_checkpoints_exit_2(capsys):
    # a repeated checkpoint gave a zero model increment to divide by (exit 1)
    code = main(["diverge", "--tau", "0", "--checkpoints", "5,5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "distinct" in captured.err


def test_nan_in_report_is_numerical_failure(capsys):
    # 1 + tau^2 overflows to a complex infinity and the norm series to NaN
    code = main(["norm", "--tau", "1e200,1e200", "--jmax", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")


def test_ymap_bounds_warns_once(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(FourierTableSU2(0, 2, {(0, 0): 1.0 + 0j}).to_json_dict()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["ymap", "--table", str(path), "--tau", "0.3", "--eps", "2",
                     "--jmax", "6", "--bounds"])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: table band 2 is below j_max = 6; tail terms use the zero-extension"
    ]
    assert not caught


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ymap_band_warning_is_one_stderr_line(fmt, tmp_path, capsys):
    # no file path or source line of the warning's caller, whatever the filters
    path = tmp_path / "t.json"
    path.write_text(json.dumps(FourierTableSU2(0, 4, {(0, 0): 1.0 + 0j}).to_json_dict()))
    argv = ["ymap", "--table", str(path), "--tau", "0.3", "--eps", "2", "--jmax", "6",
            "--format", fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.out
    assert captured.err == (
        "warning: table band 4 is below j_max = 6; tail terms use the zero-extension\n"
    )
    assert main(argv[:-4] + ["--jmax", "4"]) == 0
    assert capsys.readouterr().err == ""


def test_to_json_encodes_dataclasses_field_by_field():
    from lorentz_harmonics.expansion import GrowthReport
    from lorentz_harmonics.reports import TermRecord, to_json

    report = GrowthReport(
        checkpoints=(1, 2), partial_sums=(1 + 2j, complex(math.inf, -math.inf)),
        increments=(0.5j,), model_increments=(), relative_deviations=(math.inf,),
        verdict="inconclusive",
    )
    assert to_json(report) == {
        "checkpoints": [1, 2], "partial_sums": [[1.0, 2.0], ["inf", "-inf"]],
        "increments": [[0.0, 0.5]], "model_increments": [],
        "relative_deviations": ["inf"], "verdict": "inconclusive",
    }
    assert to_json({"t": [TermRecord(3, -math.inf, 0.0)]}) == {
        "t": [{"j": 3, "log_mag": "-inf", "phase": 0.0, "ratio": None}]
    }
    # NaN is left for json.dumps(allow_nan=False) to reject
    with pytest.raises(ValueError):
        json.dumps(to_json(TermRecord(1, math.nan, 0.0)), allow_nan=False)


@pytest.mark.parametrize("argv", [
    ("coeff", "--j", "3", "--m", "1", "--tau", "0.2", "--eps", "2"),
    ("ratio", "--m", "0", "--tau", "0", "--eps", "2", "--jmax", "20"),
    ("sum", "--mode", "triple", "--tau", "0", "--eps", "0.5", "--jmax", "10"),
    ("norm", "--tau", "0", "--jmax", "50"),
    ("diverge", "--tau", "0", "--checkpoints", "10,100"),
    ("ymap", "--tau", "0.3", "--eps", "2", "--jmax", "4"),
    ("ymap", "--tau", "0.3", "--eps", "2", "--jmax", "4", "--bounds"),
    ("asymcheck", "--j", "16", "--m", "1", "--tau", "0", "--eps", "2"),
], ids=" ".join)
def test_each_request_is_encoded_once(argv, tmp_path, capsys, monkeypatch):
    calls = []
    encode = cli.to_json
    monkeypatch.setattr(cli, "to_json", lambda obj: calls.append(obj) or encode(obj))
    if argv[0] == "ymap":
        path = tmp_path / "table.json"
        path.write_text(json.dumps(FourierTableSU2(0, 4, {(0, 0): 1.0 + 0j}).to_json_dict()))
        argv += ("--table", str(path))
    payload = run_json(capsys, *argv)
    assert len(calls) == 1 and set(calls[0]) == {"command", "params", "report"}
    assert payload["command"] == argv[0]


# ------------------------------------------- one parser shared by every call

def test_parser_is_built_once(capsys, monkeypatch):
    assert build_parser() is build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for j in range(1, 6):
        assert run_cli(capsys, "coeff", "--j", str(j), "--tau", "0", "--eps", "2")[0] == 0
    assert built == []


def test_subcommands_match_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out


def test_bounds_flag_does_not_leak(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(FourierTableSU2(0, 2, {(0, 0): 1.0 + 0j}).to_json_dict()))
    argv = ("ymap", "--table", str(path), "--tau", "0.3", "--eps", "2", "--jmax", "2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert "bounds" in run_json(capsys, *argv, "--bounds")["report"]
        assert "bounds" not in run_json(capsys, *argv)["report"]


def test_format_flag_does_not_leak(capsys):
    argv = ("coeff", "--j", "3", "--tau", "0.5", "--eps", "2")
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and out.startswith("j,m,tau_re")
    assert run_json(capsys, *argv)["command"] == "coeff"


def test_group_element_does_not_leak(capsys):
    # g = diag(1/2, 2) has eps = 2; a leaked --g would win over --eps 3
    argv = ("coeff", "--j", "2", "--m", "1", "--tau", "0.3")
    by_g = run_json(capsys, *argv, "--g", "0.5", "0", "0", "0", "0", "0", "2", "0")
    assert by_g["params"]["epsilon"] == pytest.approx(2.0)
    assert run_json(capsys, *argv, "--eps", "3")["params"]["epsilon"] == 3.0


def test_environment_read_on_every_call(capsys, monkeypatch):
    argv = ("ratio", "--m", "0", "--tau", "0", "--eps", "2", "--jmax", "60")
    assert run_json(capsys, *argv)["report"]["terms"][-1]["j"] == 60
    monkeypatch.setenv("LH_J_MAX", "37")
    assert run_json(capsys, *argv)["report"]["terms"][-1]["j"] == 37


def test_repeated_usage_errors(capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["coeff", "--tau", "0", "--eps", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert "--j" in errors[0] and errors[0] == errors[1]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_from_shared_parser(capsys, command):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0].startswith(f"usage: lorentz-harmonics {command} ")
    assert texts[0] == texts[1]
