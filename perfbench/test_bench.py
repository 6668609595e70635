"""Tests of the benchmark itself: a wrong output counts as a failed op and does
not stop the run, and the benchmark refuses to run without the package.

    python3 -m pytest perfbench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads
from lorentz_harmonics import LogComplexValue, cli, principal_series

HERE = Path(__file__).resolve().parent


def one_round(ops):
    probe = run.SpeedProbe()
    slots = run.run_rounds(ops, 0.0, probe)
    return slots, run.check_slots(ops, slots)


def pick(ops, kind):
    return [next(op for op in ops if op.kind == kind)]


def test_unchanged_program_passes(tmp_path):
    ops = pick(workloads.build("cli-requests", 3, tmp_path), "cli-coeff-json")
    slots, verdict = one_round(ops)
    assert (verdict.attempted, verdict.failed, verdict.correct) == (1, 0, True)
    assert verdict.ok_labels == 1
    assert len(slots[0].times) == 1


def test_coefficient_moved_past_tolerance_fails_the_op(tmp_path, monkeypatch):
    ops = pick(workloads.build("cli-requests", 3, tmp_path), "cli-coeff-json")
    original = principal_series.diagonal_coefficient

    def moved(j, m, tau, epsilon, method="auto"):
        v = original(j, m, tau, epsilon, method)
        return LogComplexValue(v.log_mag + 1e-5, v.phase)

    monkeypatch.setattr(principal_series, "diagonal_coefficient", moved)
    _, verdict = one_round(ops)
    assert (verdict.attempted, verdict.failed, verdict.correct) == (1, 1, True)
    assert "relative error" in verdict.problems[0]


def test_moved_term_inside_a_scan_fails_the_op(tmp_path, monkeypatch):
    ops = pick(workloads.build("diag-scan", 3, tmp_path), "ratio_test")
    original = principal_series.diagonal_coefficient

    def moved(j, m, tau, epsilon, method="auto"):
        v = original(j, m, tau, epsilon, method)
        return LogComplexValue(v.log_mag + 1e-5, v.phase) if j == 64 else v

    monkeypatch.setattr(principal_series, "diagonal_coefficient", moved)
    _, verdict = one_round(ops)
    assert (verdict.attempted, verdict.failed, verdict.correct) == (1, 1, True)
    assert any("j=64" in p for p in verdict.problems)


def test_report_missing_a_term_fails_the_op(tmp_path, monkeypatch):
    ops = pick(workloads.build("diag-scan", 3, tmp_path), "ratio_test")
    original = principal_series.ratio_test

    def short(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(report, terms=report.terms[:-1],
                                   partial_sums=report.partial_sums[:-1])

    monkeypatch.setattr(principal_series, "ratio_test", short)
    _, verdict = one_round(ops)
    assert (verdict.attempted, verdict.failed, verdict.correct) == (1, 1, True)
    assert "do not cover" in verdict.problems[0]


def test_nonzero_cli_exit_and_raising_op_fail_without_stopping_the_run(tmp_path, monkeypatch):
    ops = workloads.build("cli-requests", 3, tmp_path)[:2]
    calls = []

    def broken_main(argv):
        calls.append(argv)
        if len(calls) % 2:
            return 1
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", broken_main)
    slots, verdict = one_round(ops)
    assert (verdict.attempted, verdict.failed, verdict.correct) == (2, 2, True)
    assert "exit code 1" in " ".join(verdict.problems)
    assert "raised RuntimeError" in " ".join(verdict.problems)
    assert [len(s.times) for s in slots] == [1, 1]


def test_inputs_follow_the_seed(tmp_path):
    def describe(seed):
        return [op.call.__defaults__ for op in workloads.build("diag-scan", seed, tmp_path)]

    assert describe(5) == describe(5)
    assert describe(5) != describe(6)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]} == set(tracing.METRICS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diag-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
