"""Benchmark of lorentz_harmonics: four workloads, timed end to end, with a
separate traced run for per-layer numbers.  Every operation's output is
checked against mpmath references or method properties after the timed phase.

    python3 perfbench/run.py --workload diag-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The package is imported from src/ of the
checkout this file sits in; without it the run exits with code 1.

Times are reported at a fixed reference machine speed: the speed of the same
code on a shared host swings by up to a factor of two over tens of seconds,
so a fixed kernel owned by this file runs between ops, and a run's wall
times are scaled by REFERENCE_KERNEL_S over the kernel's mean time in that
run.  The raw wall-clock medians are printed alongside.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("diag-scan", "triple-grid", "su2-analysis", "cli-requests")
SETUP_PROBES = 7
CALIBRATION_INTERVAL = 0.1
KERNEL_RUNS = 3
MAX_SAMPLES = 25
REFERENCE_KERNEL_S = 1.0e-3   # speed_kernel on the host of README.md, in its fast phase
MAX_PROBLEMS_SHOWN = 10

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("coeffs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def import_package():
    """Import lorentz_harmonics from this checkout's src/, and nowhere else."""
    package_dir = SRC / "lorentz_harmonics"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {package_dir}")
    sys.path.insert(0, str(SRC))
    import lorentz_harmonics

    if Path(lorentz_harmonics.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: lorentz_harmonics imported from {lorentz_harmonics.__file__}")
    return lorentz_harmonics


def speed_kernel() -> complex:
    """Fixed work in the library's mix: complex scalar arithmetic with math and
    cmath calls, short numpy reductions, 2x2 complex matrices, and JSON text."""
    acc = 0j
    for k in range(600):
        z = complex(k * 1e-3, 0.5)
        acc += cmath.exp(z) * math.lgamma(k % 50 + 1.5) / (z + 1.0)
    a = numpy.arange(1.0, 193.0)
    for _ in range(12):
        acc += complex(numpy.cumsum(numpy.log(numpy.abs(a * (1 + 0.5j)))).sum())
    for k in range(150):
        m = numpy.array([[complex(k, 1), 0.5], [0.25, complex(1, k)]])
        acc += complex((m @ m.conj().T)[0, 0])
    return acc + len(json.dumps({"k": [acc.real] * 50}))


class SpeedProbe:
    """Kernel times through a run.  Between ops, the kernel runs KERNEL_RUNS
    times for every CALIBRATION_INTERVAL of wall time since the last sample,
    so long ops are matched by as many samples as short ones."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        due = time.perf_counter() - self._last
        n = 1 if math.isinf(due) else min(MAX_SAMPLES, max(1, int(due / CALIBRATION_INTERVAL)))
        for _ in range(n * KERNEL_RUNS):
            t0 = time.perf_counter()
            speed_kernel()
            self.times.append(time.perf_counter() - t0)
        self._last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= CALIBRATION_INTERVAL

    def scale(self) -> float:
        """Converts this run's wall times to the reference speed."""
        return REFERENCE_KERNEL_S / statistics.mean(self.times)


@dataclass
class Slot:
    """What one op of the round did over all rounds of a run."""

    times: list[float] = field(default_factory=list)   # wall seconds
    observations: list[list] = field(default_factory=list)  # [observation, count]
    raised: list[str] = field(default_factory=list)


def run_rounds(ops, seconds: float, probe: SpeedProbe, tracer=None) -> list[Slot]:
    """Attempt whole rounds of the ops, one at a time, until `seconds` of wall
    time have passed (at least one round).  Only op.call is timed; the speed
    kernel runs between ops, at most every CALIBRATION_INTERVAL seconds, and
    once more at the end."""
    slots = [Slot() for _ in ops]
    start = time.perf_counter()
    n = 0
    probe.sample()
    while not slots[0].times or time.perf_counter() - start < seconds:
        for op, slot in zip(ops, slots):
            if tracer is not None:
                tracer.op = n
            n += 1
            error = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising op is a failed op, not a failed run
                error = exc
            slot.times.append(time.perf_counter() - t0)
            if probe.due():
                probe.sample()
            if error is not None:
                slot.raised.append(f"{op.kind}: raised {error!r}")
                continue
            try:
                obs = op.observe(result)
            except Exception as exc:
                slot.raised.append(f"{op.kind}: unreadable result {exc!r}")
                continue
            for entry in slot.observations:
                if entry[0] == obs:
                    entry[1] += 1
                    break
            else:
                slot.observations.append([obs, 1])
    probe.sample()
    return slots


@dataclass
class Verdict:
    attempted: int
    failed: int
    correct: bool
    problems: list[str]
    ok_labels: int


def check_slots(ops, slots: list[Slot]) -> Verdict:
    """Check every distinct observation of every op.  An op fails if it raised
    or its check found a problem; the run is not correct if a check itself
    could not be evaluated."""
    attempted = failed = ok_labels = 0
    correct = True
    problems: list[str] = []
    for op, slot in zip(ops, slots):
        attempted += len(slot.times)
        failed += len(slot.raised)
        problems += slot.raised[:1]
        for obs, count in slot.observations:
            try:
                found = op.check(obs)
            except Exception as exc:
                correct = False
                found = [f"{op.kind}: check raised {exc!r}"]
            if found:
                failed += count
                problems += found
            else:
                ok_labels += count * op.labels
    return Verdict(attempted, failed, correct, problems, ok_labels)


def measure_setup(workload: str, seed: int, probe: SpeedProbe) -> list[float]:
    """Wall times over SETUP_PROBES fresh interpreters from process start to
    the first op: interpreter start, package import and input generation
    (check references are not loaded)."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        probe.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(times: list[float], verdict: Verdict, setup_s: float,
                       rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_p90": statistics.quantiles(times, n=10)[-1] * 1e3 if len(times) > 1
        else times[0] * 1e3,
        "coeffs_per_s": verdict.ok_labels / sum(times),
        "peak_rss_mb": rss_mb,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    lh = import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    probe = SpeedProbe()
    setup = [] if trace else measure_setup(workload, seed, probe)
    ops = workloads.build(workload, seed, OUT)
    if not trace:
        slots = run_rounds(ops, seconds, probe)
        rss_mb = peak_rss_mb()
        verdict = check_slots(ops, slots)
        scale = probe.scale()
        metrics = end_to_end_metrics([t * scale for s in slots for t in s.times], verdict,
                                     statistics.median(setup) * scale, rss_mb)
        units = dict(END_TO_END)
    else:
        from tracing import METRICS, Tracer

        plain_probe = SpeedProbe()
        plain = run_rounds(ops, 0.0, plain_probe)
        tracer = Tracer()
        tracer.install()
        try:
            slots = run_rounds(ops, seconds, probe, tracer)
        finally:
            tracer.uninstall()
        scale = probe.scale()
        metrics = tracer.metrics(sum(len(s.times) for s in slots), scale)
        traced_s = sum(statistics.median(s.times) for s in slots) * scale
        metrics["trace.overhead_ratio"] = traced_s / (
            sum(s.times[0] for s in plain) * plain_probe.scale())
        tracer.write(OUT / f"trace-{workload}-{seed}.jsonl.gz")
        for a, b in zip(slots, plain):
            a.times += b.times
            a.raised += b.raised
            a.observations += b.observations
        verdict = check_slots(ops, slots)
        units = {name: unit for name, unit, _ in METRICS}
    for path in OUT.glob(f"ymap-table-{seed}.json"):
        path.unlink()

    raw = [t for slot in slots for t in slot.times]
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(slots[0].times), "ops_per_round": len(ops),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "lorentz_harmonics": lh.__version__,
    }
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    print(f"attempted={verdict.attempted} failed={verdict.failed} correct={verdict.correct}")
    print(f"speed kernel: mean {statistics.mean(probe.times) * 1e3:.4g} ms, median "
          f"{statistics.median(probe.times) * 1e3:.4g} ms over {len(probe.times)} runs "
          f"(reference {REFERENCE_KERNEL_S * 1e3:g} ms)")
    print(f"raw wall clock: op_ms_p50 = {statistics.median(raw) * 1e3:.6g} ms"
          + (f", setup_s = {statistics.median(setup):.6g} s" if setup else ""))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for problem in verdict.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def setup_probe(workload: str, seed: int) -> None:
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    workloads.build(workload, seed, OUT)
    print("ready", flush=True)


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, as a single run would be."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
