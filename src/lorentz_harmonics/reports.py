"""Report containers shared by the series diagnostics, and the one builder
that fills them.

A SeriesReport captures, for one scan over the label j: the per-term log-polar
values, consecutive magnitude ratios, partial sums, the predicted and measured
tail ratios, and a Cauchy convergence verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from .logcomplex import LogComplexValue, to_complex_values

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_INCONCLUSIVE = "inconclusive"

RATIO_TAIL_COUNT = 10  # tail ratios entering the empirical-limit median


@dataclass(frozen=True)
class TermRecord:
    j: int
    log_mag: float
    phase: float
    ratio: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {"j": self.j, "log_mag": self.log_mag, "phase": self.phase, "ratio": self.ratio}


@dataclass(frozen=True)
class SeriesReport:
    params: dict[str, Any]
    terms: tuple[TermRecord, ...]
    partial_sums: tuple[complex, ...]
    verdict: str
    cauchy_delta: Optional[float] = None
    predicted_limit: Optional[float] = None
    empirical_limit: Optional[float] = None
    relative_deviation: Optional[float] = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def term_ratios(self) -> list[float]:
        return [t.ratio for t in self.terms if t.ratio is not None]

    def to_json_dict(self) -> dict:
        # infinities become strings so the output stays strict JSON
        return _jsonify(
            {
                "params": self.params,
                "terms": [t.to_json_dict() for t in self.terms],
                "partial_sums": [[s.real, s.imag] for s in self.partial_sums],
                "verdict": self.verdict,
                "cauchy_delta": self.cauchy_delta,
                "predicted_limit": self.predicted_limit,
                "empirical_limit": self.empirical_limit,
                "relative_deviation": self.relative_deviation,
                "extras": self.extras,
            }
        )


SERIES_CSV_COLUMNS = ["j", "log_mag", "phase", "ratio", "partial_re", "partial_im"]


def series_csv_rows(report: SeriesReport) -> list[list]:
    rows = []
    for t, s in zip(report.terms, report.partial_sums):
        rows.append([t.j, t.log_mag, t.phase, t.ratio if t.ratio is not None else "", s.real, s.imag])
    return rows


def _jsonify(obj: Any) -> Any:
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "-inf" if obj < 0 else "inf"
    return obj


def cauchy_verdict(
    partial_sums: Sequence[complex], tolerance: float, window: int
) -> tuple[str, Optional[float]]:
    """Converged iff |S_J - S_{J-window}| < tolerance at the last index."""
    if len(partial_sums) <= window:
        return VERDICT_INCONCLUSIVE, None
    delta = abs(partial_sums[-1] - partial_sums[-1 - window])
    if math.isnan(delta):
        return VERDICT_INCONCLUSIVE, delta
    return (VERDICT_CONVERGED if delta < tolerance else VERDICT_INCONCLUSIVE), delta


def empirical_tail_ratio(ratios: Sequence[float], tail: int = RATIO_TAIL_COUNT) -> Optional[float]:
    """Median of the last `tail` ratios; robust to oscillatory transients."""
    usable = [r for r in ratios if r is not None and math.isfinite(r)]
    if not usable:
        return None
    return float(median(usable[-tail:]))


def log_term(j: int, value: LogComplexValue) -> tuple[int, float, float, complex]:
    """The series_report term of a log-polar value."""
    return j, value.log_mag, value.phase, value.to_complex()


def log_terms(
    js: Sequence[int], log_mag: np.ndarray, phase: np.ndarray
) -> Iterable[tuple[int, float, float, complex]]:
    """The series_report terms of log-polar values given as arrays."""
    return zip(js, log_mag.tolist(), phase.tolist(), to_complex_values(log_mag, phase))


def complex_term(j: int, value: complex) -> tuple[int, float, float, complex]:
    """The series_report term of a linear-space value; an exact zero has
    log_mag -inf and phase 0."""
    if value == 0:
        return j, -math.inf, 0.0, value
    return j, math.log(abs(value)), np.angle(value), value


def series_report(
    params: dict[str, Any],
    terms: Iterable[tuple[int, float, float, complex]],
    cauchy_tolerance: float,
    cauchy_window: int,
    predicted_limit: Optional[float] = None,
    extras: Optional[dict[str, Any]] = None,
) -> SeriesReport:
    """Build a SeriesReport from one (j, log_mag, phase, linear value) per j.

    The ratio of a term is |term / previous term|; an exact zero
    (log_mag = -inf) has no ratio and gives the next term none.  The
    empirical limit is the median of the last RATIO_TAIL_COUNT ratios, and
    params gains tau as a complex number and `informational` (tau not real:
    closed-form comparisons are asserted for real tau only).
    """
    records: list[TermRecord] = []
    partials: list[complex] = []
    running = 0j
    prev = None
    for j, log_mag, phase, value in terms:
        zero = log_mag == -math.inf
        ratio = None if prev is None or zero else math.exp(log_mag - prev)
        prev = None if zero else log_mag
        records.append(TermRecord(j, log_mag, phase, ratio))
        running += value
        partials.append(running)
    verdict, delta = cauchy_verdict(partials, cauchy_tolerance, cauchy_window)
    empirical = empirical_tail_ratio([t.ratio for t in records])
    deviation = (
        None if empirical is None or predicted_limit is None
        else abs(empirical - predicted_limit) / predicted_limit
    )
    tau = complex(params["tau"])
    return SeriesReport(
        params={**params, "tau": tau, "informational": tau.imag != 0.0},
        terms=tuple(records),
        partial_sums=tuple(partials),
        verdict=verdict,
        cauchy_delta=delta,
        predicted_limit=predicted_limit,
        empirical_limit=empirical,
        relative_deviation=deviation,
        extras=extras or {},
    )


__all__ = [
    "RATIO_TAIL_COUNT",
    "SERIES_CSV_COLUMNS",
    "SeriesReport",
    "TermRecord",
    "VERDICT_CONVERGED",
    "VERDICT_DIVERGED",
    "VERDICT_INCONCLUSIVE",
    "cauchy_verdict",
    "complex_term",
    "empirical_tail_ratio",
    "log_term",
    "log_terms",
    "series_csv_rows",
    "series_report",
]
