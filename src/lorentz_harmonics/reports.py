"""Report containers shared by the series diagnostics, the one builder that
fills them, and the one JSON encoder (to_json) for every report dataclass.

A SeriesReport captures, for one scan over the label j: the per-term log-polar
values, consecutive magnitude ratios, partial sums, the predicted and measured
tail ratios, and a Cauchy convergence verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
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


def to_json(obj: Any) -> Any:
    """The strict-JSON form of a report: a dataclass becomes a dict of its
    fields, a complex number [re, im], a tuple a list, and an infinity the
    string "inf" or "-inf"; a NaN is left for json.dumps(allow_nan=False) to
    reject."""
    # leaf types first: a report is mostly floats, and is_dataclass is slow
    if isinstance(obj, float):
        return ("-inf" if obj < 0 else "inf") if math.isinf(obj) else obj
    if isinstance(obj, complex):
        return [to_json(obj.real), to_json(obj.imag)]
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def cauchy_verdict(
    partial_sums: Sequence[complex], tolerance: float, window: int
) -> tuple[str, Optional[float]]:
    """Converged iff |S_J - S_{J-window}| < tolerance at the last index.

    Raises ValueError unless 0 < tolerance < inf and window >= 1: every
    series verdict passes through here, so no setting can make one vacuous.
    """
    if not 0.0 < tolerance < math.inf or window < 1:
        raise ValueError(
            f"invalid Cauchy settings: tolerance {tolerance} must be positive and "
            f"finite, window {window} at least 1"
        )
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
    return zip(js, log_mag.tolist(), phase.tolist(), to_complex_values(log_mag, phase).tolist())


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
    "series_report",
    "to_json",
]
