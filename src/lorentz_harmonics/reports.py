"""Report containers shared by the series diagnostics, the one builder that
fills them, and the one JSON encoder (to_json) for every report dataclass.

A SeriesReport captures, for one scan over the label j: the per-term log-polar
values, consecutive magnitude ratios, partial sums, the predicted and measured
tail ratios, and a Cauchy convergence verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from numbers import Real
from statistics import median
from typing import Any, Optional, Sequence

import numpy as np

from .logcomplex import to_complex_values
from .special import check_label

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
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, complex):
        return [to_json(obj.real), to_json(obj.imag)]
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def check_cauchy(tolerance: float, window: int) -> int:
    """The window, read by check_label; ValueError unless the tolerance is a
    real number, not a bool, with 0 < tolerance < inf and window >= 1: any
    other setting makes every verdict the same or fails inside it."""
    real = isinstance(tolerance, Real) and not isinstance(tolerance, bool)
    if not (real and 0.0 < tolerance < math.inf):
        raise ValueError(f"Cauchy tolerance {tolerance!r} must be real, positive and finite")
    window = check_label(window, "cauchy_window")
    if window < 1:
        raise ValueError(f"Cauchy window {window} must be at least 1")
    return window


def cauchy_verdict(
    partial_sums: Sequence[complex], tolerance: float, window: int
) -> tuple[str, Optional[float]]:
    """Converged iff |S_J - S_{J-window}| < tolerance at the last index.

    Every series verdict passes through here, and raises on the settings
    that check_cauchy rejects, so no setting can make one vacuous.
    """
    window = check_cauchy(tolerance, window)
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


def series_report(
    params: dict[str, Any],
    j_start: int,
    cauchy_tolerance: float,
    cauchy_window: int,
    *,
    values: Optional[np.ndarray] = None,
    log_polar: Optional[tuple[np.ndarray, np.ndarray]] = None,
    predicted_limit: Optional[float] = None,
    extras: Optional[dict[str, Any]] = None,
) -> SeriesReport:
    """Build a SeriesReport from the terms at j = j_start, j_start + 1, ...,
    given as a complex array values or as arrays log_polar = (log_mag, phase);
    the other form is taken from it (an exact zero: log_mag -inf, phase 0).

    A term's ratio is exp of the difference of its and the previous term's
    log_mag; an exact zero has no ratio and gives the next term none.  The
    partial sums are one sequential cumulative sum, bit for bit a running sum
    from 0j.  The empirical limit is the median of the last RATIO_TAIL_COUNT
    ratios, and params gains tau as a complex number and `informational` (tau
    not real: closed-form comparisons are asserted for real tau only).
    """
    if log_polar is None:
        with np.errstate(divide="ignore"):
            log_polar = np.log(np.abs(values)), np.where(values == 0, 0.0, np.angle(values))
    log_mag, phase = log_polar
    if values is None:
        values = to_complex_values(log_mag, phase)
    # a zero before the first term, so that term has no ratio either
    padded = np.concatenate(([-math.inf], log_mag))
    zero = np.isneginf(padded)
    with np.errstate(invalid="ignore"):
        ratios = list(map(math.exp, np.diff(padded).tolist()))
    for k in np.flatnonzero(zero[1:] | zero[:-1]).tolist():
        ratios[k] = None
    records = tuple(map(TermRecord, range(j_start, j_start + len(ratios)),
                        log_mag.tolist(), phase.tolist(), ratios))
    # + 0j: a running sum from 0j has no -0.0 part
    partials = tuple((np.cumsum(values) + 0j).tolist())
    verdict, delta = cauchy_verdict(partials, cauchy_tolerance, cauchy_window)
    empirical = empirical_tail_ratio(ratios)
    deviation = (
        None if empirical is None or predicted_limit is None
        else abs(empirical - predicted_limit) / predicted_limit
    )
    tau = complex(params["tau"])
    return SeriesReport(
        params={**params, "tau": tau, "informational": tau.imag != 0.0},
        terms=records,
        partial_sums=partials,
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
    "check_cauchy",
    "empirical_tail_ratio",
    "series_report",
    "to_json",
]
