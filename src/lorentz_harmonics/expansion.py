"""Partial sums and convergence verdicts for the coefficient series: the
fixed-m diagonal sum, the full triple sum collapsed over the Kronecker delta,
the norm-identity series with its closed-form target, the divergent
multiplicity-weighted variant, and the synthesis operator that rebuilds a
function from a coefficient table.

A fixed-m sum or synthesis asks principal_series.diagonal_coefficients for
its whole j range in one call (the exact window as one batch of series rows,
the pairs beyond it as one batch of the saddle-point term); as the values
are only added, cancellation in a coefficient's series is judged against the
largest coefficient of the call.  The triple sum's j-th term, the block
sum_{|m| <= j} D_j(m), is one Euler integral (special.triple_block_log, all
blocks in one call; triple_blocks), judged against the largest block.
Reports are built from arrays of the terms (reports.series_report); the
synthesis weights, log|term| and phase are array operations too.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .logcomplex import to_complex_values
from .principal_series import _label, check_boost, check_epsilon, diagonal_coefficients
from .reports import (
    SeriesReport,
    VERDICT_DIVERGED,
    VERDICT_INCONCLUSIVE,
    check_cauchy,
    empirical_tail_ratio,
    series_report,
)
from .special import check_cancellation, triple_block_log

PI_SQUARED_OVER_6 = math.pi**2 / 6.0
# Terms per numpy pass of the norm-type sums (about 3 MB of arrays), so that
# memory stays bounded at any j_max; a sum of at most this many terms is one
# np.sum, as the defaults are
_SUM_CHUNK = 1 << 17


class SingularTauError(ValueError):
    """tau = +/- i makes 1 + tau^2 vanish; the norm series has no target there."""


def _check_tau_regular(tau: complex) -> complex:
    tau = complex(tau)
    if 1.0 + tau * tau == 0:
        raise SingularTauError("tau = i or -i is outside the norm-identity domain")
    return tau


@dataclass(frozen=True)
class ExpansionConfig:
    """Parameters of a fixed-m diagonal scan at a boost eps != 1."""

    tau: complex
    m: int
    epsilon: float
    j_max: int
    cauchy_tolerance: float = 1e-6
    cauchy_window: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", complex(self.tau))
        object.__setattr__(self, "m", _label(self.m, "m"))
        object.__setattr__(self, "j_max", _label(self.j_max, "j_max"))
        check_boost(self.epsilon)
        if self.j_max < 1:
            raise ValueError("j_max must be positive")
        check_cauchy(self.cauchy_tolerance, self.cauchy_window)


@dataclass(frozen=True)
class CoefficientTable:
    """Synthesis coefficients c_j for one fixed m, with finite support."""

    m: int
    entries: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _label(self.m, "m"))
        clean = {}
        for j, v in dict(self.entries).items():
            j = _label(int(j) if isinstance(j, str) else j, "j")   # JSON keys are strings
            if j < 0:
                raise ValueError("coefficient labels must be non-negative")
            clean[j] = complex(v)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def geometric(cls, m: int, ratio: float, j_max: int) -> "CoefficientTable":
        m, j_max = _label(m, "m"), _label(j_max, "j_max")
        return cls(m=m, entries={j: complex(ratio**j) for j in range(max(abs(m), 1), j_max + 1)})

    def get(self, j: int) -> complex:
        return self.entries.get(j, 0j)

    def support(self) -> list[int]:
        return sorted(self.entries)

    def tail_ratio(self) -> Optional[float]:
        """Median |c_{j+1}/c_j| over the top of the support; None if undefined."""
        js = self.support()
        ratios = []
        for a, b in zip(js, js[1:]):
            if b == a + 1 and self.entries[a] != 0:
                ratios.append(abs(self.entries[b]) / abs(self.entries[a]))
        return empirical_tail_ratio(ratios)


def partial_sum_diagonal(cfg: ExpansionConfig) -> SeriesReport:
    """Partial sums of the fixed-m diagonal coefficient series at one boost.

    The scan starts at j = max(|m|, 1); for m = 0 the j = 0 coefficient (which
    the formula leaves nonzero) is reported separately in extras["j0_value"].
    """
    j_start = max(abs(cfg.m), 1)
    # m = 0 also reads j = 0, which is reported apart from the sum
    js = np.arange(0 if cfg.m == 0 else j_start, cfg.j_max + 1)
    log_mag, phase = diagonal_coefficients(
        js, np.full(js.shape, cfg.m), cfg.tau, cfg.epsilon, against_largest=True
    )
    extras = {}
    if cfg.m == 0:
        extras["j0_value"] = to_complex_values(log_mag[:1], phase[:1]).tolist()[0]
        log_mag, phase = log_mag[1:], phase[1:]
    return series_report(
        {"kind": "diagonal_sum", "m": cfg.m, "tau": cfg.tau, "epsilon": cfg.epsilon,
         "j_max": cfg.j_max, "j_start": j_start},
        j_start, cfg.cauchy_tolerance, cfg.cauchy_window,
        log_polar=(log_mag, phase), extras=extras,
    )


def triple_blocks(tau: complex, epsilon: float, j_max: int) -> list[complex]:
    """The inner sums sum_{|m| <= j} D_j(m) for j = 0 .. j_max, from one call
    of special.triple_block_log; raises SeriesConvergenceError where a
    block's cancellation passes special.CANCELLATION_LIMIT, judged against
    the largest |block| of the call, as the blocks are only added."""
    js = np.arange(_label(j_max, "j_max") + 1)
    log_mag, phase, cancellation = triple_block_log(js, tau, check_epsilon(epsilon))
    check_cancellation(cancellation, np.exp(log_mag - log_mag.max()))
    return to_complex_values(log_mag, phase).tolist()


def partial_sum_triple(
    tau: complex,
    epsilon: float,
    j_max: int,
    *,
    cauchy_tolerance: float = 1e-6,
    cauchy_window: int = 10,
) -> SeriesReport:
    """Partial sums over j of the inner column sums of the full triple series
    (the off-diagonal terms vanish identically, leaving 2j+1 terms per block).
    """
    epsilon = check_boost(epsilon)
    j_max = _label(j_max, "j_max")
    return series_report(
        {"kind": "triple_sum", "tau": tau, "epsilon": epsilon, "j_max": j_max},
        0, cauchy_tolerance, cauchy_window, values=np.array(triple_blocks(tau, epsilon, j_max)),
    )


def _chunked_sum(term, first: int, last: int) -> float:
    """The sum of term(js) over the floats js = first, ..., last (counting
    down where last < first), one np.sum of at most _SUM_CHUNK terms at a
    time, added in that order."""
    step = 1 if last >= first else -1
    total = 0.0
    for lo in range(first, last + step, step * _SUM_CHUNK):
        hi = min(lo + _SUM_CHUNK - 1, last) if step > 0 else max(lo - _SUM_CHUNK + 1, last)
        total += float(np.sum(term(np.arange(lo, hi + step, step, dtype=float))))
    return total


@dataclass(frozen=True)
class NormIdentityReport:
    computed: complex
    target: complex
    deviation: float
    tail_bound: float
    j_max: int


def norm_identity(tau: complex, j_max: int) -> NormIdentityReport:
    """Truncation of sum_{j>=1} 1/(j^2 (1 + tau^2)) against the closed form
    (pi^2/6) / (1 + tau^2).

    The sum starts at j = 1 by convention (the j = 0 coefficient is excluded
    from norm-type sums).  Raises SingularTauError at tau = +/- i.
    """
    tau = _check_tau_regular(tau)
    j_max = _label(j_max, "j_max")
    if j_max < 1:
        raise ValueError("j_max must be positive")
    denom = 1.0 + tau * tau
    # ascending magnitudes: sum small terms first
    base = _chunked_sum(lambda js: 1.0 / (js * js), j_max, 1)
    computed = base / denom
    target = PI_SQUARED_OVER_6 / denom
    return NormIdentityReport(
        computed=complex(computed),
        target=complex(target),
        deviation=abs(complex(computed) - complex(target)),
        tail_bound=1.0 / (j_max * abs(denom)),
        j_max=j_max,
    )


@dataclass(frozen=True)
class GrowthReport:
    checkpoints: tuple[int, ...]
    partial_sums: tuple[complex, ...]
    increments: tuple[complex, ...]
    model_increments: tuple[complex, ...]
    relative_deviations: tuple[float, ...]
    verdict: str


def divergence_probe(
    tau: complex,
    checkpoints: Sequence[int],
    *,
    cauchy_tolerance: float = 1e-6,
) -> GrowthReport:
    """Partial sums of sum_j (2j+1)/(j^2 (1+tau^2)) at the checkpoints, with
    increments compared to the logarithmic growth model 2 ln(J2/J1)/(1+tau^2).

    Verdict 'diverged' when the top increment both exceeds 10x the Cauchy
    tolerance and fits the logarithmic model; 'inconclusive' otherwise.
    """
    tau = _check_tau_regular(tau)
    cps = sorted(_label(c, "checkpoint") for c in checkpoints)
    if len(cps) < 2 or cps[0] < 1:
        raise ValueError("need at least two positive checkpoints")
    if len(set(cps)) < len(cps):
        # a repeated checkpoint gives a zero model increment to compare with
        raise ValueError(f"checkpoints must be distinct, got {cps}")
    check_cauchy(cauchy_tolerance, window=1)   # the probe has no window
    denom = 1.0 + tau * tau
    sums = []
    running = 0.0
    prev = 0
    for cp in cps:
        running += _chunked_sum(lambda js: (2.0 * js + 1.0) / (js * js), prev + 1, cp)
        sums.append(running / denom)
        prev = cp
    increments = [b - a for a, b in zip(sums, sums[1:])]
    models = [2.0 * math.log(b / a) / denom for a, b in zip(cps, cps[1:])]
    rels = [abs(i - m) / abs(m) for i, m in zip(increments, models)]
    grows = abs(increments[-1]) > 10.0 * cauchy_tolerance
    fits = rels[-1] < 0.25
    return GrowthReport(
        checkpoints=tuple(cps),
        partial_sums=tuple(complex(s) for s in sums),
        increments=tuple(complex(i) for i in increments),
        model_increments=tuple(complex(m) for m in models),
        relative_deviations=tuple(rels),
        verdict=VERDICT_DIVERGED if (grows and fits) else VERDICT_INCONCLUSIVE,
    )


def synthesize(
    table: CoefficientTable,
    tau: complex,
    epsilon: float,
    j_max: int,
    *,
    cauchy_tolerance: float = 1e-6,
    cauchy_window: int = 10,
) -> SeriesReport:
    """Partial sums of sum_j j^2 (1 + tau^2) c_j D_j(m) at one boost.

    Convergence is expected whenever the coefficient tail ratio stays at or
    below 1 (on top of the coefficient ratio limit < 1); tables violating that
    decay check trigger a warning, not an error.
    """
    tau = complex(tau)
    _check_tau_regular(tau)
    epsilon = check_boost(epsilon)
    j_max = _label(j_max, "j_max")
    tr = table.tail_ratio()
    if tr is not None and tr > 1.0 + 1e-9:
        warnings.warn(
            f"coefficient table tail ratio {tr:.3f} exceeds 1; the synthesis "
            "series may diverge",
            stacklevel=2,
        )
    m = table.m
    j_start = max(abs(m), 1)
    # the terms j^2 (1 + tau^2) c_j D_j(m), exact zeros where c_j is zero
    cs = np.array([table.get(j) for j in range(j_start, j_max + 1)])
    at = np.flatnonzero(cs)
    js = at + j_start
    coeffs = diagonal_coefficients(js, np.full(js.shape, m), tau, epsilon, against_largest=True)
    terms = np.zeros(cs.shape, dtype=complex)
    terms[at] = js * js * (1.0 + tau * tau) * cs[at] * to_complex_values(*coeffs)
    return series_report(
        {"kind": "synthesis", "m": m, "tau": tau, "epsilon": epsilon,
         "j_max": j_max, "j_start": j_start, "coefficient_tail_ratio": tr},
        j_start, cauchy_tolerance, cauchy_window, values=terms,
    )


__all__ = [
    "CoefficientTable",
    "ExpansionConfig",
    "GrowthReport",
    "NormIdentityReport",
    "PI_SQUARED_OVER_6",
    "SingularTauError",
    "divergence_probe",
    "norm_identity",
    "partial_sum_diagonal",
    "partial_sum_triple",
    "synthesize",
    "triple_blocks",
]
