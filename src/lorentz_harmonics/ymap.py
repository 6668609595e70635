"""The boost-series map from SU(2) Fourier tables to functions on SL(2,C):
partial sums of  sum_j sum_m  d^{j/2}_{|p| m} D_j(m)  at a chosen boost, with
a convergence report majorizing the series by the product of its two factor
sums.

The table's column index is matched against the integer magnetic index of the
boost coefficients via twice_m = 2m; keys outside the table's natural range
read as exact zeros, so rows of the wrong parity contribute nothing.
ymap_apply evaluates only the coefficients with a nonzero table entry;
ymap_convergence_report reads the whole coefficient grid in one call
(expansion.coefficient_grid) and takes both the block sums and the mapped
terms from it as column sums.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expansion import coefficient_grid, column_sums
from .lie_group import SL2CElement, epsilon_of
from .logcomplex import to_complex_values
from .principal_series import EpsilonDomainError, check_epsilon, diagonal_coefficients
from .reports import (
    SeriesReport,
    VERDICT_CONVERGED,
    cauchy_verdict,
    complex_term,
    series_report,
)
from .wigner import FourierTableSU2


@dataclass(frozen=True)
class YMapRequest:
    """A table, a representation parameter, and a target boost (given either
    directly or through a group element, whose boost factor is extracted)."""

    table: FourierTableSU2
    tau: complex
    j_max: int
    epsilon: Optional[float] = None
    g: Optional[SL2CElement] = None
    cauchy_tolerance: float = 1e-6
    cauchy_window: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", complex(self.tau))
        if (self.epsilon is None) == (self.g is None):
            raise ValueError("specify exactly one of epsilon or g")
        if self.j_max < abs(self.table.p):
            raise ValueError("j_max must be at least |p|")
        if self.epsilon is not None:
            check_epsilon(self.epsilon)

    def resolved_epsilon(self) -> float:
        if self.epsilon is not None:
            return float(self.epsilon)
        return epsilon_of(self.g)


def _entries(table: FourierTableSU2, j: int) -> tuple[list[int], list[complex]]:
    """The integer m with a nonzero table entry d(j, 2m), and those entries."""
    ms, ds = [], []
    for m in range(-j, j + 1):
        d = table.get(j, 2 * m)
        if d != 0:
            ms.append(m)
            ds.append(d)
    return ms, ds


def _scan_epsilon(req: YMapRequest) -> float:
    eps = req.resolved_epsilon()
    if eps == 1.0:
        raise EpsilonDomainError("convergence verdicts require eps != 1")
    return eps


def ymap_apply(req: YMapRequest) -> SeriesReport:
    """Partial sums of the mapped function at the requested boost.

    Only the coefficients with a nonzero table entry are evaluated, all in one
    call of diagonal_coefficients.  For j beyond the table band the
    zero-extension makes every term vanish, which is exact for genuinely
    band-limited input; a warning notes when the scan range outruns the band.
    """
    eps = _scan_epsilon(req)
    table = req.table
    entries = [_entries(table, j) for j in range(abs(table.p), req.j_max + 1)]
    js = [j for j, (ms, _) in enumerate(entries, start=abs(table.p)) for _ in ms]
    ms = [m for ms, _ in entries for m in ms]
    values = iter(to_complex_values(
        *diagonal_coefficients(js, ms, req.tau, eps, against_largest=True)
    ).tolist())
    # each j-term: the sum over integer m of d(j, 2m) D_j(m)
    terms = [sum((d * next(values) for d in ds), 0j) for _, ds in entries]
    if table.band_limit < req.j_max:
        warnings.warn(
            f"table band {table.band_limit} is below j_max = {req.j_max}; "
            "tail terms use the zero-extension",
            stacklevel=2,
        )
    return series_report(
        {"kind": "ymap", "p": table.p, "band_limit": table.band_limit,
         "tau": req.tau, "epsilon": eps, "j_max": req.j_max},
        (complex_term(j, t) for j, t in enumerate(terms, start=abs(table.p))),
        req.cauchy_tolerance, req.cauchy_window,
    )


@dataclass(frozen=True)
class YMapBoundsReport:
    """The two factor bounds of the majorization: the absolute table sum and
    the absolute column-sum series of the coefficients, with the running
    product bound recorded per j for termwise comparison."""

    js: tuple[int, ...]
    fourier_partials: tuple[float, ...]
    coefficient_partials: tuple[float, ...]
    product_partials: tuple[float, ...]
    apply_abs: tuple[float, ...]
    fourier_sum_bound: float
    coefficient_sum_bound: float
    product_bound: float
    fourier_verdict: str
    coefficient_verdict: str
    verdict: str


def ymap_convergence_report(req: YMapRequest) -> YMapBoundsReport:
    """Evaluate the majorization of the mapped series: its partial sums are
    bounded by (sum of |table entries|) x (sum over j of |column sums of the
    coefficients|), each factor carrying its own Cauchy verdict.
    """
    eps = _scan_epsilon(req)
    table = req.table
    abs_rows = table.abs_sum_by_row()
    # one coefficient grid serves both the blocks and the mapped terms; the
    # table entry d(j, 2m) weighs D_j(m) at grid index j^2 + j + m
    grid = coefficient_grid(req.tau, eps, req.j_max)
    block_abs = np.abs(column_sums(grid)).tolist()
    weights = np.zeros(grid.shape, dtype=complex)
    for (tj, tm), d in table.entries.items():
        if tm % 2 == 0 and tj <= req.j_max:
            weights[tj * (tj + 1) + tm // 2] = d
    terms = column_sums(weights * grid)[abs(table.p):]

    js = list(range(abs(table.p), req.j_max + 1))
    f_part: list[float] = []
    c_part: list[float] = []
    p_part: list[float] = []
    fr = 0.0
    cr = math.fsum(block_abs[: abs(table.p)])
    for j in js:
        fr += abs_rows.get(j, 0.0)
        cr += block_abs[j]
        f_part.append(fr)
        c_part.append(cr)
        p_part.append(fr * cr)
    f_verdict, _ = cauchy_verdict([complex(x) for x in f_part],
                                  req.cauchy_tolerance, req.cauchy_window)
    c_verdict, _ = cauchy_verdict([complex(x) for x in c_part],
                                  req.cauchy_tolerance, req.cauchy_window)
    # a finite-band table is an exactly convergent factor even on short scans
    if table.band_limit < req.j_max:
        f_verdict = VERDICT_CONVERGED
    overall = (
        VERDICT_CONVERGED
        if f_verdict == VERDICT_CONVERGED and c_verdict == VERDICT_CONVERGED
        else c_verdict
    )
    return YMapBoundsReport(
        js=tuple(js),
        fourier_partials=tuple(f_part),
        coefficient_partials=tuple(c_part),
        product_partials=tuple(p_part),
        apply_abs=tuple(np.abs(np.cumsum(terms)).tolist()),
        fourier_sum_bound=f_part[-1],
        coefficient_sum_bound=c_part[-1],
        product_bound=p_part[-1],
        fourier_verdict=f_verdict,
        coefficient_verdict=c_verdict,
        verdict=overall,
    )


__all__ = ["YMapBoundsReport", "YMapRequest", "ymap_apply", "ymap_convergence_report"]
