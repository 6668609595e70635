"""The boost-series map from SU(2) Fourier tables to functions on SL(2,C):
partial sums of  sum_j sum_m  d^{j/2}_{|p| m} D_j(m)  at a boost eps, with a
convergence report majorizing the series by the product of its two factor
sums.  The map depends on a group element only through its boost, so a
request takes eps itself (the CLI turns --g into eps).

The table's column index is matched against the integer magnetic index of the
boost coefficients via twice_m = 2m; keys outside the table's natural range
read as exact zeros, so rows of the wrong parity contribute nothing.  Both
functions take the mapped terms from _mapped_terms, which evaluates only the
coefficients with a nonzero table entry, in one call; the convergence report
takes its coefficient factor from the triple blocks sum_m D_j(m)
(expansion.triple_blocks, one Euler integral per j).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import expansion
from .logcomplex import to_complex_values
from .principal_series import check_boost, diagonal_coefficients
from .reports import (
    SeriesReport,
    VERDICT_CONVERGED,
    cauchy_verdict,
    series_report,
)
from .special import check_label, check_tau
from .wigner import FourierTableSU2


@dataclass(frozen=True)
class YMapRequest:
    """A table, a representation parameter and a boost eps != 1."""

    table: FourierTableSU2
    tau: complex
    j_max: int
    epsilon: float
    cauchy_tolerance: float = 1e-6
    cauchy_window: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", check_tau(self.tau))
        object.__setattr__(self, "j_max", check_label(self.j_max, "j_max"))
        if self.j_max < abs(self.table.p):
            raise ValueError("j_max must be at least |p|")
        object.__setattr__(self, "epsilon", check_boost(self.epsilon))


def _mapped_terms(req: YMapRequest) -> np.ndarray:
    """The j-terms sum over integer m of d(j, 2m) D_j(m), for j = |p| ..
    j_max, from the table's nonzero entries with j <= j_max, all read in one
    call of diagonal_coefficients that judges each pair against the largest
    |D| of its own j (the pairs are only added into their j-term)."""
    pairs = sorted((tj, tm // 2, d) for (tj, tm), d in req.table.entries.items()
                   if tm % 2 == 0 and tj <= req.j_max and d != 0)
    js, ms, ds = zip(*pairs) if pairs else ((), (), ())
    js, ms = np.array(js, dtype=int), np.array(ms, dtype=int)
    values = to_complex_values(
        *diagonal_coefficients(js, ms, req.tau, req.epsilon, against_largest=js))
    # added left to right in (j, m) order
    p = abs(req.table.p)
    terms = np.zeros(req.j_max + 1 - p, dtype=complex)
    np.add.at(terms, js - p, np.array(ds, dtype=complex) * values)
    return terms


def ymap_apply(req: YMapRequest) -> SeriesReport:
    """Partial sums of the mapped function at the requested boost.

    Only the coefficients with a nonzero table entry are evaluated
    (_mapped_terms).  For j beyond the table band the zero-extension makes
    every term vanish, which is exact for genuinely band-limited input; a
    warning notes when the scan range outruns the band.
    """
    table = req.table
    terms = _mapped_terms(req)
    if table.band_limit < req.j_max:
        warnings.warn(
            f"table band {table.band_limit} is below j_max = {req.j_max}; "
            "tail terms use the zero-extension",
            stacklevel=2,
        )
    return series_report(
        {"kind": "ymap", "p": table.p, "band_limit": table.band_limit,
         "tau": req.tau, "epsilon": req.epsilon, "j_max": req.j_max},
        abs(table.p), req.cauchy_tolerance, req.cauchy_window, values=terms,
    )


@dataclass(frozen=True)
class YMapBoundsReport:
    """The two factor bounds of the majorization: the absolute table sum and
    the absolute triple-block series of the coefficients, with the running
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
    bounded by (sum of |table entries|) x (sum over j of |sum_m D_j(m)|),
    each factor carrying its own Cauchy verdict.
    """
    table = req.table
    p = abs(table.p)
    terms = _mapped_terms(req)
    j_range = range(p, req.j_max + 1)
    abs_rows = table.abs_sum_by_row()
    f_part = np.cumsum([abs_rows.get(j, 0.0) for j in j_range])
    # the blocks through the module, where a caller may rebind them
    c_part = np.cumsum(np.abs(expansion.triple_blocks(req.tau, req.epsilon, req.j_max)))[p:]
    f_verdict, _ = cauchy_verdict(f_part, req.cauchy_tolerance, req.cauchy_window)
    c_verdict, _ = cauchy_verdict(c_part, req.cauchy_tolerance, req.cauchy_window)
    # a finite-band table is an exactly convergent factor even on short scans
    if table.band_limit < req.j_max:
        f_verdict = VERDICT_CONVERGED
    overall = (
        VERDICT_CONVERGED
        if f_verdict == VERDICT_CONVERGED and c_verdict == VERDICT_CONVERGED
        else c_verdict
    )
    f_part, c_part, p_part = (tuple(x.tolist()) for x in (f_part, c_part, f_part * c_part))
    return YMapBoundsReport(
        js=tuple(j_range),
        fourier_partials=f_part,
        coefficient_partials=c_part,
        product_partials=p_part,
        apply_abs=tuple(np.abs(np.cumsum(terms)).tolist()),
        fourier_sum_bound=f_part[-1],
        coefficient_sum_bound=c_part[-1],
        product_bound=p_part[-1],
        fourier_verdict=f_verdict,
        coefficient_verdict=c_verdict,
        verdict=overall,
    )


__all__ = ["YMapBoundsReport", "YMapRequest", "ymap_apply", "ymap_convergence_report"]
