"""SL(2,C) principal-series matrix coefficients at the simple labels
(k = j, rho = tau * j), and their D'Alembert ratio diagnostics.

Coefficients follow the diagonal form

    D_j(m, tau, eps) = eps^{2(m+j+1+i tau j/2)}
                       * 2F1(j+1+i tau j/2, m+j+1; 2j+2; 1-eps^4),

whose only group dependence is the boost parameter eps of the Cartan
decomposition.  Coefficients are exact (series evaluation) up to
EXACT_J_LIMIT and switch to the large-j saddle-point term beyond it; that
term covers fixed m and |Re tau| <= 1 and raises SaddlePointDomainError
where it does not apply.  At eps = 1 (z = 0) every coefficient is exactly 1,
and the exact route returns it for every j.

Coefficients are evaluated in batches: diagonal_coefficients takes any pairs
(j, m) and sums the series of all exact-route pairs as rows of one
special.hyp2f1_rows call, a pair with m > 0 through Euler's transformation
onto the series with b = j+1-m (for real tau, the conjugate of the (j, -m)
row, which is summed once for both), and evaluates all its large-j pairs in
one call of special.saddle_point_log.  diagonal_coefficient is its one-pair
case, with the same value bit for bit: it builds its row from Python numbers
by the batch's arithmetic and sums it in the same kernel, or takes the saddle
term, which checks its own inputs.  Both raise SeriesConvergenceError where
cancellation has emptied a series past special.CANCELLATION_LIMIT, judged
against the value itself, or, for callers that only add the values, against
the largest value of the call or of the pair's label (its j, for the terms
of the boost-series map).  Both reject an eps that is not positive and
finite (special.check_epsilon, re-exported here) before any series work;
every series diagnostic also rejects eps = 1 (check_boost).  Labels, sizes,
pairs and tau are read by special's rules (check_label, check_pair,
check_tau); IndexRangeError is special's, re-exported here.
boundary_ratio_test reads its track in one batch.  ratio_test reads its
pairs past EXACT_J_LIMIT in one batch too, so a scan finds the large-j
term's (tau, eps) parts once; it reads only its exact window one pair at a
time, through diagonal_coefficient, because that is the seam where the
benchmark's check moves a term.  Both hand their terms to
reports.series_report as arrays.  Each block of a series is one cumulative
product of its term ratios, of a length read from the series' rate alone
(special._sum_series), so that a pair of the exact window read on its own
pays the numpy calls of one block.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .logcomplex import LogComplexValue, wrap_phases
from .reports import SeriesReport, series_report
from .special import (
    EpsilonDomainError,
    IndexRangeError,
    SaddlePointDomainError,
    check_cancellation,
    check_epsilon,
    check_label,
    check_labels,
    check_pair,
    check_tau,
    hyp2f1_rows,
    saddle_point_exponent,
    saddle_point_log,
)

EXACT_J_LIMIT = 64

PATH_EXACT = "exact"
PATH_ASYMPTOTIC = "asymptotic"

TRACK_M_EQUALS_J = "m_equals_j"
TRACK_M_EQUALS_0 = "m_equals_0"


def check_boost(epsilon) -> float:
    """check_epsilon(eps), which must also differ from 1: at eps = 1 every
    coefficient is exactly 1, so no series diagnostic has a boost to judge."""
    epsilon = check_epsilon(epsilon)
    if epsilon == 1.0:
        raise EpsilonDomainError("series diagnostics require a boost, eps != 1")
    return epsilon


def evaluation_path(j: int, epsilon: Optional[float] = None) -> str:
    """Which route diagonal_coefficient takes for this j, at this eps if
    given, under method='auto': the exact route up to EXACT_J_LIMIT, and for
    every j at eps = 1, where z = 0 and the coefficient is exactly 1."""
    return PATH_EXACT if j <= EXACT_J_LIMIT or epsilon == 1.0 else PATH_ASYMPTOTIC


def _boost_log(j, m, tau, epsilon: float):
    """log eps^{2(m+j+1) + i tau j}, elementwise for arrays j, m, tau;
    |eps^{i tau j}| = eps^{-Im(tau) j}."""
    return (2 * (m + j + 1) + 1j * tau * j) * math.log(epsilon)


def _asymptotic_route(j, m, tau: complex, epsilon: float):
    """The asymptotic route at Python ints j, m, or at integer arrays of them
    alike, as (log_mag, phase): special.saddle_point_log plus the boost
    power's log, its phase wrapped once, at the end, as the exact route's."""
    re, im = saddle_point_log(j, m, tau, epsilon)
    boost = _boost_log(j, m, tau, epsilon)
    return re + boost.real, wrap_phases(im + boost.imag)


def _exact_coefficients(js, ms, tau: complex, epsilon: float):
    """The exact route at Python ints j, m, or at integer arrays with one
    hyp2f1_rows row per distinct series, by the same IEEE operations in the
    same order: (log_mag, phase, cancellation), numbers for ints (cancellation
    an array of one; see special.check_cancellation).

    D_j(m, tau) = eps^{2(j+1+m) + i tau j} 2F1(a, j+1+m; 2j+2; 1-eps^4) with
    a = j+1+i tau j/2.  Euler's transformation (DLMF 15.8.1),
    2F1(a, b; c; z) = (1-z)^{c-a-b} 2F1(c-a, c-b; c; z), gives
    D_j(m, tau) = D_j(-m, -tau), so a pair with m > 0 is summed as the pair
    (j, -m) at -tau: every row sums the series with the smaller b.  For real
    tau the row at -tau is the conjugate of the row at tau, so (j, m) and
    (j, -m) share one row.
    """
    batch = isinstance(js, np.ndarray)
    rj, rm, inverse = js, ms, None
    if batch and js.size > 1:
        # one row per distinct (j, |m|, reflected), in the order of the keys
        key = (js * (js.max() + 1) + np.abs(ms)) * 2 + ((ms > 0) & (tau.imag != 0.0))
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        if first.size < js.size:
            rj, rm = js[first], ms[first]
        else:
            inverse = None
    # the row of each pair: (j, -|m|) at tau, or at -tau for m > 0 when tau is complex
    row_tau = tau * (1.0 - 2.0 * ((rm > 0) & (tau.imag != 0.0)))
    rm = -abs(rm)
    j1 = rj + 1.0   # floats, which hyp2f1_rows takes as they are
    log_mag, phase, cancellation = hyp2f1_rows(
        j1 + 0.5j * row_tau * rj, j1 + rm, 2 * j1, 1.0 - epsilon**4
    )
    if not batch:
        log_mag, phase = float(log_mag[0]), float(phase[0])
    boost = _boost_log(rj, rm, row_tau, epsilon)
    log_mag = log_mag + boost.real
    phase = phase + boost.imag
    if inverse is not None:
        log_mag, phase, cancellation = log_mag[inverse], phase[inverse], cancellation[inverse]
    # real tau: a pair with m > 0 is the conjugate of its row
    phase = phase * (1.0 - 2.0 * ((ms > 0) & (tau.imag == 0.0)))
    return log_mag, wrap_phases(phase), cancellation


def diagonal_coefficients(
    js, ms, tau: complex, epsilon: float, *, against_largest=False
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal coefficients D_j(m, tau, eps) for the pairs (js[i], ms[i]),
    as arrays (log_mag, phase).

    Pairs on the exact route (j <= EXACT_J_LIMIT, or any j at eps = 1) are
    summed as rows of one special.hyp2f1_rows call (see
    _exact_coefficients); pairs on the asymptotic route are evaluated in one
    call of special.saddle_point_log.  Each pair's value is the same, bit for
    bit, whatever other pairs share the call and however many there are, and
    the same as diagonal_coefficient's.

    Raises SeriesConvergenceError where an exact pair's series has cancelled
    beyond special.CANCELLATION_LIMIT: relative to the pair's own |D| by
    default, as diagonal_coefficient does, or, with against_largest, relative
    to the largest |D| of the call, for callers that only add the values, so
    that a near-zero coefficient that adds nothing to their sums is accepted.
    against_largest may also be an array of one label per pair (a column
    index, say): each pair is then judged against the largest |D| of the
    pairs with its label, as a call per label would judge it.
    """
    js = check_labels(js, "j")
    ms = check_labels(ms, "m")
    tau = check_tau(tau)
    epsilon = check_epsilon(epsilon)
    if js.shape != ms.shape:
        raise ValueError("js and ms must have the same length")
    if not js.size:
        return np.zeros(0), np.zeros(0)
    check_pair(js, ms)
    exact = (js <= EXACT_J_LIMIT) | (epsilon == 1.0)
    log_mag = np.empty(js.shape)
    phase = np.empty(js.shape)
    # the saddle-point pairs first: their domain checks fail fast
    if not exact.all():
        large = ~exact
        log_mag[large], phase[large] = _asymptotic_route(js[large], ms[large], tau, epsilon)
    if exact.any():
        log_mag[exact], phase[exact], cancellation = _exact_coefficients(
            js[exact], ms[exact], tau, epsilon
        )
        weight = 1.0
        if against_largest is not False:
            # each exact pair's |D| over the largest |D| of its label
            _, label = np.unique(np.broadcast_to(against_largest, js.shape), return_inverse=True)
            largest = np.full(label.max() + 1, -np.inf)
            np.maximum.at(largest, label, log_mag)
            weight = np.exp(log_mag[exact] - largest[label[exact]])
        check_cancellation(cancellation, weight)
    return log_mag, phase


def diagonal_coefficient(
    j: int,
    m: int,
    tau: complex,
    epsilon: float,
    method: str = "auto",
) -> LogComplexValue:
    """Diagonal coefficient at the simple labels, as a function of the boost
    parameter alone.

    j = 0 is evaluated by the same formula (value eps^2 * 2F1(1,1;2;1-eps^4),
    which tends to 1 as eps -> 1); norm-type sums exclude it by convention and
    report it separately.  method: 'auto' (the route of evaluation_path:
    exact up to EXACT_J_LIMIT and at eps = 1, else asymptotic), 'exact', or
    'asymptotic' (the saddle-point term, which raises SaddlePointDomainError
    outside its domain and Hyp2F1DomainError at eps = 1).  The one-pair case
    of diagonal_coefficients, with the same value bit for bit.
    """
    j = check_label(j, "j")
    m = check_label(m, "m")
    tau = check_tau(tau)
    epsilon = check_epsilon(epsilon)
    check_pair(j, m)
    if method == "auto":
        method = evaluation_path(j, epsilon)
    if method == PATH_ASYMPTOTIC:
        return LogComplexValue(*_asymptotic_route(j, m, tau, epsilon))
    if method != PATH_EXACT:
        raise ValueError(f"unknown method {method!r}")
    log_mag, phase, cancellation = _exact_coefficients(j, m, tau, epsilon)
    check_cancellation(cancellation)
    return LogComplexValue(log_mag, phase)


def predicted_diagonal_ratio(epsilon: float, tau: complex = 0.0) -> float:
    """Tail limit of |D_{j+1}/D_j| at fixed m, from the large-j saddle term:
    |4 eps^{2 + i tau} e^{phi(t0)}| = 4 eps^{2 - Im tau} |e^{phi(t0)}|, with
    phi(t0) from special.saddle_point_exponent.  At tau = 0 this is
    4 eps^2 / (eps^2 + 1)^2; at eps = 2 it is 0.61733 for tau = 0.5 and
    0.54466 for tau = 1.

    The limit is invariant under eps -> 1/eps, so it is evaluated at
    max(eps, 1/eps) and the two give identical floats.  Raises
    SaddlePointDomainError where the saddle term gives no single limit.
    """
    epsilon = check_epsilon(epsilon)
    epsilon = max(epsilon, 1.0 / epsilon)
    phi = saddle_point_exponent(tau, epsilon)   # which reads tau by check_tau
    return math.exp(math.log(4.0) + (2.0 - complex(tau).imag) * math.log(epsilon) + phi.real)


def predicted_boundary_ratio(track: str, epsilon: float, tau: complex = 0.0) -> float:
    """Tail ratio of the bounding sums: on the m = 0 track the fixed-m limit
    predicted_diagonal_ratio(eps, tau); on the m = j track the tau = 0 closed
    form eps^2/(eps^2+1)^2, which ignores tau but checks it (check_tau)."""
    if track == TRACK_M_EQUALS_J:
        e2 = check_epsilon(epsilon) ** 2
        check_tau(tau)
        return e2 / (e2 + 1.0) ** 2
    if track == TRACK_M_EQUALS_0:
        return predicted_diagonal_ratio(epsilon, tau)
    raise ValueError(f"unknown track {track!r}")


def _predicted_limit(track: str, tau: complex, epsilon: float) -> Optional[float]:
    """predicted_boundary_ratio, or None where the saddle term gives no single
    limit, so that a scan inside the exact window still reports.  The fixed-m
    diagonal scan uses the m = 0 track's prediction."""
    try:
        return predicted_boundary_ratio(track, epsilon, tau)
    except SaddlePointDomainError:
        return None


def ratio_test(
    m: int,
    tau: complex,
    epsilon: float,
    j_max: int,
    *,
    cauchy_tolerance: float = 1e-6,
    cauchy_window: int = 10,
) -> SeriesReport:
    """Consecutive-magnitude ratios |D_{j+1}/D_j| of the diagonal coefficients
    for fixed m, against the limit predicted_diagonal_ratio(eps, tau), which
    is 4 eps^2/(eps^2+1)^2 at tau = 0 (None where the saddle term does not
    apply).

    The empirical limit is the median of the last 10 ratios.  j runs from
    max(|m|, 1) so every term is well defined.  The terms past
    EXACT_J_LIMIT are one diagonal_coefficients call, read first so that
    their domain checks come before any series work.  Only the exact window
    is read one pair at a time, from the top down, through
    diagonal_coefficient, because the benchmark's check moves a term there
    (perfbench/test_bench.py and tests/test_principal_series.py's
    test_ratio_test_reads_each_term_through_diagonal_coefficient).
    """
    m = check_label(m, "m")
    epsilon = check_boost(epsilon)
    j_max = check_label(j_max, "j_max")
    if j_max < abs(m) + 8:
        raise ValueError("j_max must be at least |m| + 8")
    j_start = max(abs(m), 1)
    js = np.arange(max(j_start, EXACT_J_LIMIT + 1), j_max + 1)
    large = diagonal_coefficients(js, np.full(js.shape, m), tau, epsilon)
    exact = [diagonal_coefficient(j, m, tau, epsilon)
             for j in range(min(j_max, EXACT_J_LIMIT), j_start - 1, -1)][::-1]
    log_mag = np.concatenate([[v.log_mag for v in exact], large[0]])
    phase = np.concatenate([[v.phase for v in exact], large[1]])
    return series_report(
        {"kind": "diagonal_ratio", "m": m, "tau": tau, "epsilon": epsilon,
         "j_max": j_max, "j_start": j_start},
        j_start, cauchy_tolerance, cauchy_window, log_polar=(log_mag, phase),
        predicted_limit=_predicted_limit(TRACK_M_EQUALS_0, tau, epsilon),
    )


def boundary_ratio_test(
    track: str,
    tau: complex,
    epsilon: float,
    j_max: int,
    *,
    cauchy_tolerance: float = 1e-6,
    cauchy_window: int = 10,
) -> SeriesReport:
    """Term-ratio diagnostics of the two bounding sums that dominate the full
    triple sum: (j+1) |eps-power| |2F1| with the column index pinned to j
    (track 'm_equals_j'), or j |eps-power| |2F1| with it pinned to 0 (track
    'm_equals_0').  Terms are absolute values, so the report's phases are 0.
    """
    if track not in (TRACK_M_EQUALS_J, TRACK_M_EQUALS_0):
        raise ValueError(f"unknown track {track!r}")
    epsilon = check_boost(epsilon)
    j_max = check_label(j_max, "j_max")
    if j_max < 9:
        raise ValueError("j_max too small for a tail estimate")
    js = np.arange(1, j_max + 1)
    if track == TRACK_M_EQUALS_J:
        ms, weights = js, js + 1.0
    else:
        ms, weights = np.zeros_like(js), js.astype(float)
    log_mag, _ = diagonal_coefficients(js, ms, tau, epsilon)
    return series_report(
        {"kind": "boundary_ratio", "track": track, "tau": tau, "epsilon": epsilon,
         "j_max": j_max},
        1, cauchy_tolerance, cauchy_window,
        log_polar=(np.log(weights) + log_mag, np.zeros(js.shape)),
        predicted_limit=_predicted_limit(track, tau, epsilon),
    )


__all__ = [
    "EXACT_J_LIMIT",
    "EpsilonDomainError",
    "IndexRangeError",
    "PATH_ASYMPTOTIC",
    "PATH_EXACT",
    "SaddlePointDomainError",
    "TRACK_M_EQUALS_0",
    "TRACK_M_EQUALS_J",
    "boundary_ratio_test",
    "check_boost",
    "check_epsilon",
    "diagonal_coefficient",
    "diagonal_coefficients",
    "evaluation_path",
    "predicted_boundary_ratio",
    "predicted_diagonal_ratio",
    "ratio_test",
]
