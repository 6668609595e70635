"""The one series-report builder: every caller's report equals what a
left-to-right loop over the same terms gives (running partial sums, the
ratio of consecutive magnitudes, none at or after an exact zero), with the
same verdict and empirical limit."""
import math
from itertools import count

import numpy as np
import pytest

from lorentz_harmonics.expansion import (
    CoefficientTable,
    ExpansionConfig,
    partial_sum_diagonal,
    partial_sum_triple,
    synthesize,
    triple_blocks,
)
from lorentz_harmonics.logcomplex import to_complex_values
from lorentz_harmonics.principal_series import (
    boundary_ratio_test,
    diagonal_coefficient,
    diagonal_coefficients,
    ratio_test,
)
from lorentz_harmonics.reports import (
    VERDICT_CONVERGED,
    VERDICT_INCONCLUSIVE,
    TermRecord,
    cauchy_verdict,
    empirical_tail_ratio,
    series_report,
)
from lorentz_harmonics.wigner import FourierTableSU2
from lorentz_harmonics.ymap import YMapRequest, ymap_apply

TOL, WINDOW = 1e-6, 3


def reference(j_start, log_mag, phase, values):
    """The report fields a term-by-term loop gives: records, partial sums,
    verdict, Cauchy delta and empirical limit."""
    records, partials = [], []
    running, prev = 0j, None
    for j, lm, ph, v in zip(count(j_start), log_mag, phase, values):
        zero = lm == -math.inf
        ratio = None if prev is None or zero else math.exp(lm - prev)
        prev = None if zero else lm
        records.append(TermRecord(j, lm, ph, ratio))
        running += v
        partials.append(running)
    verdict, delta = cauchy_verdict(partials, TOL, WINDOW)
    return records, partials, verdict, delta, empirical_tail_ratio([r.ratio for r in records])


def bits(z: complex) -> tuple[str, str]:
    """The bits of a complex number, signed zeros told apart."""
    return z.real.hex(), z.imag.hex()


def assert_matches_loop(report, j_start, values, log_polar=None):
    """report against reference() over values; log_mag and phase are the
    caller's where it passes them, else the report's own, which must then
    be log|value| and arg value."""
    values = list(values)
    if log_polar is None:
        log_polar = [t.log_mag for t in report.terms], [t.phase for t in report.terms]
        for lm, ph, v in zip(*log_polar, values):
            if v == 0:
                assert (lm, ph) == (-math.inf, 0.0)
            else:
                assert lm == pytest.approx(math.log(abs(v)), rel=1e-15, abs=1e-15)
                assert ph == pytest.approx(math.atan2(v.imag, v.real), rel=1e-15, abs=1e-15)
    records, partials, verdict, delta, empirical = reference(j_start, *log_polar, values)
    assert list(report.terms) == records
    assert [bits(s) for s in report.partial_sums] == [bits(s) for s in partials]
    assert (report.verdict, report.cauchy_delta) == (verdict, delta)
    assert report.empirical_limit == empirical


def test_builder_on_zeros_signed_zeros_and_no_terms():
    # a zero first, a zero run and a -0.0 part: the first term and each term
    # at or right after a zero have no ratio; the sums carry no -0.0
    values = np.array([complex(-0.0, -0.0), 1 + 1j, 0.5j, 0j, 0j, -2.0, 1e-3 + 0j, 3.0, 2.5])
    report = series_report({"tau": 0.1}, 4, TOL, WINDOW, values=values)
    assert_matches_loop(report, 4, values.tolist())
    assert [t.ratio is None for t in report.terms] == [True, True, False, True, True, True,
                                                       False, False, False]
    assert bits(report.partial_sums[0]) == bits(0j)
    # log-polar input gives the linear values of to_complex_values
    log_mag = np.array([-math.inf, 0.0, 1.5, -2.0, -math.inf, 0.25])
    phase = np.array([0.0, math.pi, 0.5, -3.0, 0.0, 1e-300])
    report = series_report({"tau": 0.0}, 1, TOL, WINDOW, log_polar=(log_mag, phase))
    assert_matches_loop(report, 1, to_complex_values(log_mag, phase).tolist(), (log_mag, phase))
    empty = series_report({"tau": 0.0}, 7, TOL, WINDOW, values=np.zeros(0, dtype=complex))
    assert (empty.terms, empty.partial_sums, empty.verdict) == ((), (), VERDICT_INCONCLUSIVE)


@pytest.mark.parametrize("tau", [0.3, 0.2 + 0.05j])
@pytest.mark.parametrize("eps", [0.6, 1.7])
@pytest.mark.parametrize("m", [0, 2])
def test_fixed_m_scans_match_the_loop(m, eps, tau):
    j_max = 20
    report = partial_sum_diagonal(ExpansionConfig(tau=tau, m=m, epsilon=eps, j_max=j_max,
                                                  cauchy_tolerance=TOL, cauchy_window=WINDOW))
    js = np.arange(0 if m == 0 else m, j_max + 1)
    log_mag, phase = diagonal_coefficients(js, np.full(js.shape, m), tau, eps,
                                           against_largest=True)
    if m == 0:
        log_mag, phase = log_mag[1:], phase[1:]
    assert_matches_loop(report, max(m, 1), to_complex_values(log_mag, phase).tolist(),
                        (log_mag, phase))

    report = ratio_test(m, tau, eps, j_max, cauchy_tolerance=TOL, cauchy_window=WINDOW)
    values = [diagonal_coefficient(j, m, tau, eps) for j in range(max(m, 1), j_max + 1)]
    log_mag = np.array([v.log_mag for v in values])
    phase = np.array([v.phase for v in values])
    assert_matches_loop(report, max(m, 1), to_complex_values(log_mag, phase).tolist(),
                        (log_mag, phase))
    assert report.empirical_limit is not None


@pytest.mark.parametrize("track", ["m_equals_j", "m_equals_0"])
def test_boundary_scan_matches_the_loop(track):
    report = boundary_ratio_test(track, 0.2, 1.8, 14, cauchy_tolerance=TOL,
                                 cauchy_window=WINDOW)
    js = np.arange(1, 15)
    ms, weights = (js, js + 1.0) if track == "m_equals_j" else (0 * js, js * 1.0)
    logs = (np.log(weights) + diagonal_coefficients(js, ms, 0.2, 1.8)[0]).tolist()
    assert_matches_loop(report, 1, map(math.exp, logs), (logs, [0.0] * len(logs)))


@pytest.mark.parametrize("tau", [0.3, 0.1 - 0.04j])
def test_triple_scan_matches_the_loop(tau):
    report = partial_sum_triple(tau, 1.5, 10, cauchy_tolerance=TOL, cauchy_window=WINDOW)
    assert_matches_loop(report, 0, triple_blocks(tau, 1.5, 10))


@pytest.mark.parametrize("m", [0, -1])
@pytest.mark.parametrize("tau", [0.3, 0.1 + 0.05j])
def test_synthesis_with_gaps_matches_the_loop(tau, m):
    # no c_j at j = 3, 7, 8 and past 12: those terms are exact zeros, and
    # they and the terms after them have no ratio
    entries = {j: 0.7**j * (1.0 - 0.2j) for j in range(1, 13) if j not in (3, 7, 8)}
    report = synthesize(CoefficientTable(m, entries), tau, 0.8, 16,
                        cauchy_tolerance=TOL, cauchy_window=WINDOW)
    js = np.array(sorted(entries))
    coeffs = to_complex_values(*diagonal_coefficients(js, np.full(js.shape, m), tau, 0.8,
                                                      against_largest=True))
    terms = js * js * (1.0 + tau * tau) * np.array([entries[j] for j in js.tolist()]) * coeffs
    values = [0j] * 16
    for j, t, c in zip(js.tolist(), terms.tolist(), coeffs.tolist()):
        # the vectorised weight is j^2 (1 + tau^2) c_j to rounding
        assert t == pytest.approx(j * j * (1.0 + tau * tau) * entries[j] * c, rel=1e-15)
        values[j - 1] = t
    assert_matches_loop(report, 1, values)
    no_ratio = [t.j for t in report.terms if t.ratio is None]
    assert no_ratio == [1, 3, 4, 7, 8, 9, 13, 14, 15, 16]
    assert report.partial_sums[-1] == report.partial_sums[11]


@pytest.mark.filterwarnings("ignore:table band")
def test_ymap_scan_matches_the_loop():
    entries = {(2, 0): 1.0, (4, 2): 0.5 - 0.5j, (4, -2): 0.25j, (4, 0): -1.0, (8, 4): 0.3}
    req = YMapRequest(table=FourierTableSU2(2, 8, entries), tau=0.2, j_max=12, epsilon=1.3,
                      cauchy_tolerance=TOL, cauchy_window=WINDOW)
    report = ymap_apply(req)
    pairs = sorted((tj, tm // 2, d) for (tj, tm), d in entries.items())
    js, ms, ds = (np.array(x) for x in zip(*pairs))
    products = ds * to_complex_values(*diagonal_coefficients(js, ms, 0.2, 1.3,
                                                             against_largest=True))
    # each j-term summed left to right; j = 3, 5, 6, 7 and 9 to 12 have none
    values = [0j] * 11
    for j, p in zip(js.tolist(), products.tolist()):
        values[j - 2] += p
    assert_matches_loop(report, 2, values)
    assert report.verdict == VERDICT_CONVERGED
