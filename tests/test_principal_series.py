import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentz_harmonics import LogComplexValue, principal_series
from lorentz_harmonics.expansion import ExpansionConfig, partial_sum_diagonal
from lorentz_harmonics.principal_series import (
    EXACT_J_LIMIT,
    EpsilonDomainError,
    IndexRangeError,
    boundary_ratio_test,
    diagonal_coefficient,
    diagonal_coefficients,
    evaluation_path,
    predicted_boundary_ratio,
    predicted_diagonal_ratio,
    ratio_test,
)
from lorentz_harmonics.special import (
    Hyp2F1DomainError,
    SaddlePointDomainError,
    SeriesConvergenceError,
)
from oracle import CoefficientIndex, PrincipalSeriesLabel, admissible_pairs, duc_hieu_general


def rel_between(a, b) -> float:
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, a.phase - b.phase)) - 1.0)


def mp_diagonal_ratio(j: int, m: int, tau: complex, eps: float) -> float:
    """|D_{j+1}/D_j| from 50-digit mpmath hypergeometrics (independent oracle)."""
    with mp.workdps(50):
        tau = mp.mpc(tau)
        eps = mp.mpf(eps)

        def mag(k):
            a = k + 1 + 0.5j * tau * k
            f = mp.hyp2f1(a, m + k + 1, 2 * k + 2, 1 - eps**4)
            return abs(eps ** (2 * (m + k + 1) + 1j * tau * k) * f)

        return float(mag(j + 1) / mag(j))


# --------------------------------------------------------------------- types

def test_simple_label_constructor():
    lab = PrincipalSeriesLabel.simple(4, 0.5 + 0.25j)
    assert lab.k == 4
    assert lab.rho == (0.5 + 0.25j) * 4


def test_coefficient_index_validation():
    CoefficientIndex(3, 3, 2, 2)
    with pytest.raises(IndexRangeError):
        CoefficientIndex(3, 3, 4, 4)
    with pytest.raises(IndexRangeError):
        CoefficientIndex(3, 5, 0, 4)
    with pytest.raises(IndexRangeError):
        CoefficientIndex(-1, 1, 0, 0)


def test_evaluation_path_switch():
    assert evaluation_path(EXACT_J_LIMIT) == "exact"
    assert evaluation_path(EXACT_J_LIMIT + 1) == "asymptotic"
    assert evaluation_path(EXACT_J_LIMIT + 1, 2.0) == "asymptotic"
    assert evaluation_path(EXACT_J_LIMIT + 1, 1.0) == "exact"


# ---------------------------------------------------------- general formula

def test_general_vanishes_off_diagonal():
    for j in range(0, 4):
        lab = PrincipalSeriesLabel.simple(j, 0.3)
        for m in range(-j, j + 1):
            for n in range(-j, j + 1):
                if m == n:
                    continue
                val = duc_hieu_general(lab, CoefficientIndex(j, j, m, n), 2.0)
                assert val.is_zero


def test_double_sum_collapses_at_top_weight():
    for j in range(0, 7):
        lab = PrincipalSeriesLabel.simple(j, 0.0)
        for m in range(-j, j + 1):
            pairs = admissible_pairs(lab, CoefficientIndex.diagonal(j, m))
            assert pairs == [(0, 0)]
    # away from the top weight the sum has genuine support
    lab = PrincipalSeriesLabel(k=1, rho=0.0)
    pairs = admissible_pairs(lab, CoefficientIndex(3, 3, 0, 0))
    assert len(pairs) > 1


def test_general_at_origin_is_one():
    lab = PrincipalSeriesLabel(k=0, rho=0.0)
    val = duc_hieu_general(lab, CoefficientIndex(0, 0, 0, 0), 1.0)
    assert val.to_complex() == pytest.approx(1.0, abs=1e-13)


def test_general_matches_diagonal_formula_small_j():
    for j in range(1, 5):
        for m in (-j, 0, min(1, j)):
            for tau in (0.0, 0.3, 1 + 0.2j):
                for eps in (0.5, 2.0):
                    lab = PrincipalSeriesLabel.simple(j, tau)
                    dh = duc_hieu_general(lab, CoefficientIndex.diagonal(j, m), eps)
                    dg = diagonal_coefficient(j, m, tau, eps)
                    assert rel_between(dh, dg) < 1e-9


@pytest.fixture
def no_series_work(monkeypatch):
    """Make any call of the series kernel fail the test."""
    from lorentz_harmonics import special

    def refuse(*args, **kwargs):
        raise AssertionError("series kernel called")

    monkeypatch.setattr(special, "_sum_series", refuse)


@pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda eps: diagonal_coefficient(10, 0, 0.0, eps),
    lambda eps: diagonal_coefficients([10, 3], [0, 1], 0.3, eps),
    lambda eps: predicted_diagonal_ratio(eps),
    lambda eps: predicted_boundary_ratio("m_equals_j", eps),
    lambda eps: duc_hieu_general(PrincipalSeriesLabel.simple(2, 0.0),
                                 CoefficientIndex.diagonal(2, 0), eps),
], ids=["diagonal_coefficient", "diagonal_coefficients", "predicted_diagonal_ratio",
        "predicted_boundary_ratio", "duc_hieu_general"])
def test_non_finite_epsilon_is_rejected_before_series_work(no_series_work, call, eps):
    # eps = inf used to sum 100,000 terms before a SeriesConvergenceError
    with pytest.raises(EpsilonDomainError, match="finite"):
        call(eps)


def test_general_epsilon_domain():
    lab = PrincipalSeriesLabel.simple(2, 0.0)
    with pytest.raises(EpsilonDomainError):
        duc_hieu_general(lab, CoefficientIndex.diagonal(2, 0), 0.0)
    with pytest.raises(IndexRangeError):
        duc_hieu_general(PrincipalSeriesLabel(k=5, rho=0.0), CoefficientIndex(3, 3, 0, 0), 2.0)


# -------------------------------------------------------- diagonal coefficient

def test_diagonal_unit_boost_is_one():
    # z = 0 and a boost power of 1: D_j = 1 for every j, on both sides of
    # the exact window
    for j in (0, 1, 5, 40, EXACT_J_LIMIT, EXACT_J_LIMIT + 1, 400):
        for m in (-j, 0, 3, j):
            for tau in (0.0, 0.3, 0.5, 1 + 0.2j, 2.0):
                if abs(m) <= j:
                    v = diagonal_coefficient(j, m, tau, 1.0)
                    assert (v.log_mag, v.phase) == (0.0, 0.0)
    js = list(range(60, 70))
    log_mag, phase = diagonal_coefficients(js, [3] * len(js), 0.3, 1.0)
    assert log_mag.tolist() == phase.tolist() == [0.0] * len(js)
    # the saddle-point term itself degenerates there
    with pytest.raises(Hyp2F1DomainError):
        diagonal_coefficient(EXACT_J_LIMIT + 1, 3, 0.3, 1.0, method="asymptotic")


def test_diagonal_frozen_value():
    # independent oracle: 16 * 2F1(2,2;4;-15) via the plain-float Pfaff loop
    w = 15.0 / 16.0
    term, total = 1.0, 1.0
    for n in range(5000):
        term *= (2 + n) * (2 + n) / ((4 + n) * (n + 1)) * w
        total += term
        if term < 1e-18 * total:
            break
    oracle = 16.0 * total / 256.0
    got = diagonal_coefficient(1, 0, 0.0, 2.0).to_complex().real
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(0.4873673465763917, rel=1e-12)


def test_diagonal_j0_value():
    # eps^2 * 2F1(1,1;2;1-eps^4) = eps^2 * (-ln eps^4)/(1-eps^4)
    eps = 2.0
    want = eps**2 * (-4.0 * math.log(eps)) / (1.0 - eps**4)
    assert diagonal_coefficient(0, 0, 0.0, eps).to_complex().real == pytest.approx(
        want, rel=1e-12
    )


def test_diagonal_index_and_domain_errors():
    with pytest.raises(IndexRangeError):
        diagonal_coefficient(1, 5, 0.0, 2.0)
    with pytest.raises(IndexRangeError):
        diagonal_coefficient(-1, 0, 0.0, 2.0)
    with pytest.raises(EpsilonDomainError):
        diagonal_coefficient(1, 0, 0.0, 0.0)


def test_diagonal_methods_agree_at_moderate_j():
    exact = diagonal_coefficient(48, 0, 0.0, 2.0, method="exact")
    asym = diagonal_coefficient(48, 0, 0.0, 2.0, method="asymptotic")
    assert rel_between(exact, asym) < 0.02
    with pytest.raises(ValueError):
        diagonal_coefficient(4, 0, 0.0, 2.0, method="magic")


def test_diagonal_magnitude_bookkeeping_for_imaginary_tau():
    # |eps^{i tau j}| = eps^{-Im(tau) j}; with tau = i omega the remaining 2F1
    # has real parameters, so the magnitude splits exactly
    from lorentz_harmonics.special import hyp2f1

    j, m, omega, eps = 6, 1, 0.4, 2.0
    v = diagonal_coefficient(j, m, 1j * omega, eps)
    f = hyp2f1(j + 1 - 0.5 * omega * j, m + j + 1, 2 * j + 2, 1.0 - eps**4)
    want = (2 * (m + j + 1) - omega * j) * math.log(eps) + f.log_mag
    assert v.log_mag == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------- ratio tests

def test_predicted_ratio_values():
    assert predicted_diagonal_ratio(2.0) == pytest.approx(16.0 / 25.0)
    assert predicted_boundary_ratio("m_equals_j", 2.0) == pytest.approx(4.0 / 25.0)
    assert predicted_boundary_ratio("m_equals_0", 2.0) == pytest.approx(16.0 / 25.0)
    with pytest.raises(ValueError):
        predicted_boundary_ratio("diagonal", 2.0)


@given(st.floats(min_value=0.05, max_value=20.0).filter(lambda e: abs(e - 1) > 1e-6))
def test_predicted_ratio_inversion_invariance(eps):
    assert predicted_diagonal_ratio(eps) == pytest.approx(
        predicted_diagonal_ratio(1.0 / eps), rel=1e-12
    )
    assert predicted_diagonal_ratio(eps) < 1.0


def test_predicted_boundary_ratios_below_one_on_sample():
    for eps in (0.2, 0.5, 2.0, 5.0):
        assert predicted_boundary_ratio("m_equals_j", eps) < 1.0
        assert predicted_boundary_ratio("m_equals_0", eps) < 1.0


def test_ratio_test_matches_prediction():
    rep = ratio_test(0, 0.0, 2.0, 200)
    assert rep.predicted_limit == pytest.approx(0.64)
    assert rep.relative_deviation < 0.02
    assert rep.params["j_start"] == 1
    # deviation shrinks between j = 50 and j = 200
    rep50 = ratio_test(0, 0.0, 2.0, 50)
    assert rep.relative_deviation < rep50.relative_deviation


def test_ratio_test_tau_independence_for_real_tau():
    # The tail limit is not tau-independent: 50-digit mpmath ratios at j = 200,
    # eps = 2 are 0.64000 (tau = 0) and 0.61733 (tau = 0.5).  Each empirical
    # limit must follow its own reference, the two must differ, and tau = 2
    # lies outside the large-j route, which must raise rather than answer.
    refs = {0.0: 0.64000, 0.5: 0.61733}
    limits = {}
    for tau, want in refs.items():
        ref = mp_diagonal_ratio(200, 0, tau, 2.0)
        assert ref == pytest.approx(want, abs=5e-5)
        limits[tau] = ratio_test(0, tau, 2.0, 200).empirical_limit
        assert abs(limits[tau] - ref) / ref < 0.02
    assert abs(limits[0.5] - limits[0.0]) / limits[0.0] > 0.02
    with pytest.raises(SaddlePointDomainError):
        ratio_test(0, 2.0, 2.0, 200)


@pytest.mark.parametrize("eps", [0.5, 2.0])
@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_predicted_ratio_matches_mpmath(tau, eps):
    ref = mp_diagonal_ratio(200, 0, tau, eps)
    assert predicted_diagonal_ratio(eps, tau) == pytest.approx(ref, rel=1e-3)
    assert predicted_diagonal_ratio(1.0 / eps, tau) == predicted_diagonal_ratio(eps, tau)


def test_predicted_ratio_closed_form_at_tau_zero():
    for eps in (0.1, 0.5, 0.9, 1.0, 2.0, 7.0):
        e2 = eps * eps
        assert predicted_diagonal_ratio(eps, 0.0) == pytest.approx(
            4.0 * e2 / (e2 + 1.0) ** 2, rel=1e-13
        )


def test_predicted_ratio_outside_saddle_domain():
    with pytest.raises(SaddlePointDomainError):
        predicted_diagonal_ratio(2.0, 2.0)
    # a scan inside the exact window still runs, reporting no limit, as far
    # as its series keep their digits: from j = 11 at tau = 2 they cancel
    # past special.CANCELLATION_LIMIT
    rep = ratio_test(0, 2.0, 2.0, 10)
    assert rep.predicted_limit is None
    assert rep.relative_deviation is None
    assert rep.empirical_limit is not None
    with pytest.raises(SeriesConvergenceError):
        ratio_test(0, 2.0, 2.0, 40)


def test_ratio_continuous_across_route_switch():
    rep = ratio_test(0, 0.5, 2.0, 80)
    ratios = {t.j: t.ratio for t in rep.terms}
    # j = 65 is the first saddle-route term; its ratio to the exact j = 64
    # term stays within 2% of its neighbours
    assert ratios[EXACT_J_LIMIT + 1] == pytest.approx(ratios[EXACT_J_LIMIT], rel=0.02)
    assert ratios[EXACT_J_LIMIT + 1] == pytest.approx(ratios[EXACT_J_LIMIT + 2], rel=0.02)


def test_ratio_test_informational_flag():
    rep = ratio_test(0, 1j, 2.0, 60)
    assert rep.params["informational"] is True
    rep = ratio_test(0, 0.5, 2.0, 60)
    assert rep.params["informational"] is False


@pytest.mark.parametrize("m", [0, 2, -3])
@pytest.mark.parametrize("tau", [0.3, -0.2 + 0.05j])
@pytest.mark.parametrize("eps", [0.35, 0.85, 1.3, 3.0])
def test_ratio_test_terms_match_the_batch_sum_bit_for_bit(eps, tau, m):
    # ratio_test reads its pairs one at a time, partial_sum_diagonal in one
    # batch: the same (j, log_mag, phase) on both routes, every bit
    single = ratio_test(m, tau, eps, 120)
    batch = partial_sum_diagonal(ExpansionConfig(tau=tau, m=m, epsilon=eps, j_max=120))
    assert [(t.j, t.log_mag, t.phase) for t in single.terms] == [
        (t.j, t.log_mag, t.phase) for t in batch.terms
    ]
    assert len(single.terms) == 121 - max(abs(m), 1)


def test_ratio_test_reads_each_term_through_diagonal_coefficient(monkeypatch):
    # the seam the benchmark's diag-scan check moves a term through; batching
    # ratio_test must move this test and perfbench/test_bench.py together
    original = principal_series.diagonal_coefficient

    def moved(j, m, tau, epsilon, method="auto"):
        v = original(j, m, tau, epsilon, method)
        return LogComplexValue(v.log_mag + 1e-5, v.phase) if j == 64 else v

    want = {t.j: t.log_mag for t in ratio_test(1, 0.2, 0.85, 120).terms}
    monkeypatch.setattr(principal_series, "diagonal_coefficient", moved)
    got = {t.j: t.log_mag for t in principal_series.ratio_test(1, 0.2, 0.85, 120).terms}
    assert got[64] == want[64] + 1e-5
    assert all(got[j] == want[j] for j in want if j != 64)


def test_ratio_test_preconditions():
    with pytest.raises(EpsilonDomainError):
        ratio_test(0, 0.0, 1.0, 100)
    with pytest.raises(ValueError):
        ratio_test(5, 0.0, 2.0, 10)


def test_boundary_tracks_near_prediction():
    bj = boundary_ratio_test("m_equals_j", 0.0, 2.0, 200)
    assert bj.predicted_limit == pytest.approx(0.16)
    assert bj.relative_deviation < 0.03
    b0 = boundary_ratio_test("m_equals_0", 0.0, 2.0, 200)
    assert b0.predicted_limit == pytest.approx(0.64)
    assert b0.relative_deviation < 0.03
    with pytest.raises(ValueError):
        boundary_ratio_test("m_equals_2", 0.0, 2.0, 100)
