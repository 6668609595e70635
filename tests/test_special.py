import cmath
import math

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentz_harmonics.logcomplex import LogComplexValue
from lorentz_harmonics.special import (
    EpsilonDomainError,
    GammaPoleError,
    Hyp2F1DomainError,
    SaddlePointDomainError,
    SeriesConvergenceError,
    hyp2f1,
    log_gamma,
    saddle_point_2f1,
    saddle_point_exponent,
)

TWO_LN_2 = 2.0 * math.log(2.0)


def rel_diff(v: LogComplexValue, w: LogComplexValue) -> float:
    """|v/w - 1| computed through the log representation."""
    return abs(cmath.exp(complex(v.log_mag - w.log_mag, v.phase - w.phase)) - 1.0)


# ---------------------------------------------------------------- log_gamma

def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0).real == pytest.approx(math.log(24.0), rel=1e-14)
    assert abs(log_gamma(5.0).imag) < 1e-14


def test_log_gamma_poles():
    for z in (0.0, -1.0, -5.0):
        with pytest.raises(GammaPoleError):
            log_gamma(z)


@given(
    st.floats(min_value=0.6, max_value=200.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_log_gamma_recurrence(x, y):
    z = complex(x, y)
    lhs = log_gamma(z + 1.0)
    rhs = log_gamma(z) + cmath.log(z)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_log_gamma_recurrence_left_halfplane():
    for z in (-0.75 + 0.5j, -2.3 + 1.2j, -5.5 - 3.0j):
        lhs = log_gamma(z + 1.0)
        rhs = log_gamma(z) + cmath.log(z)
        # reflection phases are only pinned mod 2pi
        assert abs(cmath.exp(lhs - rhs) - 1.0) < 1e-11


def test_log_gamma_large_argument():
    for x in (1e3, 1e5, 1e6):
        assert log_gamma(x).real == pytest.approx(math.lgamma(x), rel=1e-13)


def test_log_gamma_vs_mpmath_complex():
    for z in (2.5 + 1.5j, 30.0 + 40.0j, 65.0 - 16.0j, 0.5 + 90.0j):
        ref = complex(mp.loggamma(mp.mpc(z)))
        assert abs(log_gamma(z) - ref) <= 1e-12 * max(1.0, abs(ref))


# ------------------------------------------------------------------- hyp2f1

def test_hyp2f1_at_zero_is_one():
    for a, b, c in ((1.5, 2, 3), (4 + 2j, 7, 10), (65 + 16j, 129, 130)):
        v = hyp2f1(a, b, c, 0.0)
        assert v.to_complex() == 1 + 0j


def test_hyp2f1_two_ln_two():
    # oracle: 50-term truncation of the defining series, sum z^n/(n+1)
    oracle = math.fsum(0.5**n / (n + 1) for n in range(50))
    assert oracle == pytest.approx(TWO_LN_2, abs=1e-15)
    got = hyp2f1(1, 1, 2, 0.5).to_complex().real
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.3862943611198901, rel=1e-12)


def test_hyp2f1_pfaff_identity_value():
    # 2F1(a, b; b; z) = (1-z)^(-a): frozen value 0.125 at a=3, z=-1
    got = hyp2f1(3, 2, 2, -1.0).to_complex().real
    assert got == pytest.approx(0.125, rel=1e-12)


def test_hyp2f1_frozen_pfaff_oracle():
    # independent plain-float Pfaff oracle for 2F1(2,2;4;-15)
    w = 15.0 / 16.0
    term, total = 1.0, 1.0
    for n in range(5000):
        term *= (2 + n) * (2 + n) / ((4 + n) * (n + 1)) * w
        total += term
        if term < 1e-18 * total:
            break
    oracle = total / 256.0
    assert oracle == pytest.approx(0.03046045916102448, rel=1e-13)
    got = hyp2f1(2, 2, 4, -15.0).to_complex().real
    assert got == pytest.approx(oracle, rel=1e-12)


def test_hyp2f1_pfaff_vs_direct_series_overlap():
    # direct defining series converges for |z| < 1; compare on z in (-0.3, 0)
    def direct(a, b, c, z, terms=400):
        t, s = 1 + 0j, 1 + 0j
        for n in range(terms):
            t *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
            s += t
        return s

    for z in (-0.29, -0.17, -0.05):
        for a, b, c in ((2 + 1j, 3, 5), (5 + 0.5j, 7, 11), (1.5, 1.5, 4)):
            got = hyp2f1(a, b, c, z).to_complex()
            assert got == pytest.approx(direct(a, b, c, z), rel=1e-10)


def test_hyp2f1_gauss_relation_random_pairs():
    # 2F1(a, b; b; z) = (1-z)^(-a) for 20 seeded random (a, z)
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(20):
        a = complex(rng.uniform(0.3, 6.0), rng.uniform(-3.0, 3.0))
        z = float(rng.uniform(-4.0, 0.95))
        b = float(rng.integers(1, 9))
        got = hyp2f1(a, b, b, z)
        want = LogComplexValue.from_log(-a * cmath.log(1.0 - z))
        assert rel_diff(got, want) < 1e-10


def test_hyp2f1_against_mpmath_coefficient_family():
    for j, m, tau, eps in (
        (16, 0, 0.0, 0.5),
        (64, 0, 0.0, 0.5),
        (64, 1, 0.0, 2.0),
        (64, 64, 0.0, 2.0),
        (32, 0, 0.3, 0.5),
        (48, 3, 0.5, 2.0),
    ):
        a = j + 1 + 0.5j * tau * j
        got = hyp2f1(a, m + j + 1, 2 * j + 2, 1.0 - eps**4)
        ref = mp.hyp2f1(mp.mpc(a), m + j + 1, 2 * j + 2, 1 - mp.mpf(eps) ** 4)
        assert abs(got.log_mag - float(mp.log(abs(ref)))) < 1e-10 * max(
            1.0, abs(got.log_mag)
        )
        dphase = abs(cmath.exp(1j * (got.phase - float(mp.arg(ref)))) - 1.0)
        assert dphase < 1e-10


def test_hyp2f1_domain_errors():
    with pytest.raises(Hyp2F1DomainError):
        hyp2f1(1, 2, 3, 1.0)
    with pytest.raises(Hyp2F1DomainError):
        hyp2f1(1, 2, 3, 2.5)
    for c in (0, -3):
        with pytest.raises(Hyp2F1DomainError, match="non-positive integer"):
            hyp2f1(1, 2, c, 0.5)
    for z in (-math.inf, math.nan):
        with pytest.raises(Hyp2F1DomainError):
            hyp2f1(1, 2, 3, z)


def test_hyp2f1_nonconvergence_raises():
    with pytest.raises(SeriesConvergenceError):
        hyp2f1(0.5, 0.5, 1.5, 1.0 - 1e-12)
    # the Pfaff rate z / (z - 1) rounds to 1.0
    with pytest.raises(SeriesConvergenceError):
        hyp2f1(0.5 + 0.1j, 1.0, 2.0, -1.6e17)


def test_hyp2f1_terminating_polynomial():
    # a = -3 terminates the series after four terms
    a, b, c, z = -3.0, 2.0, 4.0, 0.7
    t, s = 1.0, 1.0
    for n in range(3):
        t *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        s += t
    got = hyp2f1(a, b, c, z).to_complex().real
    assert got == pytest.approx(s, rel=1e-13)


# ------------------------------------------------------ saddle-point route

def mp_log_coefficient_2f1(j, m, tau, eps):
    with mp.workdps(50):
        a = j + 1 + 0.5j * mp.mpc(tau) * j
        return complex(mp.log(mp.hyp2f1(a, m + j + 1, 2 * j + 2, 1 - mp.mpf(eps) ** 4)))


def rel_to_log(v: LogComplexValue, log_ref: complex) -> float:
    return abs(cmath.exp(complex(v.log_mag - log_ref.real, v.phase - log_ref.imag)) - 1.0)


@pytest.mark.parametrize("tau", [0.0, 0.5, -0.5, 1.0, 0.3 + 0.2j, 0.5j])
def test_saddle_route_error_is_order_one_over_j(tau):
    errs = [
        rel_to_log(saddle_point_2f1(j, 1, tau, 2.0), mp_log_coefficient_2f1(j, 1, tau, 2.0))
        for j in (100, 200, 400)
    ]
    assert errs[0] < 0.1
    for lo, hi in zip(errs, errs[1:]):
        assert hi <= 0.6 * lo, errs


@pytest.mark.parametrize("eps,tau", [(4.0, 0.5), (0.3, -0.5), (10.0, 1.0)])
def test_saddle_route_two_saddles_past_meeting_point(eps, tau):
    # real tau beyond 4 eps^2/|1 - eps^4|: one saddle alone is off by order one
    # here; the pair of equal weight tracks the oscillating coefficient
    assert abs(tau) > 4.0 * eps * eps / abs(1.0 - eps**4)
    for m in (0, 1):
        for j in (100, 200, 400):
            err = rel_to_log(saddle_point_2f1(j, m, tau, eps), mp_log_coefficient_2f1(j, m, tau, eps))
            assert err < 0.05, (j, m, err)


def test_saddle_route_domain():
    with pytest.raises(SaddlePointDomainError):
        saddle_point_2f1(200, 0, 2.0, 2.0)   # |Re tau| > 1
    with pytest.raises(SaddlePointDomainError):
        saddle_point_2f1(200, 0, 0.9 - 0.3j, 10.0)  # Re(disc) <= 0 off the real axis
    with pytest.raises(SaddlePointDomainError):
        saddle_point_2f1(65, 0, 0.0, 100.0)  # saddle inside a Gaussian width of t = 0
    with pytest.raises(SaddlePointDomainError):
        saddle_point_2f1(65, 0, 0.449, 3.0)  # the two saddles nearly meet
    with pytest.raises(SaddlePointDomainError):
        saddle_point_exponent(0.5, 10.0)     # two saddles: no single tail limit
    assert not issubclass(SaddlePointDomainError, ValueError)
    with pytest.raises(Hyp2F1DomainError):
        saddle_point_2f1(65, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        saddle_point_2f1(0, 0, 0.0, 2.0)
    with pytest.raises(ValueError):
        saddle_point_2f1(4, 7, 0.0, 2.0)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_saddle_route_rejects_eps_outside_its_domain(eps):
    # the rule of check_epsilon, as the coefficient routes apply it
    with pytest.raises(EpsilonDomainError, match="positive and finite"):
        saddle_point_2f1(65, 0, 0.0, eps)


@given(
    st.floats(min_value=0.2, max_value=5.0).filter(lambda e: abs(e - 1.0) > 1e-3),
    st.floats(min_value=-0.95, max_value=0.95),
)
def test_saddle_exponent_inversion_symmetry(eps, frac):
    # the tail limit 4 eps^2 |e^{phi(t0)}| is invariant under eps -> 1/eps,
    # i.e. Re phi(1/eps) - Re phi(eps) = 4 ln eps; tau is kept inside the
    # route's domain as a fraction of min(1, 4 eps^2/|1 - eps^4|)
    tau = frac * min(1.0, 4.0 * eps * eps / abs(1.0 - eps**4))
    gap = saddle_point_exponent(tau, 1.0 / eps).real - saddle_point_exponent(tau, eps).real
    assert gap == pytest.approx(4.0 * math.log(eps), rel=1e-9, abs=1e-12)
