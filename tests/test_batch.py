"""Batch evaluation of the diagonal coefficients: one series-kernel call per
batch, bit-for-bit agreement with one-pair calls, the Euler reflection of the
m > 0 rows, and how much work each caller asks of the kernel."""
import cmath
import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentz_harmonics import principal_series, special
from lorentz_harmonics.expansion import partial_sum_triple, triple_blocks
from lorentz_harmonics.principal_series import (
    diagonal_coefficient,
    diagonal_coefficients,
)
from lorentz_harmonics.special import SeriesConvergenceError
from lorentz_harmonics.wigner import FourierTableSU2
from lorentz_harmonics.ymap import YMapRequest, ymap_apply, ymap_convergence_report

def mp_coefficient(j, m, tau, eps):
    with mp.workdps(40):
        e = mp.mpf(eps)
        t = mp.mpc(tau)
        a = j + 1 + 0.5j * t * j
        return mp.power(e, 2 * (m + j + 1) + 1j * t * j) * mp.hyp2f1(
            a, m + j + 1, 2 * j + 2, 1 - e**4
        )


def rel_error(log_mag, phase, ref) -> float:
    with mp.workdps(40):
        got = mp.exp(mp.mpf(log_mag)) * mp.expjpi(mp.mpf(phase) / mp.pi)
        return float(abs(got - ref) / abs(ref))


eps_values = st.one_of(st.floats(0.3, 0.99), st.floats(1.01, 3.6))
taus = st.builds(complex, st.floats(-0.5, 0.5), st.sampled_from([0.0, 0.0, 0.07, -0.1]))


@settings(max_examples=30, deadline=None)
@given(
    js=st.lists(st.integers(0, 64), min_size=1, max_size=4, unique=True),
    m_fracs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
    tau=taus,
    eps=eps_values,
    pick=st.integers(0, 10**6),
)
@example(js=[64], m_fracs=[0.0, 0.05, -0.05], tau=complex(0.5, 0.0), eps=3.6, pick=0)
@example(js=[48, 64], m_fracs=[1.0, -1.0, 0.1], tau=complex(-0.45, 0.1), eps=0.3, pick=4)
def test_batch_matches_single_pairs_and_mpmath(js, m_fracs, tau, eps, pick):
    pairs = sorted({(j, round(f * j)) for j in js for f in m_fracs})
    bj, bm = zip(*pairs)
    try:
        log_mag, phase = diagonal_coefficients(bj, bm, tau, eps)
    except SeriesConvergenceError:
        # the batch raises exactly when one of its pairs does
        raised = 0
        for j, m in pairs:
            try:
                diagonal_coefficient(j, m, tau, eps)
            except SeriesConvergenceError:
                raised += 1
        assert raised
        return
    for (j, m), lm, ph in zip(pairs, log_mag, phase):
        single = diagonal_coefficient(j, m, tau, eps)
        assert (single.log_mag, single.phase) == (lm, ph)
    # every value returned is within 1e-10 of the true value
    k = pick % len(pairs)
    j, m = pairs[k]
    assert rel_error(log_mag[k], phase[k], mp_coefficient(j, m, tau, eps)) <= 1e-10


@pytest.mark.parametrize("tau", [0.3 + 0.06j, -0.2 - 0.07j, -0.45])
@pytest.mark.parametrize("eps", [0.45, 2.5])
def test_euler_reflection_against_mpmath(tau, eps):
    # m > 0 rows are summed as 2F1(c - a, j+1-m; c; z) times eps^{-4m-2i tau j}
    for j in (1, 20, 64):
        ms = sorted({m for m in (1, 2, j // 3, j) if 1 <= m <= j})
        log_mag, phase = diagonal_coefficients([j] * len(ms), ms, tau, eps)
        for m, lm, ph in zip(ms, log_mag, phase):
            assert rel_error(lm, ph, mp_coefficient(j, m, tau, eps)) < 1e-10, (j, m)


def test_sums_judge_cancellation_against_the_largest_coefficient():
    # at tau = 0.5, eps = 4 the m = 0 coefficient passes close to a zero near
    # j = 51, where its series cancels: alone it raises, but in a scan whose
    # values are only added it is accepted, its error being negligible
    # against the scan's largest term
    with pytest.raises(SeriesConvergenceError):
        diagonal_coefficient(51, 0, 0.5, 4.0)
    js = np.arange(1, 65)
    with pytest.raises(SeriesConvergenceError):
        diagonal_coefficients(js, np.zeros_like(js), 0.5, 4.0)
    log_mag, phase = diagonal_coefficients(js, np.zeros_like(js), 0.5, 4.0, against_largest=True)
    with mp.workdps(40):
        largest = mp.exp(mp.mpf(float(log_mag.max())))
        for j in (50, 51, 52, 64):
            got = mp.exp(mp.mpf(log_mag[j - 1])) * mp.expjpi(mp.mpf(phase[j - 1]) / mp.pi)
            assert float(abs(got - mp_coefficient(j, 0, 0.5, 4.0)) / largest) < 1e-10, j


def test_real_tau_rows_are_conjugate_pairs():
    js = [5] * 11
    ms = list(range(-5, 6))
    log_mag, phase = diagonal_coefficients(js, ms, 0.35, 2.2)
    for m in range(1, 6):
        up = cmath.rect(math.exp(log_mag[5 + m]), phase[5 + m])
        down = cmath.rect(math.exp(log_mag[5 - m]), phase[5 - m])
        assert up == pytest.approx(down.conjugate(), rel=1e-15)


def test_batch_mixes_routes_and_keeps_order():
    js = [70, 3, 64, 65, 0]
    ms = [-2, 1, 64, 0, 0]
    log_mag, phase = diagonal_coefficients(js, ms, 0.2, 1.7)
    for j, m, lm, ph in zip(js, ms, log_mag, phase):
        v = diagonal_coefficient(j, m, 0.2, 1.7)
        assert (v.log_mag, v.phase) == (lm, ph)


def test_batch_validation():
    with pytest.raises(principal_series.IndexRangeError):
        diagonal_coefficients([3, 4], [0, 5], 0.0, 2.0)
    with pytest.raises(principal_series.IndexRangeError):
        diagonal_coefficients([-1], [0], 0.0, 2.0)
    with pytest.raises(principal_series.EpsilonDomainError):
        diagonal_coefficients([1], [0], 0.0, 0.0)
    with pytest.raises(ValueError):
        diagonal_coefficients([1, 2], [0], 0.0, 2.0)
    log_mag, phase = diagonal_coefficients([], [], 0.0, 2.0)
    assert log_mag.size == phase.size == 0


# ---------------------------------------------------------------- work counts

@pytest.fixture
def kernel_rows(monkeypatch):
    """Every (j, |m|, a) row the series kernel sums."""
    rows = Counter()
    original = special._sum_series

    def counted(a, b, c, w, **kwargs):
        for ai, bi, ci in zip(np.atleast_1d(a), np.atleast_1d(b), np.atleast_1d(c)):
            j = int(round(ci.real / 2.0)) - 1
            rows[(j, j + 1 - int(round(bi.real)), complex(ai))] += 1
        return original(a, b, c, w, **kwargs)

    monkeypatch.setattr(special, "_sum_series", counted)
    return rows


def dense_table(j_max: int) -> FourierTableSU2:
    rng = np.random.default_rng(5)
    entries = {(tj, tm): complex(*rng.normal(size=2))
               for tj in range(0, j_max + 1, 2) for tm in range(-tj, tj + 1, 2)}
    return FourierTableSU2(0, j_max, entries)


@pytest.mark.parametrize("tau", [0.3, 0.3 + 0.05j])
def test_convergence_report_sums_each_pair_once(kernel_rows, tau):
    req = YMapRequest(table=dense_table(12), tau=tau, j_max=12, epsilon=1.8)
    ymap_convergence_report(req)
    assert max(kernel_rows.values()) == 1
    # real tau: m and -m share a row; complex tau: one row per (j, m)
    per_column = (lambda j: j + 1) if complex(tau).imag == 0 else (lambda j: 2 * j + 1)
    assert sum(kernel_rows.values()) == sum(per_column(j) for j in range(13))


def test_ymap_apply_sums_only_present_entries(kernel_rows):
    entries = {(4, 2): 1.0, (4, -2): 0.5j, (6, 0): 2.0, (8, 4): -1.0}
    table = FourierTableSU2(0, 8, entries)
    ymap_apply(YMapRequest(table=table, tau=0.2 + 0.01j, j_max=8, epsilon=0.7))
    # (j, m) = (4, 1), (4, -1), (6, 0), (8, 2): one row each
    assert sum(kernel_rows.values()) == 4
    assert {(j, mu) for j, mu, _ in kernel_rows} == {(4, 1), (6, 0), (8, 2)}


def test_identical_calls_do_the_work_twice(kernel_rows):
    partial_sum_triple(0.25, 0.8, 20)
    first = sum(kernel_rows.values())
    partial_sum_triple(0.25, 0.8, 20)
    assert first > 0
    assert sum(kernel_rows.values()) == 2 * first


def test_triple_blocks_read_one_column_per_j(kernel_rows):
    blocks = triple_blocks(0.3, 2.0, 10)
    assert len(blocks) == 11
    assert sum(kernel_rows.values()) == sum(j + 1 for j in range(11))
