"""Batch evaluation of the diagonal coefficients: one series-kernel call and
one saddle-point call per batch, bit-for-bit agreement with one-pair calls,
the Euler reflection of the m > 0 rows, the (j, m) grid read in one call with
each column judged on its own, how much work each caller asks of the kernel,
of the large-j term and of the triple-block engine, the large-j term's gate
and errors on every call and its bits at signed-zero tau, the kernel's block
length, set by the series' rate alone, its accuracy on both sides of eps = 1,
and the rows it sums again because their terms leave double range."""
import cmath
import math
import sys
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentz_harmonics import principal_series, special
from lorentz_harmonics.expansion import (
    ExpansionConfig,
    partial_sum_diagonal,
    partial_sum_triple,
    triple_blocks,
)
from lorentz_harmonics.logcomplex import wrap_phases
from lorentz_harmonics.principal_series import (
    diagonal_coefficient,
    diagonal_coefficients,
    ratio_test,
)
from lorentz_harmonics.special import (
    SaddlePointDomainError,
    SeriesConvergenceError,
    saddle_point_log,
)
from lorentz_harmonics.wigner import FourierTableSU2
from lorentz_harmonics.ymap import YMapRequest, ymap_apply, ymap_convergence_report


def mp_coefficient(j, m, tau, eps):
    """D_j(m, tau, eps) at 40 digits.  Below |tau| j = 1e-40 it is taken at
    tau = 0, a relative change of order 1e-40: mpmath's hyp2f1 fails to
    converge at a subnormal tau (j = 432, eps = 0.625, say), whose value is
    that at tau = 0 to every digit a test reads."""
    if abs(tau) * j < 1e-40:
        tau = 0.0
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
SLOW_JS = [8, 16, 24, 32, 40, 48, 56, 64]
SLOW_M_FRACS = [-1.0, -0.6, -0.25, -0.1, 0.0, 0.15, 0.3, 0.7, 1.0]


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
# 72 pairs of the slowest series (1536-term blocks), in 18 passes of 4 rows,
# the first at the eps where that block length starts
@example(js=SLOW_JS, m_fracs=SLOW_M_FRACS, tau=complex(0.3, 0.0), eps=0.36, pick=62)
@example(js=SLOW_JS, m_fracs=SLOW_M_FRACS, tau=complex(0.3, 0.0), eps=0.32, pick=5)
@example(js=SLOW_JS, m_fracs=SLOW_M_FRACS, tau=complex(-0.2, 0.05), eps=0.32, pick=40)
@example(js=SLOW_JS, m_fracs=SLOW_M_FRACS, tau=complex(0.3, 0.0), eps=3.6, pick=21)
@example(js=SLOW_JS, m_fracs=SLOW_M_FRACS, tau=complex(-0.2, 0.05), eps=3.6, pick=70)
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


def test_rate_rounding_to_one_sums_like_any_slow_series():
    # from eps of about 1.2e4 the rate 1 - eps^-4 rounds to 1.0: a row whose
    # terms fall like n^(-|m|-1) still converges, the others raise
    v = diagonal_coefficient(10, -5, 0.2, 2e4)
    assert rel_error(v.log_mag, v.phase, mp_coefficient(10, -5, 0.2, 2e4)) < 1e-12
    with pytest.raises(SeriesConvergenceError):
        diagonal_coefficient(10, 0, 0.0, 2e4)


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


@pytest.mark.parametrize("m,tau", [(0, 0.2), (-1, -0.2 + 0.05j), (3, 0.1)])
@pytest.mark.parametrize("eps", [0.32, 3.6])
def test_scan_read_pair_by_pair_has_the_bits_of_one_batch(m, tau, eps):
    # ratio_test reads its exact window one pair at a time and the pairs past
    # j = 64 as one batch, the sum its whole j_max = 400 scan as one batch: on
    # the slowest series (1536-term blocks) and past j = 64 alike, every term
    # has the same log_mag and phase bits
    by_pair = ratio_test(m, tau, eps, 400).terms
    batch = partial_sum_diagonal(ExpansionConfig(tau=tau, m=m, epsilon=eps, j_max=400)).terms
    assert len(by_pair) == 400 - max(abs(m), 1) + 1
    assert [(t.j, t.log_mag, t.phase) for t in by_pair] == [(t.j, t.log_mag, t.phase) for t in batch]


def test_scan_and_sum_raise_one_error():
    # the gate fails at every j of the scan; both read the pairs past j = 64
    # as one batch, whose gate names its smallest j
    config = ExpansionConfig(tau=0.449, m=0, epsilon=3.0, j_max=400)
    errors = []
    for read in (lambda: ratio_test(0, 0.449, 3.0, 400), lambda: partial_sum_diagonal(config)):
        with pytest.raises(SaddlePointDomainError, match="unreliable at j = 65,") as info:
            read()
        errors.append(str(info.value))
    assert errors[0] == errors[1]


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


# ----------------------------------------------------------- the (j, m) grid

def grid_pairs(j_max: int):
    """Every (j, m) with j <= j_max and |m| <= j, column j at [j^2, (j+1)^2)."""
    js = np.repeat(np.arange(j_max + 1), 2 * np.arange(j_max + 1) + 1)
    return js, np.arange(js.size) - js * (js + 1)


def outcome(call):
    """The (log_mag, phase) bytes a call returns, or the class of its error."""
    try:
        return tuple(x.tobytes() for x in call())
    except SeriesConvergenceError as exc:
        return type(exc)


def per_column(j_max, tau, eps):
    """One diagonal_coefficients call per column, each judged against its own
    largest |D|, joined in grid order."""
    columns = [diagonal_coefficients([j] * (2 * j + 1), range(-j, j + 1), tau, eps,
                                     against_largest=True) for j in range(j_max + 1)]
    return tuple(np.concatenate(x) for x in zip(*columns))


@settings(max_examples=12, deadline=None)
@given(j_max=st.integers(0, 48), tau=taus, eps=eps_values)
# column 51 holds D_51(0), which passes only against its column's largest |D|
@example(j_max=52, tau=complex(0.5, 0.0), eps=4.0)
@example(j_max=64, tau=complex(-0.45, 0.07), eps=0.3)
def test_grid_call_matches_column_calls(j_max, tau, eps):
    js, ms = grid_pairs(j_max)
    grid = outcome(lambda: diagonal_coefficients(js, ms, tau, eps, against_largest=js))
    assert grid == outcome(lambda: per_column(j_max, tau, eps))


def test_grid_judges_each_pair_against_its_own_column():
    # D_51(0) at tau = 0.5, eps = 4 cancels: alone it raises, in its column it
    # passes, its error being negligible against the column's largest |D|
    with pytest.raises(SeriesConvergenceError):
        diagonal_coefficient(51, 0, 0.5, 4.0)
    js, ms = grid_pairs(51)
    diagonal_coefficients(js, ms, 0.5, 4.0, against_largest=js)
    # the label, not the call, sets the scale: D_0(0) would carry D_51(0) in
    # one call, but not when each has a label of its own
    diagonal_coefficients([51, 0], [0, 0], 0.5, 4.0, against_largest=True)
    with pytest.raises(SeriesConvergenceError):
        diagonal_coefficients([51, 0], [0, 0], 0.5, 4.0, against_largest=[51, 0])


@pytest.mark.parametrize("tau,eps", [
    (0.3, 0.32), (-0.45, 3.6), (0.2 + 0.05j, 0.7), (0.1 - 0.07j, 1.6), (0.5, 4.0),
])
def test_kernel_accuracy_on_full_columns(tau, eps):
    # each coefficient of the j = 64 column against 40-digit mpmath: within
    # 1e-12 of the column's largest |D| (the scale its cancellation is judged
    # against), and of its own value where that is at least 1e-3 of it
    j = 64
    log_mag, phase = diagonal_coefficients([j] * (2 * j + 1), range(-j, j + 1), tau, eps,
                                           against_largest=True)
    with mp.workdps(40):
        largest = mp.exp(mp.mpf(float(log_mag.max())))
        for m, lm, ph in zip(range(-j, j + 1), log_mag, phase):
            ref = mp_coefficient(j, m, tau, eps)
            err = abs(mp.exp(mp.mpf(lm)) * mp.expjpi(mp.mpf(ph) / mp.pi) - ref)
            assert float(err / largest) <= 1e-12, m
            if abs(ref) >= 1e-3 * largest:
                assert float(err / abs(ref)) <= 1e-12, m


# ------------------------------------------------------------ the large-j route

def meeting_point(eps: float) -> float:
    """|tau| at which the two saddles of the large-j term meet (real tau)."""
    return 4.0 * eps * eps / abs(1.0 - eps**4)


def raise_fp_errors():
    """Make overflow, invalid results and division by zero raise, so that an
    inf or nan in the large-j term fails a test rather than passing through.
    Underflow stays quiet: a product that underflows (at subnormal tau, say)
    is within 1e-308 of its true value."""
    return np.errstate(all="raise", under="ignore")


large_j_eps = st.one_of(st.floats(0.3, 0.9), st.floats(1.12, 3.6))


@st.composite
def saddle_domain(draw):
    """(eps, tau) inside the large-j route's domain: real tau below the
    saddles' meeting point, complex tau near the real axis, or real tau past
    the meeting point, where two saddles contribute."""
    eps = draw(large_j_eps)
    meet = meeting_point(eps)
    frac = draw(st.floats(-1.0, 1.0))
    kind = draw(st.sampled_from(("real", "complex", "two") if meet < 0.9 else ("real", "complex")))
    if kind == "real":
        return eps, complex(0.9 * frac * min(1.0, meet), 0.0)
    if kind == "complex":
        return eps, complex(0.8 * frac * min(1.0, meet), draw(st.floats(-0.1, 0.1)))
    return eps, complex(math.copysign(meet + (1.0 - meet) * (0.1 + 0.9 * abs(frac)), frac), 0.0)


def single_values(pairs, tau, eps) -> dict:
    """diagonal_coefficient at each pair: (log_mag, phase), or the class of
    the error it raises."""
    out = {}
    for j, m in pairs:
        try:
            v = diagonal_coefficient(j, m, tau, eps)
            out[(j, m)] = (v.log_mag, v.phase)
        except (SaddlePointDomainError, SeriesConvergenceError) as exc:
            out[(j, m)] = type(exc)
    return out


def first_error(pairs, singles):
    """The error class a batch of these pairs raises, if any: that of its
    first failing pair, the large-j pairs being evaluated first."""
    for j, m in sorted(pairs, key=lambda p: p[0] <= principal_series.EXACT_J_LIMIT):
        if isinstance(singles[(j, m)], type):
            return singles[(j, m)]
    return None


@settings(max_examples=40, deadline=None)
@given(
    domain=saddle_domain(),
    large=st.lists(st.tuples(st.integers(65, 1000), st.integers(-6, 6)), min_size=1, max_size=24),
    small=st.lists(st.tuples(st.integers(0, 64), st.floats(-1.0, 1.0)), max_size=3),
    data=st.data(),
)
@example(domain=(4.0, 0.5 + 0j), large=[(100, 0), (400, 1), (65, -1)] * 4, small=[(20, 0.5)],
         data=None)
@example(domain=(0.3, -0.5 + 0j), large=[(200, 3), (1000, 0)], small=[], data=None)
@example(domain=(2.0, 0.3 + 0.2j), large=[(65, 2), (999, -6)] * 5, small=[(64, -1.0)], data=None)
def test_large_j_batch_matches_single_pairs(domain, large, small, data):
    eps, tau = domain
    pairs = large + [(j, round(f * j)) for j, f in small]
    if data is not None:
        pairs = data.draw(st.permutations(pairs))
    js, ms = (list(x) for x in zip(*pairs))
    with raise_fp_errors():
        singles = single_values(pairs, tau, eps)
        # every large-j value is saddle_point_log plus the boost power's log,
        # its phase wrapped once
        for (j, m), v in singles.items():
            if j > principal_series.EXACT_J_LIMIT and not isinstance(v, type):
                re, im = saddle_point_log(j, m, tau, eps)
                boost = (2 * (m + j + 1) + 1j * tau * j) * math.log(eps)
                assert (re + boost.real, wrap_phases(im + boost.imag)) == v
        # and each pair's bits are the same at every batch length
        for n in range(1, len(pairs) + 1):
            want = first_error(pairs[:n], singles)
            if want is not None:
                with pytest.raises(want):
                    diagonal_coefficients(js[:n], ms[:n], tau, eps)
                continue
            log_mag, phase = diagonal_coefficients(js[:n], ms[:n], tau, eps)
            for k in range(n):
                assert (log_mag[k], phase[k]) == singles[pairs[k]], pairs[k]


@settings(max_examples=20, deadline=None)
@given(
    eps=large_j_eps,
    frac=st.floats(-1.0, 1.0),
    im=st.sampled_from([0.0, 0.0, 0.06, -0.07]),
    j=st.integers(65, 1000),
    m=st.integers(-3, 3),
)
@example(eps=3.6, frac=0.8, im=0.0, j=65, m=3)
# a subnormal tau, where the oracle must not fail
@example(eps=0.625, frac=2.225073858507203e-309, im=0.0, j=432, m=0)
def test_large_j_route_within_benchmark_tolerance(eps, frac, im, j, m):
    # the benchmark's domain and its tolerance 6 (1 + m^2) / j for the
    # leading term's O(1/j) error
    tau = complex(frac * min(0.5, 0.8 * meeting_point(eps)), im)
    with raise_fp_errors():
        log_mag, phase = diagonal_coefficients([j, 3], [m, 0], tau, eps)
    assert rel_error(log_mag[0], phase[0], mp_coefficient(j, m, tau, eps)) <= 6.0 * (1 + m * m) / j


@pytest.mark.parametrize("tau,eps", [
    (0.449, 3.0),       # the gate: the two saddles nearly meet (passes from j = 5000)
    (0.0, 100.0),       # the gate: the saddle near t = 0 (passes from j = 5000)
    (2.0, 2.0),         # |Re tau| > 1
    (0.9 - 0.3j, 10.0),  # complex tau with Re(disc) <= 0
])
def test_large_j_batch_raises_as_its_first_failing_pair(tau, eps):
    pairs = [(3, 0), (65, 1), (200, 0), (1000, -1), (5000, 0), (20000, 2)]
    with raise_fp_errors():
        singles = single_values(pairs, tau, eps)
        assert any(v is SaddlePointDomainError for v in singles.values())
        for start in range(len(pairs)):
            js, ms = zip(*pairs[start:])
            want = first_error(pairs[start:], singles)
            if want is None:
                diagonal_coefficients(js, ms, tau, eps)
                continue
            with pytest.raises(want):
                diagonal_coefficients(js, ms, tau, eps)


# ---------------------------------------------------------------- work counts

@pytest.fixture
def kernel_rows(monkeypatch):
    """Every (j, |m|, a) row the series kernel sums; rows.calls counts the
    kernel's calls."""
    rows = Counter()
    rows.calls = 0
    original = special._sum_series

    def counted(a, b, c, w, **kwargs):
        rows.calls += 1
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


class EngineCalls(list):
    """Calls of the triple-block engine, and panels counts its panel builds."""

    panels = 0


@pytest.fixture
def engine_calls(monkeypatch):
    """The (js, tau, eps) of every call of special.triple_block_log, and
    the panels it builds, counted wherever the package holds them."""
    calls = EngineCalls()
    original, panels = special.triple_block_log, special._half_panels

    def counted(js, tau, eps):
        calls.append((tuple(np.asarray(js).tolist()), complex(tau), float(eps)))
        return original(js, tau, eps)

    def counted_panels(*args):
        calls.panels += 1
        return panels(*args)

    for name, module in list(sys.modules.items()):
        if name == "lorentz_harmonics" or name.startswith("lorentz_harmonics."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    monkeypatch.setattr(special, "_half_panels", counted_panels)
    return calls


@pytest.mark.parametrize("tau", [0.3, 0.3 + 0.05j])
def test_convergence_report_sums_each_pair_once(kernel_rows, engine_calls, tau):
    req = YMapRequest(table=dense_table(12), tau=tau, j_max=12, epsilon=1.8)
    ymap_convergence_report(req)
    assert kernel_rows.calls == 1
    assert max(kernel_rows.values()) == 1
    # the table's pairs only, |m| <= j/2 at even j; real tau: m and -m share
    # a row; complex tau: one row per (j, m)
    per_j = (lambda j: j // 2 + 1) if complex(tau).imag == 0 else (lambda j: j + 1)
    assert sum(kernel_rows.values()) == sum(per_j(j) for j in range(0, 13, 2))
    # and the blocks in one engine call
    assert engine_calls == [(tuple(range(13)), complex(tau), 1.8)]


def test_ymap_apply_sums_only_present_entries(kernel_rows):
    entries = {(4, 2): 1.0, (4, -2): 0.5j, (6, 0): 2.0, (8, 4): -1.0}
    table = FourierTableSU2(0, 8, entries)
    ymap_apply(YMapRequest(table=table, tau=0.2 + 0.01j, j_max=8, epsilon=0.7))
    # (j, m) = (4, 1), (4, -1), (6, 0), (8, 2): one row each
    assert sum(kernel_rows.values()) == 4
    assert {(j, mu) for j, mu, _ in kernel_rows} == {(4, 1), (6, 0), (8, 2)}


def test_identical_calls_do_the_work_twice(engine_calls):
    partial_sum_triple(0.25, 0.8, 20)
    assert engine_calls.panels == 2   # one per half of [0, 1]
    partial_sum_triple(0.25, 0.8, 20)
    # the same engine call, panels and all, made again
    assert engine_calls == [(tuple(range(21)), 0.25, 0.8)] * 2
    assert engine_calls.panels == 4


def test_triple_blocks_are_one_engine_call(kernel_rows, engine_calls):
    blocks = triple_blocks(0.3, 2.0, 10)
    assert len(blocks) == 11
    assert engine_calls == [(tuple(range(11)), 0.3, 2.0)]
    assert kernel_rows.calls == 0 and not kernel_rows


@pytest.fixture
def term_calls(monkeypatch):
    """Calls of special.log_gamma, saddle_point_2f1 and saddle_point_log,
    counted wherever the package holds them, as the benchmark's tracer does."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "lorentz_harmonics" or name.startswith("lorentz_harmonics.")]
    for name in ("log_gamma", "saddle_point_2f1", "saddle_point_log"):
        original = getattr(special, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_large_j_scan_is_one_saddle_call(term_calls):
    js = np.arange(65, 401)
    diagonal_coefficients(js, np.ones_like(js), 0.3, 1.6)
    assert term_calls == {"saddle_point_log": 1}


@pytest.fixture
def saddle_calls(monkeypatch):
    """The (tau, eps) of every call of special._coefficient_saddles."""
    calls = []
    original = special._coefficient_saddles

    def counted(tau, eps):
        calls.append((complex(tau), eps))
        return original(tau, eps)

    monkeypatch.setattr(special, "_coefficient_saddles", counted)
    return calls


def test_scan_finds_the_saddles_in_one_term_call(saddle_calls, term_calls):
    report = ratio_test(1, 0.2, 0.85, 400)
    assert len(report.terms) == 400
    # the 336 pairs past j = 64 are one call of the large-j term
    assert term_calls == {"saddle_point_log": 1}
    # which finds the saddles once; the predicted limit, taken at 1/eps,
    # finds them once more
    assert saddle_calls == [(0.2, 0.85), (0.2, 1.0 / 0.85)]


# signed zeros among them, on which a branch cut such as cmath.sqrt's can depend
SIGNED_KEYS = [(tau, eps) for tau in (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0),
                                      complex(0.3, -0.0), 0.3, -0.2 + 0.05j, complex(-0.0, 0.05))
               for eps in (0.32, 0.85, 1.6, 2.4)]
# past the saddles' meeting point: two saddles
SIGNED_KEYS += [(complex(0.9, -0.0), 3.6), (-0.9, 3.6)]
LARGE_PAIRS = [(65, 0), (200, -1), (400, 3)]


def test_one_pair_has_the_bits_of_its_batch_at_signed_zero_tau():
    js, ms = (np.array(x) for x in zip(*LARGE_PAIRS))
    for tau, eps in SIGNED_KEYS:
        log_mag, phase = diagonal_coefficients(js, ms, tau, eps)
        for (j, m), lm, ph in zip(LARGE_PAIRS, log_mag, phase):
            v = diagonal_coefficient(j, m, tau, eps)
            assert (v.log_mag.hex(), v.phase.hex()) == (float(lm).hex(), float(ph).hex())


def test_gate_reads_each_call_j(saddle_calls):
    # the gate's count of Gaussian widths grows with j: at eps = 3,
    # tau = 0.44, j = 400 passes it and j = 65 still fails it
    diagonal_coefficient(400, 0, 0.44, 3.0)
    with pytest.raises(SaddlePointDomainError, match="Gaussian widths"):
        diagonal_coefficient(65, 0, 0.44, 3.0)
    assert saddle_calls == [(0.44, 3.0)] * 2


def test_large_j_term_raises_at_the_extremes_of_eps():
    # at eps = 1e8, phi''(t0) rounds to 0, so the gate fails at every j before
    # log(2 pi / -phi'') would divide by zero, and phi(t0) is -2 ln(1+eps^2);
    # at eps = 1 (z = 0) the gate's 1/z divides by zero, and phi(t0) = -2 ln 2
    for _ in range(2):
        assert special.saddle_point_exponent(0.0, 1e8).real == pytest.approx(-2 * math.log1p(1e16))
        with pytest.raises(SaddlePointDomainError, match="Gaussian widths"):
            saddle_point_log(400, 0, 0.0, 1e8)
        assert special.saddle_point_exponent(0.0, 1.0).real == pytest.approx(-2 * math.log(2))
        with pytest.raises(ZeroDivisionError):
            saddle_point_log(400, 0, 0.0, 1.0)


def test_out_of_domain_tau_raises_on_every_call(saddle_calls):
    for _ in range(3):
        with pytest.raises(SaddlePointDomainError, match=r"\|Re tau\| <= 1"):
            diagonal_coefficient(200, 0, 1.2, 2.0)
    assert saddle_calls == [(1.2, 2.0)] * 3


# ------------------------------------------------------------- the block rule

@pytest.fixture
def kernel_passes(monkeypatch):
    """(rows, block length) of every kernel pass, in call order."""
    passes = []
    original = special._sum_rows

    def spied(a, b, c, w, length, out):
        passes.append((a.shape[0], length))
        return original(a, b, c, w, length, out)

    monkeypatch.setattr(special, "_sum_rows", spied)
    return passes


@pytest.mark.parametrize("eps,length", [
    # w = 1 - eps^4 below 1, 1 - eps^-4 above (after Pfaff); the tail needs
    # at least 768 terms from w = 0.9503, between eps 0.47 and 0.48 and
    # between eps 2.1 and 2.15, and at least 2,304 from w = 0.9832, between
    # eps 0.360 and 0.361 and between eps 2.77 and 2.78
    (0.32, 1536), (0.36, 1536), (0.361, 384), (0.47, 384), (0.48, 192), (0.7, 192),
    (1.6, 192), (2.1, 192), (2.15, 384), (2.77, 384), (2.78, 1536), (3.6, 1536),
])
def test_block_length_and_rows_per_pass_follow_the_rate(kernel_passes, eps, length):
    js = np.repeat(np.arange(8, 65, 8), 9)
    ms = np.tile(np.arange(-4, 5), 8)
    diagonal_coefficients(js, ms, 0.2 + 0.03j, eps)
    # a block's arrays are at most 32 x 192 entries
    rows_per_pass = 32 * 192 // length
    assert {n for _, n in kernel_passes} == {length}
    assert max(rows for rows, _ in kernel_passes) <= rows_per_pass
    # 72 rows: passes of equal size, every row summed once
    assert sum(rows for rows, _ in kernel_passes) == 72
    assert len(kernel_passes) == -(-72 // rows_per_pass)
    kernel_passes.clear()
    diagonal_coefficient(40, 1, 0.2 + 0.03j, eps)
    assert kernel_passes == [(1, length)]


# The accuracy grid: 11 eps on both tiers and both sides of 1, four tau, four
# j and five m each.  Each bound is twice the worst relative error that the
# kernel's one cumulative product of ratios per block reads against 40-digit
# mpmath.  Sums of log|ratio| (restarted every 384 terms in 1536-term blocks)
# read 3.7e-11, 6.3e-13, 5.8e-12, 2.1e-12, 9.6e-14, 1.3e-14, 8.4e-15,
# 9.4e-14, 1.8e-12, 1.4e-12 and 1.3e-11 here, failing nine of the bounds.
ACCURACY_TAUS = [0.0, 0.3, -0.2 + 0.05j, -0.45]
COLUMN_PAIRS = sorted({(j, m) for j in (1, 8, 32, 64) for m in (-j, -1, 0, j // 3, j)})
# the pairs that cancel beyond CANCELLATION_LIMIT, as with the log sums
CANCELLING = [(-0.45, 64, -1), (-0.45, 64, 0)]


ACCURACY_CASES = [
    (0.25, 1536, 2.41e-12, CANCELLING),
    (0.3, 1536, 6.80e-14, CANCELLING),
    (0.32, 1536, 2.73e-12, []),
    (0.35, 1536, 1.95e-13, []),
    (0.5, 192, 1.99e-14, []),
    (0.85, 192, 1.19e-14, []),
    (1.2, 192, 1.01e-14, []),
    (2.0, 192, 2.69e-14, []),
    (2.8, 1536, 1.78e-13, []),
    (3.6, 1536, 1.69e-13, CANCELLING),
    (5.0, 1536, 1.68e-11, [(-0.45, 32, 0)] + CANCELLING),
]


@pytest.mark.parametrize("eps,length,bound,raises", ACCURACY_CASES,
                         ids=[f"eps{case[0]}" for case in ACCURACY_CASES])
def test_long_blocks_keep_the_accuracy_of_shorter_ones(kernel_passes, eps, length, bound, raises):
    worst, raised = 0.0, []
    for tau in ACCURACY_TAUS:
        for j, m in COLUMN_PAIRS:
            try:
                v = diagonal_coefficient(j, m, tau, eps)
            except SeriesConvergenceError:
                raised.append((tau, j, m))
                continue
            worst = max(worst, rel_error(v.log_mag, v.phase, mp_coefficient(j, m, tau, eps)))
    assert worst <= bound
    assert raised == raises
    assert {n for _, n in kernel_passes} == {length}


# ---------------------------------------------- terms beyond double range

@pytest.fixture
def summed_again(monkeypatch):
    """(rows, block length) of every kernel pass made from inside another:
    the rows whose terms left double range, summed again."""
    again, depth = [], [0]
    original = special._sum_rows

    def spied(a, b, c, w, length, out):
        if depth[0]:
            again.append((a.shape[0], length))
        depth[0] += 1
        try:
            return original(a, b, c, w, length, out)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(special, "_sum_rows", spied)
    return again


# (a, b, c) at z = 0.9: rows 0 and 3 grow by more than 2^1000 within their
# first 192-term block (2F1(500, 500; 1; 0.9) is about e^2962), the others
# stay in range
GUARD_ROWS = [(500, 500, 1), (0.5 + 0.1j, 1, 2), (40 + 3j, 7, 90),
              (400 - 30j, 450, 1.5), (2 + 1j, 3, 5), (65 + 9.6j, 129, 130)]


def kernel_bits(rows, z=0.9):
    a, b, c = zip(*rows)
    return np.stack(special.hyp2f1_rows(np.array(a), np.array(b, float), np.array(c, float), z))


def test_rows_summed_again_have_their_bits_alone_and_in_a_batch(summed_again):
    batch = kernel_bits(GUARD_ROWS)
    # each out-of-range row is summed again alone, in 96-term blocks
    assert summed_again == [(1, 96), (1, 96)]
    for row, bits in zip(GUARD_ROWS, batch.T):
        assert kernel_bits([row]).tobytes() == bits.tobytes()
    # the in-range rows keep the bits of a batch without the others
    in_range = [1, 2, 4, 5]
    assert kernel_bits([GUARD_ROWS[i] for i in in_range]).tobytes() == batch[:, in_range].tobytes()
    with mp.workdps(40):
        for (a, b, c), log_mag in zip(GUARD_ROWS, batch[0]):
            ref = float(mp.log(abs(mp.hyp2f1(a, b, c, mp.mpf(0.9)))))
            assert abs(log_mag - ref) <= 1e-11 * max(1.0, abs(ref))


def test_terms_lost_to_underflow_are_summed_again(summed_again):
    # a = -3 + 1e-200 i and b = -10 + 1e-200 i: two ratios near 1e-200 take
    # the product of a 192-term block's ratios to zero while its last ratio
    # is above 1 (c + k is small near k = 150), so the row is summed again in
    # shorter blocks; its value is the terminating polynomial at a = -3,
    # b = -10 to every digit read
    a, b, c, z = -3.0, -10.0, -150.5, 0.9
    t, s = 1.0, 1.0
    for n in range(3):
        t *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        s += t
    got = special.hyp2f1(a + 1e-200j, b + 1e-200j, c, z).to_complex()
    assert summed_again
    assert got.real == pytest.approx(s, rel=1e-14)
    assert abs(got.imag) <= 1e-190


@pytest.mark.parametrize("eps", [0.32, 0.85, 2.15, 3.6])
def test_no_exact_route_pair_leaves_double_range(summed_again, eps):
    # every exact-route pair (j <= 64, all m) at the edges of the benchmark's
    # strata: the largest term relative to the one before its block is below
    # 2^440 there, far inside the 2^1000 bound
    js = np.repeat(np.arange(65), 2 * np.arange(65) + 1)
    ms = np.concatenate([np.arange(-j, j + 1) for j in range(65)])
    for tau in (0.5, -0.5 + 0.06j, 0.5j):
        try:
            diagonal_coefficients(js, ms, tau, eps, against_largest=js)
        except SeriesConvergenceError:
            pass
    assert summed_again == []
