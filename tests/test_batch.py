"""Batch evaluation of the diagonal coefficients: one series-kernel call and
one saddle-point call per batch, bit-for-bit agreement with one-pair calls,
the Euler reflection of the m > 0 rows, the (j, m) grid read in one call with
each column judged on its own, how much work each caller asks of the kernel
and of the large-j term, and the kernel's block length, set by the series'
rate alone."""
import cmath
import math
import sys
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentz_harmonics import LogComplexValue, principal_series, special
from lorentz_harmonics.expansion import partial_sum_triple, triple_blocks
from lorentz_harmonics.principal_series import (
    diagonal_coefficient,
    diagonal_coefficients,
)
from lorentz_harmonics.special import (
    SaddlePointDomainError,
    SeriesConvergenceError,
    saddle_point_2f1,
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
# 72 pairs of slow series (384-term blocks), in five passes of the kernel's rows
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
        # every large-j value is saddle_point_2f1 times the boost power
        for (j, m), v in singles.items():
            if j > principal_series.EXACT_J_LIMIT and not isinstance(v, type):
                boost = LogComplexValue.from_log((2 * (m + j + 1) + 1j * tau * j) * math.log(eps))
                term = saddle_point_2f1(j, m, tau, eps) * boost
                assert (term.log_mag, term.phase) == v
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


@pytest.mark.parametrize("tau", [0.3, 0.3 + 0.05j])
def test_convergence_report_sums_each_pair_once(kernel_rows, tau):
    req = YMapRequest(table=dense_table(12), tau=tau, j_max=12, epsilon=1.8)
    ymap_convergence_report(req)
    assert kernel_rows.calls == 1
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
    assert kernel_rows.calls == 1
    assert sum(kernel_rows.values()) == sum(j + 1 for j in range(11))


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
    # between eps 2.1 and 2.15
    (0.32, 384), (0.47, 384), (0.48, 192), (0.7, 192),
    (1.6, 192), (2.1, 192), (2.15, 384), (3.6, 384),
])
def test_block_length_and_rows_per_pass_follow_the_rate(kernel_passes, eps, length):
    js = np.repeat(np.arange(8, 65, 8), 9)
    ms = np.tile(np.arange(-4, 5), 8)
    diagonal_coefficients(js, ms, 0.2 + 0.03j, eps)
    assert {n for _, n in kernel_passes} == {length}
    assert max(rows for rows, _ in kernel_passes) <= (16 if length == 384 else 32)
    # 72 rows: passes of equal size, every row summed once
    assert sum(rows for rows, _ in kernel_passes) == 72
    assert len(kernel_passes) == -(-72 // (16 if length == 384 else 32))
    kernel_passes.clear()
    diagonal_coefficient(40, 1, 0.2 + 0.03j, eps)
    assert kernel_passes == [(1, length)]
