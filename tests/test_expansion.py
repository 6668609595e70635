import math
import tracemalloc

import mpmath as mp
import pytest

from lorentz_harmonics.expansion import (
    CoefficientTable,
    ExpansionConfig,
    PI_SQUARED_OVER_6,
    SingularTauError,
    divergence_probe,
    norm_identity,
    partial_sum_diagonal,
    partial_sum_triple,
    synthesize,
    triple_blocks,
)
from lorentz_harmonics.principal_series import (
    EpsilonDomainError,
    IndexRangeError,
    boundary_ratio_test,
    diagonal_coefficient,
    ratio_test,
)
from lorentz_harmonics.wigner import FourierTableSU2
from lorentz_harmonics.ymap import YMapRequest, ymap_apply, ymap_convergence_report


# ---------------------------------------------------------------- containers

def test_config_validation():
    ExpansionConfig(tau=0.0, m=0, epsilon=2.0, j_max=10)
    with pytest.raises(EpsilonDomainError):
        ExpansionConfig(tau=0.0, m=0, epsilon=-1.0, j_max=10)
    with pytest.raises(ValueError):
        ExpansionConfig(tau=0.0, m=0, epsilon=2.0, j_max=0)
    with pytest.raises(ValueError):
        ExpansionConfig(tau=0.0, m=0, epsilon=2.0, j_max=10, cauchy_window=0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite_epsilon_and_tolerance(value):
    with pytest.raises(EpsilonDomainError):
        ExpansionConfig(tau=0.0, m=0, epsilon=value, j_max=10)
    # an infinite tolerance would make every scan "converged"
    with pytest.raises(ValueError, match="Cauchy"):
        ExpansionConfig(tau=0.0, m=0, epsilon=2.0, j_max=10, cauchy_tolerance=value)


# every series diagnostic needs a boost: check_boost is the one rule
BOOST_SERIES = {
    "ratio_test": lambda eps: ratio_test(0, 0.0, eps, 30),
    "boundary_ratio_test": lambda eps: boundary_ratio_test("m_equals_0", 0.0, eps, 30),
    "partial_sum_diagonal": lambda eps: partial_sum_diagonal(
        ExpansionConfig(tau=0.0, m=0, epsilon=eps, j_max=10)),
    "partial_sum_triple": lambda eps: partial_sum_triple(0.3, eps, 10),
    "synthesize": lambda eps: synthesize(CoefficientTable(m=0, entries={1: 1.0}), 0.0, eps, 10),
    "YMapRequest": lambda eps: YMapRequest(
        table=FourierTableSU2(0, 4, {(0, 0): 1.0}), tau=0.3, j_max=4, epsilon=eps),
}


@pytest.mark.parametrize("series", sorted(BOOST_SERIES))
def test_series_diagnostics_reject_eps_one_and_non_finite_eps(series):
    with pytest.raises(EpsilonDomainError, match="eps != 1"):
        BOOST_SERIES[series](1.0)
    for eps in (math.inf, math.nan, 0.0):
        with pytest.raises(EpsilonDomainError, match="positive and finite"):
            BOOST_SERIES[series](eps)


def _ymap_request(tol, window):
    table = FourierTableSU2(0, 4, {(0, 0): 1.0, (2, 0): 0.5, (4, 2): 0.25j})
    return YMapRequest(table=table, tau=0.3, j_max=4, epsilon=2.0,
                       cauchy_tolerance=tol, cauchy_window=window)


# every series verdict goes through reports.cauchy_verdict
CAUCHY_SERIES = {
    "ratio_test": lambda tol, window: ratio_test(
        0, 0.0, 2.0, 30, cauchy_tolerance=tol, cauchy_window=window),
    "boundary_ratio_test": lambda tol, window: boundary_ratio_test(
        "m_equals_0", 0.0, 2.0, 30, cauchy_tolerance=tol, cauchy_window=window),
    "partial_sum_triple": lambda tol, window: partial_sum_triple(
        0.0, 2.0, 30, cauchy_tolerance=tol, cauchy_window=window),
    "synthesize": lambda tol, window: synthesize(
        CoefficientTable.geometric(0, 0.5, 20), 0.0, 2.0, 30,
        cauchy_tolerance=tol, cauchy_window=window),
    "ymap_apply": lambda tol, window: ymap_apply(_ymap_request(tol, window)),
    "ymap_convergence_report": lambda tol, window: ymap_convergence_report(
        _ymap_request(tol, window)),
}


@pytest.mark.parametrize("tol, window", [
    (math.inf, 10), (math.nan, 10), (0.0, 10), (-1.0, 10), (1e-6, 0), (1e-6, -3),
])
@pytest.mark.parametrize("series", sorted(CAUCHY_SERIES))
def test_series_reject_invalid_cauchy_settings(series, tol, window):
    # an infinite tolerance or a zero window made these scans "converged"
    with pytest.raises(ValueError, match="Cauchy"):
        CAUCHY_SERIES[series](tol, window)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_triple_sum_rejects_non_finite_epsilon(eps):
    with pytest.raises(EpsilonDomainError, match="finite"):
        partial_sum_triple(0.3, eps, 10)


def test_coefficient_table_entries_and_ratio():
    t = CoefficientTable(m=1, entries={1: 1.0, "2": 0.5, 3.0: 0.25})
    assert t.entries == {1: 1 + 0j, 2: 0.5 + 0j, 3: 0.25 + 0j}
    assert all(type(j) is int and type(v) is complex for j, v in t.entries.items())
    assert t.support() == [1, 2, 3] and t.get(4) == 0j
    assert t.tail_ratio() == pytest.approx(0.5)
    assert CoefficientTable(m=0).tail_ratio() is None
    with pytest.raises(ValueError):
        CoefficientTable(m=0, entries={-2: 1.0})


# (call of one label or size, a value that is not an integer, an integer)
LABEL_CALLS = {
    "config_j_max": (lambda j: ExpansionConfig(tau=0.3, m=0, epsilon=2.0, j_max=j), 30.7, 30),
    "config_m": (lambda m: ExpansionConfig(tau=0.3, m=m, epsilon=2.0, j_max=30), 1.5, 1),
    "table_key": (lambda j: CoefficientTable(0, {j: 1.0}), 2.5, 2),
    "table_key_bool": (lambda j: CoefficientTable(0, {j: 1.0}), True, 1),
    "geometric_m": (lambda m: CoefficientTable.geometric(m, 0.5, 20), 1.7, 1),
    "geometric_j_max": (lambda j: CoefficientTable.geometric(0, 0.5, j), 20.5, 20),
    "synthesize_m": (lambda m: synthesize(CoefficientTable(m, {3: 1.0}), 0.3, 2.0, 30), 1.5, 1),
    "synthesize_j_max": (lambda j: synthesize(CoefficientTable(0, {3: 1.0}), 0.3, 2.0, j), 30.7, 30),
    "probe_checkpoint": (lambda j: divergence_probe(0.0, [j, 100]), 10.5, 10),
    "norm_j_max": (lambda j: norm_identity(0.0, j), 10.9, 10),
    "ratio_j_max": (lambda j: ratio_test(0, 0.3, 2.0, j), 30.7, 30),
    "boundary_j_max": (lambda j: boundary_ratio_test("m_equals_0", 0.3, 2.0, j), 30.7, 30),
    "triple_j_max": (lambda j: partial_sum_triple(0.3, 2.0, j), 30.7, 30),
    "ymap_j_max": (lambda j: YMapRequest(FourierTableSU2(0, 4, {}), 0.3, j, 2.0), 6.5, 6),
}


@pytest.mark.parametrize("name", LABEL_CALLS)
def test_non_integral_sizes_and_labels_are_rejected_not_truncated(name):
    call, bad, good = LABEL_CALLS[name]
    with pytest.raises(IndexRangeError, match="is not an integer"):
        call(bad)
    # an integral float is the integer, to the bit
    assert call(float(good)) == call(good)


# ------------------------------------------------------------- diagonal sums

def test_diagonal_sum_converges():
    cfg = ExpansionConfig(tau=0.0, m=0, epsilon=2.0, j_max=300)
    rep = partial_sum_diagonal(cfg)
    assert rep.verdict == "converged"
    assert rep.cauchy_delta < 1e-6
    assert rep.params["j_start"] == 1
    assert "j0_value" in rep.extras


def test_diagonal_sum_starts_at_abs_m():
    cfg = ExpansionConfig(tau=0.0, m=3, epsilon=2.0, j_max=40)
    rep = partial_sum_diagonal(cfg)
    assert rep.terms[0].j == 3
    assert "j0_value" not in rep.extras


def test_diagonal_sum_tail_ratio_matches_limit():
    cfg = ExpansionConfig(tau=0.0, m=0, epsilon=2.0, j_max=300)
    rep = partial_sum_diagonal(cfg)
    assert rep.empirical_limit == pytest.approx(0.64, rel=0.02)


def test_diagonal_sum_unit_boost_rejected():
    with pytest.raises(EpsilonDomainError):
        partial_sum_diagonal(ExpansionConfig(tau=0.0, m=0, epsilon=1.0, j_max=50))


def test_diagonal_sum_grid_converges():
    for eps in (0.3, 0.5, 2.0, 4.0):
        for m in (0, 1, 3):
            for tau in (0.0, 0.5):
                cfg = ExpansionConfig(tau=tau, m=m, epsilon=eps, j_max=300)
                rep = partial_sum_diagonal(cfg)
                assert rep.verdict == "converged", (eps, m, tau)


def test_cauchy_deltas_decay_at_the_ratio_limit():
    cfg = ExpansionConfig(tau=0.0, m=0, epsilon=2.0, j_max=60)
    ps = partial_sum_diagonal(cfg).partial_sums
    limit = 0.64

    def delta(idx):
        return abs(ps[idx] - ps[idx - 10])

    for idx in (-1, -11):
        rate = (delta(idx) / delta(idx - 10)) ** (1 / 10)
        assert abs(rate - limit) / limit < 0.10


# --------------------------------------------------------------- triple sums

def test_triple_blocks_match_manual_column_sums():
    for j in (0, 1, 3, 20, 64):
        manual = sum(
            diagonal_coefficient(j, m, 0.3, 2.0).to_complex() for m in range(-j, j + 1)
        )
        blocks = triple_blocks(0.3, 2.0, j)
        assert blocks[j] == pytest.approx(manual, rel=1e-12)
    assert len(triple_blocks(0.0, 2.0, 5)) == 6


def test_triple_sum_converges_both_sides_of_one():
    for eps in (0.5, 2.0):
        rep = partial_sum_triple(0.0, eps, 300)
        assert rep.verdict == "converged"
        assert rep.terms[0].j == 0


# ------------------------------------------------------------- norm identity

def test_norm_identity_real_tau():
    rep = norm_identity(0.0, 10**6)
    assert rep.target.real == pytest.approx(PI_SQUARED_OVER_6, rel=1e-15)
    assert rep.computed.real == pytest.approx(1.6449331, rel=1e-6)
    assert rep.deviation < 1e-5
    rep1 = norm_identity(1.0, 10**6)
    assert rep1.target.real == pytest.approx(math.pi**2 / 12.0, rel=1e-14)
    assert rep1.deviation < 1e-5


def test_norm_identity_deviation_bounded_by_tail():
    for tau in (0.0, 0.5, 1.0, 3.0):
        rep = norm_identity(tau, 10**5)
        assert rep.deviation <= rep.tail_bound + 1e-12


def test_norm_identity_singular_tau():
    for tau in (1j, -1j):
        with pytest.raises(SingularTauError):
            norm_identity(tau, 100)


def test_norm_identity_complex_tau_modulus():
    tau = 0.5 + 0.25j
    rep = norm_identity(tau, 10**5)
    denom = 1.0 + tau * tau
    assert rep.target == pytest.approx(PI_SQUARED_OVER_6 / denom, rel=1e-14)
    assert isinstance(rep.deviation, float)


def test_norm_type_sums_bounded_memory_and_match_mpmath():
    # both sums built one array of the whole range: 24 bytes a term, a
    # 240 MB peak here
    n = 10**7
    tracemalloc.start()
    try:
        norm = norm_identity(0.0, n)
        probe = divergence_probe(0.0, [10, n])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    with mp.workdps(30):
        want_norm = mp.zeta(2) - mp.zeta(2, n + 1)
        want_probe = 2 * mp.harmonic(n) + want_norm
    assert norm.computed.real == pytest.approx(float(want_norm), rel=1e-14)
    assert probe.partial_sums[-1].real == pytest.approx(float(want_probe), rel=1e-14)


# ---------------------------------------------------------------- divergence

def test_divergence_probe_log_growth():
    rep = divergence_probe(0.0, [10**3, 10**5])
    assert rep.verdict == "diverged"
    want = 2.0 * math.log(100.0)
    assert abs(rep.increments[-1].real - want) / want < 0.05
    rep1 = divergence_probe(1.0, [10**3, 10**5])
    assert abs(rep1.increments[-1].real - want / 2.0) / (want / 2.0) < 0.05
    assert rep1.verdict == "diverged"


def test_divergence_probe_sums_increase():
    rep = divergence_probe(0.0, [10, 100, 1000, 10000])
    reals = [s.real for s in rep.partial_sums]
    assert all(b > a for a, b in zip(reals, reals[1:]))


def test_divergence_probe_validation():
    with pytest.raises(SingularTauError):
        divergence_probe(1j, [10, 100])
    with pytest.raises(ValueError):
        divergence_probe(0.0, [100])
    # a repeated checkpoint gave a zero model increment to divide by
    for cps in ([5, 5], [10, 100, 10]):
        with pytest.raises(ValueError, match="distinct"):
            divergence_probe(0.0, cps)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_divergence_probe_rejects_invalid_tolerance(tol):
    # -1 and 0 would make every probe 'diverged', nan and inf every one 'inconclusive'
    with pytest.raises(ValueError, match="positive and finite"):
        divergence_probe(0.0, [10, 100], cauchy_tolerance=tol)


# ----------------------------------------------------------------- synthesis

def test_synthesize_single_entry_reproduces_scaled_coefficient():
    tau = 0.5
    tab = CoefficientTable(m=2, entries={5: 1.0})
    rep = synthesize(tab, tau, 2.0, 60)
    want = 25.0 * (1.0 + tau * tau) * diagonal_coefficient(5, 2, tau, 2.0).to_complex()
    for j, s in zip((t.j for t in rep.terms), rep.partial_sums):
        if j >= 5:
            assert s == pytest.approx(want, rel=1e-12)
        else:
            assert s == 0j


def test_synthesize_geometric_table_converges():
    tab = CoefficientTable.geometric(0, 0.5, 250)
    rep = synthesize(tab, 0.0, 2.0, 250)
    assert rep.verdict == "converged"
    assert rep.params["coefficient_tail_ratio"] == pytest.approx(0.5, rel=1e-9)


def test_synthesize_empty_table_is_zero():
    rep = synthesize(CoefficientTable(m=0), 0.0, 2.0, 30)
    assert all(s == 0j for s in rep.partial_sums)


@pytest.mark.filterwarnings("ignore:coefficient table tail ratio")
def test_synthesize_is_linear_in_the_table():
    t1 = CoefficientTable(m=0, entries={2: 1.0, 4: 0.25})
    t2 = CoefficientTable(m=0, entries={3: 0.5 - 0.5j, 4: 1j})
    combo = CoefficientTable(
        m=0,
        entries={
            j: t1.get(j) + 2.0 * t2.get(j) for j in set(t1.entries) | set(t2.entries)
        },
    )
    r1 = synthesize(t1, 0.3, 2.0, 20)
    r2 = synthesize(t2, 0.3, 2.0, 20)
    rc = synthesize(combo, 0.3, 2.0, 20)
    for a, b, c in zip(r1.partial_sums, r2.partial_sums, rc.partial_sums):
        assert c == pytest.approx(a + 2.0 * b, rel=1e-12, abs=1e-12)


def test_synthesize_warns_on_growing_table():
    tab = CoefficientTable(m=0, entries={j: 2.0**j for j in range(1, 30)})
    with pytest.warns(UserWarning, match="tail ratio"):
        synthesize(tab, 0.0, 2.0, 30)


def test_synthesize_rejects_singular_tau():
    with pytest.raises(SingularTauError):
        synthesize(CoefficientTable(m=0, entries={1: 1.0}), 1j, 2.0, 20)
