import math

import numpy as np
import pytest

from lorentz_harmonics.expansion import triple_blocks
from lorentz_harmonics.principal_series import EpsilonDomainError, diagonal_coefficient
from lorentz_harmonics.wigner import FourierTableSU2
from lorentz_harmonics.ymap import YMapRequest, ymap_apply, ymap_convergence_report
from oracle import CoefficientIndex, PrincipalSeriesLabel, duc_hieu_general

# scanning past the band is the point of several cases here
pytestmark = pytest.mark.filterwarnings("ignore:table band")


def band8_table(scale: float = 1.0) -> FourierTableSU2:
    rng = np.random.default_rng(11)
    entries = {}
    for tj in range(0, 9, 2):
        for tm in range(-tj, tj + 1, 2):
            entries[(tj, tm)] = scale * complex(
                0.5**tj * (1.0 + 0.3 * rng.standard_normal()),
                0.1 * 0.5**tj * rng.standard_normal(),
            )
    return FourierTableSU2(0, 8, entries)


# ------------------------------------------------------------------ requests

def test_request_validation():
    tab = band8_table()
    with pytest.raises(EpsilonDomainError):
        YMapRequest(table=tab, tau=0.0, j_max=20, epsilon=-2.0)
    for eps in (math.inf, math.nan):
        with pytest.raises(EpsilonDomainError, match="finite"):
            YMapRequest(table=tab, tau=0.0, j_max=20, epsilon=eps)
    tabp = FourierTableSU2(4, 8, {})
    with pytest.raises(ValueError):
        YMapRequest(table=tabp, tau=0.0, j_max=2, epsilon=2.0)


# ----------------------------------------------------------------- map values

def test_band_zero_table_single_term():
    tab = FourierTableSU2(0, 0, {(0, 0): 1.5 + 0.5j})
    rep = ymap_apply(YMapRequest(table=tab, tau=0.0, j_max=10, epsilon=2.0))
    want = (1.5 + 0.5j) * diagonal_coefficient(0, 0, 0.0, 2.0).to_complex()
    assert all(s == pytest.approx(want, rel=1e-12) for s in rep.partial_sums)


def test_sums_freeze_beyond_the_band():
    tab = band8_table()
    rep = ymap_apply(YMapRequest(table=tab, tau=0.3, j_max=100, epsilon=2.0))
    tail = rep.partial_sums[8:]
    assert all(s == tail[0] for s in tail)
    assert rep.verdict == "converged"


def test_odd_row_label_maps_to_zero():
    # integer column lookups need even keys; an odd-p table has none
    entries = {(tj, tm): 1.0 + 0j for tj in (1, 3) for tm in range(-tj, tj + 1, 2)}
    tab = FourierTableSU2(1, 3, entries)
    rep = ymap_apply(YMapRequest(table=tab, tau=0.0, j_max=12, epsilon=2.0))
    assert all(s == 0j for s in rep.partial_sums)


def test_linearity_in_the_table():
    t1 = band8_table(1.0)
    t2 = band8_table(-0.25)
    combo = FourierTableSU2(
        0, 8, {k: t1.entries[k] + t2.entries[k] for k in t1.entries}
    )
    r1 = ymap_apply(YMapRequest(table=t1, tau=0.3, j_max=20, epsilon=0.5))
    r2 = ymap_apply(YMapRequest(table=t2, tau=0.3, j_max=20, epsilon=0.5))
    rc = ymap_apply(YMapRequest(table=combo, tau=0.3, j_max=20, epsilon=0.5))
    for a, b, c in zip(r1.partial_sums, r2.partial_sums, rc.partial_sums):
        assert c == pytest.approx(a + b, rel=1e-11, abs=1e-13)


def test_band_limit_warning():
    tab = FourierTableSU2(0, 2, {(0, 0): 1.0})
    with pytest.warns(UserWarning, match="zero-extension"):
        ymap_apply(YMapRequest(table=tab, tau=0.0, j_max=40, epsilon=2.0))


def test_unit_boost_rejected():
    tab = band8_table()
    with pytest.raises(EpsilonDomainError):
        ymap_apply(YMapRequest(table=tab, tau=0.0, j_max=20, epsilon=1.0))


def test_collapsed_sum_matches_general_coefficient_triple_sum():
    # at oracle scale, summing the general coefficient over both column indices
    # reproduces the collapsed single-index sum
    tab = FourierTableSU2(
        0, 4, {(tj, tm): complex(0.3 * (tj + 1), 0.1 * tm) for tj in (0, 2, 4)
               for tm in range(-tj, tj + 1, 2)}
    )
    tau, eps, j_top = 0.3, 2.0, 4
    rep = ymap_apply(YMapRequest(table=tab, tau=tau, j_max=j_top, epsilon=eps))
    collapsed = rep.partial_sums[-1]

    full = 0j
    for j in range(0, j_top + 1):
        lab = PrincipalSeriesLabel.simple(j, tau)
        for m in range(-j, j + 1):
            d = tab.get(j, 2 * m)
            if d == 0:
                continue
            for n in range(-j, j + 1):
                coeff = duc_hieu_general(lab, CoefficientIndex(j, j, m, n), eps)
                if not coeff.is_zero:
                    full += d * coeff.to_complex()
    assert full == pytest.approx(collapsed, rel=1e-9)


# -------------------------------------------------------------------- bounds

def test_majorization_bounds_dominate_partial_sums():
    tab = band8_table()
    for eps in (0.5, 2.0):
        req = YMapRequest(table=tab, tau=0.3, j_max=80, epsilon=eps)
        bounds = ymap_convergence_report(req)
        assert bounds.fourier_verdict == "converged"
        assert bounds.coefficient_verdict == "converged"
        assert bounds.verdict == "converged"
        assert bounds.fourier_sum_bound == pytest.approx(
            math.fsum(abs(v) for v in tab.entries.values()), rel=1e-12
        )
        for s_abs, pb in zip(bounds.apply_abs, bounds.product_partials):
            assert s_abs <= pb * (1.0 + 1e-12) + 1e-15


@pytest.mark.parametrize("p, tau", [(0, 0.3), (0, 0.2 - 0.05j), (2, 0.3)])
def test_report_terms_match_ymap_apply(p, tau):
    # the report's |S_J| are those of ymap_apply's partial sums
    rng = np.random.default_rng(3)
    entries = {(tj, tm): complex(*rng.standard_normal(2)) * 0.5**tj
               for tj in range(p, 9, 2) for tm in range(-tj, tj + 1, 2)}
    req = YMapRequest(table=FourierTableSU2(p, 8, entries), tau=tau, j_max=12, epsilon=0.7)
    applied = [abs(s) for s in ymap_apply(req).partial_sums]
    assert ymap_convergence_report(req).apply_abs == pytest.approx(applied, rel=1e-12)


@pytest.mark.parametrize("p", [0, 2])
def test_report_partials_are_running_sums(p):
    # the report's cumsums add left to right, as a running-sum loop does, so
    # they equal the loop bit for bit
    rng = np.random.default_rng(5)
    entries = {(tj, tm): complex(*rng.standard_normal(2)) * 0.5**tj
               for tj in range(p, 9, 2) for tm in range(-tj, tj + 1, 2)}
    table = FourierTableSU2(p, 8, entries)
    bounds = ymap_convergence_report(YMapRequest(table=table, tau=0.3, j_max=12, epsilon=0.7))
    rows = table.abs_sum_by_row()
    f, c, fs, cs = 0.0, 0.0, [], []
    for j, block in enumerate(triple_blocks(0.3, 0.7, 12)):
        c += abs(block)
        if j >= p:
            f += rows.get(j, 0.0)
            fs.append(f)
            cs.append(c)
    assert bounds.js == tuple(range(p, 13))
    assert bounds.fourier_partials == tuple(fs)
    assert bounds.coefficient_partials == tuple(cs)
    assert bounds.product_partials == tuple(a * b for a, b in zip(fs, cs))


def test_coefficient_bound_uses_column_sums():
    tab = band8_table()
    req = YMapRequest(table=tab, tau=0.0, j_max=12, epsilon=2.0)
    bounds = ymap_convergence_report(req)
    blocks = triple_blocks(0.0, 2.0, 12)
    want = math.fsum(abs(b) for b in blocks)
    assert bounds.coefficient_sum_bound == pytest.approx(want, rel=1e-12)


def test_coefficient_bound_tail_ratio_within_track_limits():
    from statistics import median

    blocks = triple_blocks(0.0, 2.0, 200)
    ratios = [abs(blocks[j + 1]) / abs(blocks[j]) for j in range(190, 200)]
    med = median(ratios)
    lo = 0.16   # pinned-to-j track limit at eps = 2
    hi = 0.64   # pinned-to-0 track limit at eps = 2
    assert lo * 0.98 <= med <= hi * 1.02
