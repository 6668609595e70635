"""Acceptance suite: one test per criterion, each printing a pass line with its
measured figure.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 2 is parametrized over its full (m, tau, eps) grid and checks the
large-j route (the saddle point of the Euler integral, at fixed m and
|Re tau| <= 1) against exact evaluation.  Its relative error falls like 1/j at
tau = 0 and at tau = 0.5 alike; at tau = 0.5, m = 0 it is 8.3e-2, 4.4e-2,
2.3e-2, 1.2e-2 along j = 8, 16, 32, 64.

Criterion 3 checks the tail ratio |D_{j+1}/D_j| at j = 200 against the
tau-dependent limit predicted_diagonal_ratio(eps, tau), which reduces to
4 eps^2/(eps^2+1)^2 = 0.64 at tau = 0 and is 0.61733 at tau = 0.5 (eps = 2
or 1/2), in agreement with 50-digit mpmath ratios.
"""
import cmath
import math

import numpy as np
import pytest

from lorentz_harmonics.expansion import (
    CoefficientTable,
    SingularTauError,
    divergence_probe,
    norm_identity,
    synthesize,
)
from lorentz_harmonics.lie_group import QuadratureGrid, su2_from_euler
from lorentz_harmonics.principal_series import (
    boundary_ratio_test,
    diagonal_coefficient,
    ratio_test,
)
from lorentz_harmonics.wigner import (
    FourierTableSU2,
    SpinLabel,
    paley_wiener_report,
    parseval_sum,
    su2_fourier,
    synthesize_su2,
    wigner_D,
)
from lorentz_harmonics.ymap import YMapRequest, ymap_apply, ymap_convergence_report
from oracle import CoefficientIndex, PrincipalSeriesLabel, duc_hieu_general


def _announce(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def rel_between(a, b) -> float:
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, a.phase - b.phase)) - 1.0)


def test_criterion_01_oracle_equivalence():
    """General-formula coefficients match the diagonal closed form to 1e-9 and
    vanish exactly off the diagonal."""
    worst = 0.0
    for j in range(0, 7):
        for tau in (0.0, 0.3, 1 + 0.2j):
            lab = PrincipalSeriesLabel.simple(j, tau)
            for m in range(-j, j + 1):
                for eps in (0.5, 2.0):
                    dh = duc_hieu_general(lab, CoefficientIndex.diagonal(j, m), eps)
                    dg = diagonal_coefficient(j, m, tau, eps)
                    worst = max(worst, rel_between(dh, dg))
            for m in range(-j, j + 1):
                for n in range(-j, j + 1):
                    if m != n:
                        assert duc_hieu_general(
                            lab, CoefficientIndex(j, j, m, n), 2.0
                        ).is_zero
    assert worst < 1e-9
    _announce("criterion 1 (oracle equivalence)", f"worst rel dev {worst:.2e}")


@pytest.mark.parametrize("eps", [0.5, 2.0])
@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("m", [0, 1])
def test_criterion_02_asymptotic_error_halves(m, tau, eps):
    """Relative error of the large-j approximation decreases along
    j in {8, 16, 32, 64} with steps at most 1.5x ideal halving, and is
    below 5% at j = 64."""
    errs = []
    for j in (8, 16, 32, 64):
        exact = diagonal_coefficient(j, m, tau, eps, method="exact")
        asym = diagonal_coefficient(j, m, tau, eps, method="asymptotic")
        errs.append(rel_between(asym, exact))
    for lo, hi in zip(errs, errs[1:]):
        assert hi <= 1.5 * 0.5 * lo, f"error step {hi / lo:.3f} exceeds 0.75 (errs={errs})"
    assert errs[-1] < 0.05
    _announce(
        f"criterion 2 (asymptotic halving) m={m} tau={tau} eps={eps}",
        f"errors {['%.3e' % e for e in errs]}",
    )


def test_criterion_03_diagonal_ratio_limits():
    """Tail ratios at j = 200 within 2% of the limit predicted for their own
    tau (4 eps^2/(eps^2+1)^2 = 0.64 at tau = 0, 0.61733 at tau = 0.5), with
    identical predictions for eps and 1/eps."""
    worst = 0.0
    for m in (0, 1, 3):
        for tau in (0.0, 0.5):
            for eps in (0.5, 2.0):
                rep = ratio_test(m, tau, eps, 200)
                worst = max(worst, rep.relative_deviation)
                assert rep.relative_deviation < 0.02, (m, tau, eps)
    r_up = ratio_test(0, 0.0, 2.0, 60)
    r_dn = ratio_test(0, 0.0, 0.5, 60)
    assert r_up.predicted_limit == r_dn.predicted_limit == pytest.approx(0.64)
    _announce("criterion 3 (ratio limits)", f"worst deviation {worst:.4f}")


def test_criterion_04_bounding_sum_limits():
    """Bounding-track tail ratios within 3% of their closed forms by j = 200."""
    devs = {}
    for eps in (0.5, 2.0):
        bj = boundary_ratio_test("m_equals_j", 0.0, eps, 200)
        b0 = boundary_ratio_test("m_equals_0", 0.0, eps, 200)
        assert bj.relative_deviation < 0.03
        assert b0.relative_deviation < 0.03
        devs[eps] = (bj.relative_deviation, b0.relative_deviation)
    assert boundary_ratio_test("m_equals_j", 0.0, 2.0, 200).predicted_limit == pytest.approx(0.16)
    _announce("criterion 4 (bounding sums)", f"deviations {devs}")


def test_criterion_05_norm_identity():
    """Truncated norm series within 1e-5 of its closed form; the singular
    parameters are rejected."""
    for tau in (0.0, 1.0):
        rep = norm_identity(tau, 10**6)
        assert rep.deviation < 1e-5, tau
    for tau in (1j, -1j):
        with pytest.raises(SingularTauError):
            norm_identity(tau, 10)
    _announce("criterion 5 (norm identity)", "deviations < 1e-5 at tau in {0, 1}")


def test_criterion_06_divergence_growth():
    """Partial sums grow by 2 ln(100)/(1+tau^2) within 5% between checkpoints
    1e3 and 1e5, and the verdict is 'diverged'."""
    for tau, want in ((0.0, 2 * math.log(100.0)), (1.0, math.log(100.0))):
        rep = divergence_probe(tau, [10**3, 10**5])
        inc = rep.increments[-1].real
        assert abs(inc - want) / want < 0.05
        assert rep.verdict == "diverged"
    _announce("criterion 6 (divergence)", f"increment {inc:.4f} vs model {want:.4f}")


def test_criterion_07_su2_fourier_round_trip(rng):
    """Transform-then-synthesize reproduces a band-limited function at 50
    random points to 1e-10, and the coefficient energy matches the L2 norm."""
    coeffs = {
        (tj, tm): complex(rng.normal(), rng.normal())
        for tj in range(0, 9, 2)
        for tm in range(-tj, tj + 1, 2)
    }

    def phi(u):
        return sum(c * wigner_D(SpinLabel(tj), 0, tm, u) for (tj, tm), c in coeffs.items())

    table = su2_fourier(phi, p=0, band_limit=8)
    worst = 0.0
    for _ in range(50):
        u = su2_from_euler(
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0, math.pi),
            rng.uniform(0, 4 * math.pi),
        )
        worst = max(worst, abs(synthesize_su2(table, u) - phi(u)))
    assert worst < 1e-10
    grid = QuadratureGrid(16)
    values = grid.sample(phi)
    l2 = float(np.sum(np.abs(values) ** 2 * grid.weight_array()))
    parseval_gap = abs(l2 - parseval_sum(table))
    assert parseval_gap < 1e-10
    _announce(
        "criterion 7 (round trip)",
        f"worst point error {worst:.2e}, energy gap {parseval_gap:.2e}",
    )


def test_criterion_08_coefficient_decay():
    """sup_m |entry| (j/2)^n is non-increasing over the top half of a band-24
    table of exp(Re tr u) for n = 0..4."""
    def phi(u):
        return complex(math.exp((u.matrix[0, 0] + u.matrix[1, 1]).real))

    table = su2_fourier(phi, p=0, band_limit=24, grid=QuadratureGrid(32))
    report = paley_wiener_report(table, [0, 1, 2, 3, 4])
    for n in range(5):
        assert report.non_increasing_top_half[n], (n, report.scaled[n])
    _announce(
        "criterion 8 (coefficient decay)",
        f"noise floor {report.noise_floor:.2e}, flags all true",
    )


def _band8_table() -> FourierTableSU2:
    rng = np.random.default_rng(11)
    entries = {}
    for tj in range(0, 9, 2):
        for tm in range(-tj, tj + 1, 2):
            entries[(tj, tm)] = complex(
                0.5**tj * (1.0 + 0.3 * rng.standard_normal()),
                0.1 * 0.5**tj * rng.standard_normal(),
            )
    return FourierTableSU2(0, 8, entries)


@pytest.mark.filterwarnings("ignore:table band")
def test_criterion_09_mapped_series_convergence():
    """Mapped-series partial sums are Cauchy (|S_{J+10} - S_J| < 1e-6 at
    J = 200) and dominated by the product of the factor bounds at every j."""
    table = _band8_table()
    for eps in (0.5, 2.0):
        req = YMapRequest(table=table, tau=0.3, j_max=210, epsilon=eps)
        rep = ymap_apply(req)
        delta = abs(rep.partial_sums[-1] - rep.partial_sums[-11])
        assert delta < 1e-6
        assert rep.verdict == "converged"
        bounds = ymap_convergence_report(req)
        for s_abs, pb in zip(bounds.apply_abs, bounds.product_partials):
            assert s_abs <= pb * (1.0 + 1e-12) + 1e-15
    _announce("criterion 9 (mapped series)", f"last delta {delta:.2e}")


def test_criterion_10_synthesis():
    """Geometric tables converge under synthesis; single-entry tables
    reproduce the scaled coefficient exactly."""
    for eps in (0.5, 2.0):
        rep = synthesize(CoefficientTable.geometric(0, 0.5, 250), 0.0, eps, 250)
        assert rep.verdict == "converged"
    tau = 0.3
    tab = CoefficientTable(m=1, entries={5: 1.0})
    rep = synthesize(tab, tau, 2.0, 40)
    want = 25.0 * (1.0 + tau * tau) * diagonal_coefficient(5, 1, tau, 2.0).to_complex()
    for j, s in zip((t.j for t in rep.terms), rep.partial_sums):
        if j >= 5:
            assert s == want
    _announce("criterion 10 (synthesis)", "geometric converged, single entry exact")
