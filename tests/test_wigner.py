import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lorentz_harmonics import wigner
from lorentz_harmonics.lie_group import haar_quadrature_su2, su2_from_euler
from lorentz_harmonics.wigner import (
    FourierTableSU2,
    SpinLabel,
    WignerIndexError,
    paley_wiener_report,
    parseval_sum,
    su2_fourier,
    synthesize_su2,
    wigner_D,
    wigner_small_d,
)


def factorial_sum_d(tj, tm, tn, beta):
    """Plain-float factorial-sum oracle, no log-space machinery."""
    f = math.factorial
    jm, jmm = (tj + tm) // 2, (tj - tm) // 2
    jn, jmn = (tj + tn) // 2, (tj - tn) // 2
    mn = (tm - tn) // 2
    total = 0.0
    for k in range(max(0, -mn), min(jn, jmm) + 1):
        num = math.sqrt(f(jm) * f(jmm) * f(jn) * f(jmn))
        den = f(jn - k) * f(k) * f(jmm - k) * f(mn + k)
        total += (
            (-1.0) ** (mn + k)
            * num / den
            * math.cos(beta / 2) ** (tj - 2 * k - mn)
            * math.sin(beta / 2) ** (2 * k + mn)
        )
    return total


def mpmath_factorial_sum_d(tj, tm, tn, beta):
    """The factorial sum at 50 digits, exact where plain floats cancel."""
    f = mpmath.factorial
    jm, jmm = (tj + tm) // 2, (tj - tm) // 2
    jn, jmn = (tj + tn) // 2, (tj - tn) // 2
    mn = (tm - tn) // 2
    with mpmath.workdps(50):
        c = mpmath.cos(mpmath.mpf(beta) / 2)
        s = mpmath.sin(mpmath.mpf(beta) / 2)
        num = mpmath.sqrt(f(jm) * f(jmm) * f(jn) * f(jmn))
        total = mpmath.mpf(0)
        for k in range(max(0, -mn), min(jn, jmm) + 1):
            total += (
                (-1) ** (mn + k)
                * num / (f(jn - k) * f(k) * f(jmm - k) * f(mn + k))
                * c ** (tj - 2 * k - mn)
                * s ** (2 * k + mn)
            )
        return float(total)


def small_d_matrix(tj, beta):
    return np.array(
        [
            [wigner_small_d(SpinLabel(tj), tm, tn, beta) for tn in range(-tj, tj + 1, 2)]
            for tm in range(-tj, tj + 1, 2)
        ]
    )


# ------------------------------------------------------------------- small d

def test_small_d_identity_rotation():
    for tj in (0, 1, 2, 5):
        for tm in range(-tj, tj + 1, 2):
            for tn in range(-tj, tj + 1, 2):
                want = 1.0 if tm == tn else 0.0
                assert wigner_small_d(SpinLabel(tj), tm, tn, 0.0) == pytest.approx(
                    want, abs=1e-14
                )


def test_small_d_spin_half_cosine():
    for i in range(20):
        beta = (i + 0.5) * math.pi / 20.0
        got = wigner_small_d(SpinLabel(1), 1, 1, beta)
        assert got == pytest.approx(math.cos(beta / 2), rel=1e-13)
        oracle = factorial_sum_d(1, 1, 1, beta)
        assert got == pytest.approx(oracle, rel=1e-13)


def test_small_d_against_factorial_oracle():
    for tj in (2, 3, 6, 9):
        for tm in range(-tj, tj + 1, 2):
            for tn in range(-tj, tj + 1, 2):
                for beta in (0.4, 1.3, 2.8):
                    got = wigner_small_d(SpinLabel(tj), tm, tn, beta)
                    assert got == pytest.approx(
                        factorial_sum_d(tj, tm, tn, beta), rel=1e-11, abs=1e-13
                    )


def test_small_d_transpose_symmetry():
    for tj in (1, 2, 4, 7, 24):
        for tm in range(-tj, tj + 1, 2):
            for tn in range(-tj, tj + 1, 2):
                for beta in (0.7, math.pi / 2, 2.2):
                    lhs = wigner_small_d(SpinLabel(tj), tm, tn, beta)
                    rhs = (-1.0) ** ((tm - tn) // 2) * wigner_small_d(
                        SpinLabel(tj), tn, tm, beta
                    )
                    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_small_d_large_spin_stays_finite():
    v = wigner_small_d(SpinLabel(80), 0, 0, 1.3)
    assert math.isfinite(v)
    assert abs(v) <= 1.0 + 1e-12


@pytest.mark.parametrize("tj", [32, 48, 64, 80, 100])
def test_small_d_large_spin_against_mpmath(tj):
    rng = np.random.default_rng(tj)
    cases = [(tj, tj, 0.0), (-tj, tj, math.pi), (0, 0, 1e-3)]
    for _ in range(24):
        tm, tn = (2 * rng.integers(0, tj + 1, size=2) - tj).tolist()
        cases.append((tm, tn, float(rng.uniform(0.0, math.pi))))
    for tm, tn, beta in cases:
        want = mpmath_factorial_sum_d(tj, tm, tn, beta)
        assert wigner_small_d(SpinLabel(tj), tm, tn, beta) == pytest.approx(want, abs=1e-13)


def test_small_d_spin_40_value():
    # the 50-digit factorial sum
    got = wigner_small_d(SpinLabel(80), 0, 0, 1.3)
    assert got == pytest.approx(-0.00350755850536134, abs=1e-15)


@given(
    tj=st.integers(min_value=0, max_value=100),
    beta1=st.floats(min_value=-math.pi, max_value=math.pi),
    beta2=st.floats(min_value=-math.pi, max_value=math.pi),
)
@example(tj=100, beta1=1.3, beta2=2.9)
def test_small_d_orthogonal_and_additive(tj, beta1, beta2):
    d1 = small_d_matrix(tj, beta1)
    d2 = small_d_matrix(tj, beta2)
    assert np.max(np.abs(d1 @ d1.T - np.eye(tj + 1))) < 1e-12
    assert np.max(np.abs(d1 @ d2 - small_d_matrix(tj, beta1 + beta2))) < 1e-12


SEEDED_BETAS = np.concatenate([[0.0, math.pi], np.random.default_rng(24).uniform(0, math.pi, 50)])


@pytest.mark.parametrize("tj", [0, 1, 2, 3, 4, 5, 8, 11, 16, 23, 24, 31, 40, 47, 48])
def test_small_d_row_matches_entries(tj):
    # rows |p|/2 <= 3/2, as su2_fourier reads them, and the extreme rows; over
    # an array of betas as in the beta stage
    phases = np.exp(-0.5j * np.outer(np.arange(-tj, tj + 1, 2), SEEDED_BETAS))
    for tm in sorted({-tj, tj} | {r for r in range(4) if r <= tj and (tj - r) % 2 == 0}):
        got = (wigner._d_row_weights(tj, tm) @ phases).real
        want = [[wigner._small_d(tj, tm, tn, b) for b in SEEDED_BETAS.tolist()]
                for tn in range(-tj, tj + 1, 2)]
        assert np.max(np.abs(got - np.array(want))) < 1e-14


def test_index_validation():
    with pytest.raises(WignerIndexError):
        wigner_small_d(SpinLabel(2), 1, 0, 0.5)  # parity mismatch
    with pytest.raises(WignerIndexError):
        wigner_small_d(SpinLabel(2), 4, 0, 0.5)  # out of range
    with pytest.raises(WignerIndexError):
        SpinLabel(-1)


# ----------------------------------------------------------------- wigner D

def test_wigner_D_identity_and_trivial_rep(rng):
    ident = su2_from_euler(0.0, 0.0, 0.0)
    assert wigner_D(SpinLabel(2), 2, 2, ident) == pytest.approx(1.0, abs=1e-14)
    assert wigner_D(SpinLabel(2), 2, 0, ident) == pytest.approx(0.0, abs=1e-14)
    for _ in range(5):
        v = su2_from_euler(
            rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi), rng.uniform(0, 4 * math.pi)
        )
        assert wigner_D(SpinLabel(0), 0, 0, v) == pytest.approx(1.0, abs=1e-14)


def test_wigner_D_row_unitarity(rng):
    for tj in (1, 2, 3):
        for _ in range(34):
            v = su2_from_euler(
                rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi), rng.uniform(0, 4 * math.pi)
            )
            for tm in range(-tj, tj + 1, 2):
                row = math.fsum(
                    abs(wigner_D(SpinLabel(tj), tm, tn, v)) ** 2
                    for tn in range(-tj, tj + 1, 2)
                )
                assert row == pytest.approx(1.0, abs=1e-12)


def test_wigner_D_spin_half_matches_matrix(rng):
    for _ in range(10):
        v = su2_from_euler(
            rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi), rng.uniform(0, 4 * math.pi)
        )
        got = np.array(
            [
                [wigner_D(SpinLabel(1), 1, 1, v), wigner_D(SpinLabel(1), 1, -1, v)],
                [wigner_D(SpinLabel(1), -1, 1, v), wigner_D(SpinLabel(1), -1, -1, v)],
            ]
        )
        assert np.allclose(got, v.matrix, atol=1e-12)


# ------------------------------------------------------------ fourier tables

def test_table_validation_and_zero_extension():
    t = FourierTableSU2(0, 4, {(2, 0): 1.0 + 0j})
    assert t.get(2, 0) == 1.0
    assert t.get(2, 2) == 0j
    assert t.get(7, 0) == 0j
    with pytest.raises(WignerIndexError):
        FourierTableSU2(0, 4, {(3, 1): 1.0})  # wrong row parity for p = 0
    with pytest.raises(WignerIndexError):
        FourierTableSU2(0, 4, {(2, 1): 1.0})  # wrong column parity
    with pytest.raises(WignerIndexError):
        FourierTableSU2(1, 4, {(3, 5): 1.0})  # column out of range
    with pytest.raises(WignerIndexError):
        FourierTableSU2(2, 4, {(0, 0): 1.0})  # row below |p|


def test_table_json_roundtrip():
    t = FourierTableSU2(1, 5, {(1, -1): 0.5 + 0.25j, (3, 1): -2.0 + 1j})
    t2 = FourierTableSU2.from_json_dict(t.to_json_dict())
    assert t2.p == t.p and t2.band_limit == t.band_limit
    assert t2.entries == t.entries


def test_fourier_constant_function():
    tab = su2_fourier(lambda u: 1.0 + 0j, p=0, band_limit=4)
    assert tab.get(0, 0) == pytest.approx(1.0, abs=1e-12)
    for (tj, tm), v in tab.entries.items():
        if (tj, tm) != (0, 0):
            assert abs(v) < 1e-12


def test_fourier_single_entry_spin_half():
    m0 = -1
    tab = su2_fourier(lambda u: wigner_D(SpinLabel(1), 1, m0, u), p=1, band_limit=5)
    want = math.sqrt(2.0) / 2.0
    assert tab.get(1, m0) == pytest.approx(want, abs=1e-12)
    off = {k: v for k, v in tab.entries.items() if k != (1, m0) and abs(v) > 1e-12}
    assert not off


def test_fourier_linearity(rng):
    def phi1(u):
        return wigner_D(SpinLabel(2), 0, 2, u)

    def phi2(u):
        return wigner_D(SpinLabel(4), 0, -2, u)

    t1 = su2_fourier(phi1, p=0, band_limit=4)
    t2 = su2_fourier(phi2, p=0, band_limit=4)
    t12 = su2_fourier(lambda u: phi1(u) + 2.0 * phi2(u), p=0, band_limit=4)
    for key in set(t1.entries) | set(t2.entries):
        assert t12.get(*key) == pytest.approx(
            t1.get(*key) + 2.0 * t2.get(*key), abs=1e-12
        )


def test_fourier_underresolution_warning():
    grid = haar_quadrature_su2(2)
    with pytest.warns(UserWarning, match="below the transform band"):
        su2_fourier(lambda u: 1.0 + 0j, p=0, band_limit=6, grid=grid)


def test_fourier_default_grid_is_the_transform_band(monkeypatch):
    built = []

    def recording_grid(twice_band_limit, row=None):
        built.append(haar_quadrature_su2(twice_band_limit, row))
        return built[-1]

    monkeypatch.setattr(wigner, "haar_quadrature_su2", recording_grid)
    calls = []
    su2_fourier(lambda u: calls.append(u) or 1.0 + 0j, p=1, band_limit=7)
    assert [(g.twice_band_limit, g.row) for g in built] == [(7, 1)]
    assert len(calls) == built[0].n_nodes == 5 * 4 * 15


@pytest.mark.parametrize("band", [5, 6, 9])
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_fourier_mixed_parity_matches_closed_form(p, band):
    # phi holds both integer and half-integer spins up to the band, on every
    # row; the table keeps row p only, and the default grid must be exact
    rng = np.random.default_rng(1000 * p + band)
    terms = []
    for tj in range(band + 1):
        rows = {int(rng.integers(0, tj + 1)) * 2 - tj}
        if tj >= p and (tj - p) % 2 == 0:
            rows.add(p)
        for row in rows:
            tm = int(rng.integers(0, tj + 1)) * 2 - tj
            terms.append((tj, row, tm, complex(rng.normal(), rng.normal())))

    calls = []

    def phi(u):
        calls.append(u)
        return sum(c * wigner_D(SpinLabel(tj), row, tm, u) for tj, row, tm, c in terms)

    tab = su2_fourier(phi, p=p, band_limit=band)
    assert len(calls) == ((band + p) // 2 + 1) * (band // 2 + 1) * (2 * band + 1)
    want = {}
    for tj, row, tm, c in terms:
        if row == p:
            want[(tj, tm)] = want.get((tj, tm), 0j) + c / math.sqrt(tj + 1.0)
    assert set(want) <= set(tab.entries)
    assert max(abs(v - want.get(k, 0j)) for k, v in tab.entries.items()) < 1e-12


def _terms_on_every_row(p, band):
    """D-entries up to the band on rows -tj/2 and tj/2 of every spin, so on
    every row from -band/2 to band/2, and on row p/2 where it exists."""
    rng = np.random.default_rng(100 * p + band)
    terms = []
    for tj in range(band + 1):
        rows = {-tj, tj} | ({p} if tj >= p and (tj - p) % 2 == 0 else set())
        for row in sorted(rows):
            tm = int(rng.integers(0, tj + 1)) * 2 - tj
            terms.append((tj, row, tm, complex(rng.normal(), rng.normal())))
    return terms


def _row_table_error(p, band, grid=None):
    terms = _terms_on_every_row(p, band)

    def phi(u):
        return sum(c * wigner_D(SpinLabel(tj), row, tm, u) for tj, row, tm, c in terms)

    tab = su2_fourier(phi, p=p, band_limit=band, grid=grid)
    want = {}
    for tj, row, tm, c in terms:
        if row == p:
            want[(tj, tm)] = want.get((tj, tm), 0j) + c / math.sqrt(tj + 1.0)
    return max((abs(v - want.get(k, 0j)) for k, v in tab.entries.items()), default=0.0)


P_AND_BAND = [(p, band) for p in range(4) for band in range(p, 13)]


@pytest.mark.parametrize("p, band", P_AND_BAND)
def test_row_grid_matches_closed_form_on_every_row(p, band):
    assert _row_table_error(p, band) < 1e-12


@pytest.mark.parametrize("p, band", [(p, b) for p, b in P_AND_BAND if p + b >= 2])
@pytest.mark.filterwarnings("ignore:quadrature band")
def test_row_grid_with_one_alpha_fewer_misintegrates(p, band):
    # row tj = top spin of p's parity, column -tj/2 puts alpha frequency
    # (band + p)//2 on the row integrals, which one alpha fewer aliases to 0;
    # the short grid claims band - 1, or band - 2 where band + p is odd
    grid = haar_quadrature_su2(band, row=p)
    n = len(grid.alphas) - 1
    claim = band - 1 if (band + p) % 2 == 0 else band - 2
    fewer = dataclasses.replace(grid, twice_band_limit=claim,
                                alphas=2.0 * math.pi * np.arange(n) / n)
    assert _row_table_error(p, band, fewer) > 1e-2


def test_fourier_accepts_a_full_grid_or_its_own_row_only():
    def phi(u):
        return wigner_D(SpinLabel(3), 1, -1, u) + wigner_D(SpinLabel(4), -2, 2, u)

    by_row = su2_fourier(phi, p=-1, band_limit=4)
    by_full = su2_fourier(phi, p=-1, band_limit=4, grid=haar_quadrature_su2(4))
    by_wider_row = su2_fourier(phi, p=-1, band_limit=4, grid=haar_quadrature_su2(6, row=1))
    for tab in (by_row, by_full, by_wider_row):
        assert tab.get(3, -1) == pytest.approx(0.5, abs=1e-12)
        assert max(abs(v) for k, v in tab.entries.items() if k != (3, -1)) < 1e-12
    for row in (0, 3):
        with pytest.raises(ValueError, match="carries row"):
            su2_fourier(phi, p=-1, band_limit=4, grid=haar_quadrature_su2(4, row=row))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_fourier_beta_stage_matches_per_entry_small_d(p):
    # the whole transform as one sum over the nodes per entry, with _small_d
    # per entry and node, the contraction order of a per-entry transform, on a
    # phi that is not band-limited
    band = 12
    grid = haar_quadrature_su2(band, row=p)

    def phi(u):
        return complex(math.exp((u.matrix[0, 0] + u.matrix[1, 1]).real)) + u.matrix[0, 1]

    tab = su2_fourier(phi, p=p, band_limit=band, grid=grid)
    weighted = grid.sample(phi) * grid.weight_array()
    ea = np.exp(0.5j * p * grid.alphas)[:, None, None]
    for (tj, tm), v in tab.entries.items():
        d = np.array([wigner._small_d(tj, p, tm, b) for b in grid.betas.tolist()])
        eg = np.exp(0.5j * tm * grid.gammas)
        want = math.sqrt(tj + 1.0) * np.sum(weighted * ea * d[None, :, None] * eg[None, None, :])
        assert abs(v - want) < 1e-14


@pytest.mark.parametrize("p", [0, 1])
def test_synthesis_matches_per_entry_wigner_D(p):
    # spins up to 24 at 50 seeded points and at beta = 0 and pi, the
    # degenerate branches of euler_angles; coefficients scaled so that the
    # sum of |sqrt(tj + 1) entry| is 1
    rng = np.random.default_rng(7 + p)
    band = 48 - p
    keys = [(tj, tm) for tj in range(p, band + 1, 2) for tm in range(-tj, tj + 1, 2)]
    raw = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    scale = sum(math.sqrt(tj + 1.0) * abs(c) for (tj, _), c in zip(keys, raw))
    table = FourierTableSU2(p, band, dict(zip(keys, (raw / scale).tolist())))
    points = [su2_from_euler(1.1, 0.0, 2.3), su2_from_euler(4.0, math.pi, 0.7)] + [
        su2_from_euler(a, b, g)
        for a, b, g in zip(rng.uniform(0, 2 * math.pi, 50), rng.uniform(0, math.pi, 50),
                           rng.uniform(0, 4 * math.pi, 50))
    ]
    assert [u.euler_angles()[1] for u in points[:2]] == [0.0, math.pi]
    for u in points:
        want = sum(math.sqrt(tj + 1.0) * v * wigner_D(SpinLabel(tj), p, tm, u)
                   for (tj, tm), v in table.entries.items())
        assert abs(synthesize_su2(table, u) - want) < 1e-14


@pytest.mark.parametrize("band", [8, 12, 24])
def test_fourier_closed_form_zeros_sit_below_the_noise_floor(band):
    # spins up to 7/2, one column each; measured at most 0.0034 of the floor
    rng = np.random.default_rng(band)
    coeffs = {
        (tj, int(rng.integers(0, tj + 1)) * 2 - tj): complex(rng.normal(), rng.normal())
        for tj in (1, 3, 5, 7)
    }

    def phi(u):
        return sum(c * wigner_D(SpinLabel(tj), 1, tm, u) for (tj, tm), c in coeffs.items())

    tab = su2_fourier(phi, p=1, band_limit=band)
    zeros = [abs(v) for k, v in tab.entries.items() if k not in coeffs]
    assert zeros and max(zeros) <= 0.05 * tab.noise_floor


def test_roundtrip_and_parseval_band_4(rng):
    coeffs = {
        (tj, tm): complex(rng.normal(), rng.normal())
        for tj in range(0, 5, 2)
        for tm in range(-tj, tj + 1, 2)
    }

    def phi(u):
        return sum(c * wigner_D(SpinLabel(tj), 0, tm, u) for (tj, tm), c in coeffs.items())

    tab = su2_fourier(phi, p=0, band_limit=4)
    for _ in range(25):
        u = su2_from_euler(
            rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi), rng.uniform(0, 4 * math.pi)
        )
        assert abs(synthesize_su2(tab, u) - phi(u)) < 1e-10
    grid = haar_quadrature_su2(8)
    values = grid.sample(phi)
    l2 = float(np.sum(np.abs(values) ** 2 * grid.weight_array()))
    assert abs(l2 - parseval_sum(tab)) < 1e-10


# --------------------------------------------------------------- decay report

def test_paley_wiener_band_limited_is_exact():
    def phi(u):
        return wigner_D(SpinLabel(2), 0, 0, u) + 0.5 * wigner_D(SpinLabel(4), 0, 2, u)

    tab = su2_fourier(phi, p=0, band_limit=8)
    rep = paley_wiener_report(tab, [0, 1, 2])
    sup = dict(zip(rep.twice_js, rep.scaled[0]))
    assert sup[6] == 0.0 and sup[8] == 0.0
    assert all(rep.non_increasing_top_half[n] for n in (0, 1, 2))


def test_paley_wiener_constant_function():
    tab = su2_fourier(lambda u: 1.0 + 0j, p=0, band_limit=0)
    rep = paley_wiener_report(tab, [0, 1])
    assert rep.twice_js == (0,)
    assert rep.scaled[0][0] == pytest.approx(1.0, abs=1e-12)
    assert rep.scaled[1][0] == 0.0


def test_paley_wiener_rejects_negative_power():
    tab = FourierTableSU2(0, 2, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        paley_wiener_report(tab, [-1])
