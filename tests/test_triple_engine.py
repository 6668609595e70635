"""The triple-sum blocks sum_{|m| <= j} D_j(m) as one Euler integral per j
(special.triple_block_log, read by expansion.triple_blocks): against mpmath
over eps, tau and j up to 1000, at eps = 1, against the endpoint formula
for their large-j limit, and the Gauss rule built on first use."""
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from lorentz_harmonics.expansion import triple_blocks
from lorentz_harmonics.special import (
    EpsilonDomainError,
    check_cancellation,
    triple_block_log,
)
from oracle import mp_block_quad, mp_block_sum

EPS = (0.1, 0.5, 0.9, 1.1, 2.0, 10.0)
TAUS = (0.0, 0.5, -2.0, 1 + 0.3j)
SRC = str(Path(__file__).resolve().parents[1] / "src")

# (log|block|, arg block) at j = 65, 300 and 1000 from 30-digit mpmath
# (oracle.mp_block_quad).  At j = 65 and 120 the quadrature agrees with the
# sum over m (oracle.mp_block_sum) to 7e-20 relative at every (eps, tau) here.
REFERENCE = {
    (0.1, 0.0, 65): (-3.1907931759804975, 0.0),
    (0.1, 0.5, 65): (-3.5984545718054597, 7.14657024924472e-30),
    (0.1, -2.0, 65): (-3.551774818823253, 3.141592653589793),
    (0.1, 1 + 0.3j, 65): (40.78451646171082, 1.5450809899659022),
    (0.5, 0.0, 65): (0.5974464688334725, 0.0),
    (0.5, 0.5, 65): (0.5024134910270521, 3.141592653589793),
    (0.5, -2.0, 65): (-0.8957389129900738, -3.411838235708462e-31),
    (0.5, 1 + 0.3j, 65): (13.001491793131922, -0.47854847383194676),
    (0.9, 0.0, 65): (4.411866263813292, 0.0),
    (0.9, 0.5, 65): (2.95173801696227, 3.141592653589793),
    (0.9, -2.0, 65): (2.1799557587108316, -1.7687720494961083e-30),
    (0.9, 1 + 0.3j, 65): (4.173907863757412, 0.5340978968761751),
    (1.1, 0.0, 65): (4.492214623002985, 0.0),
    (1.1, 0.5, 65): (2.268592179817911, 3.141592653589793),
    (1.1, -2.0, 65): (-0.15356768451993372, -3.141592653589793),
    (1.1, 1 + 0.3j, 65): (4.061227651928016, 1.216914922040916),
    (2.0, 0.0, 65): (0.5974464688334725, 0.0),
    (2.0, 0.5, 65): (0.5024134910270521, 3.141592653589793),
    (2.0, -2.0, 65): (-0.8957389129900738, 3.9308068213265698e-31),
    (2.0, 1 + 0.3j, 65): (13.001491793131922, -0.47854847383194676),
    (10.0, 0.0, 65): (-3.190793175980498, 0.0),
    (10.0, 0.5, 65): (-3.598454571805458, 6.126405941599364e-30),
    (10.0, -2.0, 65): (-3.551774818823254, 3.141592653589793),
    (10.0, 1 + 0.3j, 65): (40.78451646171082, 1.5450809899658986),
    (0.1, 0.0, 300): (-3.197041614384304, 0.0),
    (0.1, 0.5, 300): (-3.327339289764314, 3.4291319011951403e-29),
    (0.1, -2.0, 300): (-7.216975822243579, -1.2531249200429606e-28),
    (0.1, 1 + 0.3j, 300): (203.11066315839196, 0.791403777683477),
    (0.5, 0.0, 300): (0.5800248156803514, 0.0),
    (0.5, 0.5, 300): (0.4940465736155761, -3.141592653589793),
    (0.5, -2.0, 300): (-0.10192138631445684, -1.594737035125395e-30),
    (0.5, 1 + 0.3j, 300): (61.86062382998995, -0.009818678857907376),
    (0.9, 0.0, 300): (4.715798641488392, 0.0),
    (0.9, 0.5, 300): (2.7591364649318058, -3.141592653589793),
    (0.9, -2.0, 300): (1.4814610742785823, -6.181633856898966e-30),
    (0.9, 1 + 0.3j, 300): (11.608420711951979, 0.9111666671625981),
    (1.1, 0.0, 300): (4.941241156244706, 0.0),
    (1.1, 0.5, 300): (3.512745343894508, 3.0817630493597837e-32),
    (1.1, -2.0, 300): (1.9370675409800417, 9.902101899297032e-31),
    (1.1, 1 + 0.3j, 300): (10.813254590603533, -2.341027022485253),
    (2.0, 0.0, 300): (0.5800248156803514, 0.0),
    (2.0, 0.5, 300): (0.4940465736155761, 3.141592653589793),
    (2.0, -2.0, 300): (-0.10192138631445684, 1.594737035125395e-30),
    (2.0, 1 + 0.3j, 300): (61.86062382998995, -0.009818678857907376),
    (10.0, 0.0, 300): (-3.197041614384304, 0.0),
    (10.0, 0.5, 300): (-3.32733928976431, 2.4640301975006872e-29),
    (10.0, -2.0, 300): (-7.216975822242281, -1.144421178866856e-28),
    (10.0, 1 + 0.3j, 300): (203.11066315839196, 0.7914037776834604),
    (0.1, 0.0, 1000): (-3.1982548505675616, 0.0),
    (0.1, 0.5, 1000): (-4.297639557912399, 1.1499491399024223e-28),
    (0.1, -2.0, 1000): (-4.570206468897364, -4.5974947613661965e-28),
    (0.1, 1 + 0.3j, 1000): (686.652347104024, -2.522744946047114),
    (0.5, 0.0, 1000): (0.576755789031806, 0.0),
    (0.5, 0.5, 1000): (0.3022842802263095, 1.1220296189044192e-30),
    (0.5, -2.0, 1000): (-0.10484638759321534, 3.141592653589793),
    (0.5, 1 + 0.3j, 1000): (207.42001622026257, -1.4084300838036836),
    (0.9, 0.0, 1000): (4.5493440917780275, 0.0),
    (0.9, 0.5, 1000): (2.428517298300541, 4.617936381677639e-30),
    (0.9, -2.0, 1000): (1.1360031070559202, 3.141592653589793),
    (0.9, 1 + 0.3j, 1000): (33.73513509535525, 2.5541238547192613),
    (1.1, 0.0, 1000): (4.765084592531542, 0.0),
    (1.1, 0.5, 1000): (3.406460376721051, 3.141592653589793),
    (1.1, -2.0, 1000): (2.113067725879036, 1.115977153665947e-30),
    (1.1, 1 + 0.3j, 1000): (30.829528857020534, 0.05400079724829023),
    (2.0, 0.0, 1000): (0.576755789031806, 0.0),
    (2.0, 0.5, 1000): (0.3022842802263095, -1.2590327222961942e-30),
    (2.0, -2.0, 1000): (-0.10484638759321534, -3.141592653589793),
    (2.0, 1 + 0.3j, 1000): (207.42001622026257, -1.4084300838036836),
    (10.0, 0.0, 1000): (-3.198254850567562, 0.0),
    (10.0, 0.5, 1000): (-4.297639557912475, 8.003757768797421e-29),
    (10.0, -2.0, 1000): (-4.570206468897079, -3.2360244846458467e-28),
    (10.0, 1 + 0.3j, 1000): (686.652347104024, -2.5227449460471694),
}


def rel_error(log_mag, phase, ref) -> float:
    with mp.workdps(30):
        got = mp.exp(mp.mpf(log_mag) + 1j * mp.mpf(phase))
        return float(abs(got - ref) / abs(ref))


def assert_blocks(js, tau, eps, refs):
    # every block within 1e-10 of mpmath, with a cancellation figure that
    # check_cancellation accepts on its own (so no block is left to raise)
    log_mag, phase, cancellation = triple_block_log(np.array(js), tau, eps)
    check_cancellation(cancellation)
    for k, ref in enumerate(refs):
        assert rel_error(log_mag[k], phase[k], ref) <= 1e-10, (js[k], tau, eps)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("eps", EPS)
def test_blocks_match_mpmath_sums_over_m(eps, tau):
    assert_blocks([1, 5], tau, eps, [mp_block_sum(j, tau, eps) for j in (1, 5)])


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("eps", EPS)
def test_blocks_match_mpmath_to_j_1000(eps, tau):
    refs = [mp.exp(mp.mpc(*REFERENCE[eps, tau, j])) for j in (65, 300, 1000)]
    # on the node set of j_max = 1000, shared with j = 1 and 5, and each alone
    assert_blocks([1, 5, 65, 300, 1000], tau, eps,
                  [mp_block_sum(j, tau, eps) for j in (1, 5)] + refs)
    for j, ref in zip((65, 300, 1000), refs):
        assert_blocks([j], tau, eps, [ref])


@pytest.mark.parametrize("eps,tau,j", [(2.0, 0.5, 20), (0.9, 1 + 0.3j, 20), (0.1, -2.0, 12)])
def test_quadrature_oracle_matches_the_sum_over_m(eps, tau, j):
    with mp.workdps(30):
        s, q = mp_block_sum(j, tau, eps), mp_block_quad(j, tau, eps)
        assert abs(q - s) <= mp.mpf(10) ** -25 * abs(s)


def test_reference_table_reproduces():
    ref = mp_block_quad(65, -2.0, 0.5)
    assert rel_error(*REFERENCE[0.5, -2.0, 65], ref) <= 1e-15


@pytest.mark.parametrize("tau", TAUS + (3.0 - 0.7j,))
def test_unit_boost_gives_2j_plus_1(tau):
    # eps = 1: the integrand is 1, and every block is 2j + 1 (exactly in
    # log space; exp(log(2j + 1)) rounds)
    assert triple_blocks(tau, 1.0, 50) == pytest.approx([2 * j + 1 for j in range(51)],
                                                        rel=1e-15, abs=0)
    log_mag, phase, cancellation = triple_block_log(np.arange(4), tau, 1.0)
    assert log_mag.tolist() == [math.log(2 * j + 1) for j in range(4)]
    assert not phase.any() and (cancellation == 1.0).all()


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_epsilon_domain(eps):
    with pytest.raises(EpsilonDomainError):
        triple_block_log(np.arange(3), 0.0, eps)


def endpoint_terms(j, tau, eps):
    """The two end layers of the integral at large j, 2x x^{i tau j/2} / d(tau)
    from t = 0 and 2x x^{-i tau j/2} / d(-tau) from t = 1, with
    d(tau) = (x-1)^2 + i tau (x^2-1)/2; their sum is
    4x Re[x^{i tau j/2} / d(tau)] at real tau."""
    x = eps * eps

    def d(t):
        return (x - 1.0) ** 2 + 0.5j * t * (x * x - 1.0)

    return 2 * x * x ** (0.5j * tau * j) / d(tau), 2 * x * x ** (-0.5j * tau * j) / d(-tau)


@pytest.mark.parametrize("eps,tau", [(0.5, 0.0), (2.0, 0.0), (2.0, 0.5), (0.7, -0.3),
                                     (2.0, 0.3 + 0.2j)])
def test_blocks_tend_to_the_endpoint_formula(eps, tau):
    # the blocks do not tend to 0: at tau = 0 they tend to 4 eps^2/(eps^2-1)^2,
    # 1.778 at eps = 0.5 and 2, with an O(1/j) error
    blocks = triple_blocks(tau, eps, 1000)
    for j in (200, 1000):
        first, last = endpoint_terms(j, tau, eps)
        assert abs(blocks[j] - first - last) <= 3.0 / j * (abs(first) + abs(last))
    if tau == 0:
        assert blocks[1000] == pytest.approx(4 * eps**2 / (eps**2 - 1) ** 2, rel=2e-3)


def test_passes_stay_small(monkeypatch):
    # each pass over the nodes holds at most 32 x 192 array entries
    sizes = []
    original = np.exp

    def spied(values, *args, **kwargs):
        sizes.append(np.size(values))
        return original(values, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spied)
    triple_block_log(np.arange(301), 0.3, 0.5)
    assert len(sizes) > 10 and max(sizes) <= 32 * 192


def test_gauss_rule_is_built_on_first_use():
    # the Gauss rule is built by the first block, not on import, and without
    # numpy.polynomial (milliseconds and about 1 MB to import)
    code = ("import sys, numpy as np; import lorentz_harmonics.cli; "
            "from lorentz_harmonics import special; "
            "assert special._gauss_rule.cache_info().currsize == 0; "
            "special.triple_block_log(np.arange(3), 0.0, 2.0); "
            "assert special._gauss_rule.cache_info().currsize == 1; "
            "assert 'numpy.polynomial' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": SRC})
