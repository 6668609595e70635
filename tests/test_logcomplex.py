import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lorentz_harmonics.logcomplex import (
    LogComplexValue,
    log_sum,
    to_complex_values,
    wrap_phases,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
nonzero_complex = st.builds(complex, finite, finite).filter(lambda w: abs(w) > 1e-290)


def from_complex(w: complex) -> LogComplexValue:
    """w in log-polar form; math.atan2 rather than cmath.phase, which raises
    OverflowError when the angle underflows to a subnormal (2 + 5e-324j)."""
    w = complex(w)
    return LogComplexValue(math.log(abs(w)), math.atan2(w.imag, w.real))


def test_zero_convention():
    z = LogComplexValue.zero()
    assert z.is_zero
    assert z.phase == 0.0
    assert LogComplexValue(-math.inf, 2.3).phase == 0.0
    assert z.to_complex() == 0j


@given(nonzero_complex)
@example(2 + 5e-324j)  # subnormal angle: cmath.phase raises OverflowError
def test_roundtrip(w):
    v = from_complex(w)
    back = from_complex(v.to_complex())
    if v.log_mag != 0.0:
        assert abs(back.log_mag - v.log_mag) <= 1e-12 * abs(v.log_mag) + 1e-15
    assert abs(back.phase - v.phase) <= 1e-12


def test_phase_wrap_boundaries():
    assert wrap_phases(math.pi) == pytest.approx(math.pi)
    assert wrap_phases(-math.pi) == pytest.approx(math.pi)
    assert wrap_phases(3 * math.pi) == pytest.approx(math.pi)
    assert abs(wrap_phases(2 * math.pi)) < 1e-15


def _odd_pi_neighbours():
    """Odd multiples of pi up to 1e6 and their nearest floats on each side."""
    k = st.integers(-160_000, 160_000).map(lambda n: (2 * n + 1) * math.pi)
    return st.one_of(k, k.map(lambda x: math.nextafter(x, math.inf)),
                     k.map(lambda x: math.nextafter(x, -math.inf)))


@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
    _odd_pi_neighbours(),
))
@example(math.nextafter(math.pi, math.inf))
@example(-math.pi)
def test_wrap_phases_is_one_idempotent_rule_in_range(phi):
    y = wrap_phases(phi)
    assert -math.pi < y <= math.pi
    # its outputs keep their bits, so a LogComplexValue rebuilt from its
    # fields is exact, and an array entry gets the bits of the float alone
    assert repr(wrap_phases(y)) == repr(y)
    assert LogComplexValue(1.0, y).phase == y
    assert repr(float(wrap_phases(np.array([phi, 1.0]))[0])) == repr(y)


def test_wrap_phases_in_range_at_float_neighbours_of_odd_multiples_of_pi():
    # just above pi the remainder in wrap_phases rounds up to 2 pi itself, which
    # gave -pi: outside (-pi, pi]; it is +pi
    assert wrap_phases(np.array([math.nextafter(math.pi, math.inf)]))[0] == math.pi
    for k in range(-101, 102, 2):
        angles = [k * math.pi]
        below = above = k * math.pi
        for _ in range(4):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
            angles += [below, above]
        phi = np.array(angles)
        got = wrap_phases(phi)
        assert np.all((-math.pi < got) & (got <= math.pi)), (k, got)
        # in range, so LogComplexValue keeps every bit of it
        assert [LogComplexValue(0.0, y).phase for y in got.tolist()] == got.tolist()
        assert np.max(np.abs(np.exp(1j * got) - np.exp(1j * phi))) < 1e-13


def test_overflow_guard():
    big = LogComplexValue(800.0, 0.3)
    with pytest.raises(OverflowError):
        big.to_complex()


def test_to_complex_is_one_entry_of_to_complex_values():
    # the same bits as the array conversion, up to the overflow edge and
    # through subnormal results and underflow to zero, with subnormal, signed
    # zero and extreme phases
    rng = np.random.default_rng(11)
    values = [LogComplexValue(float(m), float(p)) for m, p in
              zip(rng.uniform(-760.0, 709.78, 20_000), rng.uniform(-math.pi, math.pi, 20_000))]
    edges = [709.78, math.log(1.7976931348623157e308), 0.0, -0.0, 5e-324, -5e-324,
             -708.4, -744.4, -745.2]
    phases = [0.0, -0.0, 5e-324, -5e-324, 1e-310, math.pi, -math.nextafter(math.pi, 0.0)]
    values += [LogComplexValue(m, p) for m in edges for p in phases]
    values.append(LogComplexValue.zero())
    want = to_complex_values(np.array([v.log_mag for v in values]),
                             np.array([v.phase for v in values])).tolist()
    assert [repr(v.to_complex()) for v in values] == [repr(w) for w in want]


def test_log_sum_matches_direct():
    vals = [1 + 2j, -0.5 + 0.25j, 3.0 - 1j, -2.9 + 0j]
    got = log_sum(from_complex(v) for v in vals).to_complex()
    assert got == pytest.approx(sum(vals), rel=1e-12)
    assert log_sum([]).is_zero
    # cancellation of opposite values leaves at most an eps-scale residue
    pair = [from_complex(1.0), from_complex(-1.0)]
    res = log_sum(pair)
    assert res.is_zero or res.log_mag < math.log(1e-15)


def test_log_sum_survives_large_scale():
    vals = [LogComplexValue(1000.0, 0.0), LogComplexValue(999.0, math.pi)]
    out = log_sum(vals)
    assert out.log_mag == pytest.approx(1000.0 + math.log(1 - math.exp(-1.0)), rel=1e-12)
