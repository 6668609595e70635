import cmath
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lorentz_harmonics.logcomplex import LogComplexValue, log_sum, wrap_phase

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
nonzero_complex = st.builds(complex, finite, finite).filter(lambda w: abs(w) > 1e-290)


def test_zero_convention():
    z = LogComplexValue.zero()
    assert z.is_zero
    assert z.phase == 0.0
    assert LogComplexValue(-math.inf, 2.3).phase == 0.0
    assert z.to_complex() == 0j


@given(nonzero_complex)
def test_roundtrip(w):
    v = LogComplexValue.from_complex(w)
    back = LogComplexValue.from_complex(v.to_complex())
    if v.log_mag != 0.0:
        assert abs(back.log_mag - v.log_mag) <= 1e-12 * abs(v.log_mag) + 1e-15
    assert abs(back.phase - v.phase) <= 1e-12


@given(nonzero_complex, nonzero_complex)
@example(w1=1j, w2=2 + 5e-324j)  # subnormal angle: cmath.phase raises OverflowError
def test_multiplication_adds_logs_and_wraps(w1, w2):
    v = LogComplexValue.from_complex(w1) * LogComplexValue.from_complex(w2)
    assert v.log_mag == pytest.approx(
        math.log(abs(w1)) + math.log(abs(w2)), rel=1e-12, abs=1e-12
    )
    assert -math.pi < v.phase <= math.pi
    expected = wrap_phase(
        math.atan2(w1.imag, w1.real) + math.atan2(w2.imag, w2.real)
    )
    assert abs(cmath.exp(1j * v.phase) - cmath.exp(1j * expected)) < 1e-12


def test_phase_wrap_boundaries():
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)
    assert abs(wrap_phase(2 * math.pi)) < 1e-15


def test_mul_with_zero():
    v = LogComplexValue.from_complex(2 + 1j)
    assert (v * LogComplexValue.zero()).is_zero
    assert (LogComplexValue.zero() * v).is_zero


def test_overflow_guard():
    big = LogComplexValue(800.0, 0.3)
    with pytest.raises(OverflowError):
        big.to_complex()


def test_log_sum_matches_direct():
    vals = [1 + 2j, -0.5 + 0.25j, 3.0 - 1j, -2.9 + 0j]
    got = log_sum(LogComplexValue.from_complex(v) for v in vals).to_complex()
    assert got == pytest.approx(sum(vals), rel=1e-12)
    assert log_sum([]).is_zero
    # cancellation of opposite values leaves at most an eps-scale residue
    pair = [LogComplexValue.from_complex(1.0), LogComplexValue.from_complex(-1.0)]
    res = log_sum(pair)
    assert res.is_zero or res.log_mag < math.log(1e-15)


def test_log_sum_survives_large_scale():
    vals = [LogComplexValue(1000.0, 0.0), LogComplexValue(999.0, math.pi)]
    out = log_sum(vals)
    assert out.log_mag == pytest.approx(1000.0 + math.log(1 - math.exp(-1.0)), rel=1e-12)
