"""Complex values stored as (log-magnitude, phase).

Coefficients in this library involve Gamma(2j+2)-scale factors and powers like
eps^(4j) that overflow double precision long before j reaches interesting
values, so everything magnitude-critical is carried in log-polar form and only
converted to an ordinary complex number on explicit request.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

TWO_PI = 2.0 * math.pi

# exp() overflows just above this; used by to_complex() overflow checks
_LOG_MAX_DOUBLE = math.log(1.7976931348623157e308)


def wrap_phase(phi):
    """Wrap an angle, or each entry of an array of angles, into (-pi, pi]; an
    angle already there is returned as it is, so that rebuilding a
    LogComplexValue from its fields is exact.  An entry of an array gets the
    bits that it gets alone."""
    if isinstance(phi, np.ndarray):
        y = np.fmod(phi + math.pi, TWO_PI)
        y = np.where(y <= 0.0, y + TWO_PI, y) - math.pi
        return np.where((-math.pi < phi) & (phi <= math.pi), phi, y)
    if -math.pi < phi <= math.pi:
        return phi
    y = math.fmod(phi + math.pi, TWO_PI)
    if y <= 0.0:
        y += TWO_PI
    return y - math.pi


def wrap_phases(phi):
    """Wrap angles into (-pi, pi], elementwise, or one float angle with the
    bits it gets in an array (float % is np.remainder's floored remainder)."""
    y = math.pi - (math.pi - phi) % TWO_PI
    # the remainder rounds up to 2 pi itself just above an odd multiple of pi
    # (at nextafter(pi, inf), say), and pi - 2 pi is -pi: that is +pi, which
    # LogComplexValue's wrap_phase also makes of it
    if isinstance(y, float):
        return math.pi if y == -math.pi else y
    return np.where(y == -math.pi, math.pi, y)


def _rect(log_mag: float, phase: float) -> complex:
    if log_mag == -math.inf:
        return 0j
    if log_mag > _LOG_MAX_DOUBLE:
        raise OverflowError(f"log-magnitude {log_mag:.6g} exceeds double-precision range")
    return cmath.rect(math.exp(log_mag), phase)


def to_complex_values(log_mag: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """LogComplexValue.to_complex for each (log_mag, phase) pair, as one
    complex array, with the same OverflowError."""
    if log_mag.size and log_mag.max() > _LOG_MAX_DOUBLE:
        raise OverflowError(f"log-magnitude {log_mag.max():.6g} exceeds double-precision range")
    return np.exp(log_mag + 1j * phase)


@dataclass(frozen=True)
class LogComplexValue:
    """A complex number w represented as (log|w|, arg w).

    log_mag = -inf encodes an exact zero, in which case phase is 0 by
    convention.  phase is always wrapped into (-pi, pi].
    """

    log_mag: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if math.isnan(self.log_mag) or math.isnan(self.phase):
            raise ValueError("LogComplexValue fields must not be NaN")
        if self.log_mag == -math.inf:
            object.__setattr__(self, "phase", 0.0)
        else:
            object.__setattr__(self, "phase", wrap_phase(self.phase))

    @classmethod
    def zero(cls) -> "LogComplexValue":
        return cls(-math.inf, 0.0)

    @classmethod
    def from_complex(cls, w: complex) -> "LogComplexValue":
        w = complex(w)
        if w == 0:
            return cls.zero()
        # math.atan2 rather than cmath.phase, which raises OverflowError when
        # the angle underflows to a subnormal (e.g. 2 + 5e-324j)
        return cls(math.log(abs(w)), math.atan2(w.imag, w.real))

    @classmethod
    def from_log(cls, log_value: complex) -> "LogComplexValue":
        """Build from log(w): real part is log|w|, imaginary part the phase."""
        log_value = complex(log_value)
        return cls(log_value.real, log_value.imag)

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def to_complex(self) -> complex:
        """Convert to a linear-space complex number.

        Raises OverflowError when the magnitude is not representable in double
        precision; callers opt into that risk explicitly.
        """
        return _rect(self.log_mag, self.phase)

    def __mul__(self, other: "LogComplexValue") -> "LogComplexValue":
        if not isinstance(other, LogComplexValue):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LogComplexValue.zero()
        return LogComplexValue(self.log_mag + other.log_mag, self.phase + other.phase)


def log_sum(values: Iterable[LogComplexValue]) -> LogComplexValue:
    """Sum LogComplexValues without leaving log-representable range.

    The largest magnitude is factored out, the remainder summed linearly with
    math.fsum on real and imaginary parts.
    """
    vals = [v for v in values if not v.is_zero]
    if not vals:
        return LogComplexValue.zero()
    top = max(v.log_mag for v in vals)
    re = math.fsum(math.exp(v.log_mag - top) * math.cos(v.phase) for v in vals)
    im = math.fsum(math.exp(v.log_mag - top) * math.sin(v.phase) for v in vals)
    s = complex(re, im)
    if s == 0:
        return LogComplexValue.zero()
    return LogComplexValue(top + math.log(abs(s)), math.atan2(s.imag, s.real))
