"""Complex values stored as (log-magnitude, phase).

Coefficients in this library involve Gamma(2j+2)-scale factors and powers like
eps^(4j) that overflow double precision long before j reaches interesting
values, so everything magnitude-critical is carried in log-polar form and only
converted to an ordinary complex number on explicit request.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

TWO_PI = 2.0 * math.pi

# exp() overflows just above this; used by to_complex_values' overflow check
_LOG_MAX_DOUBLE = math.log(1.7976931348623157e308)


def wrap_phases(phi):
    """Wrap angles into (-pi, pi], elementwise, or one float angle with the
    bits it gets in an array (float % is np.remainder's floored remainder).
    The package's one angle rule.  It keeps the bits of its own outputs, so
    that rebuilding a LogComplexValue from its fields is exact: for an output
    y >= pi/2, pi - y is exact (Sterbenz), and a smaller y is pi - r for the
    float remainder r, so pi - y is r; either way the remainder keeps it."""
    y = math.pi - (math.pi - phi) % TWO_PI
    # the remainder rounds up to 2 pi itself just above an odd multiple of pi
    # (at nextafter(pi, inf), say), and pi - 2 pi is -pi: that is +pi
    if isinstance(y, float):
        return math.pi if y == -math.pi else y
    return np.where(y == -math.pi, math.pi, y)


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
    convention.  phase is always wrapped into (-pi, pi] by wrap_phases.
    """

    log_mag: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if math.isnan(self.log_mag) or math.isnan(self.phase):
            raise ValueError("LogComplexValue fields must not be NaN")
        if math.isinf(self.phase) and self.log_mag != -math.inf:
            raise ValueError("LogComplexValue phase must be finite")
        object.__setattr__(self, "phase", 0.0 if self.log_mag == -math.inf
                           else wrap_phases(self.phase))

    @classmethod
    def zero(cls) -> "LogComplexValue":
        return cls(-math.inf, 0.0)

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def to_complex(self) -> complex:
        """Convert to a linear-space complex number.

        Raises OverflowError when the magnitude is not representable in double
        precision; callers opt into that risk explicitly.
        """
        return complex(to_complex_values(np.float64(self.log_mag), np.float64(self.phase)))


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


__all__ = ["LogComplexValue", "log_sum", "to_complex_values", "wrap_phases"]
