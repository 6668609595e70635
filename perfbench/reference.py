"""Independent references and tolerances for the benchmark's output checks.

Every coefficient reference is evaluated with mpmath at REFERENCE_DPS digits
straight from the defining formula

    D_j(m, tau, eps) = eps^{2(m+j+1) + i tau j}
                       * 2F1(j+1+i tau j/2, m+j+1; 2j+2; 1-eps^4),

never from a stored copy of the library's output.  The tolerances follow the
two coefficient routes of the library:

- j <= EXACT_WINDOW (the exact series): TOL_EXACT, relative.  The worst value
  measured over eps in [0.3, 4] and |tau| <= 0.5 (which contains the draw
  domain) is 1.3e-8 (tau = 0.5, eps = 4, j = 64, m = 0).
- j > EXACT_WINDOW (the leading saddle-point term): LARGE_J_C (1 + m^2) / j
  per coefficient, the O(1/j) behaviour of the leading term.  The largest
  j * err / (1 + m^2) measured over the same eps range and the large-j tau
  caps is 3.6 (j = 65, m = 3, eps = 4, tau = 0.2).  A consecutive ratio
  |D_j / D_{j-1}| cancels the leading error, so tail ratios get
  RATIO_C (1 + m^2) / j^2 (largest measured j^2 * err / (1 + m^2): 5.1, same
  corner).
"""
from __future__ import annotations

import functools
import math

import mpmath

REFERENCE_DPS = 40
EXACT_WINDOW = 64
TOL_EXACT = 1e-7
LARGE_J_C = 6.0
RATIO_C = 10.0
# Round-trip, orthogonality and Parseval checks of the SU(2) transform.
TOL_SU2 = 1e-10


def coefficient_tolerance(j: int, m: int) -> float:
    """Relative tolerance of one coefficient D_j(m)."""
    if j <= EXACT_WINDOW:
        return TOL_EXACT
    return LARGE_J_C * (1.0 + m * m) / j


def ratio_tolerance(j: int, m: int) -> float:
    """Relative tolerance of the consecutive ratio |D_j / D_{j-1}|."""
    if j <= EXACT_WINDOW:
        return 2.0 * TOL_EXACT
    return RATIO_C * (1.0 + m * m) / (j * j)


@functools.lru_cache(maxsize=None)
def coefficient(j: int, m: int, tau: complex, eps: float) -> mpmath.mpc:
    """D_j(m, tau, eps) from mpmath at REFERENCE_DPS digits."""
    with mpmath.workdps(REFERENCE_DPS):
        t = mpmath.mpc(tau)
        e = mpmath.mpf(eps)
        a = j + 1 + 0.5j * t * j
        power = e ** (2 * (m + j + 1) + 1j * t * j)
        return power * mpmath.hyp2f1(a, m + j + 1, 2 * j + 2, 1 - e**4)


@functools.lru_cache(maxsize=None)
def block(j: int, tau: complex, eps: float) -> tuple[complex, float]:
    """The triple-sum block sum_{|m| <= j} D_j(m) and sum_{|m| <= j} |D_j(m)|."""
    with mpmath.workdps(REFERENCE_DPS):
        vals = [coefficient(j, m, tau, eps) for m in range(-j, j + 1)]
        return complex(mpmath.fsum(vals)), float(mpmath.fsum(abs(v) for v in vals))


def tail_ratio(j: int, m: int, tau: complex, eps: float) -> float:
    """|D_j / D_{j-1}|."""
    with mpmath.workdps(REFERENCE_DPS):
        return float(abs(coefficient(j, m, tau, eps) / coefficient(j - 1, m, tau, eps)))


def log_polar_error(log_mag: float, phase: float, ref: mpmath.mpc) -> float:
    """|v / ref - 1| for v = exp(log_mag + i phase), without leaving log space."""
    if ref == 0:
        return 0.0 if log_mag == -math.inf else math.inf
    if not (math.isfinite(log_mag) and math.isfinite(phase)):
        return math.inf
    with mpmath.workdps(REFERENCE_DPS):
        lr = mpmath.log(ref)
        d_mag = log_mag - float(lr.real)
        d_phase = math.remainder(phase - float(lr.imag), 2.0 * math.pi)
    if d_mag > 700.0:
        return math.inf
    return abs(math.exp(d_mag) * complex(math.cos(d_phase), math.sin(d_phase)) - 1.0)


def check_coefficient(what: str, j: int, m: int, log_mag: float, phase: float,
                      ref: mpmath.mpc) -> list[str]:
    err = log_polar_error(log_mag, phase, ref)
    tol = coefficient_tolerance(j, m)
    if err <= tol:
        return []
    return [f"{what} at j={j}, m={m}: relative error {err:.3g} > {tol:.3g}"]


def check_ratio(what: str, j: int, m: int, ratio, tau: complex, eps: float) -> list[str]:
    if ratio is None:
        return [f"{what}: no ratio at j={j}"]
    ref = tail_ratio(j, m, tau, eps)
    err = abs(ratio - ref) / ref
    tol = ratio_tolerance(j, m)
    if err <= tol:
        return []
    return [f"{what} at j={j}, m={m}: ratio {ratio:.10g} vs {ref:.10g} (error {err:.3g} > {tol:.3g})"]
