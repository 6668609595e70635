"""Test-side oracles, independent of the library's production routes.

- The general principal-series matrix coefficient (Duc-Hieu 1967 closed
  form, duc_hieu_general) with its labels (PrincipalSeriesLabel,
  CoefficientIndex) and summation support (admissible_pairs): exact but
  O(j^2) hypergeometric evaluations per call, a small-j oracle.
- The triple-sum block sum_{|m| <= j} D_j(m) from mpmath, as a sum over m
  (mp_block_sum) or as the Euler integral of the same block (mp_block_quad),
  for j where the sum is too slow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from lorentz_harmonics.logcomplex import LogComplexValue, log_sum
from lorentz_harmonics.principal_series import IndexRangeError
from lorentz_harmonics.special import check_epsilon, hyp2f1


@dataclass(frozen=True)
class PrincipalSeriesLabel:
    """Representation labels (k, rho)."""

    k: int
    rho: complex

    def __post_init__(self) -> None:
        rho = complex(self.rho)
        if not (math.isfinite(rho.real) and math.isfinite(rho.imag)):
            raise ValueError("rho must be finite")
        object.__setattr__(self, "rho", rho)

    @classmethod
    def simple(cls, j: int, tau: complex) -> "PrincipalSeriesLabel":
        """The constrained labels k = j, rho = tau * j."""
        return cls(k=int(j), rho=complex(tau) * int(j))


@dataclass(frozen=True)
class CoefficientIndex:
    """Row/column labels (j m, j' n) of a general matrix coefficient."""

    j: int
    j_prime: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.j < 0 or self.j_prime < 0:
            raise IndexRangeError("j and j_prime must be non-negative")
        jmin = min(self.j, self.j_prime)
        if abs(self.m) > jmin or abs(self.n) > jmin:
            raise IndexRangeError("|m| and |n| must not exceed min(j, j_prime)")

    @classmethod
    def diagonal(cls, j: int, m: int) -> "CoefficientIndex":
        return cls(j=j, j_prime=j, m=m, n=m)


def admissible_pairs(label: PrincipalSeriesLabel, idx: CoefficientIndex) -> list[tuple[int, int]]:
    """The (d, d') summation support of the general coefficient formula:
    all pairs keeping every factorial argument non-negative."""
    k, j, jp, m = label.k, idx.j, idx.j_prime, idx.m
    lo = max(0, -(k + m))
    pairs = []
    for d in range(lo, min(j - m, j - k) + 1):
        for dp in range(lo, min(jp - m, jp - k) + 1):
            if j + jp - d - dp - m - k >= 0:
                pairs.append((d, dp))
    return pairs


def duc_hieu_general(
    label: PrincipalSeriesLabel,
    idx: CoefficientIndex,
    epsilon: float,
) -> LogComplexValue:
    """General principal-series matrix coefficient (Duc-Hieu 1967 closed form):
    Kronecker delta in (m, n), a square-root factorial block, and a double sum
    over (d, d') of signed factorial ratios times boost powers times 2F1
    evaluations.

    Exact but O(j^2) hypergeometric evaluations per call; intended as an
    independent oracle at small j rather than a production route.
    """
    epsilon = check_epsilon(epsilon)
    k = label.k
    rho = complex(label.rho)
    j, jp, m, n = idx.j, idx.j_prime, idx.m, idx.n
    if abs(k) > min(j, jp):
        raise IndexRangeError("|k| must not exceed min(j, j_prime)")
    if m != n:
        return LogComplexValue.zero()

    lg = math.lgamma
    log_pref = 0.5 * (
        math.log(2 * j + 1.0)
        + math.log(2 * jp + 1.0)
        + lg(j + m + 1) + lg(jp + m + 1) + lg(j - m + 1) + lg(jp - m + 1)
        + lg(j + k + 1) + lg(jp + k + 1) + lg(j - k + 1) + lg(jp - k + 1)
    ) - lg(j + jp + 2)

    log_eps = math.log(epsilon)
    terms: list[LogComplexValue] = []
    for d, dp in admissible_pairs(label, idx):
        log_num = lg(d + dp + m + k + 1) + lg(j + jp - d - dp - m - k + 1)
        log_den = (
            lg(d + 1) + lg(dp + 1)
            + lg(j - m - d + 1) + lg(jp - m - dp + 1)
            + lg(k + m + d + 1) + lg(k + m + dp + 1)
            + lg(j - k - d + 1) + lg(jp - k - dp + 1)
        )
        power = (complex(2 * (2 * dp + m + k + 1), 0.0) + 1j * rho) * log_eps
        f = hyp2f1(jp + 1 + 0.5j * rho, d + dp + m + k + 1, j + jp + 2, 1.0 - epsilon**4)
        if f.is_zero:
            continue
        # the signed factorial ratio times the boost power times f
        terms.append(LogComplexValue(log_num - log_den + power.real + f.log_mag,
                                     math.pi * ((d + dp) % 2) + power.imag + f.phase))
    total = log_sum(terms)
    return total if total.is_zero else LogComplexValue(log_pref + total.log_mag, total.phase)


def mp_block_sum(j: int, tau: complex, eps: float, dps: int = 30):
    """sum_{|m| <= j} D_j(m, tau, eps) from mpmath's hyp2f1 at dps digits."""
    with mp.workdps(dps):
        e, t = mp.mpf(eps), mp.mpc(tau)
        a = j + 1 + 0.5j * t * j
        return mp.fsum(mp.power(e, 2 * (m + j + 1) + 1j * t * j)
                       * mp.hyp2f1(a, m + j + 1, 2 * j + 2, 1 - e**4)
                       for m in range(-j, j + 1))


def mp_block_quad(j: int, tau: complex, eps: float, dps: int = 30):
    """The same block as (2j+1) x eps^{i tau j} times the integral over
    [0, 1] of (1-t+xt)^{2j} (1-zt)^{-(j+1+i tau j/2)}, x = eps^2,
    z = 1 - eps^4, by mpmath.quad at dps digits: t <= 1/2 in t and t > 1/2
    in s = 1 - t, each cut where the end layer's width doubles and wherever
    the phase has turned by pi."""
    with mp.workdps(dps):
        e, t = mp.mpf(eps), mp.mpc(tau)
        x = e * e
        a = j + 1 + 0.5j * t * j
        lx = mp.log(x)
        total = 0
        # 1-t+xt = x^o (1 + c1 u) and 1-zt = x^{2o} (1 + c2 u), o = 0 or 1
        for c1, c2, o in ((x - 1, x * x - 1, 0), (1 / x - 1, 1 / (x * x) - 1, 1)):
            def f(u, c1=c1, c2=c2, o=o):
                return mp.exp(2 * j * (mp.log1p(c1 * u) + o * lx)
                              - a * (mp.log1p(c2 * u) + 2 * o * lx))
            cuts = [mp.mpf(0)]
            w = min(1, x * x, 1 / (x * x)) / (16 * max(j, 1) * max(1, (x - 1) ** 2))
            while w < 0.5:
                cuts.append(w)
                w *= 2
            cuts.append(mp.mpf(0.5))
            rate = abs(mp.re(t)) * j / 2
            points = [cuts[0]]
            for lo, hi in zip(cuts, cuts[1:]):
                l0, l1 = mp.log1p(c2 * lo), mp.log1p(c2 * hi)
                n = max(1, int(mp.ceil(rate * abs(l1 - l0) / mp.pi)))
                points += [mp.expm1(l0 + (l1 - l0) * k / n) / c2 for k in range(1, n)] + [hi]
            total += mp.quad(f, points)
        return (2 * j + 1) * x * mp.power(e, 1j * t * j) * total
