"""SU(2) irreducible representation matrices for half-integer spin, the scaled
SU(2) Fourier transform over a fixed row index, and decay diagnostics of the
resulting coefficient tables.

Spins are bookkept as twice_j integers throughout (spin = twice_j / 2), so
half-integer labels never touch floating point.
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .lie_group import QuadratureGrid, SU2Element, haar_quadrature_su2

_EPS = float(np.finfo(float).eps)


class WignerIndexError(ValueError):
    """Magnetic index outside the valid range or of the wrong parity."""


@dataclass(frozen=True)
class SpinLabel:
    """Spin j/2 stored as twice_j."""

    twice_j: int

    def __post_init__(self) -> None:
        if self.twice_j < 0:
            raise WignerIndexError("twice_j must be non-negative")

    @property
    def spin(self) -> float:
        return self.twice_j / 2.0

    def check_index(self, twice_m: int) -> None:
        if abs(twice_m) > self.twice_j or (twice_m - self.twice_j) % 2 != 0:
            raise WignerIndexError(
                f"twice_m = {twice_m} invalid for twice_j = {self.twice_j}"
            )


def _lf(n: int) -> float:
    return math.lgamma(n + 1.0)


@functools.lru_cache(maxsize=4096)
def _small_d_terms(twice_j: int, twice_m: int, twice_n: int) -> tuple[tuple, ...]:
    """The beta-independent part of the signed factorial sum for d^{j}_{m n}:
    per summation index k, (log-magnitude of the coefficient, sign, cosine
    exponent, sine exponent) of the term c^p s^q, c, s = cos, sin(beta/2)."""
    tj, tm, tn = twice_j, twice_m, twice_n
    jm = (tj + tm) // 2
    jmm = (tj - tm) // 2
    jn = (tj + tn) // 2
    jmn = (tj - tn) // 2
    mn = (tm - tn) // 2
    half_norm = 0.5 * (_lf(jm) + _lf(jmm) + _lf(jn) + _lf(jmn))
    return tuple(
        (half_norm - (_lf(jn - k) + _lf(k) + _lf(jmm - k) + _lf(mn + k)),
         1.0 if (mn + k) % 2 == 0 else -1.0, tj - 2 * k - mn, 2 * k + mn)
        for k in range(max(0, -mn), min(jn, jmm) + 1)
    )


def _small_d_values(twice_j: int, twice_m: int, twice_n: int, betas: np.ndarray) -> np.ndarray:
    """Wigner small-d at each beta via the signed factorial sum.

    Terms are combined after factoring out the per-beta maximum of their
    log-magnitudes, which keeps the evaluation valid for large spins where the
    raw factorials overflow.
    """
    terms = _small_d_terms(twice_j, twice_m, twice_n)
    betas = np.asarray(betas, dtype=float)
    if not terms:
        return np.zeros_like(betas)
    log_coef, signs, p, q = np.array(terms).T

    c = np.cos(betas / 2.0)
    s = np.sin(betas / 2.0)
    # 0^0 = 1: suppress the log only when the exponent vanishes
    with np.errstate(divide="ignore", invalid="ignore"):
        logc = np.log(np.abs(c))
        logs = np.log(np.abs(s))
        termlog = (
            log_coef[:, None]
            + np.where(p[:, None] != 0, p[:, None] * logc[None, :], 0.0)
            + np.where(q[:, None] != 0, q[:, None] * logs[None, :], 0.0)
        )
    top = np.max(termlog, axis=0)
    out = np.zeros_like(betas)
    finite = top > -math.inf
    if np.any(finite):
        rel = np.where(
            np.isfinite(termlog[:, finite]), np.exp(termlog[:, finite] - top[finite]), 0.0
        )
        ssum = np.sum(signs[:, None] * rel, axis=0)
        val = np.sign(ssum) * np.exp(top[finite] + np.log(np.abs(ssum), where=ssum != 0,
                                                          out=np.full(ssum.shape, -math.inf)))
        out[finite] = np.where(ssum == 0.0, 0.0, val)
    return out


def _small_d_scalar(twice_j: int, twice_m: int, twice_n: int, beta: float) -> float:
    # the terms of _small_d_values at one beta, without the array overhead
    c = math.cos(beta / 2.0)
    s = math.sin(beta / 2.0)
    logc = math.log(abs(c)) if c != 0.0 else -math.inf
    logs = math.log(abs(s)) if s != 0.0 else -math.inf
    termlogs: list[float] = []
    signs: list[float] = []
    for lt, sign, p, q in _small_d_terms(twice_j, twice_m, twice_n):
        if p:
            if c == 0.0:
                continue
            lt += p * logc
        if q:
            if s == 0.0:
                continue
            lt += q * logs
        termlogs.append(lt)
        signs.append(sign)
    if not termlogs:
        return 0.0
    top = max(termlogs)
    total = math.fsum(sg * math.exp(lt - top) for sg, lt in zip(signs, termlogs))
    if total == 0.0:
        return 0.0
    return math.copysign(math.exp(top + math.log(abs(total))), total)


def wigner_small_d(spin: SpinLabel, twice_m: int, twice_n: int, beta: float) -> float:
    """d^{j}_{m n}(beta) for spin j = twice_j / 2 and indices m, n = twice_m/2, twice_n/2."""
    spin.check_index(twice_m)
    spin.check_index(twice_n)
    return _small_d_scalar(spin.twice_j, twice_m, twice_n, float(beta))


def wigner_D(spin: SpinLabel, twice_m: int, twice_n: int, u: SU2Element) -> complex:
    """Matrix coefficient D^{j}_{m n}(u) = e^{-i m alpha} d^{j}_{m n}(beta) e^{-i n gamma}."""
    alpha, beta, gamma = u.euler_angles()
    d = wigner_small_d(spin, twice_m, twice_n, beta)
    return cmath.exp(-0.5j * twice_m * alpha) * d * cmath.exp(-0.5j * twice_n * gamma)


@dataclass(frozen=True)
class FourierTableSU2:
    """Scaled Fourier coefficients of a function on SU(2) along the fixed row
    index |p|/2: entry(twice_j, twice_m) = sqrt(twice_j + 1) * <phi, D-entry>.

    Entries exist for twice_j from |p| to band_limit with twice_j = |p| (mod 2)
    and |twice_m| <= twice_j with matching parity; everything else is read as
    an exact zero (the zero-extension used by the boost-series map).
    noise_floor records the estimated absolute quadrature error of the entries;
    0 means "not estimated".
    """

    p: int
    band_limit: int
    entries: Mapping[tuple[int, int], complex]
    noise_floor: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.band_limit < 0:
            raise ValueError("band_limit must be non-negative")
        clean: dict[tuple[int, int], complex] = {}
        for (tj, tm), v in dict(self.entries).items():
            self._check_key(tj, tm)
            clean[(int(tj), int(tm))] = complex(v)
        object.__setattr__(self, "entries", clean)

    def _check_key(self, tj: int, tm: int) -> None:
        if tj < abs(self.p) or tj > self.band_limit:
            raise WignerIndexError(f"twice_j = {tj} outside [|p|, band_limit]")
        if (tj - abs(self.p)) % 2 != 0:
            raise WignerIndexError(f"twice_j = {tj} has wrong parity for p = {self.p}")
        if abs(tm) > tj or (tm - tj) % 2 != 0:
            raise WignerIndexError(f"twice_m = {tm} invalid at twice_j = {tj}")

    def get(self, twice_j: int, twice_m: int) -> complex:
        return self.entries.get((twice_j, twice_m), 0j)

    def row_twice_js(self) -> list[int]:
        return list(range(abs(self.p), self.band_limit + 1, 2))

    def sup_by_row(self) -> dict[int, float]:
        sup = {tj: 0.0 for tj in self.row_twice_js()}
        for (tj, _), v in self.entries.items():
            sup[tj] = max(sup[tj], abs(v))
        return sup

    def abs_sum_by_row(self) -> dict[int, float]:
        out = {tj: 0.0 for tj in self.row_twice_js()}
        for (tj, _), v in self.entries.items():
            out[tj] += abs(v)
        return out

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "band_limit": self.band_limit,
            "entries": [
                {"twice_j": tj, "twice_m": tm, "re": v.real, "im": v.imag}
                for (tj, tm), v in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FourierTableSU2":
        entries = {
            (int(e["twice_j"]), int(e["twice_m"])): complex(e["re"], e["im"])
            for e in data["entries"]
        }
        return cls(int(data["p"]), int(data["band_limit"]), entries)


def su2_fourier(
    phi: Callable[[SU2Element], complex],
    p: int,
    band_limit: int,
    grid: QuadratureGrid | None = None,
) -> FourierTableSU2:
    """Fourier coefficients sqrt(twice_j + 1) * integral of phi * conj(D-entry)
    over SU(2), along the row index |p|/2, up to the requested band.

    The default grid resolves products of two band-limited factors up to
    band_limit each; pass an oversampled grid for functions with wider
    spectral content.
    """
    p = int(p)
    band_limit = int(band_limit)
    if band_limit < 0:
        raise ValueError("band_limit must be non-negative")
    if grid is None:
        grid = haar_quadrature_su2(2 * band_limit)
    if grid.twice_band_limit < band_limit:
        warnings.warn(
            f"quadrature band {grid.twice_band_limit} is below the transform band "
            f"{band_limit}; coefficients beyond the grid band are unreliable",
            stacklevel=2,
        )
    values = grid.sample(phi)
    weighted = values * grid.weight_array()
    mass = float(np.sum(np.abs(weighted)))
    # empirical bound on the contraction roundoff (the random-walk model
    # eps sqrt(N) mass understates the staged tensor contractions ~15x;
    # the factor 64 gives headroom without eating genuinely resolved rows)
    floor = 64.0 * _EPS * math.sqrt(grid.n_nodes) * mass

    # alpha contraction against conj of the fixed-row character e^{-i(|p|/2) a}
    ea = np.exp(0.5j * abs(p) * grid.alphas)
    A = np.tensordot(ea, weighted, axes=(0, 0))  # (n_beta, n_gamma)

    tms = np.array([tm for tm in range(-band_limit, band_limit + 1)
                    if (tm - abs(p)) % 2 == 0])
    if len(tms) == 0:
        return FourierTableSU2(p, band_limit, {}, noise_floor=floor)
    EG = np.exp(0.5j * np.outer(grid.gammas, tms))
    G = A @ EG  # (n_beta, n_tm)

    entries: dict[tuple[int, int], complex] = {}
    tm_index = {int(tm): i for i, tm in enumerate(tms)}
    for tj in range(abs(p), band_limit + 1, 2):
        scale = math.sqrt(tj + 1.0)
        for tm in range(-tj, tj + 1, 2):
            dvals = _small_d_values(tj, abs(p), tm, grid.betas)
            entries[(tj, tm)] = scale * complex(np.dot(dvals, G[:, tm_index[tm]]))
    return FourierTableSU2(p, band_limit, entries, noise_floor=floor)


def synthesize_su2(table: FourierTableSU2, u: SU2Element) -> complex:
    """Evaluate the function represented by a Fourier table at a group point:
    sum over entries of sqrt(twice_j + 1) * entry * D-entry(u)."""
    total = 0j
    row = abs(table.p)
    for (tj, tm), v in table.entries.items():
        total += math.sqrt(tj + 1.0) * v * wigner_D(SpinLabel(tj), row, tm, u)
    return total


def parseval_sum(table: FourierTableSU2) -> float:
    return math.fsum(abs(v) ** 2 for v in table.entries.values())


@dataclass(frozen=True)
class PaleyWienerReport:
    """Per-row decay diagnostics: sup over the column index of |entry|, scaled
    by (j/2)^n for each requested power n, plus a monotonicity flag over the
    top half of the band.

    Entries at or below the noise floor are treated as exact zeros; the flag
    then reflects the resolvable part of the decay.
    """

    p: int
    band_limit: int
    noise_floor: float
    twice_js: tuple[int, ...]
    sup_values: tuple[float, ...]
    scaled: Mapping[int, tuple[float, ...]]
    non_increasing_top_half: Mapping[int, bool]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "band_limit": self.band_limit,
            "noise_floor": self.noise_floor,
            "twice_js": list(self.twice_js),
            "sup_values": list(self.sup_values),
            "scaled": {str(n): list(v) for n, v in self.scaled.items()},
            "non_increasing_top_half": {
                str(n): bool(v) for n, v in self.non_increasing_top_half.items()
            },
        }


def paley_wiener_report(
    table: FourierTableSU2,
    powers: Sequence[int],
    noise_floor: float | None = None,
) -> PaleyWienerReport:
    """Measure sup_m |entry| * (j/2)^n per row and flag whether each scaled
    sequence is non-increasing over the top half of the band."""
    floor = table.noise_floor if noise_floor is None else float(noise_floor)
    tjs = table.row_twice_js()
    sup = table.sup_by_row()
    sup_f = [0.0 if sup[tj] <= floor else sup[tj] for tj in tjs]

    scaled: dict[int, tuple[float, ...]] = {}
    flags: dict[int, bool] = {}
    half_start = table.band_limit / 2.0
    top_idx = [i for i, tj in enumerate(tjs) if tj >= half_start]
    for n in powers:
        n = int(n)
        if n < 0:
            raise ValueError("powers must be natural numbers")
        seq = tuple(s * (tj / 2.0) ** n if n > 0 else s for s, tj in zip(sup_f, tjs))
        scaled[n] = seq
        ok = True
        for i0, i1 in zip(top_idx, top_idx[1:]):
            if seq[i1] > seq[i0] * (1.0 + 1e-12):
                ok = False
                break
        flags[n] = ok
    return PaleyWienerReport(
        p=table.p,
        band_limit=table.band_limit,
        noise_floor=floor,
        twice_js=tuple(tjs),
        sup_values=tuple(sup[tj] for tj in tjs),
        scaled=scaled,
        non_increasing_top_half=flags,
    )


__all__ = [
    "FourierTableSU2",
    "PaleyWienerReport",
    "SpinLabel",
    "WignerIndexError",
    "paley_wiener_report",
    "parseval_sum",
    "su2_fourier",
    "synthesize_su2",
    "wigner_D",
    "wigner_small_d",
]
