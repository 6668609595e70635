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


@functools.lru_cache(maxsize=128)
def _jy_eigenbasis(twice_j: int) -> tuple[tuple[float, ...], ...]:
    """Rows of the eigenbasis of J_y in the J_z basis, in a real gauge.

    J_y = P J_x P^H with P = diag((-i)^a), so V = P W diagonalises J_y, where
    W is the real orthogonal eigenbasis of J_x returned here. Row a is the
    state m = -j + a; column k has eigenvalue -j + k (eigh sorts ascending).
    """
    tms = np.arange(-twice_j, twice_j, 2, dtype=float)
    # <m+1| J_+ |m> = sqrt((j - m)(j + m + 1)), and J_x = (J_+ + J_-) / 2
    half_ladder = 0.25 * np.sqrt((twice_j - tms) * (twice_j + tms + 2.0))
    w = np.linalg.eigh(np.diag(half_ladder, -1) + np.diag(half_ladder, 1))[1]
    return tuple(map(tuple, w.tolist()))


_POWERS_OF_MINUS_I = (1.0, -1j, -1.0, 1j)


def _small_d(twice_j: int, twice_m: int, twice_n: int, beta):
    """d^{j}_{m n}(beta) for a float or an array of beta.

    With V the eigenbasis of J_y, d^j(beta) = V diag(e^{-i m_k beta}) V^H, so
    an entry is the trigonometric polynomial sum_k V[m, k] conj(V[n, k])
    e^{-i m_k beta} with m_k = -j..j, summed by Horner's rule in e^{-i beta}.
    The rows of V are unit vectors, so the absolute error stays near
    (2j + 1) machine epsilon at any spin.
    """
    rows = _jy_eigenbasis(twice_j)
    a, b = (twice_j + twice_m) // 2, (twice_j + twice_n) // 2
    exp = np.exp if isinstance(beta, np.ndarray) else cmath.exp
    z = exp(-1j * beta)
    total = 0j
    for x, y in zip(reversed(rows[a]), reversed(rows[b])):
        total = total * z + x * y
    # V[a, k] conj(V[b, k]) = (-i)^(a - b) W[a, k] W[b, k]
    return (_POWERS_OF_MINUS_I[(a - b) % 4] * total * exp(0.5j * twice_j * beta)).real


def wigner_small_d(spin: SpinLabel, twice_m: int, twice_n: int, beta: float) -> float:
    """d^{j}_{m n}(beta) for spin j = twice_j / 2 and indices m, n = twice_m/2, twice_n/2."""
    spin.check_index(twice_m)
    spin.check_index(twice_n)
    return _small_d(spin.twice_j, twice_m, twice_n, float(beta))


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
        """Inverse of to_json_dict; a missing or ill-typed field raises ValueError."""
        try:
            entries = {
                (int(e["twice_j"]), int(e["twice_m"])): complex(e["re"], e["im"])
                for e in data["entries"]
            }
            return cls(int(data["p"]), int(data["band_limit"]), entries)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed Fourier table: {exc!r}") from exc


def su2_fourier(
    phi: Callable[[SU2Element], complex],
    p: int,
    band_limit: int,
    grid: QuadratureGrid | None = None,
) -> FourierTableSU2:
    """Fourier coefficients sqrt(twice_j + 1) * integral of phi * conj(D-entry)
    over SU(2), along the row index |p|/2, up to the requested band.

    The default grid, haar_quadrature_su2(band_limit), is exact for phi band-limited
    to band_limit: band_limit + 1 alphas, band_limit // 2 + 1 Gauss-Legendre betas
    and 2 band_limit + 1 gammas. Pass a grid of a higher band for wider content.
    """
    p = int(p)
    band_limit = int(band_limit)
    if band_limit < 0:
        raise ValueError("band_limit must be non-negative")
    if grid is None:
        grid = haar_quadrature_su2(band_limit)
    if grid.twice_band_limit < band_limit:
        warnings.warn(
            f"quadrature band {grid.twice_band_limit} is below the transform band "
            f"{band_limit}; coefficients beyond the grid band are unreliable",
            stacklevel=2,
        )
    values = grid.sample(phi)
    weighted = values * grid.weight_array()
    mass = float(np.sum(np.abs(weighted)))
    # bound on the contraction roundoff: measured errors are 0.03 to 0.22 of
    # eps sqrt(N) mass (bands 8 to 24), so the factor 64 leaves >= 290x
    # headroom and still sits far below genuinely resolved rows
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
            dvals = _small_d(tj, abs(p), tm, grid.betas)
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


def paley_wiener_report(table: FourierTableSU2, powers: Sequence[int]) -> PaleyWienerReport:
    """Measure sup_m |entry| * (j/2)^n per row and flag whether each scaled
    sequence is non-increasing over the top half of the band; entries at or
    below the table's noise floor count as zeros."""
    floor = table.noise_floor
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
