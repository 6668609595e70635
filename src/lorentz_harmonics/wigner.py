"""SU(2) irreducible representation matrices for half-integer spin, the scaled
SU(2) Fourier transform over a fixed row index, and decay diagnostics of the
resulting coefficient tables.

Spins are bookkept as twice_j integers throughout (spin = twice_j / 2), so
half-integer labels never touch floating point.  Labels, sizes and powers are
read by special.check_label; a twice_m at its twice_j by _check_twice_m alone.
"""
from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .lie_group import QuadratureGrid, SU2Element
from .special import IndexRangeError, check_label

_EPS = float(np.finfo(float).eps)


class WignerIndexError(ValueError):
    """Magnetic index outside the valid range or of the wrong parity."""


def _check_twice_m(twice_j: int, twice_m) -> int:
    """twice_m as an int (check_label), which must satisfy |twice_m| <= twice_j
    and have twice_j's parity; otherwise WignerIndexError."""
    twice_m = check_label(twice_m, "twice_m")
    if abs(twice_m) > twice_j or (twice_m - twice_j) % 2 != 0:
        raise WignerIndexError(f"twice_m = {twice_m} invalid for twice_j = {twice_j}")
    return twice_m


@dataclass(frozen=True)
class SpinLabel:
    """Spin j/2 stored as twice_j."""

    twice_j: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "twice_j", check_label(self.twice_j, "twice_j"))
        if self.twice_j < 0:
            raise WignerIndexError("twice_j must be non-negative")

    def check_index(self, twice_m: int) -> int:
        return _check_twice_m(self.twice_j, twice_m)


@functools.lru_cache(maxsize=128)
def _jy_eigenbasis(twice_j: int) -> np.ndarray:
    """The eigenbasis V of J_y = (J_+ - J_-) / 2i in the J_z basis, read-only:
    row a is the state m = -j + a, column k has eigenvalue m_k = -j + k (eigh
    sorts ascending), so d^j(beta) = V diag(e^{-i m_k beta}) V^H.
    """
    tms = np.arange(-twice_j, twice_j, 2, dtype=float)
    # <m+1| J_y |m> = <m+1| J_+ |m> / 2i, <m+1| J_+ |m> = sqrt((j - m)(j + m + 1))
    half_ladder = 0.25j * np.sqrt((twice_j - tms) * (twice_j + tms + 2.0))
    v = np.linalg.eigh(np.diag(-half_ladder, -1) + np.diag(half_ladder, 1))[1]
    v.setflags(write=False)
    return v


@functools.lru_cache(maxsize=128)
def _d_row_weights(twice_j: int, twice_m: int) -> np.ndarray:
    """The weights V[m, k] conj(V[n, k]) of d^j's row m, n on axis 0 and k on
    axis 1, read-only: (weights @ phases).real is d^{j}_{m n}(beta) for every
    n, from phases[k] = e^{-i m_k beta} (m_k = -j..j) with betas on further
    axes.  The rows of V are unit vectors, so the absolute error of a d value
    stays near (2j + 1) machine epsilon at any spin."""
    v = _jy_eigenbasis(twice_j)
    weights = v[(twice_j + twice_m) // 2] * v.conj()
    weights.setflags(write=False)
    return weights


def wigner_small_d(spin: SpinLabel, twice_m: int, twice_n: int, beta: float) -> float:
    """d^{j}_{m n}(beta) for spin j = twice_j / 2 and indices m, n = twice_m/2, twice_n/2."""
    twice_m, twice_n = spin.check_index(twice_m), spin.check_index(twice_n)
    tj = spin.twice_j
    phases = np.exp(-0.5j * float(beta) * np.arange(-tj, tj + 1, 2))
    return float((_d_row_weights(tj, twice_m)[(tj + twice_n) // 2] @ phases).real)


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
        p, band = check_label(self.p, "p"), check_label(self.band_limit, "band_limit")
        if band < 0:
            raise ValueError("band_limit must be non-negative")
        clean: dict[tuple[int, int], complex] = {}
        for (tj, tm), v in dict(self.entries).items():
            tj = check_label(tj, "twice_j")
            if tj < abs(p) or tj > band:
                raise WignerIndexError(f"twice_j = {tj} outside [|p|, band_limit]")
            if (tj - abs(p)) % 2 != 0:
                raise WignerIndexError(f"twice_j = {tj} has wrong parity for p = {p}")
            clean[tj, _check_twice_m(tj, tm)] = v = complex(v)
            if not cmath.isfinite(v):
                raise ValueError(f"Fourier entry ({tj}, {tm}) = {v!r} is not finite")
        for name, value in (("p", p), ("band_limit", band), ("entries", clean)):
            object.__setattr__(self, name, value)

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
        """Inverse of to_json_dict; a missing or ill-typed field, a label that is
        not an integral number (a bool, 0.9, "2") or a repeated key raises ValueError."""
        try:
            entries = {}
            for e in data["entries"]:
                key = e["twice_j"], e["twice_m"]
                if key in entries:
                    raise ValueError(f"malformed Fourier table: duplicate key {key}")
                entries[key] = complex(e["re"], e["im"])
            return cls(data["p"], data["band_limit"], entries)
        except (KeyError, TypeError, IndexRangeError) as exc:
            raise ValueError(f"malformed Fourier table: {exc!r}") from exc


def su2_fourier(
    phi: Callable[[SU2Element], complex],
    p: int,
    band_limit: int,
    grid: QuadratureGrid | None = None,
) -> FourierTableSU2:
    """Fourier coefficients sqrt(twice_j + 1) * integral of phi * conj(D-entry)
    over SU(2), along the row index |p|/2, up to the requested band.

    The default grid, QuadratureGrid(band_limit, row=|p|), is exact for phi
    band-limited to band_limit: (band_limit + |p|) // 2 + 1 alphas, band_limit // 2 + 1
    Gauss-Legendre betas and 2 band_limit + 1 gammas. Pass a grid of a higher band
    for wider content, full (row None) or of row |p|; another row raises ValueError.
    With |p| above band_limit the table is empty and phi is not sampled.
    """
    p = check_label(p, "p")
    row = abs(p)
    band_limit = check_label(band_limit, "band_limit")
    if band_limit < 0:
        raise ValueError("band_limit must be non-negative")
    if grid is None:
        grid = QuadratureGrid(band_limit, row)
    if grid.row is not None and grid.row != row:
        raise ValueError(f"the grid carries row {grid.row}, not the transform row |p| = {row}")
    if grid.twice_band_limit < band_limit:
        warnings.warn(
            f"quadrature band {grid.twice_band_limit} is below the transform band "
            f"{band_limit}; coefficients beyond the grid band are unreliable",
            stacklevel=2,
        )
    if row > band_limit:
        return FourierTableSU2(p, band_limit, {})
    weighted = grid.sample(phi) * grid.weight_array()
    mass = float(np.sum(np.abs(weighted)))
    # bound on the contraction roundoff: measured errors are 0.03 to 0.22 of
    # eps sqrt(N) mass (bands 8 to 24), so the factor 64 leaves >= 290x
    # headroom and still sits far below genuinely resolved rows
    floor = 64.0 * _EPS * math.sqrt(grid.n_nodes) * mass

    # contract alpha against conj(e^{-i(|p|/2) a}), gamma against conj(e^{-i (tm/2) g})
    # for tm = -band..band (column band + tm), then beta against each spin's d-row
    A = np.tensordot(np.exp(0.5j * row * grid.alphas), weighted, axes=(0, 0))
    tms = np.arange(-band_limit, band_limit + 1)
    G = A @ np.exp(0.5j * np.outer(grid.gammas, tms))  # (n_beta, n_tm)
    phases = np.exp(-0.5j * np.outer(tms, grid.betas))  # (n_tm, n_beta)

    entries: dict[tuple[int, int], complex] = {}
    for tj in range(row, band_limit + 1, 2):
        span = slice(band_limit - tj, band_limit + tj + 1, 2)
        d = (_d_row_weights(tj, row) @ phases[span]).real  # (tj + 1, n_beta)
        column = math.sqrt(tj + 1.0) * np.einsum("nk,kn->n", d, G[:, span])
        entries.update(zip([(tj, tm) for tm in range(-tj, tj + 1, 2)], column.tolist()))
    return FourierTableSU2(p, band_limit, entries, noise_floor=floor)


def synthesize_su2(table: FourierTableSU2, u: SU2Element) -> complex:
    """Evaluate the function represented by a Fourier table at a group point:
    sum over entries of sqrt(twice_j + 1) * entry * D-entry(u), one d-row per spin."""
    alpha, beta, gamma = u.euler_angles()
    row, B = abs(table.p), table.band_limit
    phases = np.exp(-0.5j * beta * np.arange(-B, B + 1))
    d = {tj: (_d_row_weights(tj, row) @ phases[B - tj:B + tj + 1:2]).real
         for tj in {tj for tj, _ in table.entries}}
    total = sum(math.sqrt(tj + 1.0) * v * d[tj][(tj + tm) // 2] * cmath.exp(-0.5j * tm * gamma)
                for (tj, tm), v in table.entries.items())
    return cmath.exp(-0.5j * row * alpha) * total


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
    top_idx = [i for i, tj in enumerate(tjs) if tj >= table.band_limit / 2.0]
    for n in powers:
        n = check_label(n, "power")
        if n < 0:
            raise ValueError("powers must be natural numbers")
        seq = scaled[n] = tuple(s * (tj / 2.0) ** n if n > 0 else s for s, tj in zip(sup_f, tjs))
        flags[n] = all(seq[i1] <= seq[i0] * (1.0 + 1e-12) for i0, i1 in zip(top_idx, top_idx[1:]))
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
