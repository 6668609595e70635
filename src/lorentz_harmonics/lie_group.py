"""Group elements, the Cartan (KAK) decomposition g = u1 b u2 with
b = diag(1/eps, eps), and exact Haar quadrature on SU(2).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .special import check_label, gauss_legendre


class MatrixInvariantError(ValueError):
    """A matrix fails its group-membership invariant."""


def _as_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.shape != (2, 2):
        raise MatrixInvariantError(f"expected a 2x2 matrix, got shape {m.shape}")
    m = m.copy()
    m.setflags(write=False)
    return m


def _det(m: np.ndarray):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _check_su2(m: np.ndarray, tol: float) -> None:
    """Raise unless every matrix of the (..., 2, 2) stack has det 1 within tol
    and is unitary within max(tol, 1e-12); non-finite entries fail both."""
    with np.errstate(invalid="ignore"):
        derr = np.abs(_det(m) - 1.0)
        uerr = np.abs(m @ np.swapaxes(m.conj(), -1, -2) - np.eye(2))
    if not np.all(derr <= tol):
        raise MatrixInvariantError("determinant deviates from 1")
    if not np.all(uerr <= max(tol, 1e-12)):
        raise MatrixInvariantError(f"unitarity defect {np.max(uerr):.3e}")


@dataclass(frozen=True, eq=False)
class SL2CElement:
    """An element of SL(2,C): a 2x2 complex matrix with determinant 1."""

    matrix: np.ndarray
    tol: float = field(default=1e-12, repr=False)

    def __post_init__(self) -> None:
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        with np.errstate(all="ignore"):  # a non-finite det fails the check below
            d = _det(m)
        if not abs(d - 1.0) <= self.tol:
            raise MatrixInvariantError(f"det = {d} deviates from 1 beyond tol {self.tol}")

    @classmethod
    def from_flat(cls, parts: Sequence[float], tol: float = 1e-12) -> "SL2CElement":
        """Build from 8 reals: row-major entries, re/im interleaved."""
        parts = [float(x) for x in parts]
        if len(parts) != 8:
            raise MatrixInvariantError("expected 8 real numbers")
        vals = [complex(parts[2 * i], parts[2 * i + 1]) for i in range(4)]
        return cls(np.array([[vals[0], vals[1]], [vals[2], vals[3]]]), tol=tol)


@dataclass(frozen=True, eq=False)
class SU2Element:
    """An element of SU(2): unitary with determinant 1."""

    matrix: np.ndarray
    tol: float = field(default=1e-12, repr=False)

    def __post_init__(self) -> None:
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        _check_su2(m, self.tol)

    @classmethod
    def _checked(cls, matrix: np.ndarray, tol: float) -> "SU2Element":
        """Wrap a read-only matrix that has already passed _check_su2(matrix, tol)."""
        u = object.__new__(cls)
        object.__setattr__(u, "matrix", matrix)
        object.__setattr__(u, "tol", tol)
        return u

    @classmethod
    def identity(cls) -> "SU2Element":
        return cls(np.eye(2, dtype=complex))

    def euler_angles(self) -> tuple[float, float, float]:
        """z-y-z Euler angles (alpha, beta, gamma) with alpha in [0, 2pi),
        beta in [0, pi], gamma in [0, 4pi)."""
        return self._euler

    @cached_property
    def _euler(self) -> tuple[float, float, float]:
        a = self.matrix[0, 0]
        c = self.matrix[1, 0]
        beta = 2.0 * math.atan2(abs(c), abs(a))
        if abs(c) < 1e-15:
            # beta ~ 0: only alpha + gamma is determined
            tot = -2.0 * cmath.phase(a)
            alpha = tot % (2.0 * math.pi)
            gamma = (tot - alpha) % (4.0 * math.pi)
            return alpha, 0.0, gamma
        if abs(a) < 1e-15:
            dif = 2.0 * cmath.phase(c)
            alpha = dif % (2.0 * math.pi)
            gamma = (alpha - dif) % (4.0 * math.pi)
            return alpha, math.pi, gamma
        tot = -2.0 * cmath.phase(a)   # alpha + gamma mod 4pi
        dif = 2.0 * cmath.phase(c)    # alpha - gamma mod 4pi
        alpha = ((tot + dif) / 2.0) % (2.0 * math.pi)
        gamma = (tot - alpha) % (4.0 * math.pi)
        return alpha, beta, gamma


_EULER_TOL = 1e-10


def _euler_matrices(alpha, beta, gamma) -> np.ndarray:
    """The matrices of su2_from_euler for broadcast angle arrays, shape (..., 2, 2)."""
    with np.errstate(invalid="ignore"):  # non-finite angles fail _check_su2
        cb = np.cos(beta / 2.0)
        sb = np.sin(beta / 2.0)
        ea = np.exp(-0.5j * alpha)
        eg = np.exp(-0.5j * gamma)
        entries = np.broadcast_arrays(ea * eg * cb, -ea * sb / eg, sb * eg / ea, cb / (ea * eg))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def su2_from_euler(alpha: float, beta: float, gamma: float) -> SU2Element:
    """z-y-z Euler factorization u = e^{-i a s3/2} e^{-i b s2/2} e^{-i g s3/2}.

    Angles outside the canonical ranges are accepted and wrapped by the
    double-cover periodicity of the parametrization itself.
    """
    return SU2Element(_euler_matrices(float(alpha), float(beta), float(gamma)), tol=_EULER_TOL)


@dataclass(frozen=True)
class CartanFactors:
    """The decomposition g = u1 diag(1/eps, eps) u2 with eps >= 1."""

    u1: SU2Element
    epsilon: float
    u2: SU2Element

    def __post_init__(self) -> None:
        if self.epsilon < 1.0 - 1e-12:
            raise ValueError(f"epsilon = {self.epsilon} violates the eps >= 1 convention")


# Largest eps - 1 that cartan_decompose treats as no boost at all
_DEGENERACY_TOL = 1e-12


def cartan_decompose(g: SL2CElement) -> CartanFactors:
    """Factor g = u1 diag(1/eps, eps) u2 via the 2x2 singular value decomposition.

    eps is the larger singular value (a det-1 matrix has singular values eps
    and 1/eps).  Phase conventions: both unitary factors are scaled to
    determinant 1, and the remaining diagonal phase freedom is fixed by making
    the first nonzero component of u1's first column real positive, with the
    compensating phase pushed into u2.  When eps = 1 the factors are
    non-unique: u2 = identity and u1 = g's nearest unitary of det 1 (g itself,
    up to g's det error) are returned, as for eps within _DEGENERACY_TOL of 1.
    """
    U, sv, Vh = np.linalg.svd(g.matrix)
    eps = float(sv[0])
    if eps <= 1.0 + _DEGENERACY_TOL:
        u1 = U @ Vh / cmath.sqrt(_det(U @ Vh))
        return CartanFactors(SU2Element(u1, tol=1e-9), 1.0, SU2Element.identity())
    # reorder so the boost is diag(1/eps, eps)
    P = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u1 = U @ P
    u2 = P @ Vh
    # scalar phases to reach det 1 on both factors
    th = cmath.phase(_det(u1))
    u1 = u1 * cmath.exp(-0.5j * th)
    u2 = u2 * cmath.exp(+0.5j * th)
    # residual diag(e^{i p}, e^{-i p}) freedom commutes with the boost
    col = u1[:, 0]
    lead = col[0] if abs(col[0]) > 1e-12 else col[1]
    p = cmath.phase(lead)
    D = np.diag([cmath.exp(-1j * p), cmath.exp(1j * p)])
    u1 = u1 @ D
    u2 = np.conj(D) @ u2
    return CartanFactors(
        SU2Element(u1, tol=1e-9), eps, SU2Element(u2, tol=1e-9)
    )


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """The smallest tensor grid on SU(2) integrating conj(D^{s1}) D^{s2}
    exactly for 2 s1, 2 s2 <= B = twice_band_limit, with normalized Haar
    weights (they sum to 1): B + 1 uniform alphas on [0, 2pi)
    (|m1 - m2| <= B), 2B + 1 uniform gammas on [0, 4pi) (|2(n1 - n2)| <= 2B,
    and a mixed-parity product sums to exactly zero) and B//2 + 1
    Gauss-Legendre betas (d^{s1}_{mn} d^{s2}_{mn} is a polynomial of degree
    s1 + s2 <= B in cos beta): (B + 1)(B//2 + 1)(2B + 1) nodes.

    row = |p| builds the grid of su2_fourier's integrals alone, phi
    band-limited to B against conj(D^{s}_{|p|/2, n}): their alpha frequencies
    |p|/2 - m' with |m'| <= B/2 need min(B, (B + |p|)//2) + 1 alphas (a row
    beyond B has no entries).  It is not exact for every Gram product.  None
    means every row.  The read-only node arrays are built from (B, row); a
    B or row that is not an integer raises IndexRangeError, a negative one
    ValueError.  Immutable and safe to share across threads.
    """

    twice_band_limit: int
    row: int | None = None
    alphas: np.ndarray = field(init=False, repr=False)
    betas: np.ndarray = field(init=False, repr=False)
    beta_weights: np.ndarray = field(init=False, repr=False)
    gammas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        B = check_label(self.twice_band_limit, "twice_band_limit")
        row = None if self.row is None else check_label(self.row, "row")
        object.__setattr__(self, "twice_band_limit", B)
        object.__setattr__(self, "row", row)
        if B < 0:
            raise ValueError("band limit must be non-negative")
        if row is not None and row < 0:
            raise ValueError(f"row must be |p| >= 0, got {row}")
        n_alpha = B + 1 if row is None else min(B, (B + row) // 2) + 1
        x, weights = gauss_legendre(B // 2 + 1)
        nodes = {"alphas": 2.0 * math.pi * np.arange(n_alpha) / n_alpha,
                 "betas": np.arccos(x), "beta_weights": weights,
                 "gammas": 4.0 * math.pi * np.arange(2 * B + 1) / (2 * B + 1)}
        for name, arr in nodes.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_nodes(self) -> int:
        return len(self.alphas) * len(self.betas) * len(self.gammas)

    def weight_array(self) -> np.ndarray:
        """Weights on the (alpha, beta, gamma) tensor grid, total mass 1."""
        wa = np.full(len(self.alphas), 1.0 / len(self.alphas))
        wg = np.full(len(self.gammas), 1.0 / len(self.gammas))
        return wa[:, None, None] * (self.beta_weights / 2.0)[None, :, None] * wg[None, None, :]

    def sample(self, phi: Callable[[SU2Element], complex]) -> np.ndarray:
        """Evaluate phi on the tensor grid; shape (n_alpha, n_beta, n_gamma). The nodes
        are built and checked one read-only (beta, gamma) stack per alpha."""
        out = np.empty((len(self.alphas), len(self.betas), len(self.gammas)), dtype=complex)
        for a, row in zip(self.alphas, out.reshape(len(self.alphas), -1)):
            stack = _euler_matrices(a, self.betas[:, None], self.gammas[None, :]).reshape(-1, 2, 2)
            _check_su2(stack, _EULER_TOL)
            stack.setflags(write=False)
            row[:] = [phi(SU2Element._checked(m, _EULER_TOL)) for m in stack]
        return out


__all__ = [
    "CartanFactors",
    "MatrixInvariantError",
    "QuadratureGrid",
    "SL2CElement",
    "SU2Element",
    "cartan_decompose",
    "su2_from_euler",
]
