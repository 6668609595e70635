"""Special functions: complex log-gamma, the Gauss hypergeometric function
for complex parameters and real argument, and the large-j saddle-point term
used for boost coefficients beyond the exact evaluation window, for one pair
(j, m) or a batch of them; and the package's input rules, applied before
any work: one for a label, index, size or power
(check_label, check_labels), one for a coefficient pair (check_pair), one
for a boost parameter eps (check_epsilon) and one for tau (check_tau).

All magnitude-critical results come back as LogComplexValue.
"""
from __future__ import annotations

import cmath
import functools
import math
import operator

import numpy as np

from .logcomplex import LogComplexValue, wrap_phases

MAX_SERIES_TERMS = 100_000
SERIES_TAIL_REL = 1e-17
_LOG_TAIL = math.log(SERIES_TAIL_REL)
# The series kernel's blocks are a multiple of _BLOCK terms, itself a multiple
# of the SIMD width, so that every row meets the same vector lanes whatever
# rows share its call; _sum_series sizes them from the rate w, to at most
# _STEPS.size terms, and its passes to as many entries (rows x terms) or two
# rows: two or four times as many raised the peak RSS of diag-scan and
# triple-grid by 0.3 to 1.7 MB, and one row made 64-row batches at eps 3.6
# 12 to 20% slower.
_BLOCK = 64
_STEPS = np.arange(192 * _BLOCK, dtype=float)
# the kernel's sums (Re, Im, |t|, their Kahan compensations) and unit at n = 0
_SEED = np.array([[1.0], [0.0], [1.0], [0.0], [0.0], [0.0]])
_UNIT = np.ones(1, dtype=complex)
# Rows of triple_block_log per direct evaluation (exp, cos, sin per node);
# the rows between carry the one before, rounding more with each: at 16 the
# direct rows take a fifth of the time at j_max = 1000, at 32 a tenth.
_CARRY_ROWS = 16
_TINY = np.finfo(float).tiny
_HUGE = 2.0**1000   # bound on a block's terms relative to the last term summed
_ULP = 2.0**-52
# Largest accepted 2^-52 * sum|t| / |sum t| (times the caller's weight) of a
# series; see check_cancellation.
CANCELLATION_LIMIT = 3e-12
# e-folds (48.6) by which a series' terms fall below its largest before it
# stops, if its sum cancels by as much as check_cancellation accepts
_TAIL_FOLDS = math.log(CANCELLATION_LIMIT / _ULP) - _LOG_TAIL
# Gauss-Legendre nodes per panel of triple_block_log, and the largest phase
# turn (radians) of its integrand within one panel
_GAUSS_NODES = 20
_PANEL_TURN = 3.0
# Largest node count of a triple_block_log call (it grows like |Re tau| j_max
# |log eps|; 246,700 at tau = -2, eps = 0.1, j_max = 4000): at about 200 bytes
# per node (tracemalloc peak, 12.6 MB at j_max = 1000 there), 210 MB at most
_MAX_NODES = 2**20
# triple_block_log skips a node whose term is below e^-_NEGLIGIBLE of its
# row's largest (with weights summing to 1, far below the row's sum|w f|)
_NEGLIGIBLE = 60.0

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_LOG_SQRT_2PI = 0.91893853320467274178


class GammaPoleError(ValueError):
    """log_gamma evaluated at a non-positive integer."""


class Hyp2F1DomainError(ValueError):
    """Hypergeometric parameters or argument outside the supported domain."""


class SeriesConvergenceError(RuntimeError):
    """A hypergeometric series failed to reach tolerance within the term cap."""


class EpsilonDomainError(ValueError):
    """Boost parameter outside the operation's domain."""


class SaddlePointDomainError(RuntimeError):
    """The single-saddle large-j term does not apply at these parameters.

    The labels themselves are valid, so this is a numerical failure rather
    than a domain (ValueError) error: no value is returned.
    """


class IndexRangeError(ValueError):
    """Coefficient index outside its admissible range."""


def check_label(value, name: str) -> int:
    """A label, index, size or power as an int: an integer, or an integral float
    such as 2.0; anything else, a bool included, raises IndexRangeError."""
    if type(value) is int:
        return value
    if isinstance(value, (float, np.floating)):
        if float(value).is_integer():
            return int(value)
    elif not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise IndexRangeError(f"{name} = {value!r} is not an integer")


def check_labels(values, name: str) -> np.ndarray:
    """check_label for each entry, as one int64 array."""
    a = np.asarray(values).reshape(-1)
    if a.dtype.kind not in "iu":   # floats, say: each entry by check_label's rule
        a = np.array([check_label(v, name) for v in a.tolist()], dtype=np.int64)
    return a.astype(np.int64)


def check_pair(j, m) -> None:
    """The coefficient pair rule on int labels j, m, or elementwise on non-empty
    int arrays of them: IndexRangeError unless j >= 0 and |m| <= j."""
    if isinstance(j, np.ndarray):   # the first pair that fails, or one that holds
        i = int(np.argmax(j < 0) if j.min() < 0 else np.argmax(np.abs(m) > j))
        j, m = int(j[i]), int(m[i])
    if j < 0:
        raise IndexRangeError("j must be non-negative")
    if abs(m) > j:
        raise IndexRangeError(f"|m| = {abs(m)} exceeds j = {j}")


def check_tau(tau) -> complex:
    """tau as a complex; raises ValueError unless both its parts are finite."""
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    return tau


def check_epsilon(epsilon) -> float:
    """eps as a float; raises EpsilonDomainError unless it is positive and
    finite, before any series work."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon < math.inf:
        raise EpsilonDomainError(f"epsilon must be positive and finite, got {epsilon}")
    return epsilon


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    z = complex(z)
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)) stable against overflow for large |Im z|."""
    if abs(z.imag) < 20.0:
        return cmath.log(cmath.sin(cmath.pi * z))
    # sin(pi z) = (e^{i pi z} - e^{-i pi z}) / (2i); keep the dominant exponential
    if z.imag > 0:
        # |e^{-i pi z}| dominates
        return (
            -1j * cmath.pi * z
            + cmath.log(1 - cmath.exp(2j * cmath.pi * z))
            - cmath.log(2j)
            + 1j * cmath.pi
        )
    return 1j * cmath.pi * z + cmath.log(1 - cmath.exp(-2j * cmath.pi * z)) - cmath.log(2j)


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma for complex z.

    Raises GammaPoleError at the poles z = 0, -1, -2, ...
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"log_gamma pole at z = {z}")
    if z.real < 0.5:
        # reflection: log G(z) = log pi - log sin(pi z) - log G(1 - z)
        return math.log(math.pi) - _log_sin_pi(z) - log_gamma(1.0 - z)
    zm = z - 1.0
    s = complex(_LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (zm + k)
    t = zm + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm + 0.5) * cmath.log(t) - t + cmath.log(s)


def _sum_series(a, b, c, w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the defining series sum_n (a)_n (b)_n / ((c)_n n!) w^n, 0 < w < 1,
    for each row of the parameter arrays a (complex), b and c (float, or
    complex for the public hyp2f1), taken as they are.

    Returns the arrays (log_mag, phase, cancellation).  Each row is summed on
    its own, blockwise: one cumulative product of the block's complex term
    ratios (w folded in) gives every term relative to the last term summed,
    which is carried as log|t| and t/|t| (so that growth far beyond double
    range cannot overflow) and renormalised once per block; the block's sums,
    scaled by its largest |t|, are accumulated with Kahan compensation, so
    the summation error stays bounded independent of the term count; and a
    row stops once its running term drops below SERIES_TAIL_REL relative to
    its partial sum on the decaying side of the peak, or raises
    SeriesConvergenceError past MAX_SERIES_TERMS terms.  A row whose product
    leaves double range in a block (a term relative to the last one summed
    not below 2^1000 or not finite, or gone to zero while the ratios are not
    below 1) is summed again from its start, alone, in blocks of half the
    length, down to one term, where it raises SeriesConvergenceError.  Rows
    share only the numpy calls of a block, so a row's value does not depend
    on the other rows summed with it.

    One block holds every row of the exact window (j <= 64, all m,
    |Re tau| <= 0.3, |Im tau| <= 0.06): 65 / sqrt(1-w) - 20 terms, 45 past
    the peak of a j = 64 row at 65 (1/sqrt(1-w) - 1), where its terms still
    fall slowly, then _TAIL_FOLDS / -log(w), over which they fall below
    SERIES_TAIL_REL times a sum that cancels as far as check_cancellation
    accepts; rounded up to a multiple of _BLOCK and capped at _STEPS.size
    (a w rounded to 1.0, whose log is 0, takes the cap).  So one pair pays
    the numpy calls of one block, and a pass sums as many rows as fit in
    _STEPS.size entries, at least two.  The length reads only w, shared by
    every row of a call, so a row has the same bits alone and in any batch.

    Each row also sums |t|.  Every term carries a relative rounding error of
    a few ulps, so a sum is wrong by about C * 2^-52 relative times a small
    factor, where C = sum|t| / |sum t| is its cancellation (returned; see
    check_cancellation).
    """
    out = np.empty((3, a.size))
    length = _STEPS.size
    if w < 1.0:
        need = 65.0 / math.sqrt(1.0 - w) - 20.0 - _TAIL_FOLDS / math.log(w)
        length = min(length, _BLOCK * math.ceil(need / _BLOCK))
    # equal passes of at most _STEPS.size / length rows, or two
    chunk = max(2, _STEPS.size // length)
    size = -(-a.size // -(-a.size // chunk)) if a.size else 1
    with np.errstate(all="ignore"):
        for k in range(0, a.size, size):
            rows = slice(k, k + size)
            _sum_rows(a[rows, None], b[rows, None], c[rows, None], w, length, out[:, rows])
    return out[0], out[1], out[2]


def _sum_rows(a, b, c, w, length, out) -> None:
    """The loop of _sum_series over the parameter columns a, b, c, in blocks
    of length terms: writes log_mag, phase and cancellation into the columns
    of out, and sums a row whose terms leave double range again."""
    live = slice(None)   # columns of out of the rows still summing, all at first
    # Re and Im of the partial sum and sum |t|, relative to exp(offset) and
    # seeded with the n = 0 term, then their Kahan compensations
    acc = _SEED.repeat(a.shape[0], axis=1)
    sums, comp = acc[:3], acc[3:]
    offset = 0.0
    log_t = 0.0               # log|t| of the last term summed
    unit_t = _UNIT            # its t / |t|
    again = []                # (column, a, b, c) of the rows to sum again
    n = 1
    while True:
        if n > MAX_SERIES_TERMS:
            raise SeriesConvergenceError(
                f"hypergeometric series did not reach tolerance within {MAX_SERIES_TERMS} terms"
            )
        size = min(length, MAX_SERIES_TERMS + 1 - n)
        k = _STEPS[:size] + (n - 1.0)
        n += size
        # t_n / t_{n-1} = (a + k) * ((b + k) * w / ((c + k) * (k + 1))), a real
        # quotient taken into Re and Im of a + k apart (no cast of it to complex);
        # their cumulative product: each term relative to the last term summed
        q = (b + k) * w / ((c + k) * (k + 1.0))
        if q.dtype == complex:
            terms = (a + k) * q
        else:
            terms = np.empty(q.shape, complex)
            np.multiply(a.real + k, q, out=terms.real)
            np.multiply(a.imag, q, out=terms.imag)
        decaying = np.abs(terms[:, -1]) < 1.0
        np.multiply.accumulate(terms, axis=1, out=terms)
        mag = np.abs(terms)
        # positive even for a block of zero terms (a terminated series)
        peak = np.maximum.reduce(mag, axis=1, initial=_TINY)
        last = mag[:, -1]
        # the block's Re t, Im t and |t| relative to its largest, the carried
        # unit multiplied into the sum of the block's terms (not in place: a
        # one-entry product in place takes another numpy loop than a longer one)
        z = np.add.reduce(terms, axis=1) * unit_t
        block = np.array((z.real, z.imag, np.add.reduce(mag, axis=1)))
        block /= peak
        # fold the block into the sums at the larger of the two scales
        top = log_t + np.log(peak)
        new = np.maximum(offset, top)
        block *= np.exp(top - new)
        acc *= np.exp(offset - new)
        offset = new
        y = block - comp
        total = sums + y
        comp[:] = (total - sums) - y
        sums[:] = total
        log_t = log_t + np.log(last)   # log|t| of the block's last term
        magnitude = np.hypot(sums[0], sums[1])
        # stop on an exact zero term, or on the decaying side of the peak once
        # the term is below SERIES_TAIL_REL of the sum
        done = (log_t - offset <= np.log(magnitude) + _LOG_TAIL) & (decaying | (log_t == -math.inf))
        # out of double range: a term relative to the last one summed not
        # below _HUGE or not finite, or gone to zero while the terms grow
        if not (np.maximum.reduce(peak) < _HUGE and last.all()):
            lost = ~(peak < _HUGE) | (last == 0.0) & ~decaying
            if lost.any():
                if length == 1:
                    raise SeriesConvergenceError("a hypergeometric term ratio leaves double range")
                live = np.arange(done.size) if isinstance(live, slice) else live
                again += [(live[i], a[i:i + 1], b[i:i + 1], c[i:i + 1]) for i in np.flatnonzero(lost)]
                done |= lost
        stopped = np.count_nonzero(done)
        if stopped == done.size:
            _write_rows(out, live, offset, sums, magnitude)
            for col, *row in again:
                _sum_rows(*row, w, length // 2, out[:, col:col + 1])
            return
        # renormalised once per block
        unit_t = unit_t * terms[:, -1]
        unit_t /= np.abs(unit_t)
        if not stopped:
            continue
        live = np.arange(done.size) if isinstance(live, slice) else live
        _write_rows(out, live[done], offset[done], sums[:, done], magnitude[done])
        keep = ~done
        live, acc, offset = live[keep], acc[:, keep], offset[keep]
        sums, comp = acc[:3], acc[3:]
        log_t, unit_t, a, b, c = log_t[keep], unit_t[keep], a[keep], b[keep], c[keep]


def _write_rows(out, at, offset, sums, magnitude) -> None:
    """log_mag, phase and cancellation of finished rows into columns at of out."""
    out[0, at] = offset + np.log(magnitude)
    out[1, at] = np.arctan2(sums[1], sums[0])
    out[2, at] = sums[2] / magnitude


def hyp2f1_rows(a, b, c, z: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2F1(a, b; c; z) for each row of the parameter arrays a, b, c at one
    real z < 1, as arrays (log_mag, phase, cancellation); a, b, c may also be
    numbers, for one row.

    Route selection: the defining series is summed directly for z in (0, 1)
    (it converges for every |z| < 1 and, for the coefficient family used
    here, its terms carry no sign cancellation for real labels); for z < 0
    the Pfaff transformation maps onto a series at z/(z-1) in (0, 1).
    cancellation is that of the series summed (see _sum_series); nothing is
    checked here.
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    b, c = np.asarray(b).reshape(-1), np.asarray(c).reshape(-1)
    z = float(z)
    if not z < 1.0:
        raise Hyp2F1DomainError(f"argument z = {z} outside the supported range z < 1")
    if z == 0.0:
        return np.zeros(a.size), np.zeros(a.size), np.ones(a.size)
    if z > 0.0:
        return _sum_series(a, b, c, z)
    log_mag, phase, cancellation = _sum_series(c - a, b, c, z / (z - 1.0))
    # Pfaff prefactor (1 - z)^(-b); 1 - z > 1 is real so the log is exact
    pref = -b * math.log1p(-z)
    if np.iscomplexobj(pref):
        log_mag, phase = log_mag + pref.real, wrap_phases(phase + pref.imag)
    else:
        log_mag = log_mag + pref
    return log_mag, phase, cancellation


def check_cancellation(cancellation, weight=1.0) -> None:
    """Raise SeriesConvergenceError where a summed series' rounding error,
    2^-52 * cancellation * weight, exceeds CANCELLATION_LIMIT.

    With weight 1 the error is judged relative to the value itself; a caller
    that only adds values passes weight = |value| / (the scale of its sum),
    so that a near-zero value that adds nothing to the sum is accepted.
    """
    worst = np.maximum.reduce(cancellation * weight) * _ULP
    if not worst <= CANCELLATION_LIMIT:
        raise SeriesConvergenceError(
            f"hypergeometric series cancels: its value is uncertain to about "
            f"{worst:.2g} of its scale (limit {CANCELLATION_LIMIT:g})"
        )


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] as read-only (nodes in
    descending order, weights), built on first use by Newton's method
    (importing numpy.polynomial costs ms and ~1 MB)."""
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    x.setflags(write=False)
    weights.setflags(write=False)
    return x, weights


def _half_splits(c: float, start: float, turn: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels [0, start], [start, 2 start], ... up to 1/2 in u as (ends, logs =
    log1p(c ends), splits): splits[i] (a float) equal steps of log1p(c u) in
    panel i, so that the phase turn * log1p(c u) turns by at most _PANEL_TURN."""
    count = max(0, math.ceil(math.log2(0.5 / start))) + 1
    ends = np.minimum(start * 2.0 ** np.arange(-1, count), 0.5)
    ends[0] = 0.0
    logs = np.log1p(c * ends)
    with np.errstate(over="ignore"):  # an infinite count is refused by the node cap
        return ends, logs, np.maximum(np.ceil(turn * np.abs(np.diff(logs)) / _PANEL_TURN), 1.0)


def _half_panels(c: float, ends, logs, splits) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights in u on [0, 1/2] of the panels of _half_splits."""
    splits = splits.astype(int)
    panel = np.repeat(np.arange(splits.size), splits)
    step = np.arange(panel.size) - np.repeat(np.cumsum(splits) - splits, splits)
    lo, hi = (logs[panel] + (logs[panel + 1] - logs[panel]) * ((step + k) / splits[panel])
              for k in (0, 1))
    # a step's ends from its logs, the first and last of a panel exactly
    lo, hi = np.expm1(lo) / c, np.expm1(hi) / c
    lo[step == 0] = ends[panel[step == 0]]
    last = step == splits[panel] - 1
    hi[last] = ends[panel[last] + 1]
    # the rule on [0, 1]: scaling by 0.5 is exact
    x, weights = gauss_legendre(_GAUSS_NODES)
    width = (hi - lo)[:, None]
    return (lo[:, None] + width * (0.5 * (x + 1.0))).ravel(), (width * (0.5 * weights)).ravel()


def triple_block_log(js, tau: complex, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triple-sum blocks sum_{|m| <= j} D_j(m, tau, eps) for each j of
    the integer array js, as arrays (log_mag, phase, cancellation).

    With x = eps^2, z = 1 - eps^4, Euler's integral (DLMF 15.6.1) summed over
    m is block_j = (2j+1) x eps^{i tau j} int_0^1 exp(j A - (i tau j/2 + 1) B)
    dt, A = 2 log(1-t+xt) - log(1-zt) <= 0 (zero at both ends), B = log(1-zt).
    Every j shares one set of Gauss-Legendre panels, graded geometrically
    toward both ends from 1e-3 min(1, x^2, x^-2) / ((j_max+1) max(1, (x-1)^2))
    (the end layers are 1/(j (x-1)^2) and x^2/(j (x-1)^2) wide) and split so
    that the phase -(Re tau j_max/2) B turns by at most _PANEL_TURN within
    one; t > 1/2 is written in s = 1 - t, so nodes near t = 1 keep their
    digits.  A and B are taken once; each j, in increasing order, is a sum
    over the nodes whose terms reach e^-_NEGLIGIBLE of an end node's: by exp,
    cos and sin at each node (scaled by the largest exponent) at the first j,
    after a gap and every _CARRY_ROWS rows, else as the row of j - 1 times
    exp(A - i tau B/2) over its largest modulus (so every row stays in double
    range).  cancellation is
    sum|w f| / |sum w f| (see check_cancellation; nothing is checked here).
    At eps = 1 every block is 2j+1.  Raises SeriesConvergenceError, before
    building any node, where the panels need more than _MAX_NODES nodes.
    """
    js = check_labels(js, "j")
    if js.size and js.min() < 0:
        raise IndexRangeError("j must be non-negative")
    tau = check_tau(tau)
    epsilon = check_epsilon(epsilon)
    out = np.empty((3, js.size))
    out[0], out[1], out[2] = np.log(2.0 * js + 1.0), 0.0, 1.0
    if epsilon == 1.0 or not js.size:
        return out[0], out[1], out[2]
    x = epsilon * epsilon
    j_max = int(js.max())
    start = 1e-3 * min(1.0, x * x, 1.0 / (x * x)) / ((j_max + 1) * max(1.0, (x - 1.0) ** 2))
    turn = 0.5 * abs(tau.real) * j_max
    # t <= 1/2 in t, t > 1/2 in s = 1 - t, where 1-t+xt = x (1 + (1/x - 1) s)
    # and 1 - zt = x^2 (1 + (1/x^2 - 1) s)
    coefficients = ((x - 1.0, x * x - 1.0, 0.0),
                    (1.0 / x - 1.0, 1.0 / (x * x) - 1.0, 2.0 * math.log(x)))
    splits = [_half_splits(c2, start, turn) for _, c2, _ in coefficients]
    nodes = _GAUSS_NODES * math.fsum(float(split[2].sum()) for split in splits)
    if not nodes <= _MAX_NODES:
        raise SeriesConvergenceError(f"triple blocks to j = {j_max} need {nodes:.3g} "
                                     f"quadrature nodes, above the cap of {_MAX_NODES}")
    halves = []
    for (c1, c2, offset), split in zip(coefficients, splits):
        u, w = _half_panels(c2, *split)
        log_2 = np.log1p(c2 * u)
        halves.append((2.0 * np.log1p(c1 * u) - log_2, log_2 + offset, w))
    a, b, w = (np.concatenate(v) for v in zip(*halves))
    # the real exponent is j * slope - b, the phase j * twist
    slope = a + 0.5 * tau.imag * b
    twist = -0.5 * tau.real * b
    # the last j at which a node's exponent is within _NEGLIGIBLE of both end
    # nodes' (t = 0 and t = 1), so of its row's largest; nodes in order of it
    ends = [0, halves[0][0].size]
    fall = slope[ends, None] - slope
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(fall > 0, (_NEGLIGIBLE + b[ends, None] - b) / fall, np.inf).min(axis=0)
    order = np.argsort(-reach, kind="stable")
    slope, b, twist, w = slope[order], b[order], twist[order], w[order]
    # node k of row j + 1 is node k of row j times beta_k, the row scaled by
    # e^-peak (added back to its log, shift): |beta| <= 1, so a carried row
    # cannot overflow, and the node of the largest slope keeps its size, so
    # its row cannot underflow
    peak = slope.max()
    beta = np.exp((slope - peak) + 1j * twist)
    counts = np.searchsorted(-reach[order], -js, side="right").tolist()
    last, carried = -2, _CARRY_ROWS
    for r in np.argsort(js, kind="stable").tolist():
        j, count = int(js[r]), counts[r]
        if j == last + 1 and carried < _CARRY_ROWS:
            row, shift, carried = row[:count] * beta[:count], shift + peak, carried + 1
        else:
            exponent = j * slope[:count] - b[:count]
            top, shift, carried = exponent.max(), 0.0, 1
            angle = j * twist[:count]
            row = np.exp(exponent - top) * w[:count] * (np.cos(angle) + 1j * np.sin(angle))
        last, value = j, np.add.reduce(row)
        out[0, r] += top + (shift + math.log(abs(value)))
        out[1:, r] = cmath.phase(value), np.add.reduce(np.abs(row)) / abs(value)
    # the prefactor x eps^{i tau j}
    log_eps = 0.5 * math.log(x)
    out[0] += math.log(x) - tau.imag * log_eps * js
    out[1] = wrap_phases(out[1] + tau.real * log_eps * js)
    return out[0], out[1], out[2]


def hyp2f1(a, b, c, z) -> LogComplexValue:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real z < 1.

    The one-row case of hyp2f1_rows; raises Hyp2F1DomainError where c is a
    non-positive integer or z is not finite, and SeriesConvergenceError where
    the series cancels beyond CANCELLATION_LIMIT relative to the value.
    """
    if _is_nonpositive_integer(c):
        raise Hyp2F1DomainError(f"c = {complex(c)} is a non-positive integer")
    if not math.isfinite(z):
        raise Hyp2F1DomainError("z must be finite")
    log_mag, phase, cancellation = hyp2f1_rows(complex(a), complex(b), complex(c), z)
    check_cancellation(cancellation)
    return LogComplexValue(float(log_mag[0]), float(phase[0]))


# Domain of the saddle-point term; see _coefficient_saddles and saddle_point_2f1.
SADDLE_MAX_ABS_RE_TAU = 1.0
SADDLE_MIN_WIDTHS = 1.0


def _coefficient_saddles(
    tau: complex, epsilon: float
) -> tuple[tuple[complex, complex], tuple[int, int], complex, float]:
    """Saddle points of the Euler integrand of the coefficient hypergeometric.

    With a = j(1 + i tau/2) + 1, b = m + j + 1, c = 2j + 2 and z = 1 - eps^4,
    the integrand t^{b-1} (1-t)^{c-b-1} (1-zt)^{-a} is e^{j phi(t)} times
    t^m (1-t)^{-m} (1-zt)^{-1}, where

        phi(t) = ln t + ln(1-t) - kappa ln(1-zt),    kappa = 1 + i tau/2.

    phi' = 0 is the quadratic z(2-kappa) t^2 + (z(kappa-1) - 2) t + 1 = 0 with
    discriminant disc = 4 eps^4 - (z tau/2)^2.  Its root
    2 / (sqrt(disc) - (z(kappa-1) - 2)) is t = 1/(1+eps^2) at tau = 0 and
    continues it while disc stays off the negative real axis.

    Returns (roots, weights, kappa, z): the two roots and the weight with
    which each saddle's Laplace term enters the integral.
      - Re(disc) > 0: the continued root alone, weights (1, 0).
      - real tau with disc < 0, i.e. |tau| > 4 eps^2/|1 - eps^4|: the two
        saddles have met and separated again as a pair of equal weight; the
        path crosses both, weights +1 on the root with the larger |Im t| and
        -1 on the other (checked against mpmath for eps from 0.1 to 30).
    Raises check_tau's and check_epsilon's errors, SaddlePointDomainError for
    |Re tau| > 1 and for complex tau with Re(disc) <= 0, where which saddles
    the path crosses is not determined here.
    """
    tau, epsilon = check_tau(tau), check_epsilon(epsilon)
    if abs(tau.real) > SADDLE_MAX_ABS_RE_TAU:
        raise SaddlePointDomainError(
            f"large-j saddle term needs |Re tau| <= {SADDLE_MAX_ABS_RE_TAU:g}, got tau = {tau}"
        )
    z = 1.0 - epsilon**4
    kappa = 1.0 + 0.5j * tau
    disc = 4.0 * epsilon**4 - (0.5 * z * tau) ** 2
    lin = z * (kappa - 1.0) - 2.0
    quad = z * (2.0 - kappa)
    root = cmath.sqrt(disc)
    t0 = 2.0 / (root - lin)
    other = (root - lin) / (2.0 * quad) if quad != 0 else complex(math.inf)
    if disc.real > 0.0:
        return (t0, other), (1, 0), kappa, z
    if tau.imag == 0.0:
        return (t0, other), ((-1, 1) if abs(t0.imag) < abs(other.imag) else (1, -1)), kappa, z
    raise SaddlePointDomainError(
        f"large-j saddle term undefined at tau = {tau}, eps = {epsilon}: "
        "Re(disc) <= 0 off the real tau axis"
    )


def saddle_point_exponent(tau: complex, epsilon: float) -> complex:
    """phi(t0): the exponent per unit j at the saddle of the coefficient
    integrand (see _coefficient_saddles), so that the large-j term grows like
    e^{j phi(t0)} times algebraic factors.  Equals -2 ln(1+eps^2) at tau = 0.

    Raises SaddlePointDomainError unless a single saddle carries the integral:
    with two saddles of equal weight the coefficients oscillate in j.
    """
    (t0, _), weights, kappa, z = _coefficient_saddles(tau, epsilon)
    if weights != (1, 0):
        raise SaddlePointDomainError(
            f"no single saddle at tau = {complex(tau)}, eps = {epsilon}: two saddles "
            "of equal weight make the coefficients oscillate in j"
        )
    return cmath.log(t0) + cmath.log(1.0 - t0) - kappa * cmath.log(1.0 - z * t0)


def _at(fn, x):
    """The math-module function fn at a number x, or at each entry of an
    integer array x through fn itself, so that an entry has the bits it has
    alone."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.tolist()), float, x.size)
    return fn(x)


def saddle_point_log(j, m, tau: complex, epsilon: float):
    """log of saddle_point_2f1's term, as (real part, unwrapped imaginary
    part), at labels j, m or at each pair of equal-shape integer arrays of
    them.  It checks its inputs and raises as saddle_point_2f1 does (by
    check_label or check_labels, check_tau, check_pair and check_epsilon).

    The j, m arithmetic takes either alike (real operations; math.lgamma and
    math.log entry by entry), so a pair has the same bits alone or in any
    batch.  What depends on (tau, eps) alone (the saddles, log t0, log(1-t0),
    log(1-z t0), phi''(t0) and the gate's reach) is computed once per call,
    so a scan passes all its large-j pairs in one call: every series
    diagnostic does, ratio_test included, which reads only its exact window
    pair by pair (there the benchmark's check moves a term).  Per pair there
    remain the log-gammas of the integers 2j+2, j+m+1, j-m+1 and a few real
    products and sums.  Two contributing saddles are added as
    an array log-sum-exp.  Raises SaddlePointDomainError as saddle_point_2f1
    does; the gate's count of Gaussian widths grows with j, so checking it at
    the smallest j raises exactly when one pair of the batch would.
    """
    batch = isinstance(j, np.ndarray)
    read = check_labels if batch else check_label
    j, m, tau = read(j, "j"), read(m, "m"), check_tau(tau)
    low = int(j.min()) if batch else j
    if low < 1:
        raise ValueError("asymptotic evaluation needs j >= 1")
    check_pair(j, m)
    epsilon = check_epsilon(epsilon)
    if epsilon == 1.0:
        raise Hyp2F1DomainError("asymptotic form degenerates at eps = 1 (z = 0); "
                                "use hyp2f1 instead")
    roots, weights, kappa, z = _coefficient_saddles(tau, epsilon)
    log_beta = (_at(math.lgamma, 2 * j + 2) - _at(math.lgamma, j + m + 1)
                - _at(math.lgamma, j - m + 1) - 0.5 * _at(math.log, j))
    terms = []
    for t0, other, weight in ((roots[0], roots[1], weights[0]), (roots[1], roots[0], weights[1])):
        if weight == 0:
            continue
        one_minus_t = 1.0 - t0
        one_minus_zt = 1.0 - z * t0
        phi2 = -1.0 / t0**2 - 1.0 / one_minus_t**2 + kappa * z * z / one_minus_zt**2
        reach = min(abs(t0), abs(one_minus_t), abs(t0 - 1.0 / z), abs(t0 - other))
        widths = reach * math.sqrt(low * abs(phi2))
        if widths < SADDLE_MIN_WIDTHS:
            raise SaddlePointDomainError(
                f"large-j saddle term unreliable at j = {low}, tau = {tau}, eps = {epsilon}: "
                f"saddle only {widths:.3g} Gaussian widths from the nearest singular point"
            )
        log_t = cmath.log(t0)
        log_1mt = cmath.log(one_minus_t)
        log_1mzt = cmath.log(one_minus_zt)
        per_m = log_t - log_1mt
        per_j = log_t + log_1mt - kappa * log_1mzt
        rest = 0.5 * cmath.log(2.0 * math.pi / -phi2) - log_1mzt
        terms.append((
            weight,
            log_beta + m * per_m.real + j * per_j.real + rest.real,
            m * per_m.imag + j * per_j.imag + rest.imag,
        ))
    if len(terms) == 1:
        return terms[0][1:]
    # a single pair goes through the same numpy loops as a batch
    (w1, re1, im1), (w2, re2, im2) = terms
    re1, im1, re2, im2 = (np.atleast_1d(x) for x in (re1, im1, re2, im2))
    top = np.maximum(re1, re2)
    size1 = w1 * np.exp(re1 - top)
    size2 = w2 * np.exp(re2 - top)
    x = size1 * np.cos(im1) + size2 * np.cos(im2)
    y = size1 * np.sin(im1) + size2 * np.sin(im2)
    re, im = top + np.log(np.hypot(x, y)), np.arctan2(y, x)
    return (re, im) if batch else (float(re[0]), float(im[0]))


def saddle_point_2f1(j: int, m: int, tau: complex, epsilon: float) -> LogComplexValue:
    """Leading large-j term of 2F1(j+1+i*tau*j/2, m+j+1; 2j+2; 1-eps^4) at fixed m.

    Laplace's method on the Euler integral (DLMF 15.6.1; every parameter grows
    with j, as in DLMF 15.12 and Temme, J. Comput. Appl. Math. 153 (2003)).
    Each contributing saddle t0 of _coefficient_saddles gives

        Gamma(2j+2) / (Gamma(j+m+1) Gamma(j-m+1))
          * t0^m (1-t0)^{-m} (1-z t0)^{-1} * e^{j phi(t0)} * sqrt(2 pi / (-j phi''(t0))),

    evaluated in log space.  At tau = 0 the saddle is t0 = 1/(1+eps^2), the
    point of Watson's tau = 0 asymptotic, which the paper uses; for tau != 0
    the term keeps the tau-dependence of the saddle.  The relative error is
    O(1/j) for fixed m, at tau = 0 as at every other tau in the domain.
    Where two saddles contribute (real tau past their meeting point) the
    value oscillates in j, and the error is O(1/j) relative to the size of
    the two terms rather than to their sum.  The one-pair case of
    saddle_point_log.

    Raises IndexRangeError for labels that are not integers or not a pair
    (check_label, check_pair), ValueError for j < 1 or a tau that is not
    finite, EpsilonDomainError unless eps is positive and finite
    (check_epsilon), Hyp2F1DomainError at eps = 1, and
    SaddlePointDomainError outside the domain of _coefficient_saddles and
    when the Gaussian width 1/sqrt(j |phi''(t0)|) of a contributing saddle
    is not below the distance from it to the nearest of t = 0, 1, 1/z and the
    other saddle (near the saddles' meeting point, and for eps far from 1 at
    moderate j).  Against mpmath (eps from 0.01 to 20, real and complex tau,
    j = 8, 65, 200) the relative error stayed below 1/r^2 at r such widths,
    so the gate r >= SADDLE_MIN_WIDTHS refuses errors of order one.
    """
    return LogComplexValue(*saddle_point_log(j, m, tau, epsilon))


__all__ = [
    "GammaPoleError",
    "Hyp2F1DomainError",
    "IndexRangeError",
    "SeriesConvergenceError",
    "CANCELLATION_LIMIT",
    "EpsilonDomainError",
    "MAX_SERIES_TERMS",
    "SADDLE_MAX_ABS_RE_TAU",
    "SADDLE_MIN_WIDTHS",
    "SERIES_TAIL_REL",
    "SaddlePointDomainError",
    "check_cancellation",
    "check_epsilon",
    "check_label",
    "check_labels",
    "check_pair",
    "check_tau",
    "gauss_legendre",
    "hyp2f1",
    "hyp2f1_rows",
    "log_gamma",
    "saddle_point_2f1",
    "saddle_point_log",
    "saddle_point_exponent",
]
