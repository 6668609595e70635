"""Special functions: complex log-gamma, the Gauss hypergeometric function
for complex parameters and real argument, and the large-j saddle-point term
used for boost coefficients beyond the exact evaluation window, for one pair
(j, m) or a batch of them; and the one rule for a boost parameter eps
(check_epsilon), which every coefficient and series function applies.

All magnitude-critical results come back as LogComplexValue.
"""
from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .logcomplex import LogComplexValue, wrap_phases

MAX_SERIES_TERMS = 100_000
SERIES_TAIL_REL = 1e-17
# Terms per block of the series kernel, a multiple of the SIMD width, so that
# every row meets the same vector lanes whatever rows share its call; a slow
# series (see _sum_series) takes blocks of twice this length.
_BLOCK = 192
_STEPS = np.arange(2 * _BLOCK, dtype=float)
# Rows per kernel pass of _BLOCK-term blocks, which bounds the size of a
# block's arrays: summing every row in one pass raised the peak RSS of a round
# of the benchmark's triple-grid and diag-scan ops by 0.6 and 1.0 MB over
# passes of 32 rows, and saved at most 5% of their time.
_ROW_CHUNK = 32
_TINY = np.finfo(float).tiny
_ULP = 2.0**-52
# Largest accepted 2^-52 * sum|t| / |sum t| (times the caller's weight) of a
# series; see check_cancellation.
CANCELLATION_LIMIT = 3e-12
# Gauss-Legendre nodes per panel of triple_block_log, and the largest phase
# turn (radians) of its integrand within one panel
_GAUSS_NODES = 20
_PANEL_TURN = 3.0
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
    for each row of the parameter arrays a, b, c.

    Returns the arrays (log_mag, phase, cancellation).  Each row is summed on
    its own: terms are generated blockwise from their ratios, log|t| as a
    cumulative sum of log|ratio| (so that growth far beyond double range
    cannot overflow) and t/|t| as a cumulative product of the units
    ratio/|ratio|, with no per-term angle; block sums are accumulated with
    Kahan compensation, so the summation error stays bounded independent of
    the term count; and a row stops once its running term drops below
    SERIES_TAIL_REL relative to its partial sum on the decaying side of the
    peak, or raises SeriesConvergenceError past MAX_SERIES_TERMS terms.
    Rows share only the numpy calls of a block, so a row's value does not
    depend on the other rows summed with it.

    Blocks are 2 * _BLOCK terms long where the tail at rate w needs 4 * _BLOCK
    terms or more (w >= 0.9503), else _BLOCK, in passes of half as many rows,
    so a slow series pays the numpy calls of a block half as often with arrays
    of the same size.  The length reads only w, shared by every row of a
    call, so a row has the same bits alone and in any batch.

    Each row also sums |t|.  Every term carries a relative rounding error of
    a few ulps, so a sum is wrong by about C * 2^-52 relative times a small
    factor, where C = sum|t| / |sum t| is its cancellation (returned; see
    check_cancellation).
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    # integer b and c as floats once, not in every block (exact below 2^53)
    b, c = (np.asarray(x, dtype=np.result_type(x, float)).reshape(-1) for x in (b, c))
    out = np.empty((3, a.size))
    w = float(w)
    # no division by log(w): a w rounded to 1.0 sums as a slow series
    length = 2 * _BLOCK if 4 * _BLOCK * math.log(w) >= math.log(SERIES_TAIL_REL) else _BLOCK
    # equal passes of at most _ROW_CHUNK * _BLOCK / length rows
    chunk = _ROW_CHUNK * _BLOCK // length
    size = -(-a.size // -(-a.size // chunk)) if a.size else 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(0, a.size, size):
            rows = slice(k, k + size)
            _sum_rows(a[rows, None], b[rows, None], c[rows, None], w, length, out[:, rows])
    return out[0], out[1], out[2]


def _sum_rows(a, b, c, w, length, out) -> None:
    """The loop of _sum_series over the parameter columns a, b, c, in blocks
    of length terms: writes log_mag, phase and cancellation into the columns
    of out."""
    rows = a.shape[0]
    live = np.arange(rows)    # column of out of each row still summing
    # Re and Im of the partial sum and sum |t|, relative to exp(offset) and
    # seeded with the n = 0 term, then their Kahan compensations
    acc = np.zeros((6, rows))
    acc[0] = acc[2] = 1.0
    sums, comp = acc[:3], acc[3:]
    offset = np.zeros(rows)
    log_t = np.zeros(rows)    # log|t| of the current term
    unit_t = np.ones(rows, dtype=complex)   # t / |t| of the current term
    log_w = math.log(w)
    steps = _STEPS[:length]
    log_w_powers = log_w * (steps + 1.0)
    log_tail = math.log(SERIES_TAIL_REL)
    n = 1
    while True:
        if n > MAX_SERIES_TERMS:
            raise SeriesConvergenceError(
                f"hypergeometric series did not reach tolerance within {MAX_SERIES_TERMS} terms"
            )
        size = min(length, MAX_SERIES_TERMS + 1 - n)
        k = steps[:size] + (n - 1.0)
        n += size
        ratios = (a + k) * ((b + k) / ((c + k) * (k + 1.0)))
        # log|r| summed and r/|r| (two real divisions; a zero ratio gives a
        # zero unit, not 0/0) multiplied along each row; w enters after
        cl = np.abs(ratios)
        scale = np.maximum(cl, _TINY)
        unit = np.empty_like(ratios)
        np.divide(ratios.real, scale, out=unit.real)
        np.divide(ratios.imag, scale, out=unit.imag)
        np.log(cl, out=cl)
        decaying = cl[:, -1] < -log_w
        np.add.accumulate(cl, axis=1, out=cl)
        np.multiply.accumulate(unit, axis=1, out=unit)
        # broadcast, not folded into the strided first column, so that a row
        # meets the same numpy loops whatever rows share its call
        unit *= unit_t[:, None]
        cl += log_w_powers[:size]
        # finite even for a block of zero terms (a terminated series)
        peak = np.maximum.reduce(cl, axis=1, initial=-1e300)
        cl -= peak[:, None]
        last = cl[:, -1].copy()   # log|t| of the block's last term, relative
        # the block's Re t, Im t and |t| relative to its largest, summed in
        # one reduction
        parts = np.empty((3,) + ratios.shape)
        np.exp(cl, out=parts[2])
        np.multiply(unit.real, parts[2], out=parts[0])
        np.multiply(unit.imag, parts[2], out=parts[1])
        block = parts.sum(axis=2)
        # fold the block into the sums at the larger of the two scales
        top = log_t + peak
        new = np.maximum(offset, top)
        block *= np.exp(top - new)
        acc *= np.exp(offset - new)
        offset = new
        y = block - comp
        total = sums + y
        comp[:] = (total - sums) - y
        sums[:] = total
        log_t = top + last
        # renormalised once per block, from a contiguous copy of the column
        unit_t = unit[:, -1].copy()
        unit_t /= np.abs(unit_t)
        magnitude = np.hypot(sums[0], sums[1])
        # stop on an exact zero term, or on the decaying side of the peak once
        # the term is below SERIES_TAIL_REL of the sum
        done = (log_t - offset <= np.log(magnitude) + log_tail) & (decaying | (log_t == -math.inf))
        if not done.any():
            continue
        if done.all():
            _write_rows(out, live, offset, sums, magnitude)
            return
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
    real z < 1, as arrays (log_mag, phase, cancellation).

    Route selection: the defining series is summed directly for z in (0, 1)
    (it converges for every |z| < 1 and, for the coefficient family used
    here, its terms carry no sign cancellation for real labels); for z < 0
    the Pfaff transformation maps onto a series at z/(z-1) in (0, 1).
    cancellation is that of the series summed (see _sum_series); nothing is
    checked here.
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    b, c = (np.asarray(x).reshape(-1) for x in (b, c))
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
    worst = (cancellation * weight).max() * _ULP
    if not worst <= CANCELLATION_LIMIT:
        raise SeriesConvergenceError(
            f"hypergeometric series cancels: its value is uncertain to about "
            f"{worst:.2g} of its scale (limit {CANCELLATION_LIMIT:g})"
        )


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """The _GAUSS_NODES-point Gauss-Legendre rule on [0, 1], built on first
    use by Newton's method (importing numpy.polynomial costs ms and ~1 MB)."""
    n = _GAUSS_NODES
    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * slope * slope)


def _half_panels(c: float, start: float, turn: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights in u on [0, 1/2]: panels [0, start], [start,
    2 start], ... up to 1/2, each split into equal steps of log1p(c u) so
    that the phase turn * log1p(c u) turns by at most _PANEL_TURN in one."""
    count = max(0, math.ceil(math.log2(0.5 / start))) + 1
    ends = np.minimum(start * 2.0 ** np.arange(-1, count), 0.5)
    ends[0] = 0.0
    logs = np.log1p(c * ends)
    splits = np.maximum(np.ceil(turn * np.abs(np.diff(logs)) / _PANEL_TURN), 1.0).astype(int)
    panel = np.repeat(np.arange(count), splits)
    step = np.arange(panel.size) - np.repeat(np.cumsum(splits) - splits, splits)
    lo, hi = (logs[panel] + (logs[panel + 1] - logs[panel]) * ((step + k) / splits[panel])
              for k in (0, 1))
    # a step's ends from its logs, the first and last of a panel exactly
    lo, hi = np.expm1(lo) / c, np.expm1(hi) / c
    lo[step == 0] = ends[panel[step == 0]]
    last = step == splits[panel] - 1
    hi[last] = ends[panel[last] + 1]
    nodes, weights = _gauss_rule()
    width = (hi - lo)[:, None]
    return (lo[:, None] + width * nodes).ravel(), (width * weights).ravel()


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
    digits.  A and B are taken once; each j is a sum over the nodes scaled by
    its largest exponent (complex tau cannot overflow it), in passes of at
    most _ROW_CHUNK * _BLOCK entries (or one j) that skip the nodes whose
    terms have fallen below e^-_NEGLIGIBLE of an end node's.  cancellation is
    sum|w f| / |sum w f| (see check_cancellation; nothing is checked here).
    At eps = 1 every block is 2j+1.
    """
    js = np.asarray(js, dtype=np.int64).reshape(-1)
    tau = complex(tau)
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
    halves = []
    for c1, c2, offset in ((x - 1.0, x * x - 1.0, 0.0),
                           (1.0 / x - 1.0, 1.0 / (x * x) - 1.0, 2.0 * math.log(x))):
        u, w = _half_panels(c2, start, turn)
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
    neg_reach = -reach[order]
    # rows in increasing j, each pass over the nodes that reach its first j
    rows_by_j = np.argsort(js, kind="stable")
    k = 0
    while k < js.size:
        count = int(np.searchsorted(neg_reach, -js[rows_by_j[k]], side="right"))
        chunk = rows_by_j[k:k + max(1, _ROW_CHUNK * _BLOCK // count)]
        k += chunk.size
        j = js[chunk, None].astype(float)
        exponent = j * slope[:count] - b[:count]
        top = exponent.max(axis=1)
        size = np.exp(exponent - top[:, None])
        size *= w[:count]
        angle = j * twist[:count]
        re = (size * np.cos(angle)).sum(axis=1)
        im = (size * np.sin(angle)).sum(axis=1)
        magnitude = np.hypot(re, im)
        out[0, chunk] += top + np.log(magnitude)
        out[1, chunk] = np.arctan2(im, re)
        out[2, chunk] = size.sum(axis=1) / magnitude
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
    Raises SaddlePointDomainError for |Re tau| > 1, and for complex tau with
    Re(disc) <= 0, where which saddles the path crosses is not determined here.
    """
    tau = complex(tau)
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
    (t0, _), weights, kappa, z = _coefficient_saddles(tau, float(epsilon))
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
    part), at Python ints j, m or at each pair of equal-shape integer arrays.

    The j, m arithmetic takes either alike (real operations; math.lgamma and
    math.log entry by entry), so a pair has the same bits alone or in any
    batch.  What depends on (tau, eps) alone (the saddles, log t0, log(1-t0),
    log(1-z t0), phi''(t0) and the gate's reach) is computed once per call;
    per pair there remain the log-gammas of the integers 2j+2, j+m+1, j-m+1
    and a few real products and sums.  Two contributing saddles are added as
    an array log-sum-exp.  Raises as saddle_point_2f1 does; the gate's count
    of Gaussian widths grows with j, so checking it at the smallest j raises
    exactly when one pair of the batch would.
    """
    batch = isinstance(j, np.ndarray)
    low = int(j.min()) if batch else j
    if low < 1:
        raise ValueError("asymptotic evaluation needs j >= 1")
    if batch:
        over = np.flatnonzero(np.abs(m) > j)
        if over.size:
            raise ValueError(f"|m| = {abs(int(m[over[0]]))} exceeds j = {int(j[over[0]])}")
    elif abs(m) > j:
        raise ValueError(f"|m| = {abs(m)} exceeds j = {j}")
    epsilon = check_epsilon(epsilon)
    if epsilon == 1.0:
        raise Hyp2F1DomainError(
            "asymptotic form degenerates at eps = 1 (z = 0); use hyp2f1 instead"
        )
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

    Raises EpsilonDomainError unless eps is positive and finite
    (check_epsilon), Hyp2F1DomainError at eps = 1, and
    SaddlePointDomainError outside the domain of _coefficient_saddles and
    when the Gaussian width 1/sqrt(j |phi''(t0)|) of a contributing saddle
    is not below the distance from it to the nearest of t = 0, 1, 1/z and the
    other saddle (near the saddles' meeting point, and for eps far from 1 at
    moderate j).  Against mpmath (eps from 0.01 to 20, real and complex tau,
    j = 8, 65, 200) the relative error stayed below 1/r^2 at r such widths,
    so the gate r >= SADDLE_MIN_WIDTHS refuses errors of order one.
    """
    return LogComplexValue(*saddle_point_log(int(j), int(m), complex(tau), float(epsilon)))


__all__ = [
    "GammaPoleError",
    "Hyp2F1DomainError",
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
    "hyp2f1",
    "hyp2f1_rows",
    "log_gamma",
    "saddle_point_2f1",
    "saddle_point_log",
    "saddle_point_exponent",
]
