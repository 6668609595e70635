"""The benchmark's four workloads.

Each workload is a round: a fixed list of operations built from the seed.  A
run repeats whole rounds, so every run attempts the same operations in the
same proportions.  An operation (Op) holds

- call:    the timed work, made only of public calls of lorentz_harmonics (and
           cli.main), looked up through their modules at call time so that a
           traced run sees them;
- observe: reduces the result to the few values the check reads (untimed);
- check:   compares an observation with mpmath references or with method
           properties and returns the problems found (untimed, after the run);
- labels:  the distinct coefficient labels the result depends on, counted from
           the inputs.

Cost stability across seeds: the boost parameter eps sets the cost of an
exact coefficient (0.07 to 1.8 ms; near the ends of the range it grows like
eps^4 or eps^-4), and |tau| moves it too, so each workload draws eps from
fixed centres (SCAN_EPS, EPS_CENTRES) jittered by +-1% and |tau| near fixed
fractions of its cap, and fixes the mix of operation kinds and m; the seed
moves the values inside each stratum.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from lorentz_harmonics import (
    CoefficientTable,
    ExpansionConfig,
    FourierTableSU2,
    cli,
    expansion,
    lie_group,
    principal_series,
    wigner,
    ymap,
)

EPS_CENTRES = (0.32, 0.45, 0.65, 0.85, 1.2, 1.6, 2.4, 3.6)
# diag-scan: 24 distinct eps, log-spaced on each side of 1, so that op costs
# have no wide gap at the median or the 90th percentile
SCAN_EPS = tuple(
    lo * (hi / lo) ** (k / 11) for lo, hi in ((0.32, 0.9), (1.12, 3.6)) for k in range(12)
)
EPS_JITTER = 0.01
# Large-j draws stay inside the documented domain of the saddle-point route
# with a margin: fixed m, |Re tau| <= 1, and a single saddle, i.e. real tau
# below 4 eps^2 / |1 - eps^4| (the saddles' meeting point).  TAU_MARGIN keeps
# draws clear of that point, where the route raises at moderate j.
TAU_MAX = 0.5
TAU_MARGIN = 0.8
TAU_FRACS = (0.15, 0.5, 0.85)
TAU_JITTER = 0.05
IM_TAU = 0.06
SCAN_MS = (0, 1, -1, 3)
SCAN_J_MAX = 400
CLI_J_MAX = 200
# cli-requests: 25 ops per round (16 coeff, 8 series, 1 ymap), so that the
# 50th and 90th percentiles fall in the middle of one op's share of the
# sorted times rather than on a boundary between two ops.  Exact-window
# coefficients use eps near 1, where the CLI overhead dominates their cost.
CLI_EXACT_EPS = (0.65, 0.85, 1.2, 1.6)
CLI_SERIES_EPS = (0.65, 1.6, 0.45, 2.4, 0.85, 1.2, 0.65, 1.6)
TRIPLE_J_MAX = 64
# (eps centre, tau frac): four ops with short series and similar cost and one
# long-series op (eps = 0.5).  With five ops per round the 50th and 90th
# percentiles fall in the middle of the third and fifth op's share of the
# sorted times.
TRIPLE_STRATA = ((0.8, 0.85), (1.4, 0.5), (0.85, 0.15), (0.75, 0.5), (0.5, 0.15))
YMAP_BAND = 24
SU2_P = 1                          # fixed row index |p|/2 = 1/2
SU2_TERM_TWICE_JS = (1, 3, 5, 7)   # spins of the test function, all <= band 8
SU2_BANDS = (8, 12)
SU2_POINTS = 4
PW_POWERS = (0, 1, 2)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    observe: Callable[[Any], Any]
    check: Callable[[Any], list[str]]
    labels: int


def _ref():
    # mpmath is imported on the first check, so that set-up excludes it
    import reference

    return reference


def tau_cap(eps: float) -> float:
    """Largest |Re tau| drawn at this eps for scans past the exact window."""
    return min(TAU_MAX, TAU_MARGIN * 4.0 * eps * eps / abs(1.0 - eps**4))


def draw_eps(rng: random.Random, centre: float) -> float:
    return centre * math.exp(rng.uniform(-EPS_JITTER, EPS_JITTER))


def draw_tau(rng: random.Random, cap: float, frac: float, with_imag: bool) -> complex:
    """|Re tau| near frac * cap (the cost of an exact coefficient grows with
    |tau|), with a seeded sign; Im tau, if any, near +-IM_TAU."""
    re = cap * min(1.0, frac + rng.uniform(-TAU_JITTER, TAU_JITTER)) * rng.choice((-1.0, 1.0))
    if not with_imag:
        return complex(re, 0.0)
    im = IM_TAU * (1.0 + rng.uniform(-0.2, 0.2)) * rng.choice((-1.0, 1.0))
    return complex(0.8 * re, im)


def _linear(log_mag: float, phase: float) -> complex:
    if log_mag == -math.inf:
        return 0j
    if log_mag > 700.0:
        return complex(math.inf, 0.0)
    r = math.exp(log_mag)
    return complex(r * math.cos(phase), r * math.sin(phase))


# ---------------------------------------------------------------- series reports


def observe_series(report, sample_js: tuple[int, ...]) -> dict:
    """Term count, the sampled terms, the last ratio, and whether every
    partial-sum increment equals its term."""
    terms = report.terms
    by_j = {t.j: t for t in terms}
    increments_ok = len(report.partial_sums) == len(terms)
    prev = 0j
    for t, s in zip(terms, report.partial_sums):
        v = _linear(t.log_mag, t.phase)
        if abs((s - prev) - v) > 1e-15 * (abs(s) + abs(prev)) + 1e-13 * abs(v):
            increments_ok = False
            break
        prev = s
    return {
        "js": (terms[0].j, terms[-1].j, len(terms)) if terms else None,
        "consecutive": all(b.j == a.j + 1 for a, b in zip(terms, terms[1:])),
        "sampled": tuple(
            (j, by_j[j].log_mag, by_j[j].phase) if j in by_j else (j, None, None)
            for j in sample_js
        ),
        "last_ratio": terms[-1].ratio if terms else None,
        "increments_ok": increments_ok,
        "j0": report.extras.get("j0_value"),
    }


def check_series(obs: dict, *, what: str, m: int, tau: complex, eps: float,
                 j_max: int, weight: Callable[[int], complex] | None = None) -> list[str]:
    """Checks of a fixed-m series report.  weight(j), if given, multiplies the
    coefficient in each term (the synthesis terms j^2 (1 + tau^2) c_j D_j)."""
    R = _ref()
    problems = []
    j_start = max(abs(m), 1)
    if obs["js"] != (j_start, j_max, j_max - j_start + 1) or not obs["consecutive"]:
        problems.append(f"{what}: terms {obs['js']} do not cover j = {j_start}..{j_max}")
    if not obs["increments_ok"]:
        problems.append(f"{what}: a partial-sum increment differs from its term")
    for j, log_mag, phase in obs["sampled"]:
        if log_mag is None:
            problems.append(f"{what}: term j={j} missing")
            continue
        ref = R.coefficient(j, m, tau, eps)
        if weight is not None:
            ref = ref * R.mpmath.mpc(weight(j))
            if abs(ref) < 1e-290:
                # below the double range the term underflows; it must not grow
                if log_mag > math.log(1e-280):
                    problems.append(f"{what}: term j={j} is {log_mag:.4g} in log, expected underflow")
                continue
        problems += R.check_coefficient(what, j, m, log_mag, phase, ref)
    if weight is None:
        problems += R.check_ratio(f"{what} tail ratio", j_max, m, obs["last_ratio"], tau, eps)
    if m == 0 and obs["j0"] is not None:
        v = complex(obs["j0"])
        problems += R.check_coefficient(
            f"{what} j0_value", 0, 0, math.log(abs(v)) if v else -math.inf,
            math.atan2(v.imag, v.real), R.coefficient(0, 0, tau, eps))
    return problems


def _sample_js(rng: random.Random, m: int, j_max: int) -> tuple[int, ...]:
    """Two terms in the exact window (one at its top, j = 64) and one beyond."""
    return (rng.randint(max(abs(m), 1), 63), 64, rng.randint(65, j_max - 1))


def diag_scan(seed: int, workdir: Path) -> list[Op]:
    """Fixed-m series reports at j_max = 400: ratio_test, partial_sum_diagonal
    and synthesize on a geometric table, one op per eps value of SCAN_EPS."""
    rng = random.Random(f"diag-scan:{seed}")
    ops = []
    kinds = ("ratio_test", "partial_sum_diagonal", "synthesize")
    for slot, centre in enumerate(SCAN_EPS):
        kind = kinds[slot % 3]
        eps = draw_eps(rng, centre)
        m = SCAN_MS[slot % len(SCAN_MS)]
        tau = draw_tau(rng, tau_cap(eps), TAU_FRACS[(slot // 4) % 3], with_imag=slot % 5 == 4)
        js = _sample_js(rng, m, SCAN_J_MAX)
        j_start = max(abs(m), 1)
        labels = SCAN_J_MAX - j_start + 1
        weight = None
        if kind == "ratio_test":
            call = (lambda m=m, tau=tau, eps=eps:
                    principal_series.ratio_test(m, tau, eps, SCAN_J_MAX))
        elif kind == "partial_sum_diagonal":
            cfg = ExpansionConfig(tau=tau, m=m, epsilon=eps, j_max=SCAN_J_MAX)
            call = lambda cfg=cfg: expansion.partial_sum_diagonal(cfg)
            labels += m == 0
        else:
            ratio = rng.uniform(0.6, 0.95)
            table = CoefficientTable.geometric(m, ratio, SCAN_J_MAX)
            call = (lambda table=table, tau=tau, eps=eps:
                    expansion.synthesize(table, tau, eps, SCAN_J_MAX))
            weight = (lambda j, ratio=ratio, tau=tau:
                      j * j * (1.0 + tau * tau) * ratio**j)
        what = f"{kind}(m={m}, tau={tau}, eps={eps})"
        ops.append(Op(
            kind=kind,
            call=call,
            observe=lambda r, js=js: observe_series(r, js),
            check=lambda o, what=what, m=m, tau=tau, eps=eps, weight=weight: check_series(
                o, what=what, m=m, tau=tau, eps=eps, j_max=SCAN_J_MAX, weight=weight),
            labels=labels,
        ))
    return ops


# ------------------------------------------------------------------ triple grid


def random_table(rng: random.Random, p: int, band: int) -> FourierTableSU2:
    """A dense seeded table with entries decaying in twice_j."""
    entries = {}
    for tj in range(abs(p), band + 1, 2):
        for tm in range(-tj, tj + 1, 2):
            scale = math.exp(-2.0 * tj / max(band, 1))
            entries[(tj, tm)] = scale * complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    return FourierTableSU2(p, band, entries)


def observe_triple(result, sample_js: tuple[int, ...]) -> dict:
    report, bounds = result
    by_j = {t.j: t for t in report.terms}
    return {
        "js": tuple(t.j for t in report.terms),
        "blocks": tuple(
            (j, by_j[j].log_mag, by_j[j].phase) if j in by_j else (j, None, None)
            for j in sample_js
        ),
        "bound_js": tuple(bounds.js),
        "over_bound": tuple(
            j for j, s, b in zip(bounds.js, bounds.apply_abs, bounds.product_partials)
            if not s <= b * (1.0 + 1e-12)
        ),
        "fourier_partials": tuple(bounds.fourier_partials),
        "coefficient_steps": tuple(
            (j, bounds.coefficient_partials[j] - bounds.coefficient_partials[j - 1])
            for j in sample_js if 0 < j < len(bounds.coefficient_partials)
        ),
    }


def check_triple(obs: dict, *, what: str, tau: complex, eps: float,
                 table: FourierTableSU2) -> list[str]:
    R = _ref()
    problems = []
    js = tuple(range(TRIPLE_J_MAX + 1))
    if obs["js"] != js:
        problems.append(f"{what}: partial_sum_triple terms do not cover j = 0..{TRIPLE_J_MAX}")
    if obs["bound_js"] != js:
        problems.append(f"{what}: ymap_convergence_report does not cover j = 0..{TRIPLE_J_MAX}")
    for j, log_mag, phase in obs["blocks"]:
        ref, abs_sum = R.block(j, tau, eps)
        if log_mag is None:
            problems.append(f"{what}: block j={j} missing")
            continue
        err = abs(_linear(log_mag, phase) - ref)
        if not err <= R.TOL_EXACT * abs_sum:
            problems.append(f"{what}: block j={j} off by {err:.3g} (sum |D| = {abs_sum:.3g})")
    for j, step in obs["coefficient_steps"]:
        ref, abs_sum = R.block(j, tau, eps)
        if not abs(step - abs(ref)) <= R.TOL_EXACT * abs_sum:
            problems.append(f"{what}: coefficient bound step at j={j} is {step:.10g}, "
                            f"mpmath |block| {abs(ref):.10g}")
    if obs["over_bound"]:
        problems.append(f"{what}: |S_J| above the product bound at J = {obs['over_bound'][:5]}")
    rows: dict[int, list[float]] = {}
    for (tj, _), v in table.entries.items():
        rows.setdefault(tj, []).append(abs(v))
    running = 0.0
    for j, got in zip(js, obs["fourier_partials"]):
        running += math.fsum(rows.get(j, ()))
        if abs(got - running) > 1e-12 * running:
            problems.append(f"{what}: Fourier partial at j={j} is {got!r}, expected {running!r}")
            break
    return problems


def triple_grid(seed: int, workdir: Path) -> list[Op]:
    """partial_sum_triple at j_max = 64, then ymap_convergence_report at the
    same (tau, eps) with a seeded table whose band reaches j_max."""
    rng = random.Random(f"triple-grid:{seed}")
    ops = []
    for centre, frac in TRIPLE_STRATA:
        eps = draw_eps(rng, centre)
        tau = draw_tau(rng, TAU_MAX, frac, with_imag=False).real
        table = random_table(rng, 0, TRIPLE_J_MAX)
        js = (rng.randint(1, 16), rng.randint(48, TRIPLE_J_MAX))

        def call(tau=tau, eps=eps, table=table):
            report = expansion.partial_sum_triple(tau, eps, TRIPLE_J_MAX)
            req = ymap.YMapRequest(table=table, tau=tau, j_max=TRIPLE_J_MAX, epsilon=eps)
            return report, ymap.ymap_convergence_report(req)

        what = f"triple(tau={tau}, eps={eps})"
        ops.append(Op(
            kind="triple",
            call=call,
            observe=lambda r, js=js: observe_triple(r, js),
            check=lambda o, what=what, tau=tau, eps=eps, table=table: check_triple(
                o, what=what, tau=tau, eps=eps, table=table),
            labels=(TRIPLE_J_MAX + 1) ** 2,
        ))
    return ops


# ----------------------------------------------------------------- su2 analysis


def _wigner_monomials(tj: int, tm_row: int, tm: int) -> list[tuple[float, int, int, int, int]]:
    """D^{tj/2}_{tm_row/2, tm/2}(u) as sum w a^ka b^kb c^kc d^kd over the
    entries u = [[a, b], [c, d]]: the symmetric power of D^{1/2}(u) = u."""
    jp, jm = (tj + tm) // 2, (tj - tm) // 2
    ip, im = (tj + tm_row) // 2, (tj - tm_row) // 2
    f = math.factorial
    norm = math.sqrt(f(ip) * f(im) / (f(jp) * f(jm)))
    out = []
    for k in range(jp + 1):
        l = ip - k
        if 0 <= l <= jm:
            out.append((norm * math.comb(jp, k) * math.comb(jm, l), k, l, jp - k, jm - l))
    return out


class BandLimitedFunction:
    """phi(u) = sum_t c_t D^{tj_t/2}_{p/2, tm_t/2}(u), evaluated as a polynomial
    in the matrix entries.  Its Fourier table along row p/2 is known in closed
    form: entry (tj, tm) = c / sqrt(tj + 1) (Schur orthogonality), zero elsewhere."""

    def __init__(self, p: int, coefficients: dict[tuple[int, int], complex]):
        self.p = p
        self.coefficients = coefficients
        merged: dict[tuple[int, int, int, int], complex] = {}
        for (tj, tm), c in coefficients.items():
            for w, *powers in _wigner_monomials(tj, p, tm):
                merged[tuple(powers)] = merged.get(tuple(powers), 0j) + c * w
        self.monomials = [(w, *powers) for powers, w in merged.items()]
        self.degree = max(coefficients)[0]

    def __call__(self, u) -> complex:
        (a, b), (c, d) = u.matrix.tolist()
        pa, pb, pc, pd = [1.0], [1.0], [1.0], [1.0]
        for _ in range(self.degree):
            pa.append(pa[-1] * a)
            pb.append(pb[-1] * b)
            pc.append(pc[-1] * c)
            pd.append(pd[-1] * d)
        return sum(w * pa[ka] * pb[kb] * pc[kc] * pd[kd] for w, ka, kb, kc, kd in self.monomials)

    def entry(self, tj: int, tm: int) -> complex:
        return self.coefficients.get((tj, tm), 0j) / math.sqrt(tj + 1.0)


def observe_su2(result) -> tuple:
    return tuple(
        (dict(table.entries), tuple(values), parseval, tuple(pw.twice_js), tuple(pw.sup_values))
        for table, values, parseval, pw in result
    )


def check_su2(obs: tuple, *, phi: BandLimitedFunction, points: list) -> list[str]:
    R = _ref()
    problems = []
    scale = max(1.0, sum(abs(c) for c in phi.coefficients.values()))
    for band, (entries, values, parseval, pw_js, pw_sup) in zip(SU2_BANDS, obs):
        what = f"su2_fourier(band={band})"
        keys = {(tj, tm) for tj in range(phi.p, band + 1, 2) for tm in range(-tj, tj + 1, 2)}
        if set(entries) != keys:
            problems.append(f"{what}: table holds {len(entries)} entries, expected {len(keys)}")
        worst = max((abs(v - phi.entry(*k)) for k, v in entries.items()), default=0.0)
        if worst > R.TOL_SU2 * scale:
            problems.append(f"{what}: entry off its closed form by {worst:.3g}")
        for u, v in zip(points, values):
            if abs(v - phi(u)) > R.TOL_SU2 * scale:
                problems.append(f"{what}: round trip off by {abs(v - phi(u)):.3g}")
        expected = math.fsum(abs(phi.entry(*k)) ** 2 for k in keys)
        if abs(parseval - expected) > R.TOL_SU2 * expected:
            problems.append(f"{what}: Parseval sum {parseval!r}, expected {expected!r}")
        rows = sorted({tj for tj, _ in keys})
        sup = [max(abs(phi.entry(tj, tm)) for tm in range(-tj, tj + 1, 2)) for tj in rows]
        if pw_js != tuple(rows) or any(
            abs(a - b) > R.TOL_SU2 * scale for a, b in zip(pw_sup, sup)
        ):
            problems.append(f"{what}: Paley-Wiener row sups differ from the closed form")
    return problems


def su2_analysis(seed: int, workdir: Path) -> list[Op]:
    """su2_fourier at bands 8 and 12 of one band-limited function, each followed
    by synthesize_su2 at seeded points, parseval_sum and paley_wiener_report."""
    rng = random.Random(f"su2-analysis:{seed}")
    coefficients = {}
    for tj in SU2_TERM_TWICE_JS:
        tm = rng.randrange(-tj, tj + 1, 2)
        coefficients[(tj, tm)] = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    phi = BandLimitedFunction(SU2_P, coefficients)
    points = [
        lie_group.su2_from_euler(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi),
                                 rng.uniform(0, 4 * math.pi))
        for _ in range(SU2_POINTS)
    ]

    def call():
        out = []
        for band in SU2_BANDS:
            table = wigner.su2_fourier(phi, phi.p, band)
            values = [wigner.synthesize_su2(table, u) for u in points]
            out.append((table, values, wigner.parseval_sum(table),
                        wigner.paley_wiener_report(table, PW_POWERS)))
        return out

    labels = sum(tj + 1 for band in SU2_BANDS for tj in range(phi.p, band + 1, 2))
    return [Op(kind="su2", call=call, observe=observe_su2,
               check=lambda o: check_su2(o, phi=phi, points=points), labels=labels)]


# ----------------------------------------------------------------- cli requests


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _tau_arg(tau: complex) -> str:
    return f"--tau={tau.real!r},{tau.imag!r}"


@functools.lru_cache(maxsize=None)
def _schema_validator():
    import jsonschema

    root = Path(__file__).resolve().parent.parent
    schema = json.loads((root / "schemas" / "report.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def _schema_problems(payload: dict) -> list[str]:
    return [f"schema: {e.message}" for e in _schema_validator().iter_errors(payload)][:3]


def _parse_series(text: str, fmt: str) -> list[dict]:
    """Series terms from a JSON envelope or a CSV flattening."""
    if fmt == "json":
        return json.loads(text)["report"]["terms"]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["j", "log_mag", "phase", "ratio", "partial_re", "partial_im"]:
        raise ValueError("CSV header missing")
    return [
        {"j": int(r[0]), "log_mag": float(r[1]), "phase": float(r[2]),
         "ratio": float(r[3]) if r[3] else None}
        for r in rows[1:]
    ]


def check_cli(obs: tuple[int, str], *, what: str, command: str, fmt: str,
              params: dict) -> list[str]:
    R = _ref()
    code, text = obs
    if code != 0:
        return [f"{what}: exit code {code}"]
    problems = []
    if fmt == "json":
        problems += _schema_problems(json.loads(text))
    if command == "coeff":
        rep = json.loads(text)["report"]
        j, m = params["j"], params["m"]
        return problems + R.check_coefficient(
            what, j, m, rep["log_mag"], rep["phase"],
            R.coefficient(j, m, params["tau"], params["eps"]))
    terms = _parse_series(text, fmt)
    j_first, j_max = params["j_first"], params["j_max"]
    if [t["j"] for t in terms] != list(range(j_first, j_max + 1)):
        return problems + [f"{what}: {len(terms)} terms, expected j = {j_first}..{j_max}"]
    by_j = {t["j"]: t for t in terms}
    tau, eps = params["tau"], params["eps"]
    if command == "ymap":
        for j in params["sample_js"]:
            ref, abs_sum = 0j, 0.0
            for m in range(-(j // 2), j // 2 + 1):
                d = params["table"].get(j, 2 * m)
                c = complex(R.coefficient(j, m, tau, eps))
                ref += d * c
                abs_sum += abs(d * c)
            t = by_j[j]
            err = abs(_linear(float(t["log_mag"]), t["phase"]) - ref)
            if not err <= R.TOL_EXACT * abs_sum:
                problems.append(f"{what}: term j={j} off by {err:.3g} (scale {abs_sum:.3g})")
        return problems
    m = params["m"]
    for j in params["sample_js"]:
        t = by_j[j]
        problems += R.check_coefficient(what, j, m, float(t["log_mag"]), t["phase"],
                                        R.coefficient(j, m, tau, eps))
    problems += R.check_ratio(f"{what} tail ratio", j_max, m, by_j[j_max]["ratio"], tau, eps)
    return problems


def cli_requests(seed: int, workdir: Path) -> list[Op]:
    """cli.main calls: coeff on both sides of j = 64, ratio and
    sum --mode diagonal at j_max = 200 in JSON and CSV (two of each), and
    ymap without --bounds on a seeded table file."""
    rng = random.Random(f"cli-requests:{seed}")
    ops = []

    def add(argv, command, fmt, params, labels):
        what = "cli " + " ".join(argv)
        ops.append(Op(
            kind=f"cli-{command}-{fmt}",
            call=lambda argv=argv: run_cli(argv),
            observe=lambda r: r,
            check=lambda o, what=what, command=command, fmt=fmt, params=params: check_cli(
                o, what=what, command=command, fmt=fmt, params=params),
            labels=labels,
        ))

    for side in ("exact", "large"):
        for k, centre in enumerate(EPS_CENTRES if side == "large" else CLI_EXACT_EPS * 2):
            eps = draw_eps(rng, centre)
            m = SCAN_MS[k % len(SCAN_MS)]
            if side == "exact":
                j = rng.randint(3, 64)
                tau = draw_tau(rng, TAU_MAX, TAU_FRACS[k % 3], with_imag=k % 3 == 2)
            else:
                j = rng.randint(65, 400)
                tau = draw_tau(rng, tau_cap(eps), TAU_FRACS[k % 3], with_imag=k % 3 == 2)
            argv = ["coeff", "--j", str(j), "--m", str(m), _tau_arg(tau), "--eps", repr(eps)]
            add(argv, "coeff", "json", {"j": j, "m": m, "tau": tau, "eps": eps}, 1)

    series = [(command, fmt) for command in ("ratio", "sum") for fmt in ("json", "csv")] * 2
    for k, ((command, fmt), centre) in enumerate(zip(series, CLI_SERIES_EPS)):
        eps = draw_eps(rng, centre)
        m = SCAN_MS[k % len(SCAN_MS)]
        tau = draw_tau(rng, tau_cap(eps), TAU_FRACS[k % 3], with_imag=False)
        argv = [command] + (["--mode", "diagonal"] if command == "sum" else []) + [
            "--m", str(m), _tau_arg(tau), "--eps", repr(eps), "--jmax", str(CLI_J_MAX),
            "--format", fmt]
        j_first = max(abs(m), 1)
        params = {"m": m, "tau": tau, "eps": eps, "j_first": j_first, "j_max": CLI_J_MAX,
                  "sample_js": _sample_js(rng, m, CLI_J_MAX)}
        add(argv, command, fmt, params,
            CLI_J_MAX - j_first + 1 + (command == "sum" and m == 0))

    table = random_table(rng, 0, YMAP_BAND)
    path = workdir / f"ymap-table-{seed}.json"
    path.write_text(json.dumps(table.to_json_dict()))
    eps = draw_eps(rng, 0.85)
    tau = draw_tau(rng, TAU_MAX, TAU_FRACS[1], with_imag=False)
    argv = ["ymap", "--table", str(path), _tau_arg(tau), "--eps", repr(eps),
            "--jmax", str(YMAP_BAND)]
    params = {"tau": tau, "eps": eps, "table": table, "j_first": 0, "j_max": YMAP_BAND,
              "sample_js": (2 * rng.randint(1, 4), YMAP_BAND)}
    add(argv, "ymap", "json", params, len(table.entries))
    return ops


BUILDERS = {
    "diag-scan": diag_scan,
    "triple-grid": triple_grid,
    "su2-analysis": su2_analysis,
    "cli-requests": cli_requests,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """One round of the workload's operations, made from the seed."""
    return BUILDERS[workload](seed, workdir)
