#!/usr/bin/env python3
"""Error of the large-j coefficient route against exact evaluation.

Prints relative errors of the saddle-point term over a j ladder.  For fixed m
and |Re tau| <= 1 they halve per doubling of j, at tau = 0 and tau != 0 alike
(eps = 2, m = 0, tau = 0.5: 8.3e-2, 4.4e-2, 2.3e-2, 1.2e-2 at j = 8..64).
Parameters outside the route's domain, and exact values whose series cancel,
print the error raised instead of a number.  Run: python scripts/asymptotic_error_table.py --taus 0 0.5 1
"""
import argparse
import cmath
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lorentz_harmonics.principal_series import (  # noqa: E402
    SaddlePointDomainError,
    diagonal_coefficient,
)
from lorentz_harmonics.special import SeriesConvergenceError  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=0)
    ap.add_argument("--eps", type=float, default=2.0)
    ap.add_argument("--taus", type=float, nargs="+", default=[0.0, 0.25, 0.5])
    ap.add_argument("--js", type=int, nargs="+", default=[8, 16, 32, 64])
    args = ap.parse_args()

    print("tau\tj\trel_error")
    for tau in args.taus:
        for j in args.js:
            try:
                exact = diagonal_coefficient(j, args.m, tau, args.eps, method="exact")
                asym = diagonal_coefficient(j, args.m, tau, args.eps, method="asymptotic")
            except (SaddlePointDomainError, SeriesConvergenceError) as exc:
                print(f"{tau}\t{j}\t{exc}")
                continue
            err = abs(
                cmath.exp(
                    complex(asym.log_mag - exact.log_mag, asym.phase - exact.phase)
                )
                - 1.0
            )
            print(f"{tau}\t{j}\t{err:.4e}")


if __name__ == "__main__":
    main()
