#!/usr/bin/env python3
"""Build an SU(2) Fourier table from a band-limited function, push it through
the boost-series map at several boosts, and print the partial-sum tails with
their majorization bounds.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lorentz_harmonics.wigner import SpinLabel, su2_fourier, wigner_D  # noqa: E402
from lorentz_harmonics.ymap import (  # noqa: E402
    YMapRequest,
    ymap_apply,
    ymap_convergence_report,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--band", type=int, default=6)
    ap.add_argument("--tau", type=float, default=0.3)
    ap.add_argument("--jmax", type=int, default=120)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.5, 1.5, 2.0, 4.0])
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    coeffs = {
        (tj, tm): complex(rng.normal(), rng.normal()) * 0.5**tj
        for tj in range(0, args.band + 1, 2)
        for tm in range(-tj, tj + 1, 2)
    }

    def phi(u):
        return sum(c * wigner_D(SpinLabel(tj), 0, tm, u) for (tj, tm), c in coeffs.items())

    table = su2_fourier(phi, p=0, band_limit=args.band)
    print(f"table band {args.band}, {len(table.entries)} entries")
    print("eps\t|S_final|\tcauchy_delta\tproduct_bound\tverdict")
    import warnings

    for eps in args.eps:
        req = YMapRequest(table=table, tau=args.tau, j_max=args.jmax, epsilon=eps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = ymap_apply(req)
            bounds = ymap_convergence_report(req)
        print(
            f"{eps}\t{abs(rep.partial_sums[-1]):.6e}\t{rep.cauchy_delta:.2e}"
            f"\t{bounds.product_bound:.6e}\t{rep.verdict}"
        )


if __name__ == "__main__":
    main()
