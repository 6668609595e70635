#!/usr/bin/env python3
"""Run the reference CLI invocations and print a fingerprint of each run.

Each of the 15 invocations runs twice through cli.main, with --format json and
--format csv, with warnings ignored; the ymap runs read a p = 0, band 4 table
(entries 0.5^tj + 0.1 tm i) written to a temporary directory.  One line per
run: the exit code, the sha256 of stdout, the sha256 of stderr, the format and
the arguments.  Save the output of one checkout and compare another against it:

    python3 scripts/cli_reference.py > reference.txt
    python3 scripts/cli_reference.py --against reference.txt

With --against the script prints the runs that differ, each with the streams
in which it differs, and exits 1 if any do.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lorentz_harmonics import cli  # noqa: E402
from lorentz_harmonics.wigner import FourierTableSU2  # noqa: E402

INVOCATIONS = [
    "coeff --j 1 --m 0 --tau 0 --eps 2",
    "coeff --j 100 --m 1 --tau 0.3,0.1 --eps 1.6",
    "ratio --m 0 --tau 0 --eps 2 --jmax 200",
    "ratio --m 1 --tau 0.2,0.1 --eps 0.5 --jmax 120",
    "sum --mode diagonal --m 0 --tau 0.3 --eps 2 --jmax 150",
    "sum --mode triple --tau 0 --eps 0.5 --jmax 40",
    "norm --tau 0 --jmax 1000",
    "norm --tau 0.5,0.2 --jmax 1000",
    "diverge --tau 0 --checkpoints 1000,100000",
    "diverge --tau 0.3 --checkpoints 10,100,1000",
    "ymap --tau 0.3 --eps 2 --jmax 30 --table table.json",
    "ymap --tau 0.3 --eps 2 --jmax 30 --table table.json --bounds",
    "ymap --tau 0.3,0.1 --eps 0.5 --jmax 3 --bounds --table table.json",
    "asymcheck --j 32 --m 0 --tau 0 --eps 2",
    "asymcheck --j 32 --m 2 --tau 0.5 --eps 2",
]


# the fields of a fingerprint line before the format and the arguments
STREAMS = ("exit code", "stdout", "stderr")


def run(args: list[str]) -> tuple[int, str, str]:
    """Exit code of cli.main(args) and the sha256 of what it wrote to stdout
    and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))


def fingerprints() -> list[str]:
    entries = {(tj, tm): complex(0.5**tj, 0.1 * tm) for tj in (0, 2, 4)
               for tm in range(-tj, tj + 1, 2)}
    lines = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the table is read by its relative name, so no path reaches stdout
        os.chdir(tmp)
        try:
            Path("table.json").write_text(json.dumps(FourierTableSU2(0, 4, entries).to_json_dict()))
            for invocation in INVOCATIONS:
                for fmt in ("json", "csv"):
                    code, out, err = run(invocation.split() + ["--format", fmt])
                    lines.append(f"{code} {out} {err} {fmt} {invocation}")
        finally:
            os.chdir(home)
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", type=Path, help="a saved run to compare with")
    args = ap.parse_args()
    lines = fingerprints()
    if args.against is None:
        print("\n".join(lines))
        return 0
    saved = args.against.read_text().splitlines()
    differ = [(old, new) for old, new in zip(saved, lines) if old != new]
    for old, new in differ:
        streams = [name for name, a, b in zip(STREAMS, old.split(), new.split()) if a != b]
        print(f"- {old}\n+ {new}\n  differs in {', '.join(streams) or 'format or arguments'}")
    if len(saved) != len(lines):
        print(f"{len(saved)} saved runs, {len(lines)} now")
    print(f"{len(lines) - len(differ)} of {len(lines)} runs identical")
    return 1 if differ or len(saved) != len(lines) else 0


if __name__ == "__main__":
    sys.exit(main())
