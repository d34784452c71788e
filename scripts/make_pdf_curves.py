#!/usr/bin/env python3
"""Emit the pdf-comparison tables behind the body/tail figures.

Produces two CSV files for a given tail index: a linear-scale table over
the body of the distributions and a log10 table reaching far enough into
the tail to show the power-law slope -(nu+1) of the generalised
exponential against the exponential's straight-line decay.
"""

import argparse
import sys

from asinhsurv import CURVE_COLUMNS, emit_curves


def write_csv(path: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CURVE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu", type=float, default=1.0)
    ap.add_argument("--body-xmax", type=float, default=6.0)
    ap.add_argument("--tail-xmax", type=float, default=1e4)
    ap.add_argument("--points", type=int, default=401)
    ap.add_argument("--prefix", default="pdf_curves")
    args = ap.parse_args()

    try:
        body = emit_curves(args.nu, args.body_xmax, args.points, log_scale=False)
        tail = emit_curves(args.nu, args.tail_xmax, args.points, log_scale=True)
    except ValueError as exc:  # DomainError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    body_path = f"{args.prefix}_linear.csv"
    tail_path = f"{args.prefix}_log10.csv"
    write_csv(body_path, body)
    write_csv(tail_path, tail)
    print(f"wrote {body_path} ({len(body)} rows) and {tail_path} ({len(tail)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
