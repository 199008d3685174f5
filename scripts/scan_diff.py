#!/usr/bin/env python3
"""Compare two scan CSVs cell by cell, column by column.

For every column, prints how many cells differ in their text and the
largest distance between the two values in units in the last place (ulps:
the number of doubles between them, so 1 is adjacent floats and 0 is
+0.0 against -0.0).  A changed cell that is nan or infinite on either side
counts as an infinite distance.  Exits 1, printing why, when the headers
or the row counts differ, and 0 otherwise, whether or not any cell
changed.  Standard library only.

Run from the repository root:

    python scripts/scan_diff.py A.csv B.csv
"""

import argparse
import csv
import math
import struct
import sys


def ordinal(x: float) -> int:
    """x's place in the ordered doubles: adjacent floats differ by 1, +-0 are both 0."""
    (n,) = struct.unpack("<q", struct.pack("<d", x))
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def ulps(a: str, b: str) -> float:
    """Distance in ulps between two cells' values; inf if either is not finite."""
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(ordinal(x) - ordinal(y))


def read(path: str) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="first scan CSV")
    parser.add_argument("b", help="second scan CSV")
    args = parser.parse_args(argv)
    (head_a, *rows_a), (head_b, *rows_b) = read(args.a), read(args.b)
    if head_a != head_b:
        print(f"headers differ:\n  {','.join(head_a)}\n  {','.join(head_b)}")
        return 1
    if len(rows_a) != len(rows_b):
        print(f"row counts differ: {len(rows_a)} against {len(rows_b)}")
        return 1
    width = max(len(name) for name in head_a)
    print(f"{'column':<{width}}  changed  max_ulps")
    for j, name in enumerate(head_a):
        dists = [ulps(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b) if ra[j] != rb[j]]
        worst = f"{max(dists):g}" if dists else "-"
        print(f"{name:<{width}}  {len(dists):>7}  {worst:>8}")
    print(f"{len(rows_a)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
