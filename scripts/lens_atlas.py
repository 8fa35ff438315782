#!/usr/bin/env python3
"""Atlas of all bounded-entry regluings of two disk pieces.

Enumerates every unimodular gluing of T^2 x D^2 to the complement of
S^1 x (unknot) with matrix entries in [-N, N], one representative per
framing-symmetry orbit, classifies each as a lens space, and reports how
often each lens space (up to unoriented equivalence) shows up.  A histogram
over the whole table answers "which lens spaces can a small torus surgery
reach?".

    python scripts/lens_atlas.py --max-entry 1
"""

import argparse
import sys
from collections import Counter

from torusglue.enumeration import MAX_ENUMERATION_ENTRY, check, enumerate_gluings
from torusglue.surgery import SURGERY_DISK_PAIR, lens_class


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-entry", type=int, default=1, choices=range(1, MAX_ENUMERATION_ENTRY + 1)
    )
    args = parser.parse_args()

    counts: Counter = Counter()
    bad = 0
    for manifold in enumerate_gluings(args.max_entry, *SURGERY_DISK_PAIR):
        verdict = check(manifold)
        bad += not verdict.consistent
        counts[str(lens_class(verdict.lens))] += 1

    print(f"gluing entries in [-{args.max_entry}, {args.max_entry}]: "
          f"{sum(counts.values())} symmetry classes of gluings")
    print()
    print(f"{'lens space':>12}  {'gluings':>8}")
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:>12}  {count:>8}")
    print()
    if bad:
        print(f"{bad} rows failed the homology/chi cross-check")
        return 1
    print("every row's homology and Euler characteristic agree with its lens parameters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
