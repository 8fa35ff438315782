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

from torusglue.cli import MAX_ENUMERATION_ENTRY, enumerate_gluings, expected_h1_for_lens
from torusglue.invariants import euler_characteristic_glued, mayer_vietoris_h1
from torusglue.pieces import torus_times_disk
from torusglue.surgery import classify_double_disk_gluing, lens_equivalent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-entry", type=int, default=1, choices=range(1, MAX_ENUMERATION_ENTRY + 1)
    )
    args = parser.parse_args()

    w = torus_times_disk(framing=("mu", "lambda", "s"), lambda_index=2)
    w_prime = torus_times_disk(framing=("lambda", "mu", "s"), lambda_index=1)

    counts: Counter = Counter()
    representatives: list = []
    rows = 0
    bad = 0
    for manifold in enumerate_gluings(args.max_entry, w, w_prime):
        rows += 1
        lens = classify_double_disk_gluing(manifold)
        if mayer_vietoris_h1(manifold) != expected_h1_for_lens(lens):
            bad += 1
        if euler_characteristic_glued(manifold) != 0:
            bad += 1
        rep = next((r for r in representatives if lens_equivalent(lens, r)), None)
        if rep is None:
            representatives.append(lens)
            rep = lens
        counts[str(rep)] += 1

    print(f"gluing entries in [-{args.max_entry}, {args.max_entry}]: "
          f"{rows} symmetry classes of gluings")
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
