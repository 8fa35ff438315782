#!/usr/bin/env python3
"""Sweep torus surgeries along S^1 x (unknot) and tabulate the results.

For every coprime slope (p, q) in the requested box this classifies the
surgered manifold as S^1 x L(q,p), verifies the classification against the
Mayer-Vietoris homology computation and chi = 0, and then groups the family by
unoriented lens-space equivalence to show how many distinct manifolds the
box actually contains.

    python scripts/surgery_sweep.py --max-p 10 --max-q 10
"""

import argparse
import math
import sys

from torusglue.enumeration import check
from torusglue.gluing import GluingMap, glue
from torusglue.surgery import SURGERY_DISK_PAIR, SurgerySpec, lens_class


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=int, default=10)
    parser.add_argument("--max-q", type=int, default=10)
    args = parser.parse_args()

    rows = []
    for q in range(0, args.max_q + 1):
        for p in range(-args.max_p, args.max_p + 1):
            if math.gcd(p, q) != 1:
                continue
            spec = SurgerySpec.from_slope(p, q)
            verdict = check(glue(*SURGERY_DISK_PAIR, GluingMap(spec.completion)))
            rows.append((p, q, verdict.lens, verdict.h1, verdict.consistent))

    print(f"{'slope':>10}  {'result':>8}  {'H1':>10}  check")
    for p, q, lens, h1, ok in rows:
        print(f"{f'({p},{q})':>10}  {str(lens):>8}  {str(h1):>10}  {'ok' if ok else 'MISMATCH'}")

    mismatches = [r for r in rows if not r[4]]
    distinct = len({lens_class(lens) for _, _, lens, _, _ in rows})
    print()
    print(f"{len(rows)} slopes, {distinct} distinct manifolds up to unoriented equivalence")
    if mismatches:
        print(f"{len(mismatches)} homology/chi mismatches")
        return 1
    print("all classifications agree with the homology computation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
