"""Bounded sweeps of gluings, and the one cross-check every verdict passes.

The command line, the experiment scripts and the tests all stream gluings
from enumerate_gluings and judge each glued manifold with check.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from .gluing import GluedManifold, GluingMap, find_fibration, glue
from .invariants import euler_characteristic_glued, mayer_vietoris_h1
from .lattice import AbelianGroup, IntMatrix, Value, cross, is_primitive
from .pieces import Piece, PieceKind, sample_piece
from .surgery import SURGERY_DISK_PAIR, LensSpace, classify_double_disk_gluing, lens_normalize
from .torus3 import is_sign_normalized

# only orbit representatives are classified: 62 rows at N = 1, 1,077 at
# N = 2, but 10,055 at N = 3, where a disk-pair sweep of enumerate_gluings
# plus check in one process takes about 33 x perfbench.run.calibration_s(),
# 2.6 x of it in the generator (timed around each next; median of 5 runs,
# 32-39 x, Python 3.11.7 on 2 CPUs, calibration 0.08-0.10 s), so stay
# desk-scale
MAX_ENUMERATION_ENTRY = 2


def expected_h1_for_lens(lens: LensSpace) -> AbelianGroup:
    """H_1(S^1 x L(q,p)): Z + Z/q, with the degenerate q read correctly."""
    if lens.q == 0:
        return AbelianGroup(2, ())
    return AbelianGroup(1, (lens.q,) if lens.q >= 2 else ())


class Verdict(Value):
    """One manifold's answer (lens for two T^2 x D^2 pieces, else
    fibration) and whether the independent cross-check confirms it."""

    __slots__ = ("h1", "chi", "lens", "fibration", "consistent")


def check(x: GluedManifold) -> Verdict:
    """Classify or fiber x, and confirm the answer by Mayer-Vietoris.

    Two T^2 x D^2 pieces are classified as S^1 x L(q,p), consistent when
    H_1 = Z + Z/q, chi = 0 and, since H_1 pins only q, the lens equals the
    closed-form reading of the glued meridian v = f(lambda'): q is the gcd
    of v's two entries off the first piece's lambda axis, p = v's lambda
    entry mod q.  Any other pair is fibered over the circle, consistent when
    chi = 0; but chi = 0 holds for every gluing by theorem, so for those
    eight kind pairs the verdict has no independent check yet.
    """
    h1 = mayer_vietoris_h1(x)
    chi = euler_characteristic_glued(x)
    if x.w.kind is x.w_prime.kind is PieceKind.TORUS_TIMES_DISK:
        lens = classify_double_disk_gluing(x)
        v, axis = x.f.m.column(x.w_prime.lambda_index - 1), x.w.lambda_index - 1
        closed = lens_normalize(math.gcd(*v[:axis], *v[axis + 1 :]), v[axis])
        consistent = lens == closed and h1 == expected_h1_for_lens(lens) and chi == 0
        return Verdict(h1, chi, lens, None, consistent)
    return Verdict(h1, chi, None, find_fibration(x), chi == 0)


def pieces_for_kinds(kind_w: PieceKind, kind_w_prime: PieceKind) -> tuple[Piece, Piece]:
    """The pieces a sweep of a kind pair glues: SURGERY_DISK_PAIR for two
    T^2 x D^2 kinds, so rows read as unknot surgeries, else sample pieces."""
    if kind_w is kind_w_prime is PieceKind.TORUS_TIMES_DISK:
        return SURGERY_DISK_PAIR
    return sample_piece(kind_w), sample_piece(kind_w_prime)


def _framing_swap(axis: int) -> tuple[int, ...]:
    """The permutation of the 0-based axes that fixes axis and swaps the
    other two; with every sign vector it generates a framing's symmetries."""
    return tuple(3 - axis - i if i != axis else i for i in range(3))


def _orbit_tree(axis: int, axis_prime: int) -> dict:
    """The orbit of a 3x3 entry tuple e under the framing symmetries of
    both pieces (on rows for axis, on columns for axis_prime), as a prefix
    tree of maps.

    Entry k of a member is sign * e[index] for the (index, sign) pair at
    depth k of its path; members that share their first k pairs share a
    path, so one comparison at a node covers all of them.
    """
    identity = (0, 1, 2)
    tree: dict = {}
    for perm_l, perm_r in itertools.product(
        (identity, _framing_swap(axis)), (identity, _framing_swap(axis_prime))
    ):
        for signs in itertools.product((1, -1), repeat=6):  # row signs, then column signs
            node = tree
            for i, j in itertools.product(range(3), repeat=2):
                pair = (3 * perm_l[i] + perm_r[j], signs[i] * signs[3 + j])
                node = node.setdefault(pair, {})
    return tree


def _is_orbit_least(entries: tuple[int, ...], node: dict, k: int = 0) -> bool:
    """Whether no orbit member under node, all of which agree with entries
    before position k, is lexicographically smaller than entries."""
    for (index, sign), child in node.items():
        diff = sign * entries[index] - entries[k]
        if diff < 0 or (diff == 0 and not _is_orbit_least(entries, child, k + 1)):
            return False
    return True


def enumerate_gluings(
    max_entry: int, w: Piece, w_prime: Piece
) -> Iterator[GluedManifold]:
    """All gluings of the two pieces by unimodular matrices with entries in
    [-max_entry, max_entry], one representative per symmetry orbit.

    The symmetry of each boundary framing is the swap sigma of its two
    non-lambda axes, or not, times every sign vector: the framing changes
    induced by self-diffeomorphisms of the piece, so orbit members give the
    same manifold.  Representatives are the lexicographically least orbit
    members, streamed in lexicographic order of their entries.

    Only unimodular matrices are generated, row by row, each row taken from
    one list of the box's primitive rows: r1, an r2 whose cross product
    c = r1 x r2 is primitive, and every r3 with r3 . c = +-1 (that dot
    product is the determinant).  Exact prefilters reject a candidate as
    soon as the rows chosen so far show a smaller orbit member:
    - No row is sign-normalized (first nonzero entry positive): flipping
      its sign is a symmetry.
    - r1 is its own least image under the column symmetries, which is
      n = -|r1| entrywise or its sigma image, whichever is smaller; so r1
      has no positive entry.
    - r2 is <= 0 wherever r1 is 0, since r2 then leads that column.
    - The row that the first piece's sigma swaps with r1, if any, has no
      least image below r1.
    Each rejects only matrices that the full least-member test against the
    precomputed orbit, which runs last, rejects too; the output is the same.
    Nothing is remembered between matrices, so memory stays constant.
    """
    axis, axis_prime = w.lambda_index - 1, w_prime.lambda_index - 1
    orbit = _orbit_tree(axis, axis_prime)
    sigma = _framing_swap(axis_prime)
    rng = range(-max_entry, max_entry + 1)
    rows = [
        r for r in itertools.product(rng, repeat=3) if is_primitive(r) and not is_sign_normalized(r)
    ]
    least = {}
    for r in rows:
        n = tuple(-abs(x) for x in r)
        least[r] = min(n, tuple(n[p] for p in sigma))
    swap = _framing_swap(axis)[0]  # the row the first piece's sigma swaps r1 with (0: none)
    for r1 in rows:
        if least[r1] != r1:
            continue
        zeros = [j for j in range(3) if r1[j] == 0]
        for r2 in rows:
            if any(r2[j] > 0 for j in zeros) or (swap == 1 and least[r2] < r1):
                continue
            c0, c1, c2 = c = cross(r1, r2)
            if not is_primitive(c):
                continue
            for r3 in rows:
                det = r3[0] * c0 + r3[1] * c1 + r3[2] * c2
                if det not in (1, -1) or (swap == 2 and least[r3] < r1):
                    continue
                entries = (*r1, *r2, *r3)
                if _is_orbit_least(entries, orbit):
                    yield glue(w, w_prime, GluingMap(IntMatrix(3, 3, entries)))
