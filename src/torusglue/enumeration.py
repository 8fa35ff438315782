"""Bounded sweeps of gluings, and the one cross-check every verdict passes.

The command line, the experiment scripts and the tests all stream gluings
from enumerate_gluings and judge each glued manifold with check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .gluing import FibrationResult, GluedManifold, GluingMap, find_fibration, glue
from .invariants import euler_characteristic_glued, mayer_vietoris_h1
from .lattice import AbelianGroup, IntMatrix, cross, is_primitive
from .pieces import Piece, PieceKind, sample_piece
from .surgery import SURGERY_DISK_PAIR, LensSpace, classify_double_disk_gluing
from .torus3 import is_sign_normalized

# only orbit representatives are classified: 62 rows at N = 1, 1,077 at
# N = 2, but 10,055 at N = 3 (a 7 s disk-pair sweep on one Xeon core with
# Python 3.11), so stay desk-scale
MAX_ENUMERATION_ENTRY = 2


def expected_h1_for_lens(lens: LensSpace) -> AbelianGroup:
    """H_1(S^1 x L(q,p)): Z + Z/q, with the degenerate q read correctly."""
    if lens.q == 0:
        return AbelianGroup(2, ())
    return AbelianGroup(1, (lens.q,) if lens.q >= 2 else ())


@dataclass(frozen=True)
class Verdict:
    """One manifold's answer (lens for two T^2 x D^2 pieces, else
    fibration) and whether the independent cross-check confirms it."""

    h1: AbelianGroup
    chi: int
    lens: LensSpace | None
    fibration: FibrationResult | None
    consistent: bool


def check(x: GluedManifold) -> Verdict:
    """Classify or fiber x, and confirm the answer by Mayer-Vietoris.

    Two T^2 x D^2 pieces are classified as S^1 x L(q,p), consistent when
    H_1 = Z + Z/q and chi = 0; any other pair is fibered over the circle,
    consistent when chi = 0, as for every manifold that fibers over S^1.
    """
    h1 = mayer_vietoris_h1(x)
    chi = euler_characteristic_glued(x)
    if x.w.kind is x.w_prime.kind is PieceKind.TORUS_TIMES_DISK:
        lens = classify_double_disk_gluing(x)
        return Verdict(h1, chi, lens, None, h1 == expected_h1_for_lens(lens) and chi == 0)
    return Verdict(h1, chi, None, find_fibration(x), chi == 0)


def pieces_for_kinds(kind_w: PieceKind, kind_w_prime: PieceKind) -> tuple[Piece, Piece]:
    """The pieces a sweep of a kind pair glues: SURGERY_DISK_PAIR for two
    T^2 x D^2 kinds, so rows read as unknot surgeries, else sample pieces."""
    if kind_w is kind_w_prime is PieceKind.TORUS_TIMES_DISK:
        return SURGERY_DISK_PAIR
    return sample_piece(kind_w), sample_piece(kind_w_prime)


def _signed_permutations_fixing(index: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(perm, signs) pairs for the 16 signed permutation matrices that fix
    the given 0-based axis up to sign."""
    others = [i for i in range(3) if i != index]
    out = []
    for swapped in (False, True):
        perm = list(range(3))
        if swapped:
            perm[others[0]], perm[others[1]] = perm[others[1]], perm[others[0]]
        for signs in itertools.product((1, -1), repeat=3):
            out.append((tuple(perm), signs))
    return out


def _orbit_tree(left, right) -> dict:
    """The orbit of a 3x3 entry tuple e under signed row permutations (left)
    and signed column permutations (right), as a prefix tree of maps.

    Entry k of a member is sign * e[index] for the (index, sign) pair at
    depth k of its path; members that share their first k pairs share a
    path, so one comparison at a node covers all of them.
    """
    tree: dict = {}
    for perm_l, signs_l in left:
        for perm_r, signs_r in right:
            node = tree
            for i, j in itertools.product(range(3), repeat=2):
                pair = (3 * perm_l[i] + perm_r[j], signs_l[i] * signs_r[j])
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


def _rows_completing(c: Sequence[int], rng: range) -> Iterator[tuple[int, int, int]]:
    """Every row r in rng^3 with r . c = +-1, in lexicographic order."""
    c0, c1, c2 = c
    targets = (-1, 1) if c2 > 0 else (1, -1)  # ascending z when c2 != 0
    for x, y in itertools.product(rng, repeat=2):
        partial = x * c0 + y * c1
        if c2 == 0:
            if partial in (1, -1):
                for z in rng:
                    yield (x, y, z)
            continue
        for t in targets:
            z, rem = divmod(t - partial, c2)
            if rem == 0 and z in rng:
                yield (x, y, z)


def enumerate_gluings(
    max_entry: int, w: Piece, w_prime: Piece
) -> Iterator[GluedManifold]:
    """All gluings of the two pieces by unimodular matrices with entries in
    [-max_entry, max_entry], one representative per symmetry orbit.

    The symmetry quotients by signed permutations of each boundary framing
    that fix the piece's lambda axis up to sign (changes of framing induced
    by self-diffeomorphisms of the pieces, so orbit members give the same
    manifold).  Representatives are the lexicographically least orbit
    members, streamed in lexicographic order of their entries.

    Only unimodular matrices are generated, row by row: a primitive r1, an
    r2 whose cross product c = r1 x r2 is primitive, and every r3 in the box
    with r3 . c = +-1 (that dot product is the determinant).  Flipping the
    sign of one row or one column is a symmetry, so the first nonzero entry
    of every row and column of a least member is negative: none is
    sign-normalized.  That cheap filter runs before the full least-member
    test against the precomputed orbit.
    Nothing is remembered between matrices, so memory stays constant.
    """
    orbit = _orbit_tree(
        _signed_permutations_fixing(w.lambda_index - 1),
        _signed_permutations_fixing(w_prime.lambda_index - 1),
    )
    rng = range(-max_entry, max_entry + 1)
    rows = [
        r for r in itertools.product(rng, repeat=3) if is_primitive(r) and not is_sign_normalized(r)
    ]
    for r1, r2 in itertools.product(rows, repeat=2):
        c = cross(r1, r2)
        if not is_primitive(c):
            continue
        for r3 in _rows_completing(c, rng):
            entries = (*r1, *r2, *r3)
            if (
                not is_sign_normalized(r3)
                and not any(map(is_sign_normalized, zip(r1, r2, r3)))
                and _is_orbit_least(entries, orbit)
            ):
                yield glue(w, w_prime, GluingMap(IntMatrix(3, 3, entries)))
