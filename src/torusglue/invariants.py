"""Independent homological verification of glued manifolds.

First homology of a union glued along a connected T^3 is the cokernel of
the map H_1(T^3) -> H_1(W) + H_1(W') sending a boundary class c to
(i(c), -i'(f^{-1} c)): since the gluing torus and both pieces are
connected, the Mayer-Vietoris sequence ends with an injection on reduced
H_0, so the cokernel is exactly H_1 of the union.  Declared torsion in a
piece's H_1 enters as extra relator columns, keeping everything inside one
cokernel computation.

The sign on the second inclusion is a convention; the cokernel does not
depend on it (tested, not assumed).
"""

from __future__ import annotations

from .gluing import GluedManifold
from .lattice import AbelianGroup, IntMatrix, cokernel, unimodular_inverse
from .pieces import Piece


class MissingH1Data(ValueError):
    """A piece without declared h1/inclusion cannot enter the homology computation."""


def _declared(piece: Piece, side: str) -> tuple[AbelianGroup, IntMatrix]:
    if piece.h1 is None or piece.inclusion is None:
        raise MissingH1Data(f"{side} piece ({piece.kind.value}) has no declared h1/inclusion")
    return piece.h1, piece.inclusion


def h1_presentation(x: GluedManifold) -> IntMatrix:
    """The relation matrix of H_1 of the glued manifold: one row per declared
    generator of the pieces' H_1 (first piece's first), one column per glued
    boundary class, then one per declared torsion factor."""
    h1_w, incl_w = _declared(x.w, "first")
    h1_wp, incl_wp = _declared(x.w_prime, "second")
    rows_w = incl_w.rows
    gens = rows_w + incl_wp.rows

    f_inv = unimodular_inverse(x.f.m)
    bottom = incl_wp @ f_inv
    columns: list[tuple[int, ...]] = []
    for j in range(3):
        col_top = incl_w.column(j)
        col_bot = tuple(-v for v in bottom.column(j))
        columns.append(col_top + col_bot)
    for first_row, h1 in ((0, h1_w), (rows_w, h1_wp)):
        for k, factor in enumerate(h1.torsion):
            row = first_row + h1.free_rank + k
            columns.append(tuple(factor if i == row else 0 for i in range(gens)))
    return IntMatrix.from_columns(columns)


def mayer_vietoris_h1(x: GluedManifold) -> AbelianGroup:
    """H_1 of the glued manifold, in invariant-factor form."""
    return cokernel(h1_presentation(x))


def euler_characteristic_glued(x: GluedManifold) -> int:
    """chi of the glued manifold, which is 0 for every gluing.

    Theorem: the union fibers over the circle (find_fibration constructs
    the fibration for any gluing map), chi is multiplicative over fiber
    bundles, and chi(S^1) = 0.  Inclusion-exclusion agrees: each piece
    fibers over S^1 or T^2, and chi(T^3) = 0.
    """
    return 0
