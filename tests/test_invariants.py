import itertools
import math
import random

import pytest

from torusglue import enumeration, gluing, pieces, surgery, torus3
from torusglue.enumeration import enumerate_gluings, pieces_for_kinds
from torusglue.gluing import GluingMap, find_fibration, glue
from torusglue.invariants import (
    MissingH1Data,
    euler_characteristic_glued,
    h1_presentation,
    mayer_vietoris_h1,
)
from torusglue.lattice import AbelianGroup, IntMatrix, cokernel, unimodular_inverse
from torusglue.pieces import (
    Piece,
    PieceKind,
    sample_piece,
    torus_times_disk,
)
from torusglue.surgery import SurgerySpec, unknot_torus_surgery
from torusglue.torus3 import ParallelCurves

from conftest import random_lambda_stabilizer, random_unimodular, replaced


def test_h1_of_slope_2_3_surgery():
    x, _ = unknot_torus_surgery(SurgerySpec.from_slope(2, 3))
    assert mayer_vietoris_h1(x) == AbelianGroup(1, (3,))


def test_h1_identity_gluing_of_disks():
    w = torus_times_disk()
    x = glue(w, w, GluingMap(IntMatrix.identity(3)))
    assert mayer_vietoris_h1(x) == AbelianGroup(2, ())


def test_h1_of_trivial_slope():
    x, _ = unknot_torus_surgery(SurgerySpec.from_slope(0, 1))
    assert mayer_vietoris_h1(x) == AbelianGroup(1, ())


def test_h1_rank_and_torsion_sweep():
    for p in range(-10, 11):
        for q in range(0, 11):
            if math.gcd(p, q) != 1:
                continue
            x, _ = unknot_torus_surgery(SurgerySpec.from_slope(p, q))
            h1 = mayer_vietoris_h1(x)
            assert h1.free_rank == (2 if q == 0 else 1), (p, q)
            assert h1.torsion == ((q,) if q >= 2 else ()), (p, q)


def test_h1_with_declared_torsion():
    # a piece whose declared H1 = Z + Z/2, generators (a, t) with the boundary
    # mapping mu -> a, lambda -> 0, s -> t; glued to a canonical disk piece by
    # the permutation sending (s', mu', lambda') to (s, mu, lambda).
    # By hand: relations a = mu', t = s', 2t = 0 leave Z + Z/2.
    w = replaced(sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT), h1=AbelianGroup(1, (2,)))
    wp = torus_times_disk()
    f = GluingMap(IntMatrix.from_columns([(0, 0, 1), (1, 0, 0), (0, 1, 0)]))
    x = glue(w, wp, f)
    assert mayer_vietoris_h1(x) == AbelianGroup(1, (2,))


def test_presentation_shape():
    w = replaced(sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT), h1=AbelianGroup(1, (2,)))
    wp = torus_times_disk()
    pres = h1_presentation(glue(w, wp, GluingMap(IntMatrix.identity(3))))
    # 4 generators; 3 boundary columns + 1 torsion relator
    assert pres.rows == 4
    assert pres.cols == 4
    # torsion on both sides: each relator sits on its own piece's torsion
    # generator, the first piece's first
    pres = h1_presentation(glue(w, w, GluingMap(IntMatrix.identity(3))))
    assert pres.rows == 4
    assert [pres.column(j) for j in (3, 4)] == [(0, 2, 0, 0), (0, 0, 0, 2)]


def test_missing_h1_data():
    # no declared data
    w = replaced(sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT), h1=None, inclusion=None)
    x = glue(w, torus_times_disk(), GluingMap(IntMatrix.identity(3)))
    with pytest.raises(MissingH1Data):
        mayer_vietoris_h1(x)


def test_sign_convention_does_not_matter():
    # assemble the presentation with +i' instead of -i'; the cokernel agrees
    rng = random.Random(41)
    for _ in range(60):
        w = sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT)
        wp = sample_piece(PieceKind.SURFACE_BUNDLE_OVER_TORUS)
        f = GluingMap(random_unimodular(rng))
        x = glue(w, wp, f)
        f_inv = unimodular_inverse(f.m)
        bottom = wp.inclusion @ f_inv
        cols = []
        for j in range(3):
            cols.append(w.inclusion.column(j) + bottom.column(j))  # plus sign
        plus_version = cokernel(IntMatrix.from_columns(cols))
        assert plus_version == mayer_vietoris_h1(x)


def _reframe(piece: Piece, a: IntMatrix) -> Piece:
    """The same piece with boundary coordinates changed by a (new = a . old)."""
    return Piece(
        kind=piece.kind,
        genus=piece.genus,
        monodromy_label=piece.monodromy_label,
        framing=piece.framing,
        lambda_index=piece.lambda_index,
        h1=piece.h1,
        inclusion=piece.inclusion @ unimodular_inverse(a),
    )


def test_framing_conjugation_invariance():
    rng = random.Random(43)
    for _ in range(50):
        w = torus_times_disk(framing=("mu", "lambda", "s"), lambda_index=2)
        wp = sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT)
        f = GluingMap(random_unimodular(rng))
        base = mayer_vietoris_h1(glue(w, wp, f))
        # change the first piece's framing: gluing becomes a . f
        a = random_lambda_stabilizer(rng, w.lambda_index - 1)
        left = glue(_reframe(w, a), wp, GluingMap(a @ f.m))
        assert mayer_vietoris_h1(left) == base
        # change the second piece's framing: gluing becomes f . b^-1
        b = random_lambda_stabilizer(rng, wp.lambda_index - 1)
        right = glue(w, _reframe(wp, b), GluingMap(f.m @ unimodular_inverse(b)))
        assert mayer_vietoris_h1(right) == base


def test_chi_glued_is_zero():
    rng = random.Random(47)
    kinds = list(PieceKind)
    for _ in range(50):
        x = glue(
            sample_piece(rng.choice(kinds)),
            sample_piece(rng.choice(kinds)),
            GluingMap(random_unimodular(rng)),
        )
        assert euler_characteristic_glued(x) == 0


def test_the_verifier_does_not_use_the_engine_cross_product(monkeypatch):
    # every N = 1 gluing of every kind pair, built before the fault, since
    # GluingMap checks its determinant with the engine's cross product
    manifolds = [
        x
        for kinds in itertools.product(PieceKind, repeat=2)
        for x in enumerate_gluings(1, *pieces_for_kinds(*kinds))
    ]
    assert len(manifolds) == 9 * 62
    groups = [mayer_vietoris_h1(x) for x in manifolds]
    for module in (torus3, pieces, gluing, surgery, enumeration):
        monkeypatch.setattr(module, "cross", lambda a, b: (0, 0, 0))
    assert [mayer_vietoris_h1(x) for x in manifolds] == groups
    for x in manifolds:
        with pytest.raises(ParallelCurves):
            find_fibration(x)
