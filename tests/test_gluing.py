import random

import pytest

from torusglue.gluing import GluingMap, find_fibration, glue, transported_lambda
from torusglue.invariants import euler_characteristic_glued
from torusglue.lattice import IntMatrix, NotUnimodular, dot, is_primitive
from torusglue.pieces import PieceKind, boundary_lambda, sample_piece, torus_times_disk
from torusglue.torus3 import TorusClass

from conftest import random_lambda_stabilizer, random_unimodular


def test_gluing_map_validation():
    with pytest.raises(NotUnimodular):
        GluingMap(IntMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(NotUnimodular):
        GluingMap(IntMatrix.from_rows([[1, 0], [0, 1]]))
    f = GluingMap(IntMatrix.from_columns([(1, 0, 0), (0, 0, 1), (0, 1, 0)]))
    assert f.m.det() == -1
    assert GluingMap(IntMatrix.identity(3)).m.det() == 1
    with pytest.raises(NotUnimodular, match=r"^gluing matrix must be 3x3$"):
        GluingMap(IntMatrix.identity(4))


def test_gluing_map_determinant_matches_bareiss():
    # the triple-product check against the general determinant, message included
    rng = random.Random(5)
    for _ in range(2000):
        m = IntMatrix(3, 3, tuple(rng.randint(-3, 3) for _ in range(9)))
        if abs(m.det()) == 1:
            assert GluingMap(m).m is m
        else:
            with pytest.raises(NotUnimodular) as info:
                GluingMap(m)
            assert str(info.value) == f"gluing matrix has determinant {m.det()}"


def test_swap_gluing_coordinate_example():
    # both pieces canonical T^2 x D^2; f exchanges mu and lambda, so the
    # lambdas land on the (mu=0) torus and the fibration direction is s
    w = torus_times_disk()
    f = GluingMap(IntMatrix.from_columns([(1, 0, 0), (0, 0, 1), (0, 1, 0)]))
    result = find_fibration(glue(w, w, f))
    assert result.phi.phi == (1, 0, 0)
    assert result.torus.n == (1, 0, 0)
    assert not result.parallel_case
    assert result.cert_w.alpha.v == (1, 0, 0)


def test_identity_gluing_parallel_case():
    w = torus_times_disk()
    result = find_fibration(glue(w, w, GluingMap(IntMatrix.identity(3))))
    assert result.parallel_case
    # the fixed choice rule for tori containing (0,0,1)
    assert result.torus.n == (0, 1, 0)


def test_chi_is_zero():
    w = torus_times_disk()
    x = glue(w, w, GluingMap(IntMatrix.identity(3)))
    assert euler_characteristic_glued(x) == 0
    kinds = list(PieceKind)
    for k1 in kinds:
        for k2 in kinds:
            x = glue(sample_piece(k1), sample_piece(k2), GluingMap(IntMatrix.identity(3)))
            assert euler_characteristic_glued(x) == 0


def test_parallel_case_iff_equal_lambda_classes():
    rng = random.Random(17)
    w = sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT)
    wp = sample_piece(PieceKind.SURFACE_BUNDLE_OVER_TORUS)
    seen = {True: 0, False: 0}
    for _ in range(300):
        f = GluingMap(random_unimodular(rng))
        x = glue(w, wp, f)
        result = find_fibration(x)
        parallel = transported_lambda(x) == boundary_lambda(w)
        assert result.parallel_case == parallel
        seen[parallel] += 1
    assert seen[False] > 0  # both branches exercised
    # force the parallel branch: send lambda' to lambda
    wp_lam = boundary_lambda(wp).v.index(1)
    w_lam = boundary_lambda(w).v.index(1)
    cols = [[0] * 3 for _ in range(3)]
    remaining_src = [i for i in range(3) if i != wp_lam]
    remaining_dst = [i for i in range(3) if i != w_lam]
    cols[wp_lam][w_lam] = 1
    for src, dst in zip(remaining_src, remaining_dst):
        cols[src][dst] = 1
    f = GluingMap(IntMatrix.from_columns(cols))
    assert find_fibration(glue(w, wp, f)).parallel_case


def test_fibration_kills_both_lambdas():
    rng = random.Random(4)
    kinds = list(PieceKind)
    for _ in range(200):
        w = sample_piece(rng.choice(kinds))
        wp = sample_piece(rng.choice(kinds))
        x = glue(w, wp, GluingMap(random_unimodular(rng)))
        result = find_fibration(x)
        phi = result.phi.phi
        assert is_primitive(phi)
        assert dot(phi, boundary_lambda(w).v) == 0
        assert dot(phi, x.f.m.apply(boundary_lambda(wp).v)) == 0


def test_left_framing_equivariance():
    # changing the first piece's boundary framing by a lambda-preserving
    # unimodular matrix A moves the fibration covector by A^-T, so A^T pulls
    # the new covector back to the old one (the spanned-torus branch; the
    # parallel branch uses a fixed choice rule, which no choice function can
    # make equivariant)
    rng = random.Random(31)
    w = sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT)
    wp = sample_piece(PieceKind.TORUS_TIMES_DISK)
    done = 0
    while done < 80:
        f = GluingMap(random_unimodular(rng))
        x = glue(w, wp, f)
        old = find_fibration(x)
        if old.parallel_case:
            continue
        a = random_lambda_stabilizer(rng, w.lambda_index - 1)
        new = find_fibration(glue(w, wp, GluingMap(a @ f.m)))
        assert not new.parallel_case
        pulled_back = tuple(dot(new.phi.phi, a.column(j)) for j in range(3))
        assert TorusClass.of(pulled_back) == TorusClass.of(old.phi.phi)
        done += 1


def test_right_framing_equivariance():
    # changing the second piece's framing leaves the covector (which lives on
    # the first boundary) unchanged
    rng = random.Random(37)
    w = sample_piece(PieceKind.SURFACE_BUNDLE_OVER_TORUS)
    wp = sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT)
    for _ in range(80):
        f = GluingMap(random_unimodular(rng))
        old = find_fibration(glue(w, wp, f))
        b = random_lambda_stabilizer(rng, wp.lambda_index - 1)
        new = find_fibration(glue(w, wp, GluingMap(f.m @ b)))
        assert new.phi.phi == old.phi.phi
        assert new.torus == old.torus
