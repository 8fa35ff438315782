import dataclasses
import itertools
import random

import pytest

from torusglue.lattice import AbelianGroup, IntMatrix, content, dot
from torusglue.pieces import (
    ExtensionCertificate,
    ExtensionObstructed,
    Piece,
    PieceKind,
    boundary_lambda,
    can_extend,
    extension_certificate,
    knot_exterior_product,
    sample_piece,
    surface_bundle_over_torus,
    torus_times_disk,
)
from torusglue.torus3 import CurveClass, TorusClass, fibration_from_torus, sign_normalize

from conftest import random_primitive_vector, run_python


def all_piece_fixtures():
    return [sample_piece(kind) for kind in PieceKind]


def test_torus_times_disk_canonical_data():
    p = torus_times_disk()
    assert p.kind is PieceKind.TORUS_TIMES_DISK
    assert p.genus == 0
    assert p.framing == ("s", "mu", "lambda")
    assert p.lambda_index == 3
    assert p.h1 == AbelianGroup(2, ())
    # lambda bounds the disk fiber, so the inclusion kills exactly e3
    assert p.inclusion.to_rows() == ((1, 0, 0), (0, 1, 0))
    assert boundary_lambda(p).v == (0, 0, 1)


def test_torus_times_disk_other_framings():
    p = torus_times_disk(framing=("mu", "lambda", "s"), lambda_index=2)
    assert boundary_lambda(p).v == (0, 1, 0)
    assert p.inclusion.column(1) == (0, 0)
    # the two surviving framing curves generate H1 = Z^2
    assert p.inclusion.to_rows() == ((1, 0, 0), (0, 0, 1))


def test_boundary_lambda_examples():
    assert boundary_lambda(torus_times_disk()).v == (0, 0, 1)
    assert boundary_lambda(knot_exterior_product(genus=1, lambda_index=2)).v == (0, 1, 0)
    for p in all_piece_fixtures():
        assert content(boundary_lambda(p).v) == 1


def test_piece_validation():
    with pytest.raises(ValueError):
        knot_exterior_product(genus=1, lambda_index=4)
    with pytest.raises(ValueError):
        knot_exterior_product(genus=-1)
    with pytest.raises(ValueError):
        # h1 without inclusion
        Piece(
            kind=PieceKind.KNOT_EXTERIOR_PRODUCT,
            genus=1,
            monodromy_label="",
            framing=("a", "b", "c"),
            lambda_index=1,
            h1=AbelianGroup(2, ()),
            inclusion=None,
        )
    with pytest.raises(ValueError):
        # inclusion rows must match the declared generator count
        knot_exterior_product(
            genus=1,
            h1=AbelianGroup(2, ()),
            inclusion=IntMatrix.from_rows([(1, 0, 0)]),
        )
    with pytest.raises(ValueError):
        # a T^2 x D^2 whose lambda does not bound
        Piece(
            kind=PieceKind.TORUS_TIMES_DISK,
            genus=0,
            monodromy_label="",
            framing=("s", "mu", "lambda"),
            lambda_index=3,
            h1=AbelianGroup(2, ()),
            inclusion=IntMatrix.from_rows([(1, 0, 1), (0, 1, 0)]),
        )


def _disk_piece(rows):
    return Piece(
        kind=PieceKind.TORUS_TIMES_DISK,
        genus=0,
        monodromy_label="",
        framing=("s", "mu", "lambda"),
        lambda_index=3,
        h1=AbelianGroup(2, ()),
        inclusion=IntMatrix.from_rows(rows),
    )


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 1, 0), (1, 1, 0)],  # non-lambda minor 0
        [(1, 0, 0), (0, 2, 0)],  # minor 2
        [(1, 1, 0), (1, -1, 0)],  # minor -2
    ],
)
def test_disk_piece_rejects_non_generating_boundary(rows):
    # lambda maps to 0, so only the non-lambda minor can reject these
    with pytest.raises(ValueError, match="must generate"):
        _disk_piece(rows)


def test_disk_piece_accepts_orientation_reversing_minor():
    p = _disk_piece([(0, 1, 0), (1, 0, 0)])  # non-lambda minor -1
    assert p.inclusion.to_rows() == ((0, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("kind", list(PieceKind))
def test_declared_inclusion_must_kill_lambda(kind):
    p = sample_piece(kind)
    rows = [list(r) for r in p.inclusion.to_rows()]
    rows[0][p.lambda_index - 1] += 1
    with pytest.raises(ValueError, match="lambda bounds the fiber surface"):
        dataclasses.replace(p, inclusion=IntMatrix.from_rows(rows))


def test_can_extend_exhaustive_small_box():
    # definitional: the fibration extends exactly when its covector kills lambda
    pieces = all_piece_fixtures()
    for v in itertools.product(range(-3, 4), repeat=3):
        if content(v) != 1 or sign_normalize(v) != v:
            continue
        fib = fibration_from_torus(TorusClass(v))
        for p in pieces:
            assert can_extend(p, fib) == (dot(v, boundary_lambda(p).v) == 0)


def test_extension_certificate_coordinate_case():
    p = torus_times_disk()
    fib = fibration_from_torus(TorusClass.of((1, 0, 0)))
    cert = extension_certificate(p, fib)
    assert cert.gamma.v == (0, 1, 0)
    assert cert.lam.v == (0, 0, 1)
    assert cert.alpha.v == (1, 0, 0)


def test_extension_certificate_obstructed():
    p = torus_times_disk()
    fib = fibration_from_torus(TorusClass.of((0, 0, 1)))
    assert not can_extend(p, fib)
    with pytest.raises(ExtensionObstructed):
        extension_certificate(p, fib)


def test_extension_certificate_properties():
    rng = random.Random(23)
    pieces = all_piece_fixtures()
    checked = 0
    for _ in range(400):
        v = random_primitive_vector(rng)
        fib = fibration_from_torus(TorusClass.of(v))
        for p in pieces:
            if not can_extend(p, fib):
                continue
            cert = extension_certificate(p, fib)
            assert dot(fib.phi, cert.gamma.v) == 0
            assert dot(fib.phi, cert.lam.v) == 0
            assert abs(dot(fib.phi, cert.alpha.v)) == 1
            triple = IntMatrix.from_columns([cert.gamma.v, cert.lam.v, cert.alpha.v])
            assert abs(triple.det()) == 1
            checked += 1
    assert checked > 50


def test_certificate_requires_basis():
    with pytest.raises(ValueError):
        ExtensionCertificate(
            gamma=CurveClass.of((1, 0, 0)),
            lam=CurveClass.of((1, 0, 0)),
            alpha=CurveClass.of((0, 0, 1)),
        )
    with pytest.raises(ValueError, match="not a basis"):
        # primitive vectors spanning an index-2 sublattice
        ExtensionCertificate(
            gamma=CurveClass.of((1, 0, 0)),
            lam=CurveClass.of((0, 1, 0)),
            alpha=CurveClass.of((1, 1, 2)),
        )


def test_sample_pieces_are_valid():
    for kind in PieceKind:
        p = sample_piece(kind)
        assert p.kind is kind
        assert p.h1 is not None and p.inclusion is not None
        # the fiber boundary curve is null-homologous in every fixture
        assert p.inclusion.column(p.lambda_index - 1) == (0,) * p.inclusion.rows


@pytest.mark.parametrize(
    "patch, message",
    [
        ("pieces.solve = lambda a, b: None", "is not in the fiber torus"),
        ("pieces.xgcd = lambda a, b: (2, 1, 0)", "of gcd 2 in the fiber basis"),
    ],
)
def test_certificate_checks_survive_optimized_interpreter(patch, message):
    # each broken step must be caught even where assert statements are gone
    code = (
        "from torusglue import pieces\n"
        "from torusglue.torus3 import TorusClass, fibration_from_torus\n"
        f"{patch}\n"
        "fib = fibration_from_torus(TorusClass((1, 1, 0)))\n"
        "pieces.extension_certificate(pieces.torus_times_disk(), fib)\n"
    )
    proc = run_python("-c", code, optimize=True)
    assert proc.returncode == 1
    assert "AssertionError" in proc.stderr and message in proc.stderr, proc.stderr


# alpha with phi . alpha = 2 or 0 for phi = (1, 1, 0): the certificate's
# basis check is what rejects a dual curve that does not pair to +-1
@pytest.mark.parametrize("alpha", [(1, 1, 0), (1, -1, 0)])
@pytest.mark.parametrize("optimize", [False, True])
def test_certificate_rejects_alpha_not_dual_to_phi(alpha, optimize):
    code = (
        "from torusglue import pieces\n"
        "from torusglue.torus3 import CurveClass, TorusClass, fibration_from_torus\n"
        f"pieces.dual_curve = lambda t: CurveClass({alpha})\n"
        "fib = fibration_from_torus(TorusClass((1, 1, 0)))\n"
        "pieces.extension_certificate(pieces.torus_times_disk(), fib)\n"
    )
    proc = run_python("-c", code, optimize=optimize)
    assert proc.returncode == 1
    assert "ValueError: certificate triple is not a basis of Z^3" in proc.stderr, proc.stderr
