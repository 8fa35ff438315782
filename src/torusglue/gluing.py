"""Gluing two pieces along their 3-torus boundaries and fibering the result.

A gluing is a unimodular 3x3 matrix expressing the second piece's boundary
framing in the first piece's coordinates.  Whatever the matrix, the glued
4-manifold fibers over the circle: the two lambda curves either span an
essential torus or, when parallel, lie on infinitely many (we pick one by a
fixed rule and flag that a choice was made).  The fibration of that torus
kills both lambdas, so it extends over both pieces.

Orientation: any determinant +-1 matrix is accepted and the sign recorded,
since which sign corresponds to an orientation-preserving boundary
identification is itself a convention (outward normal on which side).
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import IntMatrix, NotUnimodular
from .pieces import ExtensionCertificate, Piece, boundary_lambda, extension_certificate
from .torus3 import (
    CurveClass,
    FibrationOfT3,
    TorusClass,
    canonical_torus_containing,
    fibration_from_torus,
    torus_through,
)


@dataclass(frozen=True)
class GluingMap:
    """Boundary identification: columns of m are the images of the second
    piece's framing basis in the first piece's coordinates."""

    m: IntMatrix

    def __post_init__(self) -> None:
        if self.m.rows != 3 or self.m.cols != 3:
            raise NotUnimodular("gluing matrix must be 3x3")
        if abs(self.m.det()) != 1:
            raise NotUnimodular(f"gluing matrix has determinant {self.m.det()}")


@dataclass(frozen=True)
class GluedManifold:
    """Two pieces glued along T^3 by f: boundary(w_prime) -> boundary(w)."""

    w: Piece
    w_prime: Piece
    f: GluingMap


@dataclass(frozen=True)
class FibrationResult:
    """A circle fibration of a glued manifold, with certificates on both sides.

    phi and torus are in the first piece's boundary coordinates; the second
    certificate is in the second piece's own coordinates (the covector is
    pulled back through the gluing by the transpose).  parallel_case records
    that the two lambda curves coincided and the torus was picked by the
    fixed rule rather than spanned.
    """

    phi: FibrationOfT3
    torus: TorusClass
    cert_w: ExtensionCertificate
    cert_w_prime: ExtensionCertificate
    parallel_case: bool


def glue(w: Piece, w_prime: Piece, f: GluingMap) -> GluedManifold:
    """Glue two pieces along their boundaries via f."""
    return GluedManifold(w=w, w_prime=w_prime, f=f)


def transported_lambda(x: GluedManifold) -> CurveClass:
    """The second piece's lambda, pushed into the first piece's coordinates."""
    return CurveClass.of(x.f.m.apply(boundary_lambda(x.w_prime).v))


def find_fibration(x: GluedManifold) -> FibrationResult:
    """A circle fibration of the glued manifold.  Always succeeds.

    The fiber torus contains both lambda curves, so the fibration extends
    over each piece; the certificates witness this on each side.
    """
    lam1 = boundary_lambda(x.w)
    lam2_in_w = transported_lambda(x)
    if lam2_in_w == lam1:
        torus = canonical_torus_containing(lam1)
        parallel = True
    else:
        torus = torus_through(lam1, lam2_in_w)
        parallel = False
    fib = fibration_from_torus(torus)
    cert_w = extension_certificate(x.w, fib)
    # pull the covector back to the second piece's coordinates
    phi_wp = x.f.m.transpose().apply(fib.phi)
    fib_wp = fibration_from_torus(TorusClass.of(phi_wp))
    cert_wp = extension_certificate(x.w_prime, fib_wp)
    return FibrationResult(
        phi=fib,
        torus=torus,
        cert_w=cert_w,
        cert_w_prime=cert_wp,
        parallel_case=parallel,
    )
