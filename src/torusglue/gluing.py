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

from .lattice import IntMatrix, NotUnimodular, Value, cross, dot
from .pieces import Piece, boundary_lambda, extension_certificate
from .torus3 import (
    CurveClass,
    TorusClass,
    canonical_torus_containing,
    fibration_from_torus,
    torus_through,
)


class GluingMap(Value):
    """Boundary identification: columns of m are the images of the second
    piece's framing basis in the first piece's coordinates."""

    __slots__ = ("m",)

    def __init__(self, m: IntMatrix) -> None:
        Value.__init__(self, m)
        if self.m.rows != 3 or self.m.cols != 3:
            raise NotUnimodular("gluing matrix must be 3x3")
        r0, r1, r2 = self.m.to_rows()
        det = dot(r0, cross(r1, r2))
        if abs(det) != 1:
            raise NotUnimodular(f"gluing matrix has determinant {det}")


class GluedManifold(Value):
    """Two pieces glued along T^3 by f: boundary(w_prime) -> boundary(w)."""

    __slots__ = ("w", "w_prime", "f")


class FibrationResult(Value):
    """A circle fibration of a glued manifold, with certificates on both sides.

    phi and its fiber torus are in the first piece's boundary coordinates;
    the second certificate is in the second piece's own coordinates (the
    covector is pulled back through the gluing by the transpose).
    parallel_case records that the two lambda curves coincided and the torus
    was picked by the fixed rule rather than spanned.
    """

    __slots__ = ("phi", "cert_w", "cert_w_prime", "parallel_case")

    @property
    def torus(self) -> TorusClass:
        """The fiber torus: the class whose covector is phi."""
        return TorusClass(self.phi.phi)


def glue(w: Piece, w_prime: Piece, f: GluingMap) -> GluedManifold:
    """Glue two pieces along their boundaries via f."""
    return GluedManifold(w, w_prime, f)


def transported_lambda(x: GluedManifold) -> CurveClass:
    """The second piece's lambda, pushed into the first piece's coordinates:
    lambda is a basis vector, so its image is that column of f."""
    return CurveClass.of(x.f.m.column(x.w_prime.lambda_index - 1))


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
    # pull the covector back to the second piece's coordinates: f^T phi,
    # whose entries are phi paired with the columns of f
    m = x.f.m
    phi_wp = tuple(dot(fib.phi, m.column(j)) for j in range(3))
    fib_wp = fibration_from_torus(TorusClass.of(phi_wp))
    cert_wp = extension_certificate(x.w_prime, fib_wp)
    return FibrationResult(fib, cert_w, cert_wp, parallel)
