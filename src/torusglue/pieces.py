"""4-manifold pieces with 3-torus boundary, and fibration extension.

Two classes of piece are supported, both fibered: the product of a circle
with a fibered-knot exterior, and a once-punctured-surface bundle over the
2-torus whose monodromy fixes the fiber boundary pointwise.  T^2 x D^2 is
kept as its own kind; it is the knot-exterior product for the unknot, whose
fiber surface is a disk.

Each piece carries a framing of H_1(boundary) = Z^3 in which one basis
vector is the distinguished curve lambda (the boundary of the fiber
surface).  A fibration of the boundary 3-torus extends over the piece
exactly when its covector kills lambda; the extension certificate is a
basis (gamma, lambda, alpha) of Z^3 with gamma, lambda spanning the fiber
torus and alpha the fibration direction.

First homology of a piece and the map induced by including the boundary
are declared data: computing them from a monodromy is out of scope, and
nothing here checks that declared data is realized by an actual manifold.
Monodromies are stored as opaque labels for the same reason.
"""

from __future__ import annotations

import enum
import operator

from .lattice import AbelianGroup, IntMatrix, Value, cross, dot, solve, xgcd
from .torus3 import CurveClass, FibrationOfT3, dual_curve


class ExtensionObstructed(ValueError):
    """The fibration does not kill the piece's lambda curve, so it cannot extend."""


class PieceKind(enum.Enum):
    KNOT_EXTERIOR_PRODUCT = "knot_exterior_product"
    SURFACE_BUNDLE_OVER_TORUS = "surface_bundle_over_torus"
    TORUS_TIMES_DISK = "torus_times_disk"


class Piece(Value):
    """A 4-manifold piece with T^3 boundary.

    framing names the basis (e1, e2, e3) of H_1(boundary); lambda_index
    (1-based) says which basis vector is the fiber-boundary curve lambda.
    h1 and inclusion (the matrix of H_1(T^3) -> H_1(piece) in the declared
    generators, free generators first, then one generator per torsion
    factor) may be omitted for the two fibered kinds.  Any declared
    inclusion kills lambda, the fiber boundary; T^2 x D^2 always has its
    canonical values, H_1 = Z^2 and an inclusion killing exactly lambda.
    """

    __slots__ = ("kind", "genus", "monodromy_label", "framing", "lambda_index", "h1", "inclusion")

    def __init__(
        self, kind: PieceKind, genus: int, monodromy_label: str, framing: tuple[str, str, str],
        lambda_index: int, h1: AbelianGroup | None = None, inclusion: IntMatrix | None = None,
    ) -> None:
        if not isinstance(kind, PieceKind):
            raise ValueError(f"kind {kind!r} is not a PieceKind")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "genus", operator.index(genus))
        object.__setattr__(self, "lambda_index", operator.index(lambda_index))
        if not isinstance(monodromy_label, str):
            raise TypeError(f"monodromy_label {monodromy_label!r} is not a string")
        object.__setattr__(self, "monodromy_label", monodromy_label)
        object.__setattr__(self, "framing", tuple(framing))
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "inclusion", inclusion)
        if isinstance(framing, str) or not all(isinstance(n, str) for n in self.framing):
            raise TypeError(f"framing {framing!r} is not a sequence of names")
        if len(self.framing) != 3:
            raise ValueError("framing names three basis vectors")
        if self.lambda_index not in (1, 2, 3):
            raise ValueError(f"lambda_index {self.lambda_index} not in 1..3")
        if self.genus < 0:
            raise ValueError("negative genus")
        if (self.h1 is None) != (self.inclusion is None):
            raise ValueError("declare h1 and inclusion together or not at all")
        if self.inclusion is not None:
            gens = self.h1.free_rank + len(self.h1.torsion)
            if self.inclusion.cols != 3:
                raise ValueError("inclusion must have 3 columns (one per boundary class)")
            if self.inclusion.rows != gens:
                raise ValueError(
                    f"inclusion has {self.inclusion.rows} rows but h1 has {gens} generators"
                )
            if any(self.inclusion.column(self.lambda_index - 1)):
                raise ValueError("lambda bounds the fiber surface, so it must map to 0")
        if self.kind is PieceKind.TORUS_TIMES_DISK:
            if self.genus != 0:
                raise ValueError("T^2 x D^2 has a genus-0 (disk) fiber")
            if self.h1 != AbelianGroup(2, ()):
                raise ValueError("T^2 x D^2 has H_1 = Z^2")
            (a, c), (b, d) = (
                self.inclusion.column(j) for j in range(3) if j != self.lambda_index - 1
            )
            if abs(a * d - b * c) != 1:
                raise ValueError("the non-lambda boundary classes must generate H_1(T^2 x D^2)")


def torus_times_disk(
    framing: tuple[str, str, str] = ("s", "mu", "lambda"),
    lambda_index: int = 3,
) -> Piece:
    """A T^2 x D^2 piece with lambda at the given framing position.

    H_1 = Z^2 is generated by the two non-lambda framing curves, in framing
    order; lambda bounds the disk fiber and maps to 0.
    """
    rows = []
    for gen_pos in range(3):
        if gen_pos == lambda_index - 1:
            continue
        rows.append(tuple(1 if j == gen_pos else 0 for j in range(3)))
    return Piece(
        kind=PieceKind.TORUS_TIMES_DISK,
        genus=0,
        monodromy_label="",
        framing=framing,
        lambda_index=lambda_index,
        h1=AbelianGroup(2, ()),
        inclusion=IntMatrix.from_rows(rows),
    )


def sample_piece(kind: PieceKind) -> Piece:
    """The simplest representative of each kind, with declared homology.

    - T^2 x D^2: the canonical framing.
    - Knot exterior product: S^1 times the exterior of a genus-1 fibered
      knot in S^3 (any knot in S^3 gives H_1 = Z^2 generated by the product
      circle and the meridian, with the Seifert-framed longitude bounding).
    - Surface bundle: the trivial genus-1 bundle over T^2, H_1 = Z^4 with
      the fiber boundary null-homologous and the base circles surviving.
    """
    if kind is PieceKind.TORUS_TIMES_DISK:
        return torus_times_disk()
    if kind is PieceKind.KNOT_EXTERIOR_PRODUCT:
        return Piece(
            kind=kind,
            genus=1,
            monodromy_label="genus-1 fibered knot in S^3",
            framing=("mu", "lambda", "s"),
            lambda_index=2,
            h1=AbelianGroup(2, ()),
            inclusion=IntMatrix.from_rows([(1, 0, 0), (0, 0, 1)]),
        )
    if kind is PieceKind.SURFACE_BUNDLE_OVER_TORUS:
        return Piece(
            kind=kind,
            genus=1,
            monodromy_label="trivial bundle",
            framing=("lambda", "t1", "t2"),
            lambda_index=1,
            h1=AbelianGroup(4, ()),
            inclusion=IntMatrix.from_rows([(0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1)]),
        )
    raise ValueError(f"unknown kind {kind}")


_STANDARD_BASIS = (CurveClass((1, 0, 0)), CurveClass((0, 1, 0)), CurveClass((0, 0, 1)))


def boundary_lambda(p: Piece) -> CurveClass:
    """The distinguished fiber-boundary curve: a standard basis vector."""
    return _STANDARD_BASIS[p.lambda_index - 1]


class ExtensionCertificate(Value):
    """Basis (gamma, lambda, alpha) of Z^3 witnessing a fibration extension.

    gamma and lambda span the fiber torus (the kernel of the extended
    covector) and alpha is the fibration direction, paired to 1 with the
    normalized covector.
    """

    __slots__ = ("gamma", "lam", "alpha")

    def __init__(self, gamma: CurveClass, lam: CurveClass, alpha: CurveClass) -> None:
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alpha", alpha)
        # the triple product is the determinant of the three columns
        if abs(dot(self.gamma.v, cross(self.lam.v, self.alpha.v))) != 1:
            raise ValueError("certificate triple is not a basis of Z^3")


def extension_certificate(p: Piece, fib: FibrationOfT3) -> ExtensionCertificate:
    """Certificate that fib extends over p.

    lambda is the piece's fiber-boundary curve; gamma completes it to a
    basis of the fiber torus (deterministically, by an extended gcd on the
    coordinates of lambda in the kernel basis); alpha is the dual curve of
    the fiber torus.
    """
    lam = boundary_lambda(p)
    if dot(fib.phi, lam.v) != 0:
        raise ExtensionObstructed(
            f"covector {fib.phi} does not kill lambda = {lam.v} of the {p.kind.value} piece"
        )
    b1, b2 = fib.fiber_basis
    coords = solve(IntMatrix(3, 2, (b1[0], b2[0], b1[1], b2[1], b1[2], b2[2])), lam.v)
    if coords is None:
        raise AssertionError(f"lambda = {lam.v} is not in the fiber torus spanned by {b1}, {b2}")
    x, y = coords
    g, s, t = xgcd(x, y)
    if g != 1:
        raise AssertionError(f"lambda has coordinates {coords} of gcd {g} in the fiber basis")
    gamma = tuple(-t * u + s * w for u, w in zip(b1, b2))
    alpha = dual_curve(fib)
    return ExtensionCertificate(gamma=CurveClass.of(gamma), lam=lam, alpha=alpha)
