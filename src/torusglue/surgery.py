"""Torus surgery constructors and the lens-space classifier.

Torus surgery along S^1 x (unknot) in S^1 x S^3 glues T^2 x D^2 back into
a complement that is itself T^2 x D^2.  In the complement framing
(mu, lambda, s) -- meridian and Seifert-framed longitude of the unknot,
then the product circle -- a surgery sending the new disk boundary to
p*lambda + q*mu yields S^1 times the lens space L(q, p).  Note the
parameter order: the slope coefficients arrive as L(q, p), whereas much of
the literature writes L(p, q) for the same space.

The classifier here reads the lens parameters off the fiber of the
constructed circle fibration (a genus-one Heegaard splitting), so it works
for any unimodular regluing of two disk pieces, not only those built from a
slope.  Homological verification lives in the invariants module and is an
independent computation.

Generalized knot surgery replaces a torus neighborhood inside a 4-manifold
whose complement fibers over T^2 with S^1 times a fibered-knot exterior;
the gluing must send the knot piece's lambda to the complement's lambda.
Signatures are never computed here: fibered manifolds built by these
gluings have vanishing signature (they are open books), and anything else
must be declared.
"""

from __future__ import annotations

import math
import operator

from .gluing import (
    FibrationResult,
    GluedManifold,
    GluingMap,
    find_fibration,
    glue,
    transported_lambda,
)
from .lattice import IntMatrix, Value, cross, dot, xgcd
from .pieces import Piece, PieceKind, boundary_lambda, torus_times_disk


class NotCoprime(ValueError):
    """Surgery slope or lens parameters with gcd(p, q) != 1."""


class MeridianConditionViolated(ValueError):
    """A knot-surgery gluing that does not send lambda to lambda."""


class LensSpace(Value):
    """Normalized lens-space parameters: q = 0 is S^1 x S^2, q = 1 is S^3,
    and for q >= 2 the second parameter lies in [0, q) and is coprime to q."""

    __slots__ = ("q", "p")

    def __init__(self, q: int, p: int) -> None:
        Value.__init__(self, operator.index(q), operator.index(p))
        if self.q < 0:
            raise ValueError("normalized q is nonnegative")
        if self.q == 0 and self.p != 1:
            raise ValueError("q = 0 is stored as L(0, 1)")
        if self.q >= 1 and not 0 <= self.p < self.q:
            raise ValueError(f"p = {self.p} not reduced mod q = {self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise NotCoprime(f"gcd({self.p}, {self.q}) != 1")

    def __str__(self) -> str:
        return f"L({self.q},{self.p})"


def lens_normalize(q: int, p: int) -> LensSpace:
    """Normalize arbitrary coprime parameters into the canonical range."""
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {math.gcd(p, q)} != 1")
    q = abs(q)
    if q == 0:
        return LensSpace(0, 1)  # gcd(p, 0) = 1 makes p = +-1
    return LensSpace(q, p % q)


def lens_class(lens: LensSpace) -> LensSpace:
    """The normal form of a lens space up to unoriented equivalence: L(q, p)
    is equivalent to L(q, p') exactly when p' = +-p^{+-1} mod q, and the
    class member is the least such p'."""
    if lens.q <= 1:
        return lens
    inv = pow(lens.p, -1, lens.q)
    return LensSpace(lens.q, min(lens.p, (-lens.p) % lens.q, inv, (-inv) % lens.q))


class SurgerySpec(Value):
    """A slope (p, q) for surgery along S^1 x (unknot), with the gluing map
    a surgery glues by.

    The gluing matrix completes the slope to a unimodular matrix.  Its first
    column is (q, p, 0): the glued disk boundary goes to q*mu + p*lambda in
    the complement framing (mu, lambda, s).  The third column is (0, 0, 1):
    the leftover circle of the new piece is the product circle s.  The
    second column only has to make the matrix unimodular; the classification
    does not depend on it.  Unimodularity makes p and q coprime.
    """

    __slots__ = ("p", "q", "gluing")

    def __init__(self, p: int, q: int, gluing: GluingMap) -> None:
        Value.__init__(self, operator.index(p), operator.index(q), gluing)
        if not isinstance(self.gluing, GluingMap):
            raise TypeError(f"gluing must be a GluingMap, not {type(self.gluing).__name__}")
        m = self.gluing.m
        if m.column(0) != (self.q, self.p, 0):
            raise ValueError(f"first completion column {m.column(0)} != {(self.q, self.p, 0)}")
        if m.column(2) != (0, 0, 1):
            raise ValueError("third completion column must be (0, 0, 1)")

    @classmethod
    def from_slope(cls, p: int, q: int, seed: int = 0) -> "SurgerySpec":
        """The default completion for a slope, from an extended gcd.

        Distinct seeds shear the free second column by multiples of the
        first, giving the distinct unimodular completions used to check that
        the choice does not matter.
        """
        if math.gcd(p, q) != 1:
            raise NotCoprime(f"gcd({p}, {q}) != 1")
        _, a, b = xgcd(q, p)  # q*a + p*b = 1
        second = (-b + seed * q, a + seed * p, 0)
        m = IntMatrix.from_columns([(q, p, 0), second, (0, 0, 1)])
        return cls(p=p, q=q, gluing=GluingMap(m))


# The pieces of a surgery along S^1 x (unknot): its complement in S^1 x S^3,
# T^2 x D^2 framed (mu, lambda, s) with lambda bounding the Seifert disk, and
# the glued T^2 x D^2 with its disk boundary first.  Pieces are frozen, so
# every surgery shares this one pair.
SURGERY_DISK_PAIR: tuple[Piece, Piece] = (
    torus_times_disk(framing=("mu", "lambda", "s"), lambda_index=2),
    torus_times_disk(framing=("lambda", "mu", "s"), lambda_index=1),
)


def unknot_torus_surgery(spec: SurgerySpec) -> tuple[GluedManifold, LensSpace]:
    """Build the surgered manifold and classify it as S^1 times a lens space.

    The lens parameters are computed from the gluing (via the fiber's
    genus-one splitting), not copied from the slope.
    """
    x = glue(*SURGERY_DISK_PAIR, spec.gluing)
    return x, classify_double_disk_gluing(x)


def classify_double_disk_gluing(x: GluedManifold) -> LensSpace:
    """Lens parameters of a gluing of two T^2 x D^2 pieces.

    The fiber of the circle fibration found for the gluing is a union of
    two solid tori along the fiber torus, i.e. a genus-one Heegaard
    splitting: each side's solid torus has the piece's lambda as meridian.
    Writing the glued-in meridian as q*gamma + p*lambda in the fiber basis
    (gamma, lambda) of the certificate gives the lens space L(q, p).
    """
    if (
        x.w.kind is not PieceKind.TORUS_TIMES_DISK
        or x.w_prime.kind is not PieceKind.TORUS_TIMES_DISK
    ):
        raise ValueError("lens classification needs two T^2 x D^2 pieces")
    result = find_fibration(x)
    gamma = result.cert_w.gamma.v
    lam = boundary_lambda(x.w).v
    meridian = x.f.m.column(x.w_prime.lambda_index - 1)  # f(lambda')
    # Cramer's rule: c = gamma x lambda is normal to the fiber torus, and
    # meridian = q*gamma + p*lambda gives meridian x lambda = q*c and
    # gamma x meridian = p*c; c != 0 because the certificate is a basis
    c = cross(gamma, lam)
    cc = dot(c, c)
    q, q_rem = divmod(dot(cross(meridian, lam), c), cc)
    p, p_rem = divmod(dot(cross(gamma, meridian), c), cc)
    if q_rem or p_rem or tuple(q * g + p * l for g, l in zip(gamma, lam)) != meridian:
        raise AssertionError(
            f"glued meridian {meridian} is not an integer combination of "
            f"gamma = {gamma} and lambda = {lam}"
        )
    return lens_normalize(q, p)


def generalized_fs_surgery(
    ambient_complement: Piece, knot_piece: Piece, f: GluingMap
) -> tuple[GluedManifold, FibrationResult]:
    """Replace a torus neighborhood by S^1 times a fibered-knot exterior.

    The ambient complement must fiber over T^2 (a torus-fibered complement);
    the knot piece is S^1 times a fibered-knot exterior, with T^2 x D^2
    allowed as the unknot case.  The gluing must send the knot piece's
    lambda to the complement's lambda; the resulting manifold always fibers
    over the circle.
    """
    if ambient_complement.kind is not PieceKind.SURFACE_BUNDLE_OVER_TORUS:
        raise ValueError("ambient complement must be a surface bundle over T^2")
    if knot_piece.kind not in (
        PieceKind.KNOT_EXTERIOR_PRODUCT,
        PieceKind.TORUS_TIMES_DISK,
    ):
        raise ValueError("knot piece must be S^1 x (knot exterior) or T^2 x D^2")
    x = glue(ambient_complement, knot_piece, f)
    sent = transported_lambda(x)
    target = boundary_lambda(ambient_complement)
    if sent != target:
        raise MeridianConditionViolated(
            f"gluing sends lambda to {sent.v}, not to {target.v}"
        )
    return x, find_fibration(x)
