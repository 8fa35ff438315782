"""Curves, essential tori, and fibrations of the 3-torus at the homology level.

Isotopy classes of essential (unoriented) curves in T^3 are primitive
vectors in H_1(T^3) = Z^3 up to sign; essential 2-tori are primitive
covectors up to sign.  We normalize signs so the first nonzero entry is
positive.  Every essential torus class n determines a fibration T^3 -> S^1
whose fibers are the tori in that class: the covector is n and the fiber
lattice is ker n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .lattice import (
    IntMatrix,
    NonPrimitive,
    Vec,
    as_ints,
    content,
    cross,
    dot,
    is_primitive,
    kernel_basis,
    unimodular_inverse,
    xgcd,
)


class ParallelCurves(ValueError):
    """Two curve classes that were required to be distinct coincide."""


def is_sign_normalized(v: Sequence[int]) -> bool:
    """Whether the first nonzero entry is positive (False for zero)."""
    for x in v:
        if x:
            return x > 0
    return False


def sign_normalize(v: Sequence[int]) -> Vec:
    """Flip signs so the first nonzero entry is positive."""
    if is_sign_normalized(v):
        return tuple(v)
    if any(v):
        return tuple(-y for y in v)
    raise ValueError("zero vector has no sign normalization")


def _class_vector(v: Sequence[int], name: str) -> Vec:
    """v as the exact ints of a primitive, sign-normalized vector of Z^3;
    name ("curve vector", "torus covector") heads the error messages."""
    v = as_ints(v)
    if len(v) != 3:
        raise ValueError(f"{name} {v} is not in Z^3")
    if not is_primitive(v):
        raise NonPrimitive(f"{name} {v} has content != 1")
    if not is_sign_normalized(v):
        raise ValueError(f"{name} {v} is not sign-normalized")
    return v


@dataclass(frozen=True)
class CurveClass:
    """Isotopy class of an essential curve: a sign-normalized primitive vector."""

    v: Vec

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", _class_vector(self.v, "curve vector"))

    @classmethod
    def of(cls, v: Sequence[int]) -> "CurveClass":
        """The class of a primitive vector, normalizing the sign; any other
        vector, the zero vector included, fails the constructor's checks."""
        return cls(sign_normalize(v) if is_primitive(v) else v)


@dataclass(frozen=True)
class TorusClass:
    """Isotopy class of an essential 2-torus: a sign-normalized primitive covector."""

    n: Vec

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _class_vector(self.n, "torus covector"))

    @classmethod
    def of(cls, n: Sequence[int]) -> "TorusClass":
        return cls(sign_normalize(n) if is_primitive(n) else n)


@dataclass(frozen=True)
class FibrationOfT3:
    """A fibration T^3 -> S^1, recorded as a primitive covector phi.

    The fiber is the 2-torus with homology ker(phi); fiber_basis is a basis
    of that kernel lattice (the kernel of an integer covector is saturated,
    so the basis generates every class the fiber contains).  Two kernel
    vectors span the whole kernel exactly when their cross product is
    +-phi: the cross product is always a multiple k * phi, and |k| is the
    index of their span in the kernel.
    """

    phi: Vec
    fiber_basis: tuple[Vec, Vec]

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", as_ints(self.phi))
        object.__setattr__(self, "fiber_basis", tuple(map(as_ints, self.fiber_basis)))
        if not is_primitive(self.phi):
            raise NonPrimitive(f"fibration covector {self.phi} has content != 1")
        for b in self.fiber_basis:
            if dot(self.phi, b) != 0:
                raise ValueError(f"fiber basis vector {b} is not killed by {self.phi}")
        b1, b2 = self.fiber_basis
        if cross(b1, b2) not in (self.phi, tuple(-x for x in self.phi)):
            raise ValueError("fiber_basis does not span the full kernel lattice")


def torus_through(a: CurveClass, b: CurveClass) -> TorusClass:
    """The unique essential torus containing two non-parallel curves.

    Its covector is the cross product of the curve vectors divided by the
    content.
    """
    n = cross(a.v, b.v)
    if n == (0, 0, 0):
        raise ParallelCurves(f"{a.v} and {b.v} span no torus")
    c = content(n)
    return TorusClass.of(tuple(x // c for x in n))


def canonical_torus_containing(a: CurveClass) -> TorusClass:
    """A deterministic essential torus containing the given curve.

    The torus through the curve and the first standard basis vector not
    parallel to it: e2 for the curve e1, e1 for every other curve.  For
    the standard basis vectors, the only curves the fibration engine
    passes here, this is also the covector of minimal max-abs entry with
    ties broken lexicographically: (0,0,1) for e1 and e2, (0,1,0) for e3.
    """
    e = (0, 1, 0) if a.v == (1, 0, 0) else (1, 0, 0)
    return torus_through(a, CurveClass(e))


def fibration_from_torus(t: TorusClass) -> FibrationOfT3:
    """The fibration of T^3 whose fibers are tori of the given class."""
    b1, b2 = kernel_basis(IntMatrix.from_rows([t.n]))
    return FibrationOfT3(phi=t.n, fiber_basis=(b1, b2))


def contains(t: TorusClass, c: CurveClass) -> bool:
    """Whether the torus contains the curve: the covector kills the class."""
    return dot(t.n, c.v) == 0


def dual_curve(fib: FibrationOfT3) -> CurveClass:
    """A deterministic curve class c with n . c = 1, n the sign-normalized phi.

    One exists because n is primitive.  Built by two extended gcds; if the
    result is not sign-normalized, it is shifted by the unique smallest
    multiple of the first fiber basis vector off the first-coordinate axis
    that makes the first coordinate positive (which never changes the
    pairing, since the fiber basis spans ker n).
    """
    n = sign_normalize(fib.phi)
    n1, n2, n3 = n
    g, x, y = xgcd(n1, n2)
    if g == 0:
        d = (0, 0, 1 if n3 > 0 else -1)
    else:
        _, u, w = xgcd(g, n3)
        d = (x * u, y * u, w)
    if dot(n, d) != 1:
        raise AssertionError(f"extended gcds gave {d}, which pairs to {dot(n, d)} with {n}")
    if not is_sign_normalized(d):
        for b in fib.fiber_basis:
            if b[0] != 0:
                k = b if b[0] > 0 else tuple(-x for x in b)
                shift = (k[0] - d[0]) // k[0]  # smallest t with d0 + t*k0 >= 1
                d = tuple(di + shift * ki for di, ki in zip(d, k))
                break
        else:
            raise AssertionError("unreachable: kernel meets the first-coordinate axis")
    if dot(n, d) != 1:
        raise AssertionError(f"sign normalization gave {d}, which pairs to {dot(n, d)} with {n}")
    return CurveClass(tuple(d))


def act(m: IntMatrix, x: Union[CurveClass, TorusClass]) -> Union[CurveClass, TorusClass]:
    """Mapping-class action of a unimodular matrix on curve and torus classes.

    Curves transform by the matrix itself, torus covectors by the inverse
    transpose, so containment and duality pairings are preserved.
    """
    inv = unimodular_inverse(m)  # raises NotUnimodular for any other matrix
    if isinstance(x, CurveClass):
        return CurveClass.of(m.apply(x.v))
    if isinstance(x, TorusClass):
        return TorusClass.of(inv.transpose().apply(x.n))
    raise TypeError(f"cannot act on {type(x).__name__}")
