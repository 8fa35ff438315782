"""Exact integer linear algebra over Z.

Everything downstream reduces to small integer-matrix computations: gcds
and primitive vectors, Smith normal form together with its unimodular
transforms, the kernel of one integer row, and cokernels presented as
abelian groups (read from the Smith form's diagonal alone).  All arithmetic
is arbitrary precision; no floating point anywhere.  Value, the base of every
immutable value type in the package, lives here because every module imports
this one.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import attrgetter, index, mul
from typing import Iterable, Sequence, SupportsIndex

Vec = tuple[int, ...]


class NonPrimitive(ValueError):
    """A vector required to be primitive (content 1) is not."""


class NotUnimodular(ValueError):
    """A matrix required to have determinant +-1 does not."""


# ---------------------------------------------------------------------------
# immutable values


class Value:
    """Base of the immutable value types.  A subclass names its fields in
    __slots__, which then compare, hash, print and pickle as a frozen
    dataclass's fields do.  A record type (GluedManifold, FibrationResult,
    Verdict) inherits the __init__ below, and a type with checks or defaults
    calls it once with normalized values.  The six types the engine builds
    several times per op (IntMatrix, CurveClass, SNFDecomposition,
    TorusClass, FibrationOfT3, ExtensionCertificate) store their fields with
    object.__setattr__ themselves: the call through here costs about
    0.5 us more per construction (Python 3.11)."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)  # the field, or a tuple of several

    def __init__(self, *fields: object, **named: object) -> None:
        """Store the fields in __slots__ order, positionally then by name."""
        names = self.__slots__
        if named or len(fields) != len(names):
            faults = [f"missing {n}" for n in names[len(fields) :] if n not in named]
            faults += [f"repeated {n}" for n in names[: len(fields)] if n in named]
            faults += [f"unknown {n}" for n in named if n not in names]
            if len(fields) > len(names):
                faults.append(f"{len(fields) - len(names)} extra")
            if faults:
                raise TypeError(f"{type(self).__name__}({', '.join(names)}): {', '.join(faults)}")
            fields += tuple(named[n] for n in names[len(fields) :])
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        key = self._key(self)
        return key if len(self.__slots__) > 1 else (key,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# vectors


def as_ints(v: Iterable[SupportsIndex]) -> Vec:
    """The entries as exact ints; a float or a string raises TypeError."""
    return tuple(map(index, v))


def content(v: Sequence[int]) -> int:
    """gcd of the entries; 0 exactly for the zero vector."""
    return math.gcd(*v)


def is_primitive(v: Sequence[int]) -> bool:
    return content(v) == 1


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    """Pairing of two vectors of Z^3."""
    if len(a) != 3 or len(b) != 3:
        raise ValueError(f"dot product needs length-3 vectors, got {len(a)} and {len(b)}")
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Sequence[int], b: Sequence[int]) -> Vec:
    """Cross product in Z^3; zero exactly when a, b are linearly dependent."""
    if len(a) != 3 or len(b) != 3:
        raise ValueError("cross product needs length-3 vectors")
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0.  Deterministic."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# matrices


class IntMatrix(Value):
    """Immutable integer matrix, entries in row-major order."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Vec) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", as_ints(entries))
        self.__post_init__()  # the checks; perfbench's trace counts constructions here

    def __post_init__(self) -> None:
        rows, cols = index(self.rows), index(self.cols)  # a float or a string raises
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if rows * cols != len(self.entries):
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        rows = [tuple(r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(chain.from_iterable(rows)))

    @classmethod
    def from_columns(cls, cols: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls.from_rows(zip(*cols, strict=True))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def row(self, i: int) -> Vec:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} of a {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vec:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a {self.rows}x{self.cols} matrix")
        return self.entries[j :: self.cols]

    def to_rows(self) -> tuple[Vec, ...]:
        e, c = self.entries, self.cols
        return tuple(e[k * c : (k + 1) * c] for k in range(self.rows))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} vs {other.rows}")
        ocols = [other.entries[j :: other.cols] for j in range(other.cols)]
        return IntMatrix(
            self.rows,
            other.cols,
            tuple(sum(map(mul, r, c)) for r in self.to_rows() for c in ocols),
        )

    def apply(self, v: Sequence[int]) -> Vec:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} vs {self.cols} columns")
        e, c = self.entries, self.cols
        return tuple(sum(map(mul, e[k * c : (k + 1) * c], v)) for k in range(self.rows))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination; exact."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.to_rows()]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = a[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = pivot
        return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form


class SNFDecomposition(Value):
    """U @ A @ V = D with U, V unimodular and D diagonal.

    The diagonal entries are nonnegative and each divides the next, so D is
    the unique Smith form of A.  U and V are None when only D was asked for.
    """

    __slots__ = ("U", "D", "V")

    def __init__(self, U: IntMatrix | None, D: IntMatrix, V: IntMatrix | None) -> None:
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "V", V)

    @property
    def diagonal(self) -> Vec:
        return self.D.entries[:: self.D.cols + 1][: min(self.D.rows, self.D.cols)]


def smith_normal_form(a: IntMatrix, transforms: bool = True) -> SNFDecomposition:
    """Smith normal form by elementary row/column operations.

    Pivots are chosen as the smallest nonzero entry in absolute value of the
    remaining submatrix, scanning row-major with first-found winning ties,
    which makes U, D, V reproducible across runs.

    Rows and columns before the current pivot t are zero in D outside the
    diagonal, so operations on D skip them; U and V get whole rows/columns.
    With transforms=False, U and V are not kept and come back as None; D is
    the same.
    """
    m, n = a.rows, a.cols
    e = a.entries
    d = [list(e[i * n : (i + 1) * n]) for i in range(m)]
    # without transforms U's rows are empty and V has no rows, so the
    # operations below that update them do nothing
    mu, nv = (m, n) if transforms else (0, 0)
    u = [[0] * mu for _ in range(m)]
    for i in range(mu):
        u[i][i] = 1
    v = [[0] * n for _ in range(nv)]
    for i in range(nv):
        v[i][i] = 1

    t = 0
    while t < min(m, n):
        # smallest |nonzero| entry of the remaining submatrix; nothing beats 1
        best = 0
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                x = di[j]
                if x and (best == 0 or abs(x) < best):
                    best, pi, pj = abs(x), i, j
            if best == 1:
                break
        if best == 0:
            break  # the submatrix is zero; remaining diagonal entries stay 0
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for r in d[t:]:
                r[t], r[pj] = r[pj], r[t]
            for r in v:
                r[t], r[pj] = r[pj], r[t]
        dt, ut = d[t], u[t]
        pivot = dt[t]
        for i in range(t + 1, m):  # row i -= (d[i][t] // pivot) * row t
            di = d[i]
            if di[t]:
                k = -(di[t] // pivot)
                for c in range(t, n):
                    di[c] += k * dt[c]
                ui = u[i]
                for c in range(mu):
                    ui[c] += k * ut[c]
        for j in range(t + 1, n):  # column j -= (d[t][j] // pivot) * column t
            if dt[j]:
                k = -(dt[j] // pivot)
                for r in d[t:]:
                    r[j] += k * r[t]
                for r in v:
                    r[j] += k * r[t]
        if pivot not in (1, -1):  # a unit pivot clears its cross and divides every entry
            if any(d[i][t] for i in range(t + 1, m)) or any(dt[t + 1 :]):
                continue  # residue smaller than the pivot appeared; redo
            # cross is clear; enforce divisibility of the rest by the pivot
            i = next(
                (i for i in range(t + 1, m) if any(d[i][j] % pivot for j in range(t + 1, n))), 0
            )
            if i:
                di, ui = d[i], u[i]
                for c in range(t, n):  # row t += row i
                    dt[c] += di[c]
                for c in range(mu):
                    ut[c] += ui[c]
                continue
        if pivot < 0:
            d[t] = [-x for x in dt]
            u[t] = [-x for x in ut]
        t += 1

    D = IntMatrix(m, n, tuple(chain.from_iterable(d)))
    if not transforms:
        return SNFDecomposition(None, D, None)
    return SNFDecomposition(
        U=IntMatrix(m, m, tuple(chain.from_iterable(u))),
        D=D,
        V=IntMatrix(n, n, tuple(chain.from_iterable(v))),
    )


# ---------------------------------------------------------------------------
# consumers of the Smith form


class AbelianGroup(Value):
    """Finitely generated abelian group in invariant-factor form."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()) -> None:
        free_rank = index(free_rank)
        if free_rank < 0:
            raise ValueError("negative free rank")
        Value.__init__(self, free_rank, as_ints(torsion))
        for t in self.torsion:
            if t < 2:
                raise ValueError(f"invariant factor {t} < 2")
        for s, t in zip(self.torsion, self.torsion[1:]):
            if t % s != 0:
                raise ValueError(f"invariant factors {s}, {t} break divisibility")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(a: IntMatrix) -> AbelianGroup:
    """Z^rows / image(A), read off the Smith form's diagonal."""
    diag = smith_normal_form(a, transforms=False).diagonal
    nonzero = [x for x in diag if x != 0]
    return AbelianGroup(
        free_rank=a.rows - len(nonzero),
        torsion=tuple(x for x in nonzero if x >= 2),
    )


def kernel_basis(a: IntMatrix) -> list[Vec]:
    """Basis of the kernel of one integer row r, as a sublattice of Z^cols.

    The kernel of an integer matrix is automatically saturated (torsion-free
    quotient), so the returned vectors generate every integer x with
    r . x = 0.  They are the columns past the pivot of the V that
    smith_normal_form would return for r (all of V for the zero row),
    found by its column operations run on r alone: pivot on the smallest
    |entry|, first found, reduce the others by floor division, and repeat
    while a remainder is left.  A matrix of any other number of rows raises
    ValueError.
    """
    if a.rows != 1:
        raise ValueError(f"kernel_basis takes one row, got a {a.rows}x{a.cols} matrix")
    n = a.cols
    r = list(a.entries)
    v = [[0] * n for _ in range(n)]  # V's columns
    for j in range(n):
        v[j][j] = 1
    if not any(r):
        return [tuple(c) for c in v]
    while True:
        best = 0
        for j, x in enumerate(r):
            if x and (best == 0 or abs(x) < best):
                best, p = abs(x), j
        r[0], r[p] = r[p], r[0]
        v[0], v[p] = v[p], v[0]
        pivot, v0 = r[0], v[0]
        for j in range(1, n):
            k = r[j] // pivot
            if k:
                r[j] -= k * pivot
                v[j] = [x - k * y for x, y in zip(v[j], v0)]
        if not any(r[1:]):
            return [tuple(c) for c in v[1:]]


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a 3x3 matrix with determinant +-1.

    With rows r0, r1, r2 the adjugate's columns are r1 x r2, r2 x r0 and
    r0 x r1, and det = r0 . (r1 x r2); dividing the adjugate by det = +-1
    is multiplying it by det.
    """
    if m.rows != 3 or m.cols != 3:
        raise NotUnimodular(f"unimodular_inverse takes 3x3 matrices, got {m.rows}x{m.cols}")
    r0, r1, r2 = m.to_rows()
    adj = (cross(r1, r2), cross(r2, r0), cross(r0, r1))
    d = dot(r0, adj[0])
    if abs(d) != 1:
        raise NotUnimodular(f"determinant {d}")
    return IntMatrix(3, 3, tuple(d * c[i] for i in range(3) for c in adj))


def solve(a: IntMatrix, b: Sequence[int]) -> Vec | None:
    """One integer solution x of A x = b, or None when none exists.

    Deterministic: free coordinates of the solution are set to zero in the
    Smith basis.
    """
    if len(b) != a.rows:
        raise ValueError(f"vector length {len(b)} vs {a.rows} rows")
    snf = smith_normal_form(a)
    c = snf.U.apply(b)
    diag = snf.diagonal
    y = [0] * a.cols
    for i in range(a.rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return snf.V.apply(y)

