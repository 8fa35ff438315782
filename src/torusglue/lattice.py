"""Exact integer linear algebra over Z.

Everything downstream reduces to small integer-matrix computations: gcds
and primitive vectors, Smith normal form together with its unimodular
transforms, cokernels presented as abelian groups, and saturation of a
sublattice.  All arithmetic is arbitrary precision; no floating point
anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[int, ...]


class NonPrimitive(ValueError):
    """A vector required to be primitive (content 1) is not."""


class NotUnimodular(ValueError):
    """A matrix required to have determinant +-1 does not."""


# ---------------------------------------------------------------------------
# vectors


def content(v: Sequence[int]) -> int:
    """gcd of the entries; 0 exactly for the zero vector."""
    return math.gcd(*v)


def is_primitive(v: Sequence[int]) -> bool:
    return content(v) == 1


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


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


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries in row-major order."""

    rows: int
    cols: int
    entries: Vec

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if self.rows * self.cols != len(self.entries):
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs "
                f"{self.rows * self.cols} entries, got {len(self.entries)}"
            )
        object.__setattr__(self, "entries", tuple(map(int, self.entries)))

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
        cols = [tuple(c) for c in cols]
        return cls.from_rows(zip(*cols)) if cols else cls(0, 0, ())

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def _check_row(self, i: int) -> None:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} of a {self.rows}x{self.cols} matrix")

    def _check_column(self, j: int) -> None:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a {self.rows}x{self.cols} matrix")

    def entry(self, i: int, j: int) -> int:
        self._check_row(i)
        self._check_column(j)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        self._check_row(i)
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vec:
        self._check_column(j)
        return self.entries[j :: self.cols]

    def to_rows(self) -> tuple[Vec, ...]:
        e, c = self.entries, self.cols
        return tuple(e[k * c : (k + 1) * c] for k in range(self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(self.column(j) for j in range(self.cols))

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
        return tuple(sum(map(mul, r, v)) for r in self.to_rows())

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


@dataclass(frozen=True)
class SNFDecomposition:
    """U @ A @ V = D with U, V unimodular and D diagonal.

    The diagonal entries are nonnegative and each divides the next, so D is
    the unique Smith form of A.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> Vec:
        return self.D.entries[:: self.D.cols + 1][: min(self.D.rows, self.D.cols)]


def smith_normal_form(a: IntMatrix) -> SNFDecomposition:
    """Smith normal form by elementary row/column operations.

    Pivots are chosen as the smallest nonzero entry in absolute value of the
    remaining submatrix, scanning row-major with first-found winning ties,
    which makes U, D, V reproducible across runs.

    Rows and columns before the current pivot t are zero in D outside the
    diagonal, so operations on D skip them; U and V get whole rows/columns.
    """
    m, n = a.rows, a.cols
    e = a.entries
    d = [list(e[i * n : (i + 1) * n]) for i in range(m)]
    u = [[0] * m for _ in range(m)]
    for i in range(m):
        u[i][i] = 1
    v = [[0] * n for _ in range(n)]
    for i in range(n):
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
                for c in range(m):
                    ui[c] += k * ut[c]
        for j in range(t + 1, n):  # column j -= (d[t][j] // pivot) * column t
            if dt[j]:
                k = -(dt[j] // pivot)
                for r in d[t:]:
                    r[j] += k * r[t]
                for r in v:
                    r[j] += k * r[t]
        if any(d[i][t] for i in range(t + 1, m)) or any(dt[t + 1 :]):
            continue  # residue smaller than the pivot appeared; redo
        # cross is clear; enforce divisibility of the rest by the pivot
        for i in range(t + 1, m):
            di = d[i]
            if any(di[j] % pivot for j in range(t + 1, n)):
                for c in range(t, n):  # row t += row i
                    dt[c] += di[c]
                ui = u[i]
                for c in range(m):
                    ut[c] += ui[c]
                break
        else:
            if pivot < 0:
                d[t] = [-x for x in dt]
                u[t] = [-x for x in ut]
            t += 1

    return SNFDecomposition(
        U=IntMatrix(m, m, tuple(chain.from_iterable(u))),
        D=IntMatrix(m, n, tuple(chain.from_iterable(d))),
        V=IntMatrix(n, n, tuple(chain.from_iterable(v))),
    )


# ---------------------------------------------------------------------------
# consumers of the Smith form


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
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
    """Z^rows / image(A), read off the Smith form."""
    diag = smith_normal_form(a).diagonal
    nonzero = [x for x in diag if x != 0]
    return AbelianGroup(
        free_rank=a.rows - len(nonzero),
        torsion=tuple(x for x in nonzero if x >= 2),
    )


def kernel_basis(a: IntMatrix) -> list[Vec]:
    """Basis of ker(A) as a sublattice of Z^cols.

    The kernel of an integer matrix is automatically saturated (torsion-free
    quotient), so the returned vectors generate every integer solution of
    A x = 0.
    """
    snf = smith_normal_form(a)
    diag = snf.diagonal
    return [
        snf.V.column(j)
        for j in range(a.cols)
        if j >= len(diag) or diag[j] == 0
    ]


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a 3x3 matrix with determinant +-1.

    Computed as the adjugate; dividing by det = +-1 is multiplying by det.
    """
    if m.rows != m.cols:
        raise NotUnimodular("non-square matrix")
    d = m.det()
    if abs(d) != 1:
        raise NotUnimodular(f"determinant {d}")
    if m.rows != 3:
        raise ValueError(f"unimodular_inverse takes 3x3 matrices, got {m.rows}x{m.cols}")
    r = m.to_rows()
    # cyclic-index minors carry the cofactor sign already
    cof = [
        [
            r[(i + 1) % 3][(j + 1) % 3] * r[(i + 2) % 3][(j + 2) % 3]
            - r[(i + 1) % 3][(j + 2) % 3] * r[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]
    return IntMatrix.from_rows([[cof[j][i] * d for j in range(3)] for i in range(3)])


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
            if i < a.cols:
                y[i] = c[i] // di
    return snf.V.apply(y)


def _hermite_row_basis(rows: Sequence[Vec]) -> list[Vec]:
    """The unique Hermite-form basis of the lattice spanned by independent rows.

    Pivots are positive, pivot columns increase, and entries above a pivot
    are reduced into [0, pivot).  Uniqueness makes lattice-valued functions
    returning this form literally idempotent.
    """
    work = [list(r) for r in rows]
    m = len(work)
    if m == 0:
        return []
    n = len(work[0])
    top = 0
    for col in range(n):
        if top == m:
            break
        if all(work[i][col] == 0 for i in range(top, m)):
            continue
        for i in range(top + 1, m):
            while work[i][col] != 0:
                if work[top][col] == 0 or abs(work[i][col]) < abs(work[top][col]):
                    work[top], work[i] = work[i], work[top]
                    continue
                q = work[i][col] // work[top][col]
                work[i] = [x - q * y for x, y in zip(work[i], work[top])]
        if work[top][col] < 0:
            work[top] = [-x for x in work[top]]
        pivot = work[top][col]
        for i in range(top):
            q = work[i][col] // pivot
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[top])]
        top += 1
    return [tuple(r) for r in work[:top]]


def saturate(vectors: Iterable[Sequence[int]]) -> list[Vec]:
    """Canonical basis of the saturation of the span of the given vectors.

    The saturation is the smallest sublattice containing the span whose
    quotient is torsion-free.  With U A V = D for the matrix A of input rows,
    the rows of A are integer combinations of d_i * (row i of V^-1), so the
    rows of V^-1 at nonzero diagonal positions are a basis; it is returned
    in Hermite form so equal lattices get equal bases.  Vectors have length
    3, the size unimodular_inverse handles.
    """
    rows = [tuple(r) for r in vectors]
    if not rows:
        return []
    a = IntMatrix.from_rows(rows)
    snf = smith_normal_form(a)
    v_inv = unimodular_inverse(snf.V)
    basis = [v_inv.row(i) for i, di in enumerate(snf.diagonal) if di != 0]
    return _hermite_row_basis(basis)
