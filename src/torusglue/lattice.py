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
    return math.gcd(*(abs(x) for x in v)) if v else 0


def is_primitive(v: Sequence[int]) -> bool:
    return content(v) == 1


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


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
        object.__setattr__(self, "entries", tuple(int(x) for x in self.entries))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        rows = [tuple(r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def from_columns(cls, cols: Iterable[Sequence[int]]) -> "IntMatrix":
        cols = [tuple(c) for c in cols]
        return cls.from_rows(zip(*cols)) if cols else cls(0, 0, ())

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> tuple[Vec, ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(self.column(j) for j in range(self.cols))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} vs {other.rows}")
        ocols = [other.column(j) for j in range(other.cols)]
        return IntMatrix.from_rows(
            tuple(dot(self.row(i), c) for c in ocols) for i in range(self.rows)
        )

    def apply(self, v: Sequence[int]) -> Vec:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} vs {self.cols} columns")
        return tuple(dot(self.row(i), v) for i in range(self.rows))

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

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1


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
        return tuple(self.D.entry(i, i) for i in range(min(self.D.rows, self.D.cols)))


def smith_normal_form(a: IntMatrix) -> SNFDecomposition:
    """Smith normal form by elementary row/column operations.

    Pivots are chosen as the smallest nonzero entry in absolute value of the
    remaining submatrix, scanning row-major with first-found winning ties,
    which makes U, D, V reproducible across runs.
    """
    m, n = a.rows, a.cols
    d = [list(a.row(i)) for i in range(m)]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_add(i: int, j: int, k: int) -> None:  # row i += k * row j
        di, dj = d[i], d[j]
        for c in range(n):
            di[c] += k * dj[c]
        ui, uj = u[i], u[j]
        for c in range(m):
            ui[c] += k * uj[c]

    def col_add(i: int, j: int, k: int) -> None:  # col i += k * col j
        for r in range(m):
            d[r][i] += k * d[r][j]
        for r in range(n):
            v[r][i] += k * v[r][j]

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_negate(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        while True:
            # smallest |nonzero| entry of the remaining submatrix
            pi = pj = -1
            best = 0
            for i in range(t, m):
                for j in range(t, n):
                    e = d[i][j]
                    if e != 0 and (best == 0 or abs(e) < best):
                        best = abs(e)
                        pi, pj = i, j
            if best == 0:
                # submatrix is zero; remaining diagonal entries stay 0
                t = min(m, n)
                break
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            pivot = d[t][t]
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    row_add(i, t, -(d[i][t] // pivot))
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    col_add(j, t, -(d[t][j] // pivot))
            if any(d[i][t] != 0 for i in range(t + 1, m)) or any(
                d[t][j] != 0 for j in range(t + 1, n)
            ):
                continue  # residue smaller than the pivot appeared; redo
            # cross is clear; enforce divisibility of the rest by the pivot
            offender = next(
                (
                    i
                    for i in range(t + 1, m)
                    if any(d[i][j] % pivot != 0 for j in range(t + 1, n))
                ),
                -1,
            )
            if offender >= 0:
                row_add(t, offender, 1)
                continue
            if d[t][t] < 0:
                row_negate(t)
            t += 1
            break

    return SNFDecomposition(
        U=IntMatrix.from_rows(u),
        D=IntMatrix.from_rows(d),
        V=IntMatrix.from_rows(v),
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
