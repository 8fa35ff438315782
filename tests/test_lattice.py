import math
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusglue.lattice import (
    AbelianGroup,
    IntMatrix,
    NotUnimodular,
    SNFDecomposition,
    cokernel,
    content,
    cross,
    dot,
    is_primitive,
    kernel_basis,
    saturate,
    smith_normal_form,
    solve,
    unimodular_inverse,
    xgcd,
)


def minors_gcd(m: IntMatrix, k: int) -> int:
    """Independent oracle: gcd of all k x k minors."""
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix.from_rows([[m.entry(i, j) for j in cols] for i in rows])
            g = math.gcd(g, abs(sub.det()))
    return g


def assert_snf_invariants(a: IntMatrix) -> None:
    s = smith_normal_form(a)
    assert (s.U @ a @ s.V).entries == s.D.entries
    assert abs(s.U.det()) == 1
    assert abs(s.V.det()) == 1
    diag = s.diagonal
    assert all(x >= 0 for x in diag)
    for i in range(s.D.rows):
        for j in range(s.D.cols):
            if i != j:
                assert s.D.entry(i, j) == 0
    for x, y in zip(diag, diag[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    prod = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        prod *= diag[k - 1]
        assert prod == minors_gcd(a, k)


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.integers(-9, 9), min_size=r * c, max_size=r * c
        ).map(lambda e: IntMatrix(r, c, tuple(e)))
    )
)

def reference_smith_normal_form(a: IntMatrix) -> SNFDecomposition:
    """The closure-based Smith normal form that smith_normal_form replaced,
    frozen here as the reference its U, D and V must equal entry for entry."""
    m, n = a.rows, a.cols
    d = [list(a.entries[i * n : (i + 1) * n]) for i in range(m)]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_add(i, j, k):  # row i += k * row j
        di, dj = d[i], d[j]
        for c in range(n):
            di[c] += k * dj[c]
        ui, uj = u[i], u[j]
        for c in range(m):
            ui[c] += k * uj[c]

    def col_add(i, j, k):  # col i += k * col j
        for r in range(m):
            d[r][i] += k * d[r][j]
        for r in range(n):
            v[r][i] += k * v[r][j]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        while True:
            pi = pj = -1
            best = 0
            for i in range(t, m):
                for j in range(t, n):
                    e = d[i][j]
                    if e != 0 and (best == 0 or abs(e) < best):
                        best = abs(e)
                        pi, pj = i, j
            if best == 0:
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
                continue
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
        U=IntMatrix.from_rows(u), D=IntMatrix.from_rows(d), V=IntMatrix.from_rows(v)
    )


def assert_snf_matches_reference(a: IntMatrix) -> None:
    s, ref = smith_normal_form(a), reference_smith_normal_form(a)
    for got, want in ((s.U, ref.U), (s.D, ref.D), (s.V, ref.V)):
        assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)


FORTY_DIGITS = st.integers(10**39, 10**40 - 1).flatmap(lambda x: st.sampled_from([x, -x]))

large_matrices = st.integers(1, 10).flatmap(
    lambda r: st.integers(1, 7).flatmap(
        lambda c: st.lists(
            st.one_of(st.integers(-9, 9), st.integers(-9, 9), FORTY_DIGITS),
            min_size=r * c,
            max_size=r * c,
        ).map(lambda e: IntMatrix(r, c, tuple(e)))
    )
)

vectors3 = st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))


def test_content_examples():
    assert content((2, 4, 6)) == 2
    assert content((0, 0, 0)) == 0
    assert content((3, 5, 0)) == 1


def test_is_primitive_examples():
    assert is_primitive((1, 0, 0))
    assert not is_primitive((2, 4, 6))
    assert not is_primitive((0, 0, 0))


def test_cross_examples():
    assert cross((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert cross((1, 0, 0), (2, 0, 0)) == (0, 0, 0)
    assert cross((1, 1, 0), (0, 1, 1)) == (1, -1, 1)


@given(vectors3, vectors3)
def test_cross_orthogonal(a, b):
    c = cross(a, b)
    assert dot(c, a) == 0
    assert dot(c, b) == 0


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_snf_identity():
    s = smith_normal_form(IntMatrix.identity(3))
    assert s.D.entries == IntMatrix.identity(3).entries


def test_snf_diag_2_3():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    s = smith_normal_form(a)
    assert s.diagonal == (1, 6)
    # determinantal-divisor oracle: d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
    assert minors_gcd(a, 1) == 1
    assert minors_gcd(a, 2) == 6


def test_snf_zero_matrix():
    s = smith_normal_form(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
    assert s.D.entries == (0, 0, 0, 0, 0, 0)
    assert abs(s.U.det()) == 1 and abs(s.V.det()) == 1


def test_snf_deterministic():
    a = IntMatrix.from_rows([[6, 4, -2], [2, 8, 10], [0, -6, 14]])
    s1, s2 = smith_normal_form(a), smith_normal_form(a)
    assert s1.U.entries == s2.U.entries
    assert s1.V.entries == s2.V.entries


@given(matrices)
@settings(max_examples=150)
def test_snf_invariants(a):
    assert_snf_invariants(a)


@given(large_matrices)
@settings(max_examples=150, deadline=None)
def test_snf_equals_reference_entry_for_entry(a):
    assert_snf_matches_reference(a)


@pytest.mark.parametrize(
    "rows",
    [
        [(2, 3, 5)],
        [(0, 0, 7)],
        [(-4, 6, 0)],
        [(10**40 + 1, -(10**40), 3)],
        [(1, -2), (3, 0), (-1, 4)],
        [(0, 0), (0, 6), (4, 0)],
        [(2, 4), (4, 8), (-6, -12)],
        [(10**40, 3), (7, -(10**40)), (0, 1)],
    ],
)
def test_snf_equals_reference_on_engine_shapes(rows):
    assert_snf_matches_reference(IntMatrix.from_rows(rows))


def test_snf_equals_reference_on_small_3x2_box():
    for e in product(range(-2, 3), repeat=6):
        assert_snf_matches_reference(IntMatrix(3, 2, e))


def test_cokernel_examples():
    assert cokernel(IntMatrix.from_rows([[3]])) == AbelianGroup(0, (3,))
    assert cokernel(IntMatrix.from_rows([[1], [0]])) == AbelianGroup(1, ())
    assert cokernel(IntMatrix.from_rows([[2, 0], [0, 4]])) == AbelianGroup(0, (2, 4))


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
    assert str(AbelianGroup(1, (3,))) == "Z + Z/3"
    assert str(AbelianGroup(2, ())) == "Z^2"
    assert str(AbelianGroup(0, ())) == "0"


def test_saturate_examples():
    assert saturate([(2, 0, 0)]) == [(1, 0, 0)]
    assert saturate([]) == []
    assert saturate([(0, 0, 0)]) == []


def test_saturate_coordinate_plane():
    basis = saturate([(1, 0, 0), (0, 2, 0)])
    assert len(basis) == 2
    m = IntMatrix.from_columns(basis)
    # membership brute force: the saturation is the whole plane z = 0
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert solve(m, (x, y, 0)) is not None
    assert all(v[2] == 0 for v in basis)


@given(st.lists(vectors3, max_size=4))
def test_saturate_properties(vecs):
    basis = saturate(vecs)
    assert saturate(basis) == basis  # idempotent
    if basis:
        # the quotient by the saturation is torsion-free: all invariant factors 1
        assert set(smith_normal_form(IntMatrix.from_rows(basis)).diagonal) == {1}
        m = IntMatrix.from_columns(basis)
        for v in vecs:
            assert solve(m, v) is not None  # inputs are integer combinations


def test_solve():
    a = IntMatrix.from_rows([[2, 0], [0, 3], [1, 1]])
    assert solve(a, (4, 9, 5)) == (2, 3)
    assert solve(a, (1, 1, 1)) is None
    assert solve(IntMatrix.from_rows([[2, 4]]), (3,)) is None  # no integer solution
    x = solve(IntMatrix.from_rows([[2, 3]]), (1,))
    assert x is not None and 2 * x[0] + 3 * x[1] == 1


def test_kernel_basis():
    kb = kernel_basis(IntMatrix.from_rows([(1, -1, 1)]))
    assert len(kb) == 2
    assert all(dot((1, -1, 1), v) == 0 for v in kb)
    assert kernel_basis(IntMatrix.identity(3)) == []


def test_unimodular_inverse():
    m = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [3, -2, 1]])
    inv = unimodular_inverse(m)
    assert (m @ inv).entries == IntMatrix.identity(3).entries
    with pytest.raises(NotUnimodular):
        unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(NotUnimodular):
        unimodular_inverse(IntMatrix.from_rows([[1, 0, 0]]))
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix.identity(4))  # the adjugate route stops at 3x3


def test_indexing_out_of_range_raises():
    m = IntMatrix.from_rows([(1, 2), (3, 4)])
    assert (m.entry(1, 0), m.row(1), m.column(1)) == (3, (3, 4), (2, 4))
    for i, j in [(0, 2), (2, 0), (-1, 0), (0, -1)]:
        with pytest.raises(IndexError):
            m.entry(i, j)
    for i in (2, 5, -1):
        with pytest.raises(IndexError):
            m.row(i)
    for j in (2, -1):
        with pytest.raises(IndexError):
            m.column(j)


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3, 4]]).apply((1, 2, 3))
