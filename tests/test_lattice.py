import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusglue.lattice import (
    AbelianGroup,
    IntMatrix,
    NotUnimodular,
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
    assert s.U.is_unimodular() and s.V.is_unimodular()


def test_snf_deterministic():
    a = IntMatrix.from_rows([[6, 4, -2], [2, 8, 10], [0, -6, 14]])
    s1, s2 = smith_normal_form(a), smith_normal_form(a)
    assert s1.U.entries == s2.U.entries
    assert s1.V.entries == s2.V.entries


@given(matrices)
@settings(max_examples=150)
def test_snf_invariants(a):
    assert_snf_invariants(a)


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


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3, 4]]).apply((1, 2, 3))
