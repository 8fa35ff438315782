import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusglue.enumeration import enumerate_gluings, pieces_for_kinds
from torusglue.gluing import GluingMap
from torusglue.invariants import h1_presentation
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
    smith_normal_form,
    solve,
    unimodular_inverse,
    xgcd,
)
from torusglue.pieces import PieceKind
from torusglue.torus3 import CurveClass, FibrationOfT3, TorusClass

from conftest import in_span, minors_gcd, random_unimodular


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
                assert s.D.row(i)[j] == 0
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
    with pytest.raises(ValueError, match="needs length-3 vectors"):
        cross((1, 0, 0), (0, 1))


def test_dot_examples():
    assert dot((1, 2, 3), (4, -5, 6)) == 12
    with pytest.raises(ValueError, match=r"^dot product needs length-3 vectors, got 2 and 3$"):
        dot((1, 0), (0, 1, 0))
    with pytest.raises(ValueError, match=r"got 4 and 4$"):
        dot((1, 0, 0, 0), (1, 0, 0, 0))


def test_in_span_oracle():
    # the membership oracle of the kernel-equals-saturation checks
    assert in_span((3, -2, 0), (1, 0, 0), (0, 1, 0))
    assert in_span((-1, -3, 2), (1, 1, 0), (0, 1, -1))  # -1 * b1 - 2 * b2
    assert in_span((0, 0, 0), (2, 0, 0), (0, 2, 0))
    assert not in_span((1, 1, 0), (2, 0, 0), (0, 2, 0))  # half-integer coefficients
    assert not in_span((0, 0, 1), (1, 0, 0), (0, 1, 0))  # off the plane


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


@pytest.mark.parametrize(
    "rows, U, D, V",
    [
        pytest.param(  # every pivot is a unit: no redo, no divisibility fix-up
            [(2, 1, 0), (1, 1, 0), (3, 0, 1)],
            [(1, 0, 0), (1, -1, 0), (-3, 3, 1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(0, 1, 0), (1, -2, 0), (0, 0, 1)],
            id="unit-pivots",
        ),
        pytest.param(  # the -1 pivot's row is negated in D and U
            [(-1, 2), (3, 4)],
            [(-1, 0), (3, 1)],
            [(1, 0), (0, 10)],
            [(1, 2), (0, 1)],
            id="minus-one-pivot",
        ),
        pytest.param(  # 3 is not a multiple of the pivot 2: row 0 += row 1
            [(2, 0), (0, 3)],
            [(1, 1), (3, 2)],
            [(1, 0), (0, 6)],
            [(-1, 3), (1, -2)],
            id="divisibility-fix-up",
        ),
        pytest.param(
            [(0, 0, 0), (4, 6, 2), (0, 0, 0)],
            [(0, 1, 0), (1, 0, 0), (0, 0, 1)],
            [(2, 0, 0), (0, 0, 0), (0, 0, 0)],
            [(0, 0, 1), (0, 1, 0), (1, -3, -2)],
            id="zero-rows",
        ),
    ],
)
def test_snf_transforms_are_pinned(rows, U, D, V):
    # the docstring promises reproducible U, D, V, not just D
    s = smith_normal_form(IntMatrix.from_rows(rows))
    assert (s.U.to_rows(), s.D.to_rows(), s.V.to_rows()) == (tuple(U), tuple(D), tuple(V))


def test_snf_of_a_matrix_without_rows():
    s = smith_normal_form(IntMatrix(0, 3, ()))
    assert (s.U.rows, s.U.cols, s.D.rows, s.D.cols) == (0, 0, 0, 3)
    assert s.V == IntMatrix.identity(3)
    assert s.diagonal == ()


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
    with pytest.raises(ValueError, match="negative free rank"):
        AbelianGroup(-1, ())
    assert str(AbelianGroup(1, (3,))) == "Z + Z/3"
    assert str(AbelianGroup(2, ())) == "Z^2"
    assert str(AbelianGroup(0, ())) == "0"


def test_solve():
    a = IntMatrix.from_rows([[2, 0], [0, 3], [1, 1]])
    assert solve(a, (4, 9, 5)) == (2, 3)
    assert solve(a, (1, 1, 1)) is None
    assert solve(IntMatrix.from_rows([[2, 4]]), (3,)) is None  # no integer solution
    x = solve(IntMatrix.from_rows([[2, 3]]), (1,))
    assert x is not None and 2 * x[0] + 3 * x[1] == 1
    with pytest.raises(ValueError, match=r"^vector length 2 vs 3 rows$"):
        solve(a, (4, 9))


def test_kernel_basis():
    kb = kernel_basis(IntMatrix.from_rows([(1, -1, 1)]))
    assert len(kb) == 2
    assert all(dot((1, -1, 1), v) == 0 for v in kb)
    for a in (IntMatrix.identity(3), IntMatrix(0, 3, ())):  # one row only
        with pytest.raises(ValueError, match=r"^kernel_basis takes one row, got a \dx3 matrix$"):
            kernel_basis(a)


def reference_kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """The Smith-form definition that kernel_basis replaced, kept as the
    reference its basis must equal: the columns of V past the nonzero
    diagonal."""
    snf = smith_normal_form(a)
    diag = snf.diagonal
    return [snf.V.column(j) for j in range(a.cols) if j >= len(diag) or diag[j] == 0]


def test_kernel_basis_equals_the_smith_form_columns():
    # the golden-pinned certificates read this basis, so it must be the old
    # one vector for vector, not just another basis of the same lattice
    rng = random.Random(25)
    rows = [*product(range(-7, 8), repeat=3)]
    rows += [tuple(rng.randint(-500, 500) for _ in range(3)) for _ in range(5000)]
    assert (0, 0, 0) in rows
    for r in rows:
        a = IntMatrix(1, 3, r)
        assert kernel_basis(a) == reference_kernel_basis(a), r


def assert_d_only_matches(a: IntMatrix) -> None:
    s = smith_normal_form(a, transforms=False)
    assert (s.U, s.V) == (None, None)
    assert s.D == smith_normal_form(a).D


def test_snf_without_transforms_has_the_same_diagonal():
    rng = random.Random(7)
    for _ in range(2000):
        m, n = rng.randint(0, 10), rng.randint(0, 7)
        zero_rows = {i for i in range(m) if rng.random() < 0.2}
        zero_cols = {j for j in range(n) if rng.random() < 0.2}
        entries = [
            0 if i in zero_rows or j in zero_cols else rng.randint(-20, 20)
            for i in range(m)
            for j in range(n)
        ]
        assert_d_only_matches(IntMatrix(m, n, entries))


def test_snf_without_transforms_on_every_n1_presentation():
    presentations = [
        h1_presentation(x)
        for kinds in product(PieceKind, repeat=2)
        for x in enumerate_gluings(1, *pieces_for_kinds(*kinds))
    ]
    assert len(presentations) == 9 * 62
    for a in presentations:
        assert_d_only_matches(a)


def test_unimodular_inverse():
    m = IntMatrix.from_rows([[2, 1, 0], [1, 1, 0], [3, -2, 1]])
    inv = unimodular_inverse(m)
    assert (m @ inv).entries == IntMatrix.identity(3).entries
    rng = random.Random(8)
    for _ in range(500):  # entries spread up to the 10^6 cap
        m = random_unimodular(rng, max_factors=80, coeff=9)
        inv = unimodular_inverse(m)
        assert m @ inv == IntMatrix.identity(3) == inv @ m
    for bad in [
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # determinant 0
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]],  # determinant 2
        [[2, 0], [0, 1]],
        [[1, 0], [0, 1]],
        [[1, 0, 0]],
        IntMatrix.identity(4).to_rows(),  # the adjugate route stops at 3x3
    ]:
        with pytest.raises(NotUnimodular):
            unimodular_inverse(IntMatrix.from_rows(bad))


def test_indexing_out_of_range_raises():
    m = IntMatrix.from_rows([(1, 2), (3, 4)])
    assert (m.row(1), m.column(1)) == ((3, 4), (2, 4))
    for i in (2, 5, -1):
        with pytest.raises(IndexError):
            m.row(i)
    for j in (2, -1):
        with pytest.raises(IndexError):
            m.column(j)


@pytest.mark.parametrize(
    "build",
    [
        lambda two: IntMatrix(1, 2, (two, 0)),
        lambda two: IntMatrix(two, 1, (0, 0)),
        lambda two: AbelianGroup(0, (two,)),
        lambda two: AbelianGroup(two, ()),
        lambda two: CurveClass((1, two, 0)),
        lambda two: TorusClass((1, 0, two)),
        lambda two: FibrationOfT3((two, 1, 0), ((1, -2, 0), (0, 0, 1))),
        lambda two: FibrationOfT3((0, 0, 1), ((1, two, 0), (0, 1, 0))),
        lambda two: GluingMap(IntMatrix(3, 3, (1, two, 0, 0, 1, 0, 0, 0, 1))),
    ],
    ids=[
        "IntMatrix",
        "IntMatrix.rows",
        "AbelianGroup",
        "AbelianGroup.free_rank",
        "CurveClass",
        "TorusClass",
        "phi",
        "fiber_basis",
        "GluingMap",
    ],
)
@pytest.mark.parametrize("two", [2.0, 2.5, "2"])
def test_integer_entries_reject_floats_and_strings(build, two):
    build(2)
    with pytest.raises(TypeError):
        build(two)  # int() would have read each of these as 2


def test_matrix_validation():
    assert repr(IntMatrix(1, 2, (True, False)).entries) == "(1, 0)"
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 2, 3), (4, 5)])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3, 4]]).apply((1, 2, 3))
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        IntMatrix(-1, 0, ())
    with pytest.raises(ValueError, match=r"^shape mismatch: 2 vs 3$"):
        IntMatrix.identity(2) @ IntMatrix.identity(3)
    with pytest.raises(ValueError, match="non-square"):
        IntMatrix(2, 3, (0,) * 6).det()
    assert IntMatrix(0, 0, ()).det() == 1
