import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusglue.lattice import (
    IntMatrix,
    NonPrimitive,
    NotUnimodular,
    content,
    cross,
    dot,
    kernel_basis,
    smith_normal_form,
)
from torusglue.torus3 import (
    CurveClass,
    FibrationOfT3,
    ParallelCurves,
    TorusClass,
    act,
    canonical_torus_containing,
    contains,
    dual_curve,
    fibration_from_torus,
    sign_normalize,
    torus_through,
)

from conftest import random_curve, random_unimodular, run_python

primitive3 = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
).filter(lambda v: content(v) == 1)


def normalized_box(bound):
    """All sign-normalized primitive vectors with entries in [-bound, bound]."""
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=3):
        if content(v) != 1:
            continue
        if sign_normalize(v) == v:
            out.append(v)
    return out


def test_class_normalization():
    assert CurveClass.of((-1, 2, 0)).v == (1, -2, 0)
    assert TorusClass.of((0, -1, 3)).n == (0, 1, -3)
    with pytest.raises(NonPrimitive):
        CurveClass.of((2, 4, 6))
    with pytest.raises(NonPrimitive):
        CurveClass.of((0, 0, 0))
    with pytest.raises(ValueError):
        CurveClass((-1, 0, 0))  # direct construction requires normalized input
    assert sign_normalize((0, -2, 4)) == (0, 2, -4)
    assert sign_normalize([0, 0, 3]) == (0, 0, 3)
    with pytest.raises(ValueError, match="zero vector"):
        sign_normalize((0, 0, 0))


def test_torus_through_examples():
    assert torus_through(CurveClass.of((1, 0, 0)), CurveClass.of((0, 1, 0))).n == (0, 0, 1)
    assert torus_through(CurveClass.of((1, 1, 0)), CurveClass.of((0, 1, 1))).n == (1, -1, 1)
    with pytest.raises(ParallelCurves):
        torus_through(CurveClass.of((1, 0, 0)), CurveClass.of((1, 0, 0)))


def test_torus_through_divides_content():
    # cross((1,2,0), (1,0,2)) = (4,-2,-2); the torus covector is its primitive part
    t = torus_through(CurveClass.of((1, 2, 0)), CurveClass.of((1, 0, 2)))
    assert t.n == (2, -1, -1)


def oracle_canonical_annihilator(a, bound=6):
    """Independent oracle: minimal max-abs annihilator, ties broken lexicographically."""
    candidates = [v for v in normalized_box(bound) if dot(v, a.v) == 0]
    return min(candidates, key=lambda v: (max(abs(x) for x in v), v))


def test_canonical_torus_pinned_examples():
    assert canonical_torus_containing(CurveClass.of((0, 0, 1))).n == (0, 1, 0)
    # the documented pin for the axis case
    assert canonical_torus_containing(CurveClass.of((1, 0, 0))).n == (0, 0, 1)


def test_canonical_torus_matches_oracle():
    # the engine only passes standard basis vectors; there the rule agrees
    # with the minimal-max-entry oracle
    for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        c = CurveClass(v)
        assert canonical_torus_containing(c).n == oracle_canonical_annihilator(c)
    # everywhere else it is the torus through the curve and e1 (e2 for e1)
    for v in normalized_box(2):
        t = canonical_torus_containing(CurveClass(v))
        assert dot(t.n, v) == 0
        e = (0, 1, 0) if v == (1, 0, 0) else (1, 0, 0)
        n = cross(v, e)
        assert t.n == sign_normalize(tuple(x // content(n) for x in n))


@pytest.mark.parametrize("v", [(104729, 7919, 1), (10007, 9973, 9967)])
def test_canonical_torus_large_curves(v):
    # the rule is a closed form, so large entries cost no search
    t = canonical_torus_containing(CurveClass(v))
    assert contains(t, CurveClass(v))


def test_fibration_from_torus_coordinate():
    f = fibration_from_torus(TorusClass.of((0, 0, 1)))
    assert f.phi == (0, 0, 1)
    assert sorted(f.fiber_basis) == [(0, 1, 0), (1, 0, 0)]


def test_fibration_from_torus_skew():
    f = fibration_from_torus(TorusClass.of((1, -1, 1)))
    assert all(dot(f.phi, b) == 0 for b in f.fiber_basis)


def test_fibration_uniqueness():
    # equal torus classes give the same fibration; distinct classes never do
    tori = [TorusClass.of(v) for v in normalized_box(2)]
    fibs = [fibration_from_torus(t) for t in tori]
    for t1, f1 in zip(tori, fibs):
        for t2, f2 in zip(tori, fibs):
            assert (f1.phi == f2.phi) == (t1 == t2)


def test_fibration_validation():
    with pytest.raises(ValueError):
        FibrationOfT3(phi=(0, 0, 1), fiber_basis=((1, 0, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        # spans only an index-2 sublattice of the kernel
        FibrationOfT3(phi=(0, 0, 1), fiber_basis=((2, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        FibrationOfT3(phi=(0, 0, 1), fiber_basis=((1, 1, 0), (-2, -2, 0)))
    # either orientation of a kernel basis is accepted
    FibrationOfT3(phi=(0, 0, 1), fiber_basis=((0, 1, 0), (1, 0, 0)))


@given(primitive3, st.tuples(*[st.integers(-4, 4)] * 4))
def test_fibration_validation_matches_smith_form(phi, coeffs):
    # the cross-product check accepts exactly the kernel pairs whose Smith
    # form is (1, 1), i.e. the pairs that span the whole kernel lattice
    k1, k2 = kernel_basis(IntMatrix.from_rows([phi]))
    a, b, c, d = coeffs
    basis = tuple(tuple(x * u + y * w for u, w in zip(k1, k2)) for x, y in ((a, b), (c, d)))
    spans = smith_normal_form(IntMatrix.from_rows(basis)).diagonal == (1, 1)
    try:
        FibrationOfT3(phi=phi, fiber_basis=basis)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == spans


def test_contains_examples():
    assert contains(TorusClass.of((0, 0, 1)), CurveClass.of((1, 0, 0)))
    assert not contains(TorusClass.of((0, 0, 1)), CurveClass.of((0, 0, 1)))
    assert contains(TorusClass.of((1, -1, 1)), CurveClass.of((1, 1, 0)))


def test_dual_curve_examples():
    assert dual_curve(fibration_from_torus(TorusClass.of((0, 0, 1)))).v == (0, 0, 1)
    t = TorusClass.of((2, 3, 5))
    assert dot(t.n, dual_curve(fibration_from_torus(t)).v) == 1


@pytest.mark.parametrize("sign", [1, -1])
def test_dual_curve_of_hand_built_fibration(sign):
    # phi need not be sign-normalized: the curve pairs to 1 with the
    # normalized covector; the gcd answer (-1, 1, 0) is shifted along the
    # first basis vector off the first-coordinate axis
    phi = tuple(sign * x for x in (2, 3, 5))
    for basis in [((1, 1, -1), (3, -2, 0)), ((0, 5, -3), (-1, -1, 1))]:
        c = dual_curve(FibrationOfT3(phi=phi, fiber_basis=basis))
        assert dot((2, 3, 5), c.v) == 1


@given(primitive3)
def test_dual_curve_pairing(v):
    t = TorusClass.of(v)
    c = dual_curve(fibration_from_torus(t))
    assert dot(t.n, c.v) == 1


def test_dual_curve_large_entries():
    # the construction is a gcd computation, not a search
    t = TorusClass.of((987654321, 123456789, 55555556))
    assert dot(t.n, dual_curve(fibration_from_torus(t)).v) == 1


def test_act_examples():
    c = CurveClass.of((1, 2, 2)) if content((1, 2, 2)) == 1 else None
    assert act(IntMatrix.identity(3), c) == c
    swap = IntMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert act(swap, CurveClass.of((1, 0, 0))).v == (0, 1, 0)
    with pytest.raises(NotUnimodular):
        act(IntMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]), c)
    with pytest.raises(NotUnimodular):
        act(IntMatrix.identity(2), c)


def test_act_properties():
    rng = random.Random(11)
    for _ in range(200):
        m1 = random_unimodular(rng)
        m2 = random_unimodular(rng)
        a = random_curve(rng)
        b = random_curve(rng)
        t = TorusClass.of(random_curve(rng).v)
        assert contains(act(m1, t), act(m1, a)) == contains(t, a)
        assert act(m1 @ m2, a) == act(m1, act(m2, a))
        assert act(m1 @ m2, t) == act(m1, act(m2, t))
        if a != b:
            assert act(m1, torus_through(a, b)) == torus_through(act(m1, a), act(m1, b))
        # classes are unoriented, so the pairing is preserved up to sign
        assert abs(dot(act(m1, t).n, act(m1, dual_curve(fibration_from_torus(t))).v)) == 1


def test_saturation_equals_kernel_small_box():
    # torus_through(a, b) fibers with fiber lattice exactly the saturation of
    # the span of a and b; the acceptance suite runs the [-3,3] box
    from torusglue.lattice import saturate, solve

    classes = normalized_box(2)
    for a in classes:
        for b in classes:
            if a >= b or cross(a, b) == (0, 0, 0):
                continue
            fib = fibration_from_torus(torus_through(CurveClass(a), CurveClass(b)))
            assert dot(fib.phi, a) == 0 and dot(fib.phi, b) == 0
            sat = saturate([a, b])
            assert all(dot(fib.phi, s) == 0 for s in sat)
            m = IntMatrix.from_columns(sat)
            assert all(solve(m, v) is not None for v in fib.fiber_basis)


def test_dual_curve_check_survives_optimized_interpreter():
    # a wrong extended gcd must be caught even where assert statements are gone
    code = (
        "from torusglue import torus3\n"
        "torus3.xgcd = lambda a, b: (1, 0, 0)\n"
        "torus3.dual_curve(torus3.fibration_from_torus(torus3.TorusClass((2, 3, 5))))\n"
    )
    proc = run_python("-c", code, optimize=True)
    assert proc.returncode == 1
    assert "AssertionError: extended gcds gave (0, 0, 0), which pairs to 0" in proc.stderr
