"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; a pytest failure in a criterion is its FAIL line.
"""

import itertools
import json
import math
import random
import time
from itertools import combinations

from torusglue.cli import main
from torusglue.enumeration import enumerate_gluings
from torusglue.gluing import GluingMap, glue, find_fibration
from torusglue.invariants import euler_characteristic_glued, mayer_vietoris_h1
from torusglue.lattice import (
    AbelianGroup,
    IntMatrix,
    content,
    dot,
    is_primitive,
    saturate,
    smith_normal_form,
    solve,
)
from torusglue.pieces import PieceKind, boundary_lambda, sample_piece
from torusglue.surgery import (
    SURGERY_DISK_PAIR,
    LensSpace,
    SurgerySpec,
    lens_equivalent,
    unknot_torus_surgery,
)
from torusglue.torus3 import CurveClass, fibration_from_torus, sign_normalize, torus_through

from conftest import random_unimodular

DISK_PAIR_ROWS_AT_1 = 62  # pinned from the first full run of the N=1 enumeration


def coprime_slopes():
    return [
        (p, q)
        for p in range(-10, 11)
        for q in range(1, 11)
        if math.gcd(p, q) == 1
    ]


def test_criterion_1_lens_family(capsys):
    """surgery p q reports L(q,p) and homology returns Z + Z/q; sweep < 1 s."""
    slopes = coprime_slopes()
    start = time.perf_counter()
    for p, q in slopes:
        assert main(["surgery", str(p), str(q), "--format", "machine-readable"]) == 0
        report = json.loads(capsys.readouterr().out)
        lens = LensSpace(report["lens"]["q"], report["lens"]["p"])
        assert lens.q == q
        if q >= 2:
            assert lens.p == p % q
        expected = {"free_rank": 1, "torsion": [q] if q >= 2 else []}
        assert report["h1"] == expected, (p, q, report)
        assert report["consistent"] is True
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"sweep took {elapsed:.2f}s"
    with capsys.disabled():
        print(
            f"\n[acceptance 1] PASS lens-space family: {len(slopes)} slopes, "
            f"L(q,p) + H1 = Z + Z/q agree, {elapsed:.2f}s"
        )


def test_criterion_2_identity_surgery(capsys):
    """Slope (0, 1) is the identity surgery: L(1,0) with H1 = Z."""
    x, lens = unknot_torus_surgery(SurgerySpec.from_slope(0, 1))
    assert lens == LensSpace(1, 0)
    assert mayer_vietoris_h1(x) == AbelianGroup(1, ())
    assert main(["surgery", "0", "1", "--quiet"]) == 0
    assert capsys.readouterr().out == "L(1,0); H1 = Z; chi = 0; CONSISTENT\n"
    with capsys.disabled():
        print("[acceptance 2] PASS identity surgery: (0,1) -> L(1,0), H1 = Z")


def test_criterion_3_completion_independence(capsys):
    """20+ distinct unimodular completions of slope (2,3) give identical output."""
    results = set()
    completions = set()
    for seed in range(-10, 10):
        spec = SurgerySpec.from_slope(2, 3, seed=seed)
        completions.add(spec.completion.entries)
        x, lens = unknot_torus_surgery(spec)
        results.add((lens, mayer_vietoris_h1(x)))
    assert len(completions) >= 20
    assert results == {(LensSpace(3, 2), AbelianGroup(1, (3,)))}
    with capsys.disabled():
        print(
            f"[acceptance 3] PASS completion independence: {len(completions)} "
            "completions of (2,3), one output"
        )


def test_criterion_4_kernel_equals_saturation(capsys):
    """For every non-parallel primitive pair in [-3,3]^3, the fiber lattice of
    the spanned torus's fibration equals the saturation of the span; < 10 s."""
    start = time.perf_counter()
    prims = [v for v in itertools.product(range(-3, 4), repeat=3) if content(v) == 1]
    cache = {}
    pairs = 0
    for a in prims:
        a_cls = sign_normalize(a)
        for b in prims:
            b_cls = sign_normalize(b)
            if a_cls == b_cls:
                continue  # parallel
            key = (a_cls, b_cls) if a_cls < b_cls else (b_cls, a_cls)
            ok = cache.get(key)
            if ok is None:
                # both sides depend only on the unordered pair of classes
                fib = fibration_from_torus(
                    torus_through(CurveClass(key[0]), CurveClass(key[1]))
                )
                sat = saturate([key[0], key[1]])
                span = IntMatrix.from_columns(sat)
                ok = (
                    len(sat) == 2
                    # saturation inside the kernel ...
                    and all(dot(fib.phi, s) == 0 for s in sat)
                    # ... and the kernel inside the saturation
                    and all(solve(span, v) is not None for v in fib.fiber_basis)
                )
                cache[key] = ok
            assert ok, key
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"
    with capsys.disabled():
        print(
            f"[acceptance 4] PASS kernel = saturation: {pairs} ordered pairs "
            f"({len(cache)} class pairs), {elapsed:.2f}s"
        )


def test_criterion_5_fibration_totality(capsys):
    """1000+ random unimodular gluings across all piece-kind pairs fiber, with
    a primitive covector killing both lambda curves; zero failures."""
    rng = random.Random(271828)
    kind_pairs = list(itertools.product(PieceKind, repeat=2))
    per_pair = 112  # 9 * 112 = 1008 gluings
    total = 0
    for k1, k2 in kind_pairs:
        w, wp = sample_piece(k1), sample_piece(k2)
        for _ in range(per_pair):
            f = GluingMap(random_unimodular(rng, max_factors=20))
            result = find_fibration(glue(w, wp, f))
            phi = result.phi.phi
            assert is_primitive(phi)
            assert dot(phi, boundary_lambda(w).v) == 0
            assert dot(phi, f.m.apply(boundary_lambda(wp).v)) == 0
            total += 1
    assert total >= 1000
    with capsys.disabled():
        print(f"[acceptance 5] PASS fibration totality: {total} random gluings, 0 failures")


def test_criterion_6_chi_vanishes(capsys):
    """chi = 0 for every constructible glued manifold: the exhaustive N = 1
    enumeration for all piece-kind pairs plus a random suite."""
    checked = 0
    for k1, k2 in itertools.product(PieceKind, repeat=2):
        w, wp = sample_piece(k1), sample_piece(k2)
        for manifold in enumerate_gluings(1, w, wp):
            assert euler_characteristic_glued(manifold) == 0
            checked += 1
    rng = random.Random(314159)
    for _ in range(500):
        w = sample_piece(rng.choice(list(PieceKind)))
        wp = sample_piece(rng.choice(list(PieceKind)))
        x = glue(w, wp, GluingMap(random_unimodular(rng)))
        assert euler_characteristic_glued(x) == 0
        checked += 1
    # the disk-pair table itself is stable
    disk_rows = sum(1 for _ in enumerate_gluings(1, *SURGERY_DISK_PAIR))
    assert disk_rows == DISK_PAIR_ROWS_AT_1
    with capsys.disabled():
        print(f"[acceptance 6] PASS chi chain: {checked} glued manifolds, all chi = 0")


def _minors_gcd(m, k):
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix.from_rows([[m.entry(i, j) for j in cols] for i in rows])
            g = math.gcd(g, abs(sub.det()))
        if g == 1:
            return g  # the gcd can only stay 1
    return g


def test_criterion_7_snf_correctness(capsys):
    """10000 random matrices up to 5x5 with entries in [-9,9]: U A V = D,
    unimodular transforms, divisibility chain, determinantal divisors."""
    rng = random.Random(161803)
    for _ in range(10_000):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = IntMatrix(r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))
        s = smith_normal_form(a)
        assert (s.U @ a @ s.V).entries == s.D.entries
        assert abs(s.U.det()) == 1
        assert abs(s.V.det()) == 1
        diag = s.diagonal
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
        prod = 1
        for k in range(1, min(r, c) + 1):
            prod *= diag[k - 1]
            assert prod == _minors_gcd(a, k)
    with capsys.disabled():
        print("[acceptance 7] PASS Smith normal form: 10000 matrices, all invariants hold")


def _congruence_oracle(q, p, p2):
    if q <= 1:
        return True
    hits = {p % q, (-p) % q}
    for t in range(q):
        if (p * t) % q == 1:
            hits.update({t, (-t) % q})
    return p2 % q in hits


def test_criterion_8_lens_equivalence(capsys):
    """lens_equivalent matches the +-p^{+-1} congruence oracle for q <= 30 and
    is an equivalence relation."""
    checked = 0
    for q in range(0, 31):
        if q == 0:
            spaces = [LensSpace(0, 1)]
        elif q == 1:
            spaces = [LensSpace(1, 0)]
        else:
            spaces = [LensSpace(q, p) for p in range(q) if math.gcd(p, q) == 1]
        for a in spaces:
            assert lens_equivalent(a, a)
            for b in spaces:
                assert lens_equivalent(a, b) == _congruence_oracle(q, a.p, b.p)
                assert lens_equivalent(a, b) == lens_equivalent(b, a)
                checked += 1
                for c in spaces:
                    if lens_equivalent(a, b) and lens_equivalent(b, c):
                        assert lens_equivalent(a, c)
    with capsys.disabled():
        print(f"[acceptance 8] PASS lens equivalence: {checked} pairs vs oracle, q <= 30")
