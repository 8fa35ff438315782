import itertools
import math
import random

import pytest

from torusglue import surgery
from torusglue.enumeration import enumerate_gluings
from torusglue.gluing import GluingMap, find_fibration, glue
from torusglue.invariants import mayer_vietoris_h1
from torusglue.lattice import AbelianGroup, IntMatrix, NotUnimodular, dot, solve
from torusglue.pieces import (
    ExtensionCertificate,
    PieceKind,
    boundary_lambda,
    sample_piece,
    torus_times_disk,
)
from torusglue.surgery import (
    SURGERY_DISK_PAIR,
    LensSpace,
    MeridianConditionViolated,
    NotCoprime,
    SurgerySpec,
    classify_double_disk_gluing,
    generalized_fs_surgery,
    lens_class,
    lens_normalize,
    unknot_torus_surgery,
)
from torusglue.torus3 import CurveClass

from conftest import (
    congruence_oracle,
    coprime_slopes,
    random_lambda_stabilizer,
    random_unimodular,
    replaced,
)


def expected_h1(q):
    # H1(S^1 x L(q,p)) = Z + Z/q, degenerating to Z^2 at q = 0 and Z at q = 1
    if q == 0:
        return AbelianGroup(2, ())
    return AbelianGroup(1, (q,) if q >= 2 else ())


def test_lens_normalize_examples():
    assert lens_normalize(3, -1) == LensSpace(3, 2)
    assert lens_normalize(1, 7) == LensSpace(1, 0)
    assert lens_normalize(0, 1) == LensSpace(0, 1)
    assert lens_normalize(-5, 2) == LensSpace(5, 2)
    with pytest.raises(NotCoprime):
        lens_normalize(4, 2)
    with pytest.raises(NotCoprime):
        lens_normalize(0, 3)


def test_lens_space_validation():
    with pytest.raises(ValueError):
        LensSpace(3, 3)
    with pytest.raises(ValueError):
        LensSpace(0, 0)
    with pytest.raises(ValueError, match=r"^normalized q is nonnegative$"):
        LensSpace(-3, 1)
    with pytest.raises(NotCoprime):
        LensSpace(4, 2)
    with pytest.raises(ValueError, match=r"^p = 5 not reduced mod q = 1$"):
        LensSpace(1, 5)
    assert str(LensSpace(3, 2)) == "L(3,2)"


def test_lens_parameters_pass_the_integer_gate():
    with pytest.raises(TypeError):
        LensSpace(0, 1.0)
    with pytest.raises(TypeError):
        LensSpace(3.0, 2)
    lens = LensSpace(True, 0)
    assert str(lens) == "L(1,0)"
    assert type(lens.q) is int and type(lens.p) is int
    spec = SurgerySpec.from_slope(True, 0)
    assert type(spec.p) is int and spec.p == 1
    with pytest.raises(TypeError):
        SurgerySpec.from_slope(2.0, 3)


def all_normalized(q):
    if q == 0:
        return [LensSpace(0, 1)]
    if q == 1:
        return [LensSpace(1, 0)]
    return [LensSpace(q, p) for p in range(q) if math.gcd(p, q) == 1]


def test_lens_class_examples():
    # 2 * 4 = 8 = 1 mod 7, so (7,2) and (7,4) are inverse-related;
    # 2 * 3 = 6 = -1 mod 7, so (7,3) is the negative inverse of (7,2)
    assert lens_class(LensSpace(7, 4)) == lens_class(LensSpace(7, 3)) == LensSpace(7, 2)
    # the classical inequivalent pair
    assert lens_class(LensSpace(7, 1)) != lens_class(LensSpace(7, 2))
    assert lens_class(LensSpace(7, 6)) == LensSpace(7, 1)
    assert lens_class(LensSpace(5, 1)) == LensSpace(5, 1)
    assert lens_class(LensSpace(0, 1)) == LensSpace(0, 1)


def test_lens_class_matches_oracle_and_is_idempotent():
    for q in range(0, 31):
        spaces = all_normalized(q)
        for a in spaces:
            cls = lens_class(a)
            assert lens_class(cls) == cls
            assert congruence_oracle(q, a.p, cls.p)
            assert cls.p == min(b.p for b in spaces if congruence_oracle(q, a.p, b.p))
            for b in spaces:
                assert (cls == lens_class(b)) == congruence_oracle(q, a.p, b.p)


def test_surgery_spec_validation():
    with pytest.raises(NotCoprime):
        SurgerySpec.from_slope(2, 4)
    with pytest.raises(ValueError):
        SurgerySpec(
            p=2,
            q=3,
            gluing=GluingMap(IntMatrix.from_columns([(3, 2, 0), (1, 1, 0), (0, 1, 1)])),
        )
    with pytest.raises(ValueError):
        SurgerySpec(
            p=2,
            q=3,
            gluing=GluingMap(IntMatrix.from_columns([(2, 3, 0), (1, 1, 0), (0, 0, 1)])),
        )
    # shape and determinant are the gluing map's checks, messages included
    with pytest.raises(NotUnimodular, match=r"^gluing matrix must be 3x3$"):
        SurgerySpec(p=2, q=3, gluing=GluingMap(IntMatrix.from_columns([(3, 2), (1, 1)])))
    with pytest.raises(NotUnimodular, match=r"^gluing matrix has determinant 2$"):
        SurgerySpec(
            p=2,
            q=3,
            gluing=GluingMap(IntMatrix.from_columns([(3, 2, 0), (2, 2, 0), (0, 0, 1)])),
        )
    # a bare matrix is not a validated gluing map
    with pytest.raises(TypeError, match=r"^gluing must be a GluingMap, not IntMatrix$"):
        SurgerySpec(p=2, q=3, gluing=IntMatrix.from_columns([(3, 2, 0), (1, 1, 0), (0, 0, 1)]))
    spec = SurgerySpec.from_slope(2, 3)
    assert spec.gluing.m.column(0) == (3, 2, 0)
    assert spec.gluing.m.column(2) == (0, 0, 1)
    assert abs(spec.gluing.m.det()) == 1


def test_surgery_glues_by_its_specs_gluing_map():
    spec = SurgerySpec.from_slope(2, 3)
    x, _ = unknot_torus_surgery(spec)
    assert x.f is spec.gluing


def test_unknot_surgery_examples():
    _, lens = unknot_torus_surgery(SurgerySpec.from_slope(2, 3))
    assert lens == LensSpace(3, 2)
    # the trivial slope gives back S^1 x S^3
    x, lens = unknot_torus_surgery(SurgerySpec.from_slope(0, 1))
    assert lens == LensSpace(1, 0)
    assert mayer_vietoris_h1(x) == AbelianGroup(1, ())
    # the zero slope gives S^1 x S^1 x S^2
    x, lens = unknot_torus_surgery(SurgerySpec.from_slope(1, 0))
    assert lens == LensSpace(0, 1)
    assert mayer_vietoris_h1(x) == AbelianGroup(2, ())


def test_unknot_surgery_family_with_homology_crosscheck():
    for p, q in coprime_slopes():
        x, lens = unknot_torus_surgery(SurgerySpec.from_slope(p, q))
        assert lens == lens_normalize(q, p), (p, q)
        assert mayer_vietoris_h1(x) == expected_h1(lens.q), (p, q)


def test_completion_independence():
    results = set()
    for seed in range(-12, 12):
        x, lens = unknot_torus_surgery(SurgerySpec.from_slope(2, 3, seed=seed))
        results.add((lens, mayer_vietoris_h1(x)))
    assert len(results) == 1
    assert results.pop() == (LensSpace(3, 2), AbelianGroup(1, (3,)))


def _lens_by_solve(x):
    """The lens space read off by solving for the meridian's coordinates in
    the fiber basis (gamma, lambda) with the Smith-form solver."""
    gamma = find_fibration(x).cert_w.gamma.v
    lam = boundary_lambda(x.w).v
    meridian = x.f.m.apply(boundary_lambda(x.w_prime).v)
    q, p = solve(IntMatrix.from_columns([gamma, lam]), meridian)
    return lens_normalize(q, p)


def _lens_by_closed_form(x):
    """The lens space read off the glued meridian v = f(lambda') alone, with
    no fibration: q is the gcd of v's two entries off the first piece's
    lambda axis, and p is v's lambda entry mod q."""
    v = x.f.m.column(x.w_prime.lambda_index - 1)
    axis = x.w.lambda_index - 1
    return lens_normalize(math.gcd(*v[:axis], *v[axis + 1 :]), v[axis])


def test_classifier_matches_solve_on_random_disk_pairs():
    rng = random.Random(2027)
    pairs = [SURGERY_DISK_PAIR, (torus_times_disk(), torus_times_disk())]
    nontrivial = large = 0
    for k in range(2000):
        # small shears, or shears up to 300 that reach the 10^6 entry cap
        f = random_unimodular(rng, max_factors=30, coeff=3 if k % 4 < 2 else 300)
        x = glue(*pairs[k % 2], GluingMap(f))
        lens = classify_double_disk_gluing(x)
        assert lens == _lens_by_solve(x), f
        assert lens == _lens_by_closed_form(x), f
        nontrivial += lens.q >= 2
        large += lens.q > 1000
    assert nontrivial > 300 and large > 20  # not only S^3 and S^1 x S^2


def _enumerated_disk_pairs():
    for left, right in itertools.product((1, 2, 3), repeat=2):
        yield from enumerate_gluings(
            1, torus_times_disk(lambda_index=left), torus_times_disk(lambda_index=right)
        )
    yield from enumerate_gluings(2, *SURGERY_DISK_PAIR)


def test_classifier_matches_closed_form_on_enumerated_disk_pairs():
    # every lambda-index pair at N = 1 and the surgery pair at N = 2; all
    # these rows have q <= 2, so they test q and the lambda axis, while the
    # random gluings above reach q > 1000 and test p
    rows = nontrivial = 0
    for x in _enumerated_disk_pairs():
        lens = classify_double_disk_gluing(x)
        assert lens == _lens_by_closed_form(x), x.f.m
        rows += 1
        nontrivial += lens.q >= 2
    assert rows == 9 * 62 + 1077 and nontrivial > 0


def test_lens_class_is_unchanged_by_framing_changes():
    # a framing change of either piece that fixes its lambda up to sign is a
    # self-diffeomorphism, so f and A @ f @ B glue the same manifold, up to
    # orientation
    rng = random.Random(2029)
    pairs = [SURGERY_DISK_PAIR, (torus_times_disk(), torus_times_disk())]
    large = 0
    for k in range(1000):
        w, w_prime = pairs[k % 2]
        f = random_unimodular(rng, max_factors=30)
        a = random_lambda_stabilizer(rng, w.lambda_index - 1)
        b = random_lambda_stabilizer(rng, w_prime.lambda_index - 1)
        lens = classify_double_disk_gluing(glue(w, w_prime, GluingMap(f)))
        moved = classify_double_disk_gluing(glue(w, w_prime, GluingMap(a @ f @ b)))
        assert lens_class(moved) == lens_class(lens), (f, a, b)
        large += lens.q >= 5
    assert large > 20  # q = 5 is the first q with two lens classes


def test_classifier_raises_when_gamma_leaves_the_fiber_torus(monkeypatch):
    def gamma_off_the_torus(x):
        result = find_fibration(x)
        cert = result.cert_w
        # still a basis of Z^3, but gamma + alpha pairs to +-1 with phi
        moved = tuple(g + a for g, a in zip(cert.gamma.v, cert.alpha.v))
        bad = ExtensionCertificate(gamma=CurveClass.of(moved), lam=cert.lam, alpha=cert.alpha)
        return replaced(result, cert_w=bad)

    monkeypatch.setattr(surgery, "find_fibration", gamma_off_the_torus)
    with pytest.raises(AssertionError, match="not an integer combination"):
        unknot_torus_surgery(SurgerySpec.from_slope(2, 5))


def test_classify_rejects_other_pieces():
    x = glue(
        sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT),
        torus_times_disk(),
        GluingMap(IntMatrix.identity(3)),
    )
    with pytest.raises(ValueError):
        classify_double_disk_gluing(x)


def _meridian_gluing(ambient, knot, rng=None):
    """A gluing satisfying the lambda-to-lambda condition; randomized when
    an rng is supplied by post-composing a lambda-preserving framing change."""
    src = boundary_lambda(knot).v.index(1)
    dst = boundary_lambda(ambient).v.index(1)
    cols = [[0] * 3 for _ in range(3)]
    cols[src][dst] = 1
    for s, d in zip([i for i in range(3) if i != src], [i for i in range(3) if i != dst]):
        cols[s][d] = 1
    m = IntMatrix.from_columns(cols)
    if rng is not None:
        m = random_lambda_stabilizer(rng, dst) @ m
    return GluingMap(m)


def test_generalized_fs_surgery_validation():
    ambient = sample_piece(PieceKind.SURFACE_BUNDLE_OVER_TORUS)
    knot = sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT)
    with pytest.raises(ValueError):
        generalized_fs_surgery(knot, knot, _meridian_gluing(knot, knot))
    with pytest.raises(ValueError):
        generalized_fs_surgery(ambient, ambient, _meridian_gluing(ambient, ambient))
    bad = GluingMap(IntMatrix.identity(3))  # sends lambda' to t2, not lambda
    with pytest.raises(MeridianConditionViolated):
        generalized_fs_surgery(ambient, knot, bad)


def test_generalized_fs_surgery_accepts_lambda_sent_to_minus_lambda():
    ambient = sample_piece(PieceKind.SURFACE_BUNDLE_OVER_TORUS)
    knot = sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT)
    # lambda' = e2 goes to -e1 = -lambda, the same curve class as lambda
    flipped = GluingMap(IntMatrix.from_columns([(0, 1, 0), (-1, 0, 0), (0, 0, 1)]))
    x, result = generalized_fs_surgery(ambient, knot, flipped)
    assert x.f is flipped
    assert result.parallel_case


def test_generalized_fs_surgery_rejects_lambda_sent_to_another_curve():
    ambient = sample_piece(PieceKind.SURFACE_BUNDLE_OVER_TORUS)
    knot = sample_piece(PieceKind.KNOT_EXTERIOR_PRODUCT)
    # lambda' = e2 goes to (-1, -1, 0): primitive, but not +-lambda = +-e1
    sheared = GluingMap(IntMatrix.from_columns([(0, 1, 0), (-1, -1, 0), (0, 0, 1)]))
    with pytest.raises(
        MeridianConditionViolated,
        match=r"^gluing sends lambda to \(1, 1, 0\), not to \(1, 0, 0\)$",
    ):
        generalized_fs_surgery(ambient, knot, sheared)


def test_generalized_fs_surgery_fibers():
    rng = random.Random(53)
    ambient = sample_piece(PieceKind.SURFACE_BUNDLE_OVER_TORUS)
    for kind in (PieceKind.KNOT_EXTERIOR_PRODUCT, PieceKind.TORUS_TIMES_DISK):
        knot = sample_piece(kind)
        for _ in range(60):
            f = _meridian_gluing(ambient, knot, rng)
            x, result = generalized_fs_surgery(ambient, knot, f)
            # lambda maps to lambda, so the torus is picked, not spanned
            assert result.parallel_case
            assert dot(result.phi.phi, boundary_lambda(ambient).v) == 0


def test_fs_unknot_identity_homology():
    # gluing in T^2 x D^2 (the unknot case) yields the same H1 for every
    # admissible gluing, and it matches the canonical re-gluing
    rng = random.Random(59)
    ambient = sample_piece(PieceKind.SURFACE_BUNDLE_OVER_TORUS)
    knot = sample_piece(PieceKind.TORUS_TIMES_DISK)
    x0, _ = generalized_fs_surgery(ambient, knot, _meridian_gluing(ambient, knot))
    baseline = mayer_vietoris_h1(x0)
    for _ in range(60):
        x, _ = generalized_fs_surgery(ambient, knot, _meridian_gluing(ambient, knot, rng))
        assert mayer_vietoris_h1(x) == baseline
