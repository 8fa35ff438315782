"""Shared generators and helpers for the test suite."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from torusglue.lattice import IntMatrix, content, cross, dot
from torusglue.torus3 import CurveClass


def random_elementary(rng: random.Random, n: int = 3, coeff: int = 3) -> IntMatrix:
    """A random elementary matrix: shear, swap, or sign flip."""
    kind = rng.randrange(3)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if kind == 0:
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rng.choice([k for k in range(-coeff, coeff + 1) if k != 0])
    elif kind == 1:
        i, j = rng.sample(range(n), 2)
        rows[i][i] = rows[j][j] = 0
        rows[i][j] = rows[j][i] = 1
    else:
        i = rng.randrange(n)
        rows[i][i] = -1
    return IntMatrix.from_rows(rows)


def random_unimodular(
    rng: random.Random,
    n: int = 3,
    max_factors: int = 20,
    coeff: int = 3,
    entry_cap: int = 10**6,
) -> IntMatrix:
    """Product of at most max_factors elementary matrices, entries capped."""
    m = IntMatrix.identity(n)
    factors = rng.randint(0, max_factors)
    for _ in range(factors):
        candidate = m @ random_elementary(rng, n, coeff)
        if max(abs(x) for x in candidate.entries) > entry_cap:
            continue
        m = candidate
    return m


def random_lambda_stabilizer(
    rng: random.Random, index: int, max_factors: int = 12, coeff: int = 2
) -> IntMatrix:
    """A random unimodular matrix fixing the given 0-based axis up to sign.

    Generated from shears whose source column avoids the axis, the swap of
    the other two rows, and sign flips; every factor sends e_index to
    +-e_index, so the product is a framing change that preserves a piece's
    lambda curve as an unoriented class.
    """
    others = [i for i in range(3) if i != index]
    m = IntMatrix.identity(3)
    for _ in range(rng.randint(1, max_factors)):
        kind = rng.randrange(3)
        rows = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        if kind == 0:
            j = rng.choice(others)  # shear source must avoid the fixed axis
            i = rng.choice([r for r in range(3) if r != j])
            rows[i][j] = rng.choice([k for k in range(-coeff, coeff + 1) if k != 0])
        elif kind == 1:
            a, b = others
            rows[a][a] = rows[b][b] = 0
            rows[a][b] = rows[b][a] = 1
        else:
            i = rng.randrange(3)
            rows[i][i] = -1
        m = m @ IntMatrix.from_rows(rows)
    return m


def random_primitive_vector(rng: random.Random, bound: int = 4) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(3))
        if content(v) == 1:
            return v


def random_curve(rng: random.Random, bound: int = 4) -> CurveClass:
    return CurveClass.of(random_primitive_vector(rng, bound))


def coprime_slopes() -> list[tuple[int, int]]:
    """Every surgery slope p/q with |p| <= 10, 1 <= q <= 10, p and q coprime."""
    return [(p, q) for p in range(-10, 11) for q in range(1, 11) if math.gcd(p, q) == 1]


def minors_gcd(m: IntMatrix, k: int) -> int:
    """Independent oracle: gcd of all k x k minors."""
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix.from_rows([[m.row(i)[j] for j in cols] for i in rows])
            g = math.gcd(g, abs(sub.det()))
        if g == 1:
            return g  # the gcd can only stay 1
    return g


def in_span(v, b1, b2) -> bool:
    """Independent oracle: v is an integer combination of the independent
    vectors b1, b2 of Z^3.  With c = b1 x b2, Cramer's rule reads the
    coefficients off v x b2 = x c and b1 x v = y c.  Integer x, y that
    rebuild v prove membership whatever computed them, and for a vector off
    the plane or a fractional combination no integers do."""
    c = cross(b1, b2)
    cc = dot(c, c)
    x = dot(cross(v, b2), c) // cc
    y = dot(cross(b1, v), c) // cc
    return all(x * s + y * t == u for s, t, u in zip(b1, b2, v))


def congruence_oracle(q: int, p: int, p2: int) -> bool:
    """Exhaustive oracle: p2 = +-p or +-p^{-1} mod q, inverse found by scan."""
    if q <= 1:
        return True
    hits = {p % q, (-p) % q}
    for t in range(q):
        if (p * t) % q == 1:
            hits.update({t, (-t) % q})
    return p2 % q in hits


def replaced(value, **changes):
    """value with the given fields changed, built through its constructor
    with every field passed, so every check on the new value runs."""
    fields = {name: getattr(value, name) for name in type(value).__slots__}
    return type(value)(**(fields | changes))


def run_python(*args: str, optimize: bool = False) -> subprocess.CompletedProcess:
    """Run the interpreter on args with this checkout's src importable;
    optimize adds -O, which strips assert statements."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, *args], capture_output=True, text=True, env=env, timeout=120
    )
